import json

import numpy as np
import pytest

import mppkit.evaluation
import mppkit.linear
import mppkit.mlp
from conftest import make_dataset
from mppkit.data import generate_synthetic, stratified_kfold
from mppkit.evaluation import CrossValidationError, ModelSpec, cross_validate, fold_fits, resolve_params
from mppkit.linear import Standardization, _descend, add_bias, fit_logistic, predict_logistic_batch
from mppkit.mlp import (
    MlpModel,
    fit_mlp,
    fit_mlp_stack,
    mlp_loss_and_grads,
    predict_mlp_batch,
)
from mppkit.numeric import (
    SeededRng, cross_entropy, derive_seed, finite_difference_gradient, l2_penalty, one_hot, softmax,
)
from mppkit.serialize import to_document


def xor_dataset(n=200, seed=99):
    rng = SeededRng(seed)
    centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    labels = np.array([0, 0, 1, 1])
    idx = np.arange(n) % 4
    jitter = (np.asarray(rng.random((n, 2))) - 0.5) * 0.4
    return make_dataset(centers[idx] + jitter, labels[idx], n_classes=2)


class TestFitMlp:
    def test_xor_beats_any_linear_model(self):
        ds = xor_dataset()
        mlp = fit_mlp(ds, hidden=8, learning_rate=0.1, epochs=500, l2=1e-4, seed=3)
        mlp_acc = np.mean(predict_mlp_batch(mlp, ds.x)[0] == ds.y)
        logistic = fit_logistic(ds)
        lin_acc = np.mean(predict_logistic_batch(logistic, ds.x)[0] == ds.y)
        assert mlp_acc >= 0.95
        assert lin_acc <= 0.75

    def test_gradients_match_oracle(self):
        rng = SeededRng(1234)
        for trial in range(20):
            n, d, h = 20, 4, 3
            x = np.asarray(rng.random((n, d))) * 2 - 1
            y = rng.integers(0, 3, n)
            w1 = np.asarray(rng.normal((h, d + 1))) * 0.6
            w2 = np.asarray(rng.normal((3, h + 1))) * 0.6
            xb = add_bias(x)
            _, g1, g2 = mlp_loss_and_grads(w1, w2, xb, y, 1e-4)
            analytic = np.concatenate([g1.ravel(), g2.ravel()])

            def unpack(flat):
                return flat[: w1.size].reshape(w1.shape), flat[w1.size :].reshape(w2.shape)

            oracle = finite_difference_gradient(
                lambda flat: mlp_loss_and_grads(*unpack(flat), xb, y, 1e-4)[0],
                np.concatenate([w1.ravel(), w2.ravel()]),
                h=1e-6,
            )
            rel = np.linalg.norm(analytic - oracle) / max(np.linalg.norm(oracle), 1e-12)
            assert rel < 1e-4, f"trial {trial}: rel error {rel}"

    def test_loss_is_the_forward_pass_before_the_backprop(self):
        rng = SeededRng(77)
        xb = add_bias(np.asarray(rng.random((13, 4))) * 2 - 1)
        y = rng.integers(0, 3, 13)
        w1 = np.asarray(rng.normal((5, 5))) * 0.8
        w2 = np.asarray(rng.normal((3, 6))) * 0.8
        before = [a.copy() for a in (w1, w2, xb)]
        loss, _, _ = mlp_loss_and_grads(w1, w2, xb, y, 0.01)
        layer = np.hstack([np.tanh(xb @ w1.T), np.ones((13, 1))])
        probs = softmax(layer @ w2.T)
        expected = -np.log(probs[np.arange(13), y]).mean() + 0.5 * 0.01 * (
            np.sum(w1[:, :-1] ** 2) + np.sum(w2[:, :-1] ** 2)
        )
        assert loss == float(expected)
        for a, b in zip((w1, w2, xb), before):
            assert a.tobytes() == b.tobytes()

    def test_deterministic_for_fixed_seed(self):
        ds = generate_synthetic(90, 4, {0}, seed=20)
        cfg = dict(learning_rate=0.1, epochs=40, l2=1e-4, seed=17)
        a = fit_mlp(ds, hidden=6, **cfg)
        b = fit_mlp(ds, hidden=6, **cfg)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_seed_changes_weights(self):
        ds = generate_synthetic(90, 4, {0}, seed=20)
        a = fit_mlp(ds, hidden=6, epochs=10, l2=0.0, seed=1)
        b = fit_mlp(ds, hidden=6, epochs=10, l2=0.0, seed=2)
        assert not np.array_equal(a.w1, b.w1)

    def test_loss_history_non_increasing(self):
        ds = generate_synthetic(150, 5, {0, 2}, seed=31, noise=0.1)
        model = fit_mlp(ds, hidden=8, learning_rate=0.1, epochs=120, l2=1e-4, seed=2)
        diffs = np.diff(np.array(model.loss_history))
        assert np.all(diffs <= 1e-6)

    def test_rejects_bad_inputs(self):
        ds = generate_synthetic(30, 2, {0}, seed=1)
        with pytest.raises(ValueError):
            fit_mlp(ds, hidden=0)
        single = make_dataset(np.ones((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="single-class"):
            fit_mlp(single, hidden=4)


def reference_fit(ds, hidden, learning_rate, epochs, l2, batch_size, seed):
    """`fit_mlp` written out one weight matrix at a time, with the L2 term added to each non-bias block.

    Each minibatch and each loss pass computes on fresh arrays of its own
    rows, in `fit_mlp`'s order of operations; no buffer outlives a batch.
    It draws the initial weights and each epoch's permutation from the same
    seeded stream as `fit_mlp`, and runs its epochs through the same descent
    loop.  Returns the model, loss history included.
    """
    std = Standardization.fit(ds.x)
    xb = add_bias(std.apply(ds.x))
    k = ds.schema.n_classes
    targets = one_hot(ds.y, k)
    n, d1 = xb.shape
    rng = SeededRng(seed)
    w1 = np.asarray(rng.normal((hidden, d1))) / np.sqrt(d1)
    w2 = np.asarray(rng.normal((k, hidden + 1))) / np.sqrt(hidden + 1)

    def forward(w1, w2, x):
        layer = np.hstack([np.tanh(x @ w1.T), np.ones((x.shape[0], 1))])
        return layer, softmax(layer @ w2.T)

    def loss(w):
        return cross_entropy(forward(*w, xb)[1], ds.y) + l2_penalty(l2, *w), None

    def epoch(w, _, lr):
        w1, w2 = w[0].copy(), w[1].copy()
        perm = rng.permutation(n)
        xp, tp = xb[perm], targets[perm]
        for start in range(0, n, batch_size):
            x, t = xp[start : start + batch_size], tp[start : start + batch_size]
            layer, probs = forward(w1, w2, x)
            delta = (probs - t) / x.shape[0]
            g2 = delta.T @ layer
            g2[:, :-1] += l2 * w2[:, :-1]
            dz = (delta @ w2[:, :-1]) * (1.0 - layer[:, :-1] ** 2)
            g1 = dz.T @ x
            g1[:, :-1] += l2 * w1[:, :-1]
            w1 -= lr * g1
            w2 -= lr * g2
        return w1, w2

    (w1, w2), history, _ = _descend((w1, w2), learning_rate, epochs, loss, epoch, patience=10)
    return MlpModel(w1=w1, w2=w2, standardization=std, loss_history=tuple(history))


class TestReferenceStep:
    """`fit_mlp`, on its flat parameter buffer and the row windows of one layer buffer set,
    gives the bits of the per-matrix step on fresh per-batch arrays."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(45, 4, {0, 2}, seed=12, noise=0.1)  # 45 = 6 * 7 + 3 = 32 + 13 rows

    # one row a batch, partial last batches of 3 and 13 rows, one batch of all rows, and
    # a batch size past the row count
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 45, 50])
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("hidden", [1, 16])
    def test_weights_and_history_match_bit_for_bit(self, dataset, batch_size, l2, hidden):
        params = dict(hidden=hidden, learning_rate=1.5, epochs=12, l2=l2, batch_size=batch_size, seed=5)
        model = fit_mlp(dataset, **params)
        reference = reference_fit(dataset, **params)
        document, expected = (
            json.dumps(to_document(m, dataset.schema), sort_keys=True) for m in (model, reference)
        )
        assert document == expected
        assert model.loss_history == reference.loss_history


class TestSoftmaxCallsSeenByTracer:
    """Every softmax call goes through the module attribute, where a tracer's wrapper counts it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(np.shape(v))
            return softmax(v)

        monkeypatch.setattr(mppkit.mlp, "softmax", counted)
        monkeypatch.setattr(mppkit.linear, "softmax", counted)
        return calls

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(45, 4, {0, 2}, seed=12, noise=0.1)  # 45 = 6 * 7 + 3 rows

    def test_fit_mlp_calls_once_per_batch_and_once_per_loss_pass(self, dataset, calls):
        model = fit_mlp(dataset, hidden=6, learning_rate=0.5, epochs=9, batch_size=7, seed=3)
        epochs, batches = len(model.loss_history) - 1, 7
        assert len(calls) == (1 + epochs) + epochs * batches
        assert calls.count((45, 3)) == 1 + epochs
        assert calls.count((3, 3)) == epochs  # the partial last batch

    def test_fit_logistic_calls_once_per_loss_pass(self, dataset, calls):
        model = fit_logistic(dataset, learning_rate=0.5, epochs=9)
        assert len(calls) == 1 + (len(model.loss_history) - 1)


def assert_same_fit(model, expected):
    """The two MLP fits agree bit for bit: weights, loss history, rejected steps and stop reason."""
    for name in ("w1", "w2"):
        got, want = getattr(model, name), getattr(expected, name)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
    assert model.loss_history == expected.loss_history
    assert (model.rejected_steps, model.stop_reason) == (expected.rejected_steps, expected.stop_reason)


class TestFoldStack:
    """`fit_mlp_stack` trains several problems in lockstep, and each model has the bits of
    `fit_mlp` on its own problem; the CV driver stacks the MLP's folds through it."""

    @pytest.fixture(scope="class")
    def problems(self):
        # three problems of one shape; 45 = 6 * 7 + 3 = 32 + 13 rows
        return [generate_synthetic(45, 4, {0, 2}, seed=seed, noise=0.1) for seed in (12, 13, 14)]

    # one row a batch, partial last batches of 3 and 13 rows, and one batch of all rows
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 45])
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("hidden", [1, 16])
    def test_each_model_is_its_own_fit(self, problems, batch_size, l2, hidden):
        params = dict(hidden=hidden, learning_rate=1.5, epochs=12, l2=l2, batch_size=batch_size)
        seeds = [5, 6, 7]
        models = fit_mlp_stack(problems, seeds, **params)
        assert len(models) == 3
        for model, dataset, seed in zip(models, problems, seeds):
            assert_same_fit(model, fit_mlp(dataset, **params, seed=seed))

    def test_problems_stopped_by_patience_leave_the_others_running(self):
        # the last problem stops first, then the first; the middle one runs its
        # whole budget alone, from the front of the stacked buffers
        problems = [generate_synthetic(40, 3, {0}, seed=seed, noise=noise)
                    for seed, noise in ((0, 0.0), (1, 0.3), (2, 0.3))]
        params = dict(hidden=2, learning_rate=2.0, epochs=150, l2=0.5, batch_size=16)
        models = fit_mlp_stack(problems, [1, 2, 3], **params)
        stops = [(len(m.loss_history) - 1, m.stop_reason) for m in models]
        assert stops == [(73, "patience"), (150, "epochs"), (67, "patience")]
        for model, dataset, seed in zip(models, problems, [1, 2, 3]):
            assert_same_fit(model, fit_mlp(dataset, **params, seed=seed))

    def test_cv_stacks_the_folds_of_each_training_row_count(self, monkeypatch):
        dataset = generate_synthetic(301, 4, {0, 1}, seed=8, noise=0.1)
        plan = stratified_kfold(dataset, 5, 3)
        everything = np.arange(dataset.n)
        train_sizes = [dataset.n - len(fold) for fold in plan.folds]
        stacks = []

        def counted(datasets, seeds, **params):
            stacks.append(len(seeds))
            return fit_mlp_stack(datasets, seeds, **params)

        monkeypatch.setattr(mppkit.evaluation, "fit_mlp_stack", counted)
        params = resolve_params("mlp", {"epochs": 20})
        folds = list(fold_fits("mlp", params, dataset, plan))
        assert sorted(stacks) == sorted(train_sizes.count(size) for size in set(train_sizes))
        assert len(stacks) == 2  # 301 rows do not split into five equal folds
        for f, (test_idx, model, labels) in enumerate(folds):
            expected = fit_mlp(dataset.subset(np.setdiff1d(everything, test_idx)), **params,
                               seed=derive_seed(3, f))
            assert_same_fit(model, expected)
            assert np.array_equal(labels, predict_mlp_batch(expected, dataset.x[test_idx])[0])

    def test_a_failing_stack_reports_the_fold_that_fold_by_fold_fits_report(self, monkeypatch):
        # every fold's first minibatch overflows; the stack raises, and the
        # folds are refitted one by one to name the first that fails
        dataset = generate_synthetic(90, 3, {0}, seed=1)
        params = resolve_params("mlp", {"learning_rate": 1e300, "epochs": 5})
        plan = stratified_kfold(dataset, 3, 2)
        expected = None
        with np.errstate(all="ignore"):
            for f, fold in enumerate(plan.folds):
                train = dataset.subset(np.setdiff1d(np.arange(dataset.n), fold))
                try:
                    model = fit_mlp(train, **params, seed=derive_seed(2, f))
                    predict_mlp_batch(model, dataset.x[fold])
                except Exception as exc:
                    expected = f"fold {f}: {exc}"
                    break
            fits, fit_predictor = [], mppkit.evaluation.fit_predictor

            def counted(name, *args):
                fits.append(name)
                return fit_predictor(name, *args)

            monkeypatch.setattr(mppkit.evaluation, "fit_predictor", counted)
            with pytest.raises(CrossValidationError) as caught:
                cross_validate(ModelSpec("mlp", {"learning_rate": 1e300, "epochs": 5}), dataset, k=3, seed=2)
        assert expected == "fold 0: softmax requires finite input"
        assert str(caught.value) == expected
        assert fits == ["mlp"]  # the refit stopped at the failing fold

    def test_unlike_problems_are_refused(self, problems):
        params = dict(hidden=2, learning_rate=0.1, epochs=2, l2=0.0, batch_size=8)
        with pytest.raises(ValueError, match="equal row, feature and class counts"):
            fit_mlp_stack([problems[0], generate_synthetic(44, 4, {0}, seed=1)], [1, 2], **params)
        with pytest.raises(ValueError, match="2 datasets and 1 seeds"):
            fit_mlp_stack(problems[:2], [1], **params)
        assert fit_mlp_stack([], [], **params) == ()


class TestPredictMlp:
    def test_zero_output_weights_give_uniform_probs(self):
        std = Standardization(mean=np.zeros(2), std=np.ones(2))
        model = MlpModel(w1=np.ones((4, 3)), w2=np.zeros((3, 5)), standardization=std)
        assert (model.h, model.n_classes, model.d) == (4, 3, 2)  # read off the weight shapes
        labels, probs = predict_mlp_batch(model, np.array([[0.4, -1.2]]))
        assert np.allclose(probs, [[1 / 3] * 3], atol=1e-15)
        assert labels.tolist() == [0]

    def test_in_sample_prediction_matches_training(self):
        ds = xor_dataset()
        model = fit_mlp(ds, hidden=8, learning_rate=0.1, epochs=500, l2=1e-4, seed=3)
        rows = [0, 1, 2, 3, 100]
        assert np.array_equal(predict_mlp_batch(model, ds.x[rows])[0], ds.y[rows])

    def test_batch_matches_single(self):
        ds = generate_synthetic(50, 3, {0}, seed=40)
        model = fit_mlp(ds, hidden=5, epochs=30, l2=0.0, seed=4)
        labels, probs = predict_mlp_batch(model, ds.x)
        std = model.standardization
        for i in range(0, 50, 11):
            # reference: the network's formula written out for one row
            z = np.append((ds.x[i] - std.mean) / std.std, 1.0)
            hidden = np.append(np.tanh(model.w1 @ z), 1.0)
            expected = softmax(model.w2 @ hidden)
            assert np.argmax(expected) == labels[i]
            assert np.allclose(expected, probs[i], atol=1e-12)

    def test_dimension_mismatch(self):
        ds = generate_synthetic(30, 3, {0}, seed=2)
        model = fit_mlp(ds, hidden=4, epochs=5, l2=0.0, seed=1)
        with pytest.raises(ValueError, match="dimension"):
            predict_mlp_batch(model, np.array([[1.0]]))
