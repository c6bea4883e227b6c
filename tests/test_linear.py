import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env, make_dataset
from mppkit.data import generate_synthetic
from mppkit.linear import (
    LogisticModel,
    Standardization,
    _svm_evaluate,
    _svm_subgradient,
    add_bias,
    fit_logistic,
    fit_svm,
    logistic_grad,
    logistic_loss,
    predict_logistic_batch,
    predict_svm_batch,
)
from mppkit.linear import SvmModel
from mppkit.numeric import SeededRng, finite_difference_gradient


def two_class_toy():
    x = np.array([[-1.0]] * 20 + [[1.0]] * 20)
    y = np.array([0] * 20 + [1] * 20)
    return make_dataset(x, y, n_classes=2)


class TestDescentHyperparameters:
    def test_validation(self):
        # the step size, epoch count and penalty each trainer checks before it starts
        ds = two_class_toy()
        for fit, name in ((fit_logistic, "logistic"), (fit_svm, "svm")):
            with pytest.raises(ValueError, match=f"'learning_rate' of model '{name}' must be a positive"):
                fit(ds, learning_rate=0.0)
            with pytest.raises(ValueError, match=f"'epochs' of model '{name}' must be an integer >= 1"):
                fit(ds, epochs=0)
        with pytest.raises(ValueError, match="'l2' of model 'logistic' must be a non-negative"):
            fit_logistic(ds, l2=-1.0)


class TestFitLogistic:
    def test_separable_toy_reaches_perfect_accuracy(self):
        ds = two_class_toy()
        model = fit_logistic(ds)
        labels, _ = predict_logistic_batch(model, ds.x)
        assert np.mean(labels == ds.y) == 1.0

    def test_single_class_rejected(self):
        ds = make_dataset(np.ones((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="single-class"):
            fit_logistic(ds)

    def test_empty_rejected(self):
        ds = make_dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            fit_logistic(ds)

    def test_loss_history_non_increasing_at_default_rate(self):
        ds = generate_synthetic(150, 5, {0, 1}, seed=21, noise=0.1)
        model = fit_logistic(ds)
        diffs = np.diff(np.array(model.loss_history))
        assert np.all(diffs <= 0)

    def test_deterministic(self):
        ds = generate_synthetic(80, 4, {0}, seed=3)
        a = fit_logistic(ds)
        b = fit_logistic(ds)
        assert np.array_equal(a.weights, b.weights)

    def test_analytic_gradient_matches_oracle(self):
        rng = SeededRng(42)
        for trial in range(20):
            n = 5 + int(rng.integers(0, 46))
            d = 1 + int(rng.integers(0, 10))
            x = np.asarray(rng.random((n, d))) * 4 - 2
            y = rng.integers(0, 3, n)
            w = np.asarray(rng.normal((3, d + 1)))
            xb = add_bias(x)
            analytic = logistic_grad(w, xb, y, 1e-3)
            oracle = finite_difference_gradient(
                lambda v: logistic_loss(v, xb, y, 1e-3), w, h=1e-6
            )
            rel = np.linalg.norm(analytic - oracle) / max(np.linalg.norm(oracle), 1e-12)
            assert rel < 1e-4, f"trial {trial}: rel error {rel}"


class TestPredictLogistic:
    def test_binary_tie_goes_to_class_one(self):
        # all-zero weights give p1 = 0.5 exactly; Eq-style rule labels it 1
        std = Standardization(mean=np.zeros(2), std=np.ones(2))
        model = LogisticModel(weights=np.zeros((2, 3)), standardization=std)
        labels, probs = predict_logistic_batch(model, np.array([[0.3, -0.7]]))
        assert probs[0, 1] == 0.5
        assert labels.tolist() == [1]

    def test_binary_rule_matches_threshold_everywhere(self):
        rng = SeededRng(7)
        std = Standardization(mean=np.zeros(1), std=np.ones(1))
        model = LogisticModel(weights=np.asarray(rng.normal((2, 2))), standardization=std)
        x = np.asarray(rng.random((300, 1))) * 6 - 3
        labels, probs = predict_logistic_batch(model, x)
        assert np.array_equal(labels, np.where(probs[:, 1] >= 0.5, 1, 0))

    def test_all_zero_weights_three_class(self):
        std = Standardization(mean=np.zeros(2), std=np.ones(2))
        model = LogisticModel(weights=np.zeros((3, 3)), standardization=std)
        labels, probs = predict_logistic_batch(model, np.array([[1.0, 2.0]]))
        assert np.allclose(probs, [[1 / 3] * 3], atol=1e-15)
        assert labels.tolist() == [0]

    def test_class_count_is_the_number_of_weight_rows(self):
        # three rows are three classes, labelled by argmax: the 2-class p1 >= 0.5 rule
        # would label the second row 0
        std = Standardization(mean=np.zeros(1), std=np.ones(1))
        model = LogisticModel(weights=np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]), standardization=std)
        assert (model.n_classes, model.d) == (3, 1)
        labels, probs = predict_logistic_batch(model, np.array([[2.0], [-2.0]]))
        assert probs[1, 1] < 0.5
        assert labels.tolist() == np.argmax(probs, axis=1).tolist() == [0, 2]

    def test_dominant_class_two(self):
        std = Standardization(mean=np.zeros(1), std=np.ones(1))
        w = np.zeros((3, 2))
        w[2, 1] = 10.0  # bias pushes class 2 up by +10
        model = LogisticModel(weights=w, standardization=std)
        labels, probs = predict_logistic_batch(model, np.array([[0.0]]))
        assert labels.tolist() == [2]
        assert probs[0, 2] > 0.99

    def test_dimension_mismatch(self):
        ds = two_class_toy()
        model = fit_logistic(ds)
        with pytest.raises(ValueError, match="dimension"):
            predict_logistic_batch(model, np.array([[1.0, 2.0]]))

    def test_standardization_uses_fit_time_stats_only(self):
        ds = generate_synthetic(90, 4, {0}, seed=12)
        model = fit_logistic(ds)
        before = predict_logistic_batch(model, ds.x)
        # build and fit an unrelated dataset with shuffled columns; the
        # first model must be unaffected
        other = generate_synthetic(90, 4, {1}, seed=99)
        fit_logistic(other)
        after = predict_logistic_batch(model, ds.x)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])


def row_hinge_loss(y: float, fx: float) -> float:
    """max(0, 1 - y*f(x)) of one row with sign label y, as the SVM objective computes it.

    A bias-only weight vector has no L2 penalty, so the objective is the hinge loss alone.
    """
    return _svm_evaluate(np.array([1.0]), np.array([[fx]]), np.array([float(y)]), 1.0)[0]


class TestHingeLoss:
    def test_margin_satisfied(self):
        assert row_hinge_loss(1, 2.0) == 0.0

    def test_on_boundary_score_zero(self):
        assert row_hinge_loss(1, 0.0) == 1.0

    def test_negative_label_positive_score(self):
        assert row_hinge_loss(-1, 0.5) == 1.5

    def test_non_negative_and_zero_region(self):
        rng = SeededRng(33)
        for _ in range(500):
            y = 1 if rng.random() < 0.5 else -1
            fx = rng.random() * 8 - 4
            loss = row_hinge_loss(y, fx)
            assert loss >= 0.0
            assert (loss == 0.0) == (y * fx >= 1.0)


class TestFitSvm:
    def test_separable_toy(self):
        ds = two_class_toy()
        model = fit_svm(ds, learning_rate=0.2, epochs=500)
        labels = predict_svm_batch(model, ds.x)
        assert np.mean(labels == ds.y) == 1.0
        zb = add_bias(model.standardization.apply(ds.x))
        margins = zb @ model.weights.T
        for c in range(2):
            t = np.where(ds.y == c, 1.0, -1.0)
            assert np.maximum(0.0, 1.0 - t * margins[:, c]).mean() < 1e-3

    def test_heavier_regularization_shrinks_weights(self):
        ds = generate_synthetic(200, 5, {0, 1}, seed=3)
        norms = [
            float(np.linalg.norm(fit_svm(ds, reg_c=rc).weights[:, :-1]))
            for rc in (0.5, 5.0, 50.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_deterministic(self):
        ds = generate_synthetic(60, 3, {0}, seed=8)
        assert np.array_equal(fit_svm(ds).weights, fit_svm(ds).weights)

    def test_invalid_reg_c(self):
        with pytest.raises(ValueError):
            fit_svm(two_class_toy(), reg_c=0.0)

    def test_single_class_rejected(self):
        ds = make_dataset(np.ones((5, 1)), np.ones(5, dtype=int))
        with pytest.raises(ValueError, match="single-class"):
            fit_svm(ds)


class TestPredictSvm:
    def _margin_model(self, margins):
        # bias-only weights reproduce any fixed margin vector at x = 0
        w = np.zeros((3, 2))
        w[:, 1] = margins
        std = Standardization(mean=np.zeros(1), std=np.ones(1))
        return SvmModel(weights=w, reg_c=1.0, standardization=std)

    def test_largest_margin_wins(self):
        model = self._margin_model([0.2, 0.9, -1.0])
        assert (model.n_classes, model.d) == (3, 1)  # read off the weight shape
        assert predict_svm_batch(model, np.array([[0.0]])).tolist() == [1]

    def test_all_equal_margins_tie_to_zero(self):
        model = self._margin_model([0.4, 0.4, 0.4])
        assert predict_svm_batch(model, np.array([[0.0]])).tolist() == [0]

    def test_uniform_positive_scaling_keeps_label(self):
        rng = SeededRng(10)
        for _ in range(50):
            margins = np.asarray(rng.normal(3))
            model = self._margin_model(margins)
            scaled = self._margin_model(margins * 7.5)
            x = np.array([[0.0]])
            assert np.array_equal(predict_svm_batch(model, x), predict_svm_batch(scaled, x))

    def test_dimension_mismatch(self):
        model = self._margin_model([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension"):
            predict_svm_batch(model, np.array([[1.0, 2.0]]))


def row_by_row_subgradient(w, signed, xb, t, reg_c):
    """`_svm_subgradient` as plain Python floats: each active row times its label, added in row order."""
    n, d1 = xb.shape
    g = [0.0] * d1
    for i in range(n):
        coef = float(t[i]) * float(signed[i] < 1.0)
        for j in range(d1):
            g[j] += float(xb[i, j]) * coef
    g = [v / -n for v in g]
    g[:-1] = [v + reg_c * float(wj) for v, wj in zip(g[:-1], w[:-1])]
    return np.array(g)


def subgradient_cases():
    """(w, signed, xb, t) for every shape of TestSvmSubgradient, each margin pattern in turn.

    The margins of each shape are drawn around 1.0 with some exactly 1.0
    (inactive), then all made active, then none; the features span twelve
    orders of magnitude, so that a change of summation order shows.
    """
    rng = np.random.default_rng(20)
    for n in (1, 2, 7, 8, 300, 2001):
        for d1 in (2, 3, 11, 21, 64):
            xb = rng.standard_normal((n, d1)) * 10.0 ** rng.integers(-6, 7, size=(n, d1))
            xb[:, -1] = 1.0
            t = rng.choice([-1.0, 1.0], size=n)
            w = rng.standard_normal(d1)
            signed = 1.0 + rng.standard_normal(n)
            signed[rng.random(n) < 0.25] = 1.0
            for margins in (signed, np.full(n, -3.0), np.full(n, 1.0)):
                yield w, margins, xb, t


def subgradient_digest() -> str:
    """sha256 of `_svm_subgradient`'s bytes over every case of `subgradient_cases`."""
    digest = hashlib.sha256()
    for w, signed, xb, t in subgradient_cases():
        digest.update(_svm_subgradient(w, signed, xb, t, 0.5).tobytes())
    return digest.hexdigest()


class TestSvmSubgradient:
    """The subgradient adds the active rows in row order: its bits are those of a plain-Python sum."""

    def test_equals_the_row_by_row_sum(self):
        for w, signed, xb, t in subgradient_cases():
            got = _svm_subgradient(w, signed, xb, t, 0.5)
            expected = row_by_row_subgradient(w, signed, xb, t, 0.5)
            assert got.tobytes() == expected.tobytes(), xb.shape

    def test_signed_zero_coefficients(self):
        # no row active: every coefficient is +-0.0, every product a signed
        # zero, and the weights, which start at +0.0, stay there
        xb = add_bias(np.array([[2.0, -3.0], [-1.0, 0.5], [4.0, 1.0]]))
        t = np.array([-1.0, 1.0, -1.0])
        w = np.zeros(3)
        g = _svm_subgradient(w, np.full(3, 5.0), xb, t, 1.0)
        assert np.array_equal(g, np.zeros(3))
        assert not np.signbit(w - 0.01 * g).any()

    def test_same_bits_without_avx512(self):
        # numpy's AVX512 kernels switched off in a child process, as on an
        # AVX2-only CPU (ROADMAP item 1); on a CPU without them the child
        # runs the native kernels and the check holds trivially
        env = cli_env()
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_linear; "
                "print(test_linear.subgradient_digest())")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == subgradient_digest()
