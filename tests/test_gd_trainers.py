"""Behaviour shared by the three gradient-descent trainers (logistic, SVM, MLP).

Golden digests pin the fitted models bit for bit; the remaining tests pin the
shared descent loop's stops and its reject-and-halve step control at the
edge where a step overflows.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from mppkit.data import generate_synthetic, load_dataset, load_schema
from mppkit.linear import _descend, fit_logistic, fit_svm, predict_logistic_batch, predict_svm_batch
from mppkit.mlp import fit_mlp, predict_mlp_batch
from mppkit.serialize import to_document


def _digest(model):
    """sha256 of the model document with the loss history beside it.

    The documents of these three model types do not carry `loss_history`,
    so it is added here: a changed step decision shows even where the final
    weights happen to agree.
    """
    schema = load_schema(FIXTURE_DIR / "fixture_schema.json")
    doc = {"document": to_document(model, schema), "loss_history": model.loss_history}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _histories(model):
    """Loss histories of a model: one per class for the SVM, else the one."""
    history = model.loss_history
    return history if isinstance(history[0], tuple) else (history,)


@pytest.fixture(scope="module")
def fixture_dataset():
    schema = load_schema(FIXTURE_DIR / "fixture_schema.json")
    return load_dataset(FIXTURE_DIR / "fixture.csv", schema)


class TestGoldenModels:
    """Model documents and loss histories fitted on the fixture, pinned by sha256.

    The digests were recorded once `linear._design` gave the trainers
    C-ordered rows whatever the dataset's layout; the fixture's loaded
    matrix is F-ordered.  Each trainer has a run at its CV defaults; the
    second column is the model's `rejected_steps`, the steps `_descend`
    rejected and halved (one count per class for the SVM), and every
    trainer has at least one run with some.
    The SVM's 43 rejections all fall in class 1, whose history repeats a loss
    162 times: at its last step sizes, accepted steps no longer move the loss.
    """

    CASES = {
        "logistic_default": (
            lambda ds: fit_logistic(ds),
            0,
            "3e6c8760e1a01d0923f9050a130011d3a6b4f14b55f3db43eb2c74d52455d3f2",
        ),
        "logistic_halving": (
            lambda ds: fit_logistic(ds, learning_rate=50.0, epochs=60, l2=1e-3),
            3,
            "950c677354868b8ce3f80c2d2a88a82fa1580681a7ec76ffc21ea5a805e8f40f",
        ),
        "svm_default": (
            lambda ds: fit_svm(ds),
            (0, 43, 0),
            "e97a37406108c3b5c1d491645f33e3287ecf3fda8452564d8f1aae6c14ea441e",
        ),
        "mlp_default": (
            lambda ds: fit_mlp(ds, learning_rate=0.1, epochs=500, l2=1e-4, seed=7),
            1,
            "af6220bfe6464c6c795d6d17349c74a6548b50ea94b8c91f63acb9b092158ad4",
        ),
        "mlp_halving": (
            lambda ds: fit_mlp(
                ds, hidden=8, learning_rate=2.0, epochs=20, l2=1e-4, seed=3, batch_size=50
            ),
            2,
            "01bfb7407467902ac4c793437fd6aff1eaf414eaad8ff3a49ebfe72aa4a36d92",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_document(self, fixture_dataset, case):
        fit, rejected_steps, expected = self.CASES[case]
        model = fit(fixture_dataset)
        assert model.rejected_steps == rejected_steps
        assert _digest(model) == expected


class TestMemoryLayout:
    """A model's bits, and its predictions, do not depend on the memory order of the rows.

    A loaded dataset's matrix is F-ordered and a fold subset's C-ordered;
    numpy reduces the columns of the one pairwise and the rows of the other
    in order, so z-scoring them as they come gives each other last bits.
    """

    FITS = {
        "logistic": (fit_logistic, predict_logistic_batch),
        "svm": (fit_svm, predict_svm_batch),
        "mlp": (lambda ds: fit_mlp(ds, epochs=30, seed=7), predict_mlp_batch),
    }

    @pytest.mark.parametrize("name", list(FITS))
    def test_f_and_c_ordered_rows_give_the_same_bits(self, fixture_dataset, name):
        fit, predict = self.FITS[name]
        c_ordered = fixture_dataset.subset(np.arange(fixture_dataset.n))
        assert fixture_dataset.x.flags.f_contiguous and not fixture_dataset.x.flags.c_contiguous
        assert c_ordered.x.flags.c_contiguous
        model = fit(fixture_dataset)
        assert _digest(model) == _digest(fit(c_ordered))
        outputs = [predict(model, order(fixture_dataset.x)) for order in (np.asfortranarray, np.ascontiguousarray)]
        outputs = [out if isinstance(out, tuple) else (out,) for out in outputs]
        assert [a.tobytes() for a in outputs[0]] == [a.tobytes() for a in outputs[1]]


class TestDescentStops:
    """The two stops of `linear._descend` besides the epoch budget, and the stop reason it reports."""

    def test_step_size_floor(self):
        # every proposal is nan, so each epoch halves the step from 1.0 until
        # 2**-50 < 1e-15; the weights and the recorded loss never move
        steps = []

        def step(w, forward, lr):
            steps.append(lr)
            return w + 1.0

        w, history, (rejections, stop_reason) = _descend(
            0.0, 1.0, 1000, lambda w: (2.0 if w == 0.0 else float("nan"), None), step
        )
        assert w == 0.0
        assert history == [2.0] * 51
        assert rejections == 50
        assert stop_reason == "step_floor"
        assert steps == [2.0**-i for i in range(50)]

    @pytest.mark.parametrize("patience", [1, 3, 10])
    def test_patience(self, patience):
        # a constant loss accepts every step but never beats the best
        w, history, (rejections, stop_reason) = _descend(
            0, 0.1, 1000, lambda w: (1.0, None), lambda w, _, lr: w + 1, patience
        )
        assert w == patience
        assert history == [1.0] * (patience + 1)
        # every step was accepted, though each repeats the loss in the history
        assert rejections == 0
        assert stop_reason == "patience"

    def test_patience_counts_from_the_last_gain(self):
        losses = [5.0, 4.0, 4.0, 3.0, 3.0, 3.0 - 1e-8, 3.0]
        w, history, (rejections, stop_reason) = _descend(
            0, 0.1, 1000, lambda w: (losses[w], None), lambda w, _, lr: w + 1, 2
        )
        assert history == [5.0, 4.0, 4.0, 3.0, 3.0, 3.0 - 1e-8]
        assert rejections == 0
        assert stop_reason == "patience"

    def test_no_patience_runs_every_epoch(self):
        w, history, (rejections, stop_reason) = _descend(
            0, 0.1, 40, lambda w: (1.0, None), lambda w, _, lr: w + 1
        )
        assert w == 40 and len(history) == 41 and rejections == 0
        assert stop_reason == "epochs"

    def test_a_stop_rule_outranks_the_last_epoch(self):
        # patience 3 and the floor (1.0 halved to 2**-50) both fire on the
        # last epoch of the budget; the reason names the rule, not the budget
        _, history, (_, stop_reason) = _descend(
            0, 0.1, 3, lambda w: (1.0, None), lambda w, _, lr: w + 1, 3
        )
        assert (len(history), stop_reason) == (4, "patience")
        _, history, (_, stop_reason) = _descend(
            0.0, 1.0, 50, lambda w: (2.0 if w == 0.0 else float("nan"), None), lambda w, _, lr: w + 1.0
        )
        assert (len(history), stop_reason) == (51, "step_floor")

    def test_mlp_stops_early_through_the_public_api(self):
        # a step too small to move the loss by 1e-7: 10 epochs, then the stop
        model = fit_mlp(generate_synthetic(60, 3, {0}, seed=1), learning_rate=1e-12, epochs=100, seed=1)
        assert len(model.loss_history) == 11
        assert model.stop_reason == "patience"

    def test_every_trainer_keeps_its_stop_reason(self):
        dataset = generate_synthetic(60, 3, {0}, seed=1)
        assert fit_logistic(dataset, epochs=7).stop_reason == "epochs"
        assert fit_mlp(dataset, epochs=7).stop_reason == "epochs"
        assert fit_svm(dataset, epochs=7).stop_reason == ("epochs",) * 3

    def test_rejections_counted_apart_from_repeated_losses(self):
        # losses 3, 3 (accepted: equal is not a rise), 4 (rejected), 2, 2
        # (accepted), 5 (rejected): four repeats in the history, two rejections
        losses = [3.0, 3.0, 4.0, 2.0, 2.0, 5.0]
        steps = []

        def step(w, forward, lr):
            steps.append(lr)
            return len(steps)

        w, history, (rejections, stop_reason) = _descend(0, 1.0, 5, lambda w: (losses[w], None), step)
        assert history == [3.0, 3.0, 3.0, 2.0, 2.0, 2.0]
        assert int(np.sum(np.diff(history) == 0)) == 4
        assert rejections == 2
        assert stop_reason == "epochs"
        assert steps == [1.0, 1.0, 0.5, 0.5, 0.5]
        assert w == 4


class TestOverflowingStep:
    """A step size so large that the first step overflows."""

    @pytest.fixture
    def dataset(self):
        return generate_synthetic(60, 3, {0}, seed=1)

    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds, **step: fit_logistic(ds, **step, l2=0.0),
            lambda ds, **step: fit_svm(ds, **step),
            lambda ds, **step: fit_mlp(ds, **step, l2=0.0),
        ],
        ids=["logistic", "svm", "mlp"],
    )
    def test_nan_loss_is_rejected(self, dataset, fit):
        # with l2 = 0 the logistic and MLP penalty of an overflowed weight is
        # 0 * inf = nan; a nan loss must count as a rise, so every step is
        # rejected and halved
        with np.errstate(all="ignore"):
            model = fit(dataset, learning_rate=1e300, epochs=5)
        for weights in (getattr(model, name) for name in ("weights", "w1", "w2") if hasattr(model, name)):
            assert np.isfinite(weights).all()
        for history in _histories(model):
            h = np.asarray(history)
            assert h.shape == (6,)
            assert np.isfinite(h).all()
            assert np.all(np.diff(h) <= 0)

    def test_minibatch_softmax_still_checks_finite_input(self, dataset):
        # with l2 > 0 the overflowed weights reach a minibatch's softmax as nan
        # in the middle of an epoch; that must raise, not train on nan
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="softmax requires finite input"):
                fit_mlp(dataset, learning_rate=1e300, epochs=5, l2=1e-4)
