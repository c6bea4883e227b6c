import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from conftest import make_dataset
from mppkit.data import generate_synthetic
from mppkit.evaluation import (
    MODEL_DEFAULTS,
    MODELS,
    CrossValidationError,
    ModelSpec,
    confusion_matrix,
    cross_validate,
    fit_predictor,
    overall_accuracy,
    per_class_metrics,
    resolve_params,
)
from mppkit.linear import fit_logistic, fit_svm, predict_logistic_batch, predict_svm_batch
from mppkit.mlp import fit_mlp, predict_mlp_batch
from mppkit.numeric import SeededRng
from mppkit.serialize import to_document
from mppkit.trees import fit_gbdt, fit_tree, predict_gbdt_batch, predict_tree_batch
from test_tools import SCALE_DIGESTS

# model name -> its trainer, called directly rather than through MODELS
TRAINERS = {"logistic": fit_logistic, "svm": fit_svm, "tree": fit_tree, "gbdt": fit_gbdt, "mlp": fit_mlp}


def brute_force_class_stats(truths, preds, c):
    """Oracle: count tp/fp/fn/tn for class c by scanning the pair list."""
    tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
    fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
    fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
    tn = sum(1 for t, p in zip(truths, preds) if t != c and p != c)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (tp + fp) and (tp + fn) and precision + recall > 0
        else 0.0
    )
    return tp, fp, fn, tn, precision, recall, f1


HAND_TRUTHS = [0, 0, 1, 1, 2, 2]
HAND_PREDS = [0, 1, 1, 1, 2, 0]
# hand count over the six samples above
HAND_MATRIX = [[1, 1, 0], [0, 2, 0], [1, 0, 1]]


class TestConfusionMatrix:
    def test_hand_counted_example(self):
        m = confusion_matrix(HAND_TRUTHS, HAND_PREDS)
        assert m.tolist() == HAND_MATRIX

    def test_perfect_prediction_is_diagonal(self):
        truths = [0, 1, 2, 1, 0, 2, 2]
        m = confusion_matrix(truths, truths)
        assert np.array_equal(m, np.diag(np.diag(m)))
        assert m.sum() == 7

    def test_single_sample(self):
        m = confusion_matrix([2], [0])
        expected = np.zeros((3, 3), dtype=int)
        expected[2, 0] = 1
        assert m.tolist() == expected.tolist()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_label_out_of_domain(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1])
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0, -1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [])


class TestPerClassMetrics:
    def test_hand_counted_class_one(self):
        m = np.array(HAND_MATRIX)
        cm = per_class_metrics(m, 1)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 0, 3)
        assert cm.precision == pytest.approx(2 / 3)
        assert cm.recall == 1.0
        assert cm.f1 == pytest.approx(0.8)

    def test_counts_partition_total(self):
        m = np.array(HAND_MATRIX)
        for c in range(3):
            cm = per_class_metrics(m, c)
            assert cm.tp + cm.fp + cm.fn + cm.tn == 6

    def test_diagonal_matrix_perfect_metrics(self):
        m = np.diag([4, 3, 2])
        for c in range(3):
            cm = per_class_metrics(m, c)
            assert cm.precision == cm.recall == cm.f1 == 1.0
            assert cm.precision_defined and cm.recall_defined and cm.f1_defined

    def test_absent_class_flagged_undefined(self):
        m = confusion_matrix([0, 0, 1], [0, 1, 1])
        cm = per_class_metrics(m, 2)
        assert (cm.tp, cm.fp, cm.fn) == (0, 0, 0)
        assert cm.precision == cm.recall == cm.f1 == 0.0
        assert not cm.precision_defined
        assert not cm.recall_defined
        assert not cm.f1_defined

    def test_invalid_class_id(self):
        with pytest.raises(ValueError):
            per_class_metrics(np.array(HAND_MATRIX), 3)

    @pytest.mark.parametrize("c", [True, 1.0, "1"])
    def test_class_id_must_be_an_integer(self, c):
        # unchecked, True raised a TypeError and 1.0 an IndexError
        with pytest.raises(ValueError, match=re.escape(f"invalid class id {c!r}")):
            per_class_metrics(np.array(HAND_MATRIX), c)

    def test_numpy_integer_class_id_is_stored_as_its_int(self):
        # unchecked, np.int64(1) was stored as given, which json.dumps cannot write
        cm = per_class_metrics(np.array(HAND_MATRIX), np.int64(1))
        assert type(cm.class_id) is int
        assert cm == per_class_metrics(np.array(HAND_MATRIX), 1)
        json.dumps(dataclasses.asdict(cm))

    def test_matches_brute_force_oracle(self):
        rng = SeededRng(777)
        for _ in range(200):
            n = 1 + int(rng.integers(0, 60))
            truths = rng.integers(0, 3, n).tolist()
            preds = rng.integers(0, 3, n).tolist()
            m = confusion_matrix(truths, preds)
            for c in range(3):
                cm = per_class_metrics(m, c)
                tp, fp, fn, tn, precision, recall, f1 = brute_force_class_stats(
                    truths, preds, c
                )
                assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
                assert cm.precision == precision
                assert cm.recall == recall
                assert cm.f1 == f1

    def test_f1_between_precision_and_recall(self):
        rng = SeededRng(888)
        for _ in range(300):
            truths = rng.integers(0, 3, 30).tolist()
            preds = rng.integers(0, 3, 30).tolist()
            m = confusion_matrix(truths, preds)
            for c in range(3):
                cm = per_class_metrics(m, c)
                if cm.f1_defined and cm.precision > 0 and cm.recall > 0:
                    # 1e-12 slack: the harmonic mean can land an ulp outside
                    lo, hi = min(cm.precision, cm.recall), max(cm.precision, cm.recall)
                    assert lo - 1e-12 <= cm.f1 <= hi + 1e-12

    def test_micro_precision_equals_accuracy(self):
        rng = SeededRng(999)
        for _ in range(100):
            truths = rng.integers(0, 3, 50).tolist()
            preds = rng.integers(0, 3, 50).tolist()
            m = confusion_matrix(truths, preds)
            stats = [per_class_metrics(m, c) for c in range(3)]
            assert sum(cm.tp for cm in stats) == np.trace(m)
            micro = sum(cm.tp for cm in stats) / sum(cm.tp + cm.fp for cm in stats)
            assert micro == overall_accuracy(m)


class TestOverallAccuracy:
    def test_hand_example(self):
        assert overall_accuracy(np.array(HAND_MATRIX)) == pytest.approx(4 / 6)

    def test_diagonal_is_one(self):
        assert overall_accuracy(np.diag([5, 1, 3])) == 1.0

    def test_zero_diagonal_is_zero(self):
        m = np.array([[0, 2, 0], [1, 0, 0], [0, 1, 0]])
        assert overall_accuracy(m) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            overall_accuracy(np.zeros((3, 3), dtype=int))


class TestResolveParams:
    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            resolve_params("forest")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            resolve_params("tree", {"depth": 3})

    def test_override_applies(self):
        params = resolve_params("gbdt", {"rounds": 50})
        assert params["rounds"] == 50
        assert params["shrinkage"] == 0.1

    def test_every_default_passes_its_check(self):
        for name, defaults in MODEL_DEFAULTS.items():
            assert resolve_params(name, defaults) == defaults

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("mlp", "hidden", 2.5),
            ("mlp", "batch_size", 0),
            ("logistic", "epochs", "ten"),
            ("logistic", "epochs", True),
            ("logistic", "learning_rate", 0.0),
            ("logistic", "l2", -1e-3),
            ("logistic", "epochs", 2.5),
            ("svm", "reg_c", float("nan")),
            ("tree", "max_depth", -1),
            ("tree", "max_depth", 2.5),
            ("gbdt", "max_depth", True),
            ("gbdt", "min_samples_leaf", 0),
            ("gbdt", "shrinkage", 1.5),
            ("gbdt", "rounds", None),
        ],
    )
    def test_bad_value_rejected(self, name, key, value):
        message = f"hyperparameter '{key}' of model '{name}' must be"
        with pytest.raises(ValueError, match=message):
            resolve_params(name, {key: value})
        # a direct trainer call makes the same check, before it trains
        with pytest.raises(ValueError, match=message):
            TRAINERS[name](generate_synthetic(30, 2, {0}, seed=1), **{key: value})

    def test_integer_accepted_for_a_rate(self):
        assert resolve_params("logistic", {"learning_rate": 1, "l2": 0})["learning_rate"] == 1


class TestModelTable:
    QUICK = {
        "logistic": {"epochs": 5},
        "svm": {"epochs": 5},
        "tree": {"max_depth": 2},
        "gbdt": {"rounds": 3},
        "mlp": {"epochs": 5, "hidden": 4},
    }

    def test_one_entry_per_model(self):
        assert list(MODELS) == list(MODEL_DEFAULTS)

    @pytest.mark.parametrize("name", list(MODEL_DEFAULTS))
    def test_predictor_predicts_with_the_fitted_model(self, name):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        params = resolve_params(name, self.QUICK[name])
        labels = MODELS[name].predict(fit_predictor(name, params, ds, 1), ds.x)
        assert labels.shape == (60,)
        assert set(labels.tolist()) <= {0, 1, 2}

    def test_gradient_trainers_get_their_params_and_seed(self):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        p = resolve_params("svm", {"epochs": 5, "learning_rate": 0.05, "reg_c": 2.0})
        via_table = fit_predictor("svm", p, ds, 3)
        assert np.array_equal(via_table.weights, fit_svm(ds, learning_rate=0.05, epochs=5, reg_c=2.0).weights)
        p = resolve_params("mlp", {"epochs": 5, "hidden": 4, "l2": 0.01, "batch_size": 8})
        via_table = fit_predictor("mlp", p, ds, 3)
        direct = fit_mlp(ds, hidden=4, learning_rate=0.1, epochs=5, l2=0.01, seed=3, batch_size=8)
        assert np.array_equal(via_table.w1, direct.w1)
        assert np.array_equal(via_table.w2, direct.w2)

    @pytest.mark.parametrize("name", list(MODEL_DEFAULTS))
    def test_table_defaults_are_the_trainer_defaults(self, name):
        ds = generate_synthetic(60, 3, {0}, seed=5)

        def digest(model):
            return hashlib.sha256(json.dumps(to_document(model, ds.schema), sort_keys=True).encode()).hexdigest()

        direct = TRAINERS[name](ds, seed=3) if name == "mlp" else TRAINERS[name](ds)
        assert digest(fit_predictor(name, {}, ds, 3)) == digest(direct)

    def test_unknown_model(self):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        with pytest.raises(ValueError, match="unknown model name 'forest'"):
            fit_predictor("forest", {}, ds, 0)

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("name", list(MODEL_DEFAULTS))
    def test_predict_rejects_a_width_mismatch(self, name, extra):
        # without the check, one column short broadcasts against the 2-wide
        # standardization, and the trees read only the columns they split on;
        # a feature vector or a scalar is not a matrix of rows, whatever its length
        ds = generate_synthetic(60, 2, {0}, seed=5)
        model = fit_predictor(name, resolve_params(name, self.QUICK[name]), ds, 1)
        for bad in (np.zeros((4, 2 + extra)), np.zeros(2 + extra), ds.x[0], 0.5):
            with pytest.raises(ValueError, match="dimension mismatch"):
                MODELS[name].predict(model, bad)


def _prediction_digest(out) -> str:
    """sha256 of a batch predictor's labels and, where it returns them, probabilities."""
    h = hashlib.sha256()
    for arr in out if isinstance(out, tuple) else (out,):
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestGoldenPredictions:
    """Each batch predictor's output bytes on a small fixed fit, pinned by sha256.

    Recorded from the predictors as they were before the single-row
    predictors became one-row calls of them, so a change to any predict
    path (label, tie-break or probability bits) shows here.
    """

    CASES = {
        "logistic": (predict_logistic_batch, {"epochs": 40},
                     "99a2dae69687d125a79141e26fa50133201e5ba4fb307388cd087cb3a2cfbb62"),
        "svm": (predict_svm_batch, {"epochs": 40},
                "fd79a4a293879e01d15d8ac0b7408dfdddf67c5850028da6e784497a3b0cad32"),
        "tree": (predict_tree_batch, {"max_depth": 3},
                 "ac0e2044700d4ecb3dd83640aed712dd416a7941feee53754e03be844f36b451"),
        "gbdt": (predict_gbdt_batch, {"rounds": 8},
                 "46eee3fdfa6cf8e929a200ea98d31ab52fe310261dfcf99fb43c6201a83da05c"),
        "mlp": (predict_mlp_batch, {"epochs": 20, "hidden": 5},
                "befb2c67c2954c98cbf2d6baebb8b62bbd1788393119311a94b9904371c00a50"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_prediction_bytes(self, name):
        predict, params, expected = self.CASES[name]
        train = generate_synthetic(90, 4, {0, 2}, seed=12, noise=0.1)
        model = fit_predictor(name, resolve_params(name, params), train, 4)
        held_out = generate_synthetic(40, 4, {0, 2}, seed=13, noise=0.1).x
        assert _prediction_digest(predict(model, np.vstack([train.x, held_out]))) == expected


class TestCrossValidate:
    def test_every_record_predicted_once_and_total_matches(self):
        ds = generate_synthetic(120, 4, {0}, seed=10, noise=0.1)
        report = cross_validate(ModelSpec("tree"), ds, k=5, seed=1)
        assert int(report.matrix.sum()) == 120
        assert report.accuracy == np.trace(report.matrix) / 120
        assert len(report.fold_accuracies) == 5

    def test_majority_baseline_with_stump(self):
        # labels independent of x, strong majority: a depth-0 tree predicts
        # the global majority in every fold
        rng = SeededRng(44)
        x = np.asarray(rng.random((120, 3)))
        y = np.array([0] * 70 + [1] * 30 + [2] * 20)
        ds = make_dataset(x, y)
        report = cross_validate(ModelSpec("tree", {"max_depth": 0}), ds, k=5, seed=3)
        assert report.accuracy == 70 / 120

    def test_deterministic(self):
        ds = generate_synthetic(100, 4, {0, 1}, seed=15, noise=0.05)
        spec = ModelSpec("mlp", {"epochs": 30, "hidden": 4})
        a = cross_validate(spec, ds, k=4, seed=9)
        b = cross_validate(spec, ds, k=4, seed=9)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.fold_accuracies == b.fold_accuracies
        assert a.fold_plan_digest == b.fold_plan_digest

    def test_fold_errors_are_annotated(self):
        # a valid but overflowing step size: the first fold's MLP fit raises
        ds = generate_synthetic(60, 3, {0}, seed=5)
        spec = ModelSpec("mlp", {"learning_rate": 1e300, "epochs": 5})
        with np.errstate(all="ignore"):
            with pytest.raises(CrossValidationError, match="fold 0: softmax requires finite input"):
                cross_validate(spec, ds, k=3, seed=0)

    def test_bad_hyperparameter_fails_before_any_fold(self):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        spec = ModelSpec("logistic", {"learning_rate": -1.0})
        with pytest.raises(ValueError, match="'learning_rate' of model 'logistic'"):
            cross_validate(spec, ds, k=3, seed=0)

    def test_non_integer_k_rejected(self):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        with pytest.raises(ValueError, match="k must be an integer, got 3.0"):
            cross_validate(ModelSpec("tree"), ds, k=3.0)

    def test_numpy_integer_k_reports_as_its_int(self):
        ds = generate_synthetic(90, 3, {0}, seed=33)
        got = cross_validate(ModelSpec("tree"), ds, k=np.int64(3), seed=np.int64(1))
        want = cross_validate(ModelSpec("tree"), ds, k=3, seed=1)
        assert type(got.k) is int and got.k == 3
        assert type(got.seed) is int and got.seed == 1
        assert np.array_equal(got.y, want.y) and np.array_equal(got.preds, want.preds)
        assert got.fold_plan_digest == want.fold_plan_digest
        assert (got.model, got.params) == (want.model, want.params)

    @pytest.mark.parametrize("name", ["logistic", "svm", "mlp"])
    def test_preds_are_the_pinned_out_of_fold_labels(self, name):
        # the labels tools/model_digests.py pins through fold_fits, and every metric read off them
        ds = generate_synthetic(960, 20, {0, 1, 2}, seed=7, noise=0.05)
        report = cross_validate(ModelSpec(name), ds, k=5, seed=7)
        digest = hashlib.sha256(report.preds.tobytes()).hexdigest()
        assert digest == SCALE_DIGESTS[f"synthetic-960x20/{name}-cv/predict"]
        assert report.preds.dtype == np.int64 and not report.preds.flags.writeable
        assert report.y is ds.y
        assert report.k == 5 and report.plan.k == 5
        for fold, accuracy in zip(report.plan.folds, report.fold_accuracies, strict=True):
            idx = list(fold)
            assert accuracy == np.mean(report.preds[idx] == ds.y[idx])
        assert report.accuracy == np.mean(report.preds == ds.y)

    def test_two_class_schema_rejected(self):
        ds = make_dataset(np.random.rand(20, 2), [0, 1] * 10, n_classes=2)
        with pytest.raises(ValueError, match="3-class"):
            cross_validate(ModelSpec("tree"), ds, k=2, seed=0)

    def test_report_carries_seed_and_digest(self):
        ds = generate_synthetic(90, 3, {0}, seed=33)
        report = cross_validate(ModelSpec("tree"), ds, k=3, seed=123)
        assert report.seed == 123
        assert report.k == 3
        assert len(report.fold_plan_digest) == 64
        assert report.fold_accuracy_mean == pytest.approx(np.mean(report.fold_accuracies))
        assert report.fold_accuracy_std == pytest.approx(np.std(report.fold_accuracies))
