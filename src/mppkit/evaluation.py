"""Three-class evaluation: confusion matrix, one-vs-rest metrics, CV driver.

The confusion matrix convention is rows = actual class, columns = predicted
class.  Per-class counts come from collapsing the other two classes into an
opposite class, and precision/recall/F1 are read off those four counts;
zero-denominator metrics are reported as 0 with an explicit undefined flag
so report shapes stay fixed.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .data import Dataset, FoldPlan, stratified_kfold
from .linear import fit_logistic, fit_svm, predict_logistic_batch, predict_svm_batch
from .mlp import fit_mlp, fit_mlp_stack, predict_mlp_batch
from .numeric import check_hyperparameters, derive_seed
from .trees import fit_gbdt, fit_tree, predict_gbdt_batch, predict_tree_batch

N_CLASSES = 3


class CrossValidationError(RuntimeError):
    """A fold's fit or predict failed; the message names the fold."""


def confusion_matrix(truths, preds) -> np.ndarray:
    """counts[a][p] = number of samples with actual class a predicted as p.

    A bool is not a label: neither a bool array nor a bool element of a
    sequence, which `np.asarray` would promote to 0 or 1 beside an integer.
    """
    t = np.asarray(truths)
    p = np.asarray(preds)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("truths and preds must be equal-length non-empty 1-D sequences")
    ti = t.astype(np.int64)
    pi = p.astype(np.int64)
    holds_bool = any(
        labels.dtype == bool
        or (not isinstance(given, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in given))
        for given, labels in ((truths, t), (preds, p))
    )
    if holds_bool or np.any(ti != t) or np.any(pi != p):
        raise ValueError("labels must be integers")
    for name, arr in (("truths", ti), ("preds", pi)):
        if arr.min() < 0 or arr.max() >= N_CLASSES:
            raise ValueError(f"{name} contain a label outside 0..{N_CLASSES - 1}")
    m = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(m, (ti, pi), 1)
    return m


@dataclass(frozen=True)
class ClassMetrics:
    """One class's one-vs-rest counts; its rates and their defined flags are read off them."""

    class_id: int
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision_defined(self) -> bool:
        return self.tp + self.fp > 0

    @property
    def recall_defined(self) -> bool:
        return self.tp + self.fn > 0

    @property
    def f1_defined(self) -> bool:
        return self.precision_defined and self.recall_defined and self.precision + self.recall > 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.precision_defined else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.recall_defined else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return 2 * precision * recall / (precision + recall) if self.f1_defined else 0.0


def _counts(m) -> np.ndarray:
    """`m` as an int64 array, if it is a 3x3 matrix of non-negative integer counts with a positive total."""
    m = np.asarray(m)
    if m.shape != (N_CLASSES, N_CLASSES):
        raise ValueError(f"expected a 3x3 confusion matrix, got shape {m.shape}")
    if m.dtype.kind not in "iuf" or not np.all(np.isfinite(m)) or np.any(m != np.round(m)):
        raise ValueError("confusion matrix must hold integer counts")
    if np.any(m < 0):
        raise ValueError("confusion matrix holds a negative count")
    if m.sum() == 0:
        raise ValueError("empty confusion matrix")
    return m.astype(np.int64)


def per_class_metrics(m: np.ndarray, c: int) -> ClassMetrics:
    """One-vs-rest counts for class c (the other classes merged)."""
    m = _counts(m)
    if isinstance(c, bool) or not isinstance(c, numbers.Integral) or not 0 <= c < N_CLASSES:
        raise ValueError(f"invalid class id {c!r}")
    c = int(c)
    tp = int(m[c, c])
    fp = int(m[:, c].sum()) - tp
    fn = int(m[c, :].sum()) - tp
    return ClassMetrics(class_id=c, tp=tp, fp=fp, fn=fn, tn=int(m.sum()) - tp - fp - fn)


def overall_accuracy(m: np.ndarray) -> float:
    m = _counts(m)
    return float(np.trace(m) / m.sum())


@dataclass(frozen=True)
class ModelSpec:
    """Model identifier plus hyperparameter overrides for the CV driver."""

    name: str
    params: dict = field(default_factory=dict)


def _keyword_defaults(trainer: Callable) -> dict:
    """A trainer's keyword defaults in signature order, less the run seed."""
    params = inspect.signature(trainer).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty and p.name != "seed"}


# model name -> its hyperparameters' defaults, read from the trainer's signature
MODEL_DEFAULTS: dict[str, dict] = {
    name: _keyword_defaults(trainer) for name, trainer in (
        ("logistic", fit_logistic), ("svm", fit_svm), ("tree", fit_tree), ("gbdt", fit_gbdt), ("mlp", fit_mlp))
}


def resolve_params(name: str, overrides: dict | None = None) -> dict:
    """Defaults of model `name` with `overrides` applied, each override checked.

    An unknown key, or a value of the wrong type or out of range (the check
    the trainers make, `numeric.check_hyperparameters`), raises ValueError
    before any training starts.
    """
    if name not in MODEL_DEFAULTS:
        raise ValueError(f"unknown model name {name!r}; expected one of {list(MODEL_DEFAULTS)}")
    params = dict(MODEL_DEFAULTS[name])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"unknown hyperparameter {key!r} for model {name!r}")
        check_hyperparameters(name, **{key: value})
        params[key] = value
    return params


class ModelEntry(NamedTuple):
    fit: Callable  # (dataset, params as resolve_params returns them, seed) -> model
    predict: Callable  # (model, x) -> predicted label of each row of x


# model name -> how to fit and predict it.  The lambdas look the trainers up
# as module globals when called, so a wrapper installed on this module's
# attributes (as a tracer does) sees every call.  resolve_params' keys are
# the trainers' keywords; only the MLP draws from the seed.
MODELS: dict[str, ModelEntry] = {
    "logistic": ModelEntry(
        lambda data, p, seed: fit_logistic(data, **p),
        lambda model, x: predict_logistic_batch(model, x)[0]),
    "svm": ModelEntry(
        lambda data, p, seed: fit_svm(data, **p),
        lambda model, x: predict_svm_batch(model, x)),
    "tree": ModelEntry(
        lambda data, p, seed: fit_tree(data, **p),
        lambda model, x: predict_tree_batch(model, x)),
    "gbdt": ModelEntry(
        lambda data, p, seed: fit_gbdt(data, **p),
        lambda model, x: predict_gbdt_batch(model, x)[0]),
    "mlp": ModelEntry(
        lambda data, p, seed: fit_mlp(data, **p, seed=seed),
        lambda model, x: predict_mlp_batch(model, x)[0]),
}


def fit_predictor(name: str, params: dict, dataset: Dataset, seed: int):
    """Fit model `name` with `params` over its defaults (see resolve_params);
    `MODELS[name].predict(model, x)` labels rows with the returned model."""
    resolved = resolve_params(name, params)  # first: it names an unknown model
    return MODELS[name].fit(dataset, resolved, seed)


@dataclass(frozen=True, eq=False)
class CvReport:
    """Pooled out-of-fold results for one model, each fact kept once.

    `params` are the resolved hyperparameters, `plan` the fold plan, `y` the
    dataset's labels and `preds` each row's out-of-fold label (read-only
    int64).  Every metric is read off them: `matrix` is the pooled 3x3
    confusion matrix, `fold_accuracies` hold one accuracy per fold in plan
    order, and `seed`, the fold count `k` and `fold_plan_digest` are the
    plan's.
    """

    model: str
    params: dict
    plan: FoldPlan
    y: np.ndarray
    preds: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return confusion_matrix(self.y, self.preds)

    @property
    def per_class(self) -> tuple[ClassMetrics, ...]:
        matrix = self.matrix
        return tuple(per_class_metrics(matrix, c) for c in range(N_CLASSES))

    @property
    def accuracy(self) -> float:
        return overall_accuracy(self.matrix)

    @property
    def fold_accuracies(self) -> tuple[float, ...]:
        folds = (np.asarray(fold, dtype=np.int64) for fold in self.plan.folds)
        return tuple(float(np.mean(self.preds[idx] == self.y[idx])) for idx in folds)

    @property
    def fold_accuracy_mean(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def fold_accuracy_std(self) -> float:
        return float(np.std(self.fold_accuracies))

    @property
    def seed(self) -> int:
        return self.plan.seed

    @property
    def k(self) -> int:
        return self.plan.k

    @property
    def fold_plan_digest(self) -> str:
        return self.plan.digest()


def _mlp_fold_models(params: dict, dataset: Dataset, trains: list, seed: int) -> list | None:
    """The MLP's fold models, fitted in one `fit_mlp_stack` call per group of folds with equal training row counts.

    Each has the bits of the fold's own `fit_predictor` call.  None if a
    stack raises: the caller then refits fold by fold, in fold order, so the
    failure it reports is the one those fits meet first.
    """
    groups: dict[int, list[int]] = {}
    for f, train_idx in enumerate(trains):
        groups.setdefault(train_idx.size, []).append(f)
    models = [None] * len(trains)
    try:
        for folds in groups.values():
            stack = fit_mlp_stack((dataset.subset(trains[f]) for f in folds),
                                  [derive_seed(seed, f) for f in folds], **params)
            for f, model in zip(folds, stack):
                models[f] = model
    except Exception:
        return None
    return models


def fold_fits(name: str, params: dict, dataset: Dataset, plan: FoldPlan) -> Iterator[tuple]:
    """Each fold's held-out rows, the model fitted on the other rows, and its labels for the held-out rows.

    In fold order; fold f trains with seed `derive_seed(plan.seed, f)` and the
    resolved `params`.  The MLP trains its folds in lockstep
    (`_mlp_fold_models`); any other model is fitted one fold at a time, as
    the caller asks for the next fold, so only one such fold model need be
    alive.  A failing fit or predict raises CrossValidationError naming the
    fold.
    """
    everything = np.arange(dataset.n)
    tests = [np.asarray(fold, dtype=np.int64) for fold in plan.folds]
    trains = [np.setdiff1d(everything, test_idx) for test_idx in tests]
    stacked = _mlp_fold_models(params, dataset, trains, plan.seed) if name == "mlp" else None
    for f, (train_idx, test_idx) in enumerate(zip(trains, tests)):
        try:
            if stacked is not None:
                model = stacked[f]
            else:
                model = fit_predictor(name, params, dataset.subset(train_idx), derive_seed(plan.seed, f))
            fold_preds = np.asarray(MODELS[name].predict(model, dataset.x[test_idx]), dtype=np.int64)
        except Exception as exc:
            raise CrossValidationError(f"fold {f}: {exc}") from exc
        yield test_idx, model, fold_preds


def cross_validate(spec: ModelSpec, dataset: Dataset, k: int = 5, seed: int = 0) -> CvReport:
    """Stratified k-fold CV: fit on k-1 folds, predict the held-out fold,
    pool every out-of-fold label into the report's `preds`, which its
    confusion matrix and accuracies are read off.

    Each fold trains with its own derived seed, so folds could run in any
    order (or concurrently) and produce the same report; the MLP's do run
    in lockstep (`fold_fits`).
    """
    if dataset.schema.n_classes != N_CLASSES:
        raise ValueError("cross_validate expects a 3-class dataset")
    params = resolve_params(spec.name, spec.params)
    plan = stratified_kfold(dataset, k, seed)

    preds = np.full(dataset.n, -1, dtype=np.int64)
    for test_idx, _, fold_preds in fold_fits(spec.name, params, dataset, plan):
        preds[test_idx] = fold_preds
    preds.flags.writeable = False
    return CvReport(model=spec.name, params=params, plan=plan, y=dataset.y, preds=preds)
