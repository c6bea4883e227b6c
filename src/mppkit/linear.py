"""Linear classifiers trained by full-batch gradient descent.

Multiclass logistic regression uses a softmax head with cross-entropy (the
maximum-likelihood extension of the binary logit model); the SVM trains one
hinge-loss problem per class against the rest.  Both operate on z-scored
features and halve the step size whenever an update would increase the
training loss or make it non-finite, which makes the recorded loss history
non-increasing by construction.  Each model keeps the number of steps its
descent rejected as `rejected_steps` (the SVM one per class), which the
model document does not carry.

`_design` is the one front end of these two trainers and the MLP: it
refuses an empty or single-class dataset, fits the z-scoring and returns
the z-scored rows with the bias column added, C-ordered whatever the order
of the dataset's matrix (a loaded one is F-ordered, a fold subset C-ordered).
numpy sums each column of an F-ordered matrix pairwise and the rows of a
C-ordered one in order, which gives the mean and std other last bits, so
fitting on C-ordered rows keeps a model's bits independent of the layout;
`add_bias` hands the predictors C-ordered rows too.  A model keeps no shape
fact of its own: `n_classes` and `d` are read off its weight matrix.

`_descend` is the one descent loop of these two trainers and the MLP.  Its
rules (accept a step whose loss does not rise, else halve the step size;
stop at the epoch budget, below a 1e-15 step or on the MLP's patience) are
written once, in `_Descent`, which holds them for one problem.  `_lockstep`
runs several problems together: each round it asks one step of every
problem still running, so a caller can compute all of them in one stacked
pass (`mlp.fit_mlp_stack`), and a stopped problem takes no further step.
The two trainers here call `_descend`, which runs one problem.  The
forward pass that gives the loss of an accepted step (the softmax
probabilities, or the SVM's signed margins) is the one the next gradient is
computed from; a rejected step recomputes the gradient at the unchanged
weights from it.  Each epoch thus evaluates one forward pass.  Each model
keeps why its descent stopped as `stop_reason` (the SVM one per class),
beside `rejected_steps` and, like it, outside the model document.

The SVM's subgradient sums the active rows, each times its label, in one
`einsum` contraction over the rows, with no n x (d+1) temporary.  Its bits
depend only on the order of the additions: each coefficient is +-1 or +-0,
so each product is exact whether or not the CPU fuses it into an add.  On
a C-ordered design `einsum` adds the rows in row order, as
`np.add.reduce(..., axis=0)` does, whatever SIMD level numpy dispatches to
(`tests/test_linear.py::TestSvmSubgradient`).  This rests on `_design`'s C
order (on an F-ordered design the reduce runs pairwise and `einsum` in yet
another order) and on `einsum`'s default `optimize=False`: `optimize=True`
hands the contraction to a BLAS product, which sums in its kernel's order.

Each trainer takes its hyperparameters as keywords whose defaults are the
model's (`evaluation.MODEL_DEFAULTS` reads them) and checks them first with
`numeric.check_hyperparameters`.  Targets, cross-entropy and L2 penalty are
`numeric`'s `one_hot`, `cross_entropy` and `l2_penalty`, as in the MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numeric import check_hyperparameters, cross_entropy, feature_rows, l2_penalty, one_hot, softmax


@dataclass(frozen=True, eq=False)
class Standardization:
    """Per-feature z-scoring statistics captured at fit time."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardization":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)  # constant columns pass through
        return cls(mean=mean, std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std


def add_bias(x: np.ndarray) -> np.ndarray:
    """`x` with a column of ones appended, C-ordered whatever the order of `x`."""
    x = np.asarray(x, dtype=float)
    xb = np.empty((x.shape[0], x.shape[1] + 1))
    xb[:, :-1] = x
    xb[:, -1] = 1.0
    return xb


@dataclass(frozen=True, eq=False)
class LogisticModel:
    weights: np.ndarray  # K x (d+1), last column is the bias
    standardization: Standardization
    loss_history: tuple[float, ...] = ()
    rejected_steps: int = 0
    stop_reason: str | None = None  # "epochs", "step_floor" or "patience"; None unless fitted

    @property
    def d(self) -> int:
        return int(self.weights.shape[1]) - 1

    @property
    def n_classes(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True, eq=False)
class SvmModel:
    weights: np.ndarray  # K x (d+1) one-vs-rest hyperplanes
    reg_c: float
    standardization: Standardization
    loss_history: tuple[tuple[float, ...], ...] = ()
    rejected_steps: tuple[int, ...] = ()
    stop_reason: tuple[str, ...] = ()

    @property
    def d(self) -> int:
        return int(self.weights.shape[1]) - 1

    @property
    def n_classes(self) -> int:
        return int(self.weights.shape[0])


class _Descent:
    """One problem's descent with reject-and-halve step control, one offered step at a time.

    ``evaluate(w) -> (loss, forward)`` returns the loss at `w` with the
    forward pass it computed; the start weights are evaluated at once.
    `offer(proposal)` evaluates a step's weights: one whose loss is not at
    most the current one (a nan loss included) is rejected and the step size
    `lr` halved, else it is taken.  Each offer appends the current loss to
    `history`.  `stop_reason` stays None until a rule stops the descent:
    "step_floor" once a halving takes the step below 1e-15, "patience" after
    `patience` epochs in a row that fail to beat the best loss by 1e-7, and
    "epochs" once `epochs` steps have been offered, in that order of
    precedence.  `rejections` counts the rejected steps: a loss repeated in
    the history does not tell, since an accepted step whose loss does not
    move repeats it too.
    """

    def __init__(self, w, lr: float, epochs: int, evaluate, patience: int | None = None):
        self.w, self.lr = w, lr
        self.loss, self.forward = evaluate(w)
        self.history = [self.loss]
        self.best, self.stale, self.rejections = self.loss, 0, 0
        self.stop_reason = None if epochs > 0 else "epochs"
        self._epochs, self._evaluate, self._patience = epochs, evaluate, patience

    def offer(self, proposal) -> None:
        new_loss, new_forward = self._evaluate(proposal)
        rejected = not new_loss <= self.loss
        if rejected:
            self.lr *= 0.5
            self.rejections += 1
        else:
            self.w, self.loss, self.forward = proposal, new_loss, new_forward
        self.history.append(self.loss)
        if rejected and self.lr < 1e-15:
            self.stop_reason = "step_floor"
            return
        if self.loss < self.best - 1e-7:
            self.best, self.stale = self.loss, 0
        else:
            self.stale += 1
        if self.stale == self._patience:
            self.stop_reason = "patience"
        elif len(self.history) > self._epochs:
            self.stop_reason = "epochs"


def _lockstep(descents, step) -> None:
    """Run `descents` together until each has stopped.

    Each round, ``step(live)`` returns one proposal for each descent of
    `live`, the ones still running, in order; a stopped descent leaves
    `live` and is asked for nothing more.
    """
    live = [d for d in descents if d.stop_reason is None]
    while live:
        for descent, proposal in zip(live, step(live)):
            descent.offer(proposal)
        live = [d for d in live if d.stop_reason is None]


def _descend(w, lr: float, epochs: int, evaluate, step, patience: int | None = None):
    """The descent of one problem under `_Descent`'s rules.

    ``step(w, forward, lr)`` proposes new weights from the current weights,
    their forward pass and the current step size.  Returns the final
    weights, the loss history and a pair: the number of rejected steps and
    the stop reason.
    """
    descent = _Descent(w, lr, epochs, evaluate, patience)
    _lockstep([descent], lambda live: [step(descent.w, descent.forward, descent.lr)])
    return descent.w, descent.history, (descent.rejections, descent.stop_reason)


def _logistic_evaluate(weights, xb, y, l2):
    """Mean cross-entropy plus the L2 penalty (bias excluded), and the probabilities."""
    p = softmax(xb @ weights.T)
    return cross_entropy(p, y) + l2_penalty(l2, weights), p


def _logistic_gradient(weights, p, xb, targets, l2):
    g = (p - targets).T @ xb / xb.shape[0]
    g[:, :-1] += l2 * weights[:, :-1]
    return g


def logistic_loss(weights: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean cross-entropy of the softmax head plus an L2 penalty (bias excluded)."""
    return _logistic_evaluate(weights, xb, y, l2)[0]


def logistic_grad(weights: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    p = softmax(xb @ weights.T)
    return _logistic_gradient(weights, p, xb, one_hot(y, weights.shape[0]), l2)


def _design(dataset: Dataset) -> tuple[Standardization, np.ndarray]:
    """The z-scoring fitted to `dataset`, and its rows z-scored with the bias column added.

    An empty or single-class dataset is refused first: no gradient trainer
    can fit one.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    if np.unique(dataset.y).size < 2:
        raise ValueError("single-class dataset")
    x = np.ascontiguousarray(dataset.x)  # rows in order: the mean and std reduce them in row order
    std = Standardization.fit(x)
    return std, add_bias(std.apply(x))


def fit_logistic(
    dataset: Dataset, learning_rate: float = 0.1, epochs: int = 500, l2: float = 1e-3
) -> LogisticModel:
    """Full-batch gradient descent on L2-regularized multinomial cross-entropy.

    Steps that would raise the training loss are rejected and the learning
    rate halved, so the loss history never increases.
    """
    check_hyperparameters("logistic", learning_rate=learning_rate, epochs=epochs, l2=l2)
    std, xb = _design(dataset)
    y, k = dataset.y, dataset.schema.n_classes
    targets = one_hot(y, k)
    w, history, (rejections, stop_reason) = _descend(
        np.zeros((k, xb.shape[1])),
        learning_rate,
        epochs,
        lambda w: _logistic_evaluate(w, xb, y, l2),
        lambda w, p, lr: w - lr * _logistic_gradient(w, p, xb, targets, l2),
    )
    return LogisticModel(
        weights=w, standardization=std, loss_history=tuple(history), rejected_steps=rejections,
        stop_reason=stop_reason,
    )


def predict_logistic_batch(model: LogisticModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and class probabilities.

    For 2 classes the label is 1 when p1 >= 0.5, which puts the exact tie
    on class 1; three or more classes take the argmax, ties to the lowest.
    """
    xb = add_bias(model.standardization.apply(feature_rows(x, model.d)))
    probs = softmax(xb @ model.weights.T)
    if model.n_classes == 2:
        return (probs[:, 1] >= 0.5).astype(np.int64), probs
    return np.argmax(probs, axis=1).astype(np.int64), probs


def _svm_evaluate(w: np.ndarray, xb: np.ndarray, t: np.ndarray, reg_c: float):
    """Mean hinge loss plus the L2 penalty (bias excluded), and the signed margins t * f(x)."""
    signed = t * (xb @ w)
    hinge = 1.0 - signed
    np.maximum(0.0, hinge, out=hinge)
    return float(np.add.reduce(hinge) / xb.shape[0]) + l2_penalty(reg_c, w), signed


def _svm_subgradient(w: np.ndarray, signed: np.ndarray, xb: np.ndarray, t: np.ndarray, reg_c: float):
    """Subgradient of `_svm_evaluate`'s objective at `w`, from its signed margins.

    The hinge part is minus the mean of the rows whose margin is below 1,
    each times its label t = +-1.  Their sum is one `einsum` over the rows
    of the C-ordered `xb`: every product is exact, since each coefficient
    is +-1 or +-0, and the rows are added in row order, which gives the
    bits of ``np.add.reduce(xb * (t * active)[:, None], axis=0)`` whatever
    SIMD level numpy dispatches to.  Never `optimize=True`, which sums in a
    BLAS kernel's order.  The two may give an all-zero sum opposite signs;
    that never reaches the weights, which start at +0.0 and which
    ``w - lr * g`` never turns into -0.0.
    """
    active = signed < 1.0
    g = np.einsum("ij,i->j", xb, t * active)
    g /= -xb.shape[0]  # the mean, negated: division is sign-symmetric
    g[:-1] += reg_c * w[:-1]
    return g


def fit_svm(
    dataset: Dataset, learning_rate: float = 0.01, epochs: int = 500, reg_c: float = 1.0
) -> SvmModel:
    """One-vs-rest linear SVMs by subgradient descent on the hinge objective.

    Each class is trained independently (that class = +1, the rest = -1)
    with the same reject-and-halve step control as the logistic trainer.
    """
    check_hyperparameters("svm", learning_rate=learning_rate, epochs=epochs, reg_c=reg_c)
    std, xb = _design(dataset)
    k = dataset.schema.n_classes
    weights = np.zeros((k, xb.shape[1]))
    histories, rejected_steps, stop_reasons = [], [], []
    for c in range(k):
        t = np.where(dataset.y == c, 1.0, -1.0)
        weights[c], history, (rejections, stop_reason) = _descend(
            np.zeros(xb.shape[1]),
            learning_rate,
            epochs,
            lambda w: _svm_evaluate(w, xb, t, reg_c),
            lambda w, signed, lr: w - lr * _svm_subgradient(w, signed, xb, t, reg_c),
        )
        histories.append(tuple(history))
        rejected_steps.append(rejections)
        stop_reasons.append(stop_reason)
    return SvmModel(
        weights=weights,
        reg_c=reg_c,
        standardization=std,
        loss_history=tuple(histories),
        rejected_steps=tuple(rejected_steps),
        stop_reason=tuple(stop_reasons),
    )


def predict_svm_batch(model: SvmModel, x) -> np.ndarray:
    """Each row's label of the largest one-vs-rest margin, ties to the lowest class."""
    xb = add_bias(model.standardization.apply(feature_rows(x, model.d)))
    return np.argmax(xb @ model.weights.T, axis=1).astype(np.int64)
