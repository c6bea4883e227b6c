"""Single-hidden-layer perceptron trained by mini-batch backpropagation.

tanh hidden activation, softmax output, cross-entropy loss.  Weights start
from the seeded generator at scale 1/sqrt(fan-in); batches are reshuffled
every epoch from the same stream.  `linear._descend` runs each epoch as one
step: an epoch that raises the full training loss, or makes it non-finite,
is dropped with a halved step, and a patience of 10 stops training once 10
epochs in a row fail to beat the best loss by 1e-7.

One forward pass (`_forward`) serves every job.  Each minibatch runs it on
its rows, and its hidden layer and probabilities feed that batch's
gradients (`_grads`) and nothing else: no minibatch loss is computed.  The
epoch's training loss comes from a forward pass over all rows, with no
gradients.  Once per epoch the standardized rows and their one-hot targets
are permuted together, so each batch is a contiguous slice; the hidden
layer is written into a buffer whose bias column is preset to ones.
Targets, cross-entropy and L2 penalty are `numeric`'s, as in `linear`.

`fit_mlp` takes its hyperparameters as keywords, with the model's defaults
(`evaluation.MODEL_DEFAULTS` reads them), and checks them first with
`numeric.check_hyperparameters`; `seed` is the run's, not a hyperparameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linear import Standardization, add_bias, _check_trainable, _descend
from .numeric import (
    SeededRng, check_hyperparameters, cross_entropy, feature_rows, l2_penalty, one_hot, softmax,
)


@dataclass(frozen=True, eq=False)
class MlpModel:
    w1: np.ndarray  # h x (d+1), bias folded into the last column
    w2: np.ndarray  # K x (h+1)
    standardization: Standardization
    h: int
    n_classes: int
    loss_history: tuple[float, ...] = ()

    @property
    def d(self) -> int:
        return int(self.w1.shape[1]) - 1


def _hidden_buffer(m: int, h: int) -> np.ndarray:
    """An (m, h+1) hidden-layer buffer whose bias column is preset to ones."""
    buf = np.empty((m, h + 1))
    buf[:, h] = 1.0
    return buf


def _forward(w1: np.ndarray, w2: np.ndarray, xb: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Output probabilities; the tanh layer is written into `hidden` (from `_hidden_buffer`)."""
    np.tanh(xb @ w1.T, out=hidden[:, :-1])
    return softmax(hidden @ w2.T)


def _grads(
    w1: np.ndarray,
    w2: np.ndarray,
    xb: np.ndarray,
    hidden: np.ndarray,
    probs: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop of the forward pass `(hidden, probs)` on `xb` against one-hot `targets`."""
    delta = probs - targets
    delta /= xb.shape[0]
    g2 = delta.T @ hidden
    g2[:, :-1] += l2 * w2[:, :-1]
    dz = delta @ w2[:, :-1]
    dz *= 1.0 - hidden[:, :-1] ** 2
    g1 = dz.T @ xb
    g1[:, :-1] += l2 * w1[:, :-1]
    return g1, g2


def mlp_loss_and_grads(
    w1: np.ndarray, w2: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy (+ L2 on non-bias weights) and its backprop gradients."""
    hidden = _hidden_buffer(xb.shape[0], w1.shape[0])
    probs = _forward(w1, w2, xb, hidden)
    g1, g2 = _grads(w1, w2, xb, hidden, probs, one_hot(y, w2.shape[0]), l2)
    return cross_entropy(probs, y) + l2_penalty(l2, w1, w2), g1, g2


def mlp_loss(w1: np.ndarray, w2: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Cross-entropy (+ L2 on non-bias weights) from a forward pass alone."""
    probs = _forward(w1, w2, xb, _hidden_buffer(xb.shape[0], w1.shape[0]))
    return cross_entropy(probs, y) + l2_penalty(l2, w1, w2)


def fit_mlp(
    dataset: Dataset, hidden: int = 16, learning_rate: float = 0.1, epochs: int = 500, l2: float = 1e-4,
    batch_size: int = 32, seed: int = 0,
) -> MlpModel:
    """Mini-batch backpropagation on L2-regularized cross-entropy, from the seeded generator.

    Each epoch updates copies of the weights once per `batch_size` reshuffled
    rows; `_descend` keeps the epoch only if the full training loss does not rise.
    """
    check_hyperparameters("mlp", hidden=hidden, learning_rate=learning_rate, epochs=epochs, l2=l2,
                          batch_size=batch_size)
    _check_trainable(dataset)

    k = dataset.schema.n_classes
    std = Standardization.fit(dataset.x)
    xb = add_bias(std.apply(dataset.x))
    y = dataset.y
    targets = one_hot(y, k)
    n, d1 = xb.shape

    rng = SeededRng(seed)
    w1 = np.asarray(rng.normal((hidden, d1))) / np.sqrt(d1)
    w2 = np.asarray(rng.normal((k, hidden + 1))) / np.sqrt(hidden + 1)

    batch_hidden = _hidden_buffer(min(batch_size, n), hidden)

    def epoch(w, _, lr):  # the loss pass leaves nothing for the step to reuse
        w1, w2 = w[0].copy(), w[1].copy()
        perm = rng.permutation(n)
        xp, tp = xb[perm], targets[perm]  # each batch is then a contiguous slice
        for start in range(0, n, batch_size):
            xs = xp[start : start + batch_size]
            layer = batch_hidden[: xs.shape[0]]
            probs = _forward(w1, w2, xs, layer)
            g1, g2 = _grads(w1, w2, xs, layer, probs, tp[start : start + batch_size], l2)
            w1 -= lr * g1
            w2 -= lr * g2
        return w1, w2

    (w1, w2), history = _descend(
        (w1, w2), learning_rate, epochs, lambda w: (mlp_loss(*w, xb, y, l2), None), epoch, patience=10
    )

    return MlpModel(w1=w1, w2=w2, standardization=std, h=hidden, n_classes=k, loss_history=tuple(history))


def predict_mlp_batch(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and output probabilities, ties to the lowest class."""
    xb = add_bias(model.standardization.apply(feature_rows(x, model.d)))
    probs = _forward(model.w1, model.w2, xb, _hidden_buffer(xb.shape[0], model.h))
    return np.argmax(probs, axis=1).astype(np.int64), probs
