"""Single-hidden-layer perceptron trained by mini-batch backpropagation.

tanh hidden activation, softmax output, cross-entropy loss.  Weights start
from the seeded generator at scale 1/sqrt(fan-in); batches are reshuffled
every epoch from the same stream.  `linear._descend` runs each epoch as one
step: an epoch that raises the full training loss, or makes it non-finite,
is dropped with a halved step, and a patience of 10 stops training once 10
epochs in a row fail to beat the best loss by 1e-7.

One forward pass (`_forward`) and one backprop (`_backprop`) serve every
job: the minibatch step, the epoch's training loss (a forward pass over all
rows, with no gradients), `mlp_loss_and_grads` and `predict_mlp_batch`.
Each minibatch's hidden layer and probabilities feed that batch's backprop
and nothing else: no minibatch loss is computed.  Both write into the
buffers of a `_Layer`: the hidden layer, whose bias column is preset to
ones, the pre-activation, which the backprop then overwrites with
`1 - h**2`, and the backprop's `dz` block.  `fit_mlp` makes one `_Layer`
over all rows, once per fit.  The loss pass uses it whole; each minibatch
uses a row window of it (`_Layer.rows`).  A row window of a C-contiguous
array is C-contiguous, so each window has the shapes and strides, and
every pass gives the bits, of a separate per-batch buffer.  Once per epoch
the standardized rows and their one-hot targets are gathered in permuted
order into two buffers made once per fit, so each batch is a contiguous
slice of them; the slices and layer windows are made once per fit, and
the weight views the passes use (`w1.T`, `w2.T`, `w2[:, :-1]`) once per
epoch.  The backprop turns the probability array into the output delta in
place, which is safe because `softmax` returns a fresh array.  The rows
come from `linear._design`, and targets, cross-entropy and L2 penalty are
`numeric`'s, as in `linear`.

The parameters live in one flat float64 vector `theta`: `w1` (h x (d+1))
and `w2` (K x (h+1)) are C-contiguous views of it (`_views`), and so are the
two blocks of the gradient buffer, which the backprop fills with `out=`
matmuls.  The L2 term then needs no per-matrix slicing: `_decay` is a
vector of `theta`'s length that holds `l2` on every weight and 0.0 on each
bias column, and `_add_l2` adds `decay * theta` to the gradient.  A step is
that, `grad *= lr` and `theta -= grad`: four flat numpy calls.  This gives
the same bits as adding `l2 * w[:, :-1]` to the non-bias columns alone.  On
a non-bias weight the product is the same; on a finite bias weight
`0.0 * w` is +-0.0, and adding it changes a gradient entry only from -0.0 to
+0.0, which leaves `w - lr * g` unchanged for every finite `w`.  (A bias
weight that has overflowed to inf turns into nan instead, which the next
softmax refuses.)  `mlp_loss_and_grads` goes through the same `_backprop`
and `_add_l2`.

`fit_mlp` takes its hyperparameters as keywords, with the model's defaults
(`evaluation.MODEL_DEFAULTS` reads them), and checks them first with
`numeric.check_hyperparameters`; `seed` is the run's, not a hyperparameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linear import Standardization, _descend, _design, add_bias
from .numeric import (
    SeededRng, check_hyperparameters, cross_entropy, feature_rows, l2_penalty, one_hot, softmax,
)


@dataclass(frozen=True, eq=False)
class MlpModel:
    w1: np.ndarray  # h x (d+1), bias folded into the last column
    w2: np.ndarray  # K x (h+1)
    standardization: Standardization
    loss_history: tuple[float, ...] = ()
    rejected_steps: int = 0  # epochs `_descend` dropped; not in the model document

    @property
    def d(self) -> int:
        return int(self.w1.shape[1]) - 1

    @property
    def h(self) -> int:
        return int(self.w1.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.w2.shape[0])


class _Layer:
    """The buffers of one forward pass over m rows, and of its backprop, made once and reused.

    `hidden` is (m, h+1) with its bias column preset to ones, and `act` is
    its tanh view, the first h columns.  `pre` takes the pre-activation,
    which only the tanh reads, so the backprop reuses it for 1 - h**2; `dz`
    is an (m, h) block too.
    """

    __slots__ = ("hidden", "act", "pre", "dz")

    def __init__(self, m: int, h: int):
        self.hidden = np.empty((m, h + 1))
        self.hidden[:, h] = 1.0
        self.act = self.hidden[:, :h]
        self.pre, self.dz = np.empty((m, h)), np.empty((m, h))

    def rows(self, window: slice) -> "_Layer":
        """The layer over rows `window` of these same buffers."""
        layer = object.__new__(_Layer)
        for name in self.__slots__:
            setattr(layer, name, getattr(self, name)[window])
        return layer


def _forward(w1t: np.ndarray, w2t: np.ndarray, xb: np.ndarray, layer: _Layer) -> np.ndarray:
    """Output probabilities for the rows `xb`, given `w1.T` and `w2.T`; the tanh layer goes into `layer`."""
    np.matmul(xb, w1t, out=layer.pre)
    np.tanh(layer.pre, out=layer.act)
    return softmax(layer.hidden @ w2t)


def _views(flat: np.ndarray, h: int, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """`w1` (h x d1) and `w2` (K x (h+1)) as C-contiguous views of one flat parameter-sized vector."""
    split = h * d1
    return flat[:split].reshape(h, d1), flat[split:].reshape(-1, h + 1)


def _decay(theta: np.ndarray, h: int, d1: int, l2: float) -> np.ndarray:
    """The L2 factor of each entry of `theta`: `l2` on a weight, 0.0 on a bias column."""
    decay = np.full_like(theta, l2)
    for block in _views(decay, h, d1):
        block[:, -1] = 0.0
    return decay


def _backprop(
    w2s: np.ndarray,
    xb: np.ndarray,
    layer: _Layer,
    probs: np.ndarray,
    targets: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
) -> None:
    """Cross-entropy gradient of the forward pass `(layer, probs)` on `xb`, written into `g1`, `g2`.

    `w2s` is `w2[:, :-1]`; one-hot `targets`; no L2 term (see `_add_l2`).
    `probs` becomes the output delta in place, and `layer.pre` 1 - h**2.
    """
    delta = probs
    delta -= targets
    delta /= xb.shape[0]
    np.matmul(delta.T, layer.hidden, out=g2)
    np.matmul(delta, w2s, out=layer.dz)
    np.square(layer.act, out=layer.pre)
    np.subtract(1.0, layer.pre, out=layer.pre)
    layer.dz *= layer.pre
    np.matmul(layer.dz.T, xb, out=g1)


def _add_l2(theta: np.ndarray, grad: np.ndarray, decay: np.ndarray, tmp: np.ndarray) -> None:
    """Add the L2 gradient `decay * theta` to `grad` in place, through the buffer `tmp`."""
    np.multiply(theta, decay, out=tmp)
    grad += tmp


def mlp_loss_and_grads(
    w1: np.ndarray, w2: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy (+ L2 on non-bias weights) and its backprop gradients."""
    (h, d1), k = w1.shape, w2.shape[0]
    theta = np.concatenate([w1.ravel(), w2.ravel()], dtype=float)
    grad = np.empty_like(theta)
    g1, g2 = _views(grad, h, d1)
    layer = _Layer(xb.shape[0], h)
    probs = _forward(w1.T, w2.T, xb, layer)
    loss = cross_entropy(probs, y) + l2_penalty(l2, w1, w2)  # before the backprop overwrites probs
    _backprop(w2[:, :-1], xb, layer, probs, one_hot(y, k), g1, g2)
    _add_l2(theta, grad, _decay(theta, h, d1, l2), np.empty_like(theta))
    return loss, g1, g2


def fit_mlp(
    dataset: Dataset, hidden: int = 16, learning_rate: float = 0.1, epochs: int = 500, l2: float = 1e-4,
    batch_size: int = 32, seed: int = 0,
) -> MlpModel:
    """Mini-batch backpropagation on L2-regularized cross-entropy, from the seeded generator.

    Each epoch updates a copy of the parameters once per `batch_size`
    reshuffled rows; `_descend` keeps the epoch only if the full training
    loss does not rise.
    """
    check_hyperparameters("mlp", hidden=hidden, learning_rate=learning_rate, epochs=epochs, l2=l2,
                          batch_size=batch_size)
    std, xb = _design(dataset)
    y, k = dataset.y, dataset.schema.n_classes
    targets = one_hot(y, k)
    n, d1 = xb.shape

    rng = SeededRng(seed)
    theta = np.empty(hidden * d1 + k * (hidden + 1))
    w1, w2 = _views(theta, hidden, d1)
    w1[...] = np.asarray(rng.normal((hidden, d1))) / np.sqrt(d1)
    w2[...] = np.asarray(rng.normal((k, hidden + 1))) / np.sqrt(hidden + 1)

    decay = _decay(theta, hidden, d1, l2)
    grad, tmp = np.empty_like(theta), np.empty_like(theta)
    g1, g2 = _views(grad, hidden, d1)
    xp, tp = np.empty_like(xb), np.empty_like(targets)
    layer = _Layer(n, hidden)
    windows = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    batches = [(xp[rows], tp[rows], layer.rows(rows)) for rows in windows]

    def loss(theta):  # the loss pass leaves nothing for the step to reuse
        w1, w2 = _views(theta, hidden, d1)
        probs = _forward(w1.T, w2.T, xb, layer)
        return cross_entropy(probs, y) + l2_penalty(l2, w1, w2), None

    def epoch(theta, _, lr):
        theta = theta.copy()
        w1, w2 = _views(theta, hidden, d1)
        w1t, w2t, w2s = w1.T, w2.T, w2[:, :-1]
        perm = rng.permutation(n)
        # each batch is then a contiguous slice; "clip" writes straight into the
        # buffer, where "raise" gathers through a temporary, and a permutation
        # has no index to clip
        xb.take(perm, axis=0, out=xp, mode="clip")
        targets.take(perm, axis=0, out=tp, mode="clip")
        for xs, ts, window in batches:
            probs = _forward(w1t, w2t, xs, window)
            _backprop(w2s, xs, window, probs, ts, g1, g2)
            _add_l2(theta, grad, decay, tmp)
            np.multiply(grad, lr, out=grad)
            theta -= grad
        return theta

    theta, history, rejections = _descend(theta, learning_rate, epochs, loss, epoch, patience=10)
    w1, w2 = _views(theta, hidden, d1)
    return MlpModel(
        w1=w1, w2=w2, standardization=std, loss_history=tuple(history), rejected_steps=rejections
    )


def predict_mlp_batch(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and output probabilities, ties to the lowest class."""
    xb = add_bias(model.standardization.apply(feature_rows(x, model.d)))
    probs = _forward(model.w1.T, model.w2.T, xb, _Layer(xb.shape[0], model.h))
    return np.argmax(probs, axis=1).astype(np.int64), probs
