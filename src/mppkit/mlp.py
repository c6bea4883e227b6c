"""Single-hidden-layer perceptron trained by mini-batch backpropagation.

tanh hidden activation, softmax output, cross-entropy loss.  Weights start
from the seeded generator at scale 1/sqrt(fan-in); batches are reshuffled
every epoch from the same stream.  `linear._descend`'s rules take each
epoch as one step: an epoch that raises the full training loss, or makes it
non-finite, is dropped with a halved step, and a patience of 10 stops
training once 10 epochs in a row fail to beat the best loss by 1e-7.

`fit_mlp_stack` trains s problems of one shape (the CV folds, say) in
lockstep, and `fit_mlp` is its s = 1 case: there is one training path.
Each problem keeps its own generator, so its own initial weights and
permutations, its own step size and `linear._Descent` stop rules, and its
own loss pass, one problem at a time; `linear._lockstep` asks a step only
of the problems still running.  A step over the a running problems runs
each numpy call once for all of them: (a, m, d+1) @ (a, d+1, h) matmuls,
one `softmax` over the (a*m, K) rows, the L2 term on the (a, P) parameter
rows and an (a, 1) step-size column.  So every model has the bits of its
own fit: a stacked matmul runs the BLAS call of each 2-D product, on the
same strides within each matrix, and every other call is elementwise or
reduces within one row.  The minibatch step is where the time goes, and a
32-row step is a few dozen numpy calls whose fixed cost outweighs their
arithmetic; stacking divides their number by s.  The loss pass sums over
rows with `np.add.reduce`, whose pairwise blocking depends on the length,
so it stays per problem on that problem's own rows.

One forward pass (`_forward`) and one backprop (`_backprop`) serve every
job: the minibatch step, the epoch's training loss (a forward pass over all
rows, with no gradients), `mlp_loss_and_grads` and `predict_mlp_batch`.
They take one problem's 2-D arrays or a stack's 3-D ones.  Each
minibatch's hidden layer and probabilities feed that batch's backprop and
nothing else: no minibatch loss is computed.  Both write into the buffers
of a `_Layer`: the hidden layer, whose bias column is preset to ones, the
pre-activation, which the backprop then overwrites with `1 - h**2`, and the
backprop's `dz` block.  A fit makes two, once: one over all n rows for the
loss passes, and one of (s, batch) rows for the steps, of which each batch
takes the first a problems and m rows (`_Layer.rows`).  Each matrix of such
a window is C-contiguous, so it has the shapes and strides, and every pass
gives the bits, of a separate per-batch buffer.  Every problem's
standardized rows and one-hot targets are kept once, stacked in two flat
(s*n)-row arrays, and a problem's loss pass reads its rows, in order, as a
view of the first.  Once per epoch each running problem's permutation,
offset to its block of those rows, goes into its row of an (s, n) index
array, and each batch gathers its rows and targets through its columns of
that array into two C-contiguous buffers of the batch's (a, m) shape.  The
index windows, buffer views and layer windows are made once per count of
running problems, and the weight views the passes use
(`w1.T`, `w2.T`, `w2[..., :-1]`) once per epoch.  The backprop turns the
probability array into the output delta in place, which is safe because
`softmax` returns a fresh array.  The rows come from `linear._design`, and
targets, cross-entropy and L2 penalty are `numeric`'s, as in `linear`.

A stack holds every problem's rows and targets once, standardized, and
its parameter rows: s of each, against one for a single fit.  It reads the
datasets one at a time and keeps only their labels, and its step buffers
are sized by the batch, not by n; the loss layer is one problem's.  On the
960x20 CV (five 768-row folds) its arrays peak at about 1.6 MB, when the
designs are stacked, against about 0.9 MB for one fold's fit with its
training subset (tracemalloc).

The parameters of a problem live in one flat float64 vector `theta`, a row
of the stack's (s, P) array: `w1` (h x (d+1)) and `w2` (K x (h+1)) are
C-contiguous views of it (`_views`), and so are the two blocks of the
gradient buffer, which the backprop fills with `out=` matmuls.  The L2 term
then needs no per-matrix slicing: `_decay` is a vector of `theta`'s length
that holds `l2` on every weight and 0.0 on each bias column, and `_add_l2`
adds `decay * theta` to the gradient.  A step is that, `grad *= lr` and
`theta -= grad`: four flat numpy calls.  This gives the same bits as adding
`l2 * w[:, :-1]` to the non-bias columns alone.  On a non-bias weight the
product is the same; on a finite bias weight `0.0 * w` is +-0.0, and adding
it changes a gradient entry only from -0.0 to +0.0, which leaves
`w - lr * g` unchanged for every finite `w`.  (A bias weight that has
overflowed to inf turns into nan instead, which the next softmax refuses.)
`mlp_loss_and_grads` goes through the same `_backprop` and `_add_l2`.

`fit_mlp` takes its hyperparameters as keywords, with the model's defaults
(`evaluation.MODEL_DEFAULTS` reads them); `fit_mlp_stack` takes every one of
them and checks them first with `numeric.check_hyperparameters`; `seed` is
the run's, not a hyperparameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linear import Standardization, _Descent, _design, _lockstep, add_bias
from .numeric import (
    SeededRng, check_hyperparameters, cross_entropy, feature_rows, l2_penalty, one_hot, softmax,
)


@dataclass(frozen=True, eq=False)
class MlpModel:
    w1: np.ndarray  # h x (d+1), bias folded into the last column
    w2: np.ndarray  # K x (h+1)
    standardization: Standardization
    loss_history: tuple[float, ...] = ()
    rejected_steps: int = 0  # epochs the descent dropped; not in the model document
    stop_reason: str | None = None  # why the descent stopped; None unless fitted

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
    """The buffers of one forward pass over a block of rows, and of its backprop, made once and reused.

    `rows` is the block's shape: (m,) for m rows, or (s, m) for m rows of
    each of s problems.  `hidden` is rows x (h+1) with its bias column preset
    to ones, and `act` is its tanh view, the first h columns.  `pre` takes
    the pre-activation, which only the tanh reads, so the backprop reuses it
    for 1 - h**2; `dz` is a rows x h block too.
    """

    __slots__ = ("hidden", "act", "pre", "dz")

    def __init__(self, rows: tuple[int, ...], h: int):
        self.hidden = np.empty((*rows, h + 1))
        self.hidden[..., h] = 1.0
        self.act = self.hidden[..., :h]
        self.pre, self.dz = np.empty((*rows, h)), np.empty((*rows, h))

    def rows(self, window) -> "_Layer":
        """The layer over the rows `window` (an index of the leading axes) of these same buffers."""
        layer = object.__new__(_Layer)
        for name in self.__slots__:
            setattr(layer, name, getattr(self, name)[window])
        return layer


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, or of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _forward(w1t: np.ndarray, w2t: np.ndarray, xb: np.ndarray, layer: _Layer) -> np.ndarray:
    """Output probabilities for the rows `xb`, given `w1.T` and `w2.T`; the tanh layer goes into `layer`.

    A stack of problems (3-D operands) takes one softmax over all its rows.
    """
    np.matmul(xb, w1t, out=layer.pre)
    np.tanh(layer.pre, out=layer.act)
    scores = layer.hidden @ w2t
    return softmax(scores.reshape(-1, scores.shape[-1])).reshape(scores.shape)


def _views(flat: np.ndarray, h: int, d1: int) -> tuple[np.ndarray, np.ndarray]:
    """`w1` (h x d1) and `w2` (K x (h+1)) as views of a flat parameter-sized vector, or of each row of a stack.

    Each matrix of a view is C-contiguous.
    """
    split, lead = h * d1, flat.shape[:-1]
    return flat[..., :split].reshape(*lead, h, d1), flat[..., split:].reshape(*lead, -1, h + 1)


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

    `w2s` is `w2[..., :-1]`; one-hot `targets`; no L2 term (see `_add_l2`).
    `probs` becomes the output delta in place, and `layer.pre` 1 - h**2.
    Stacked operands give each problem its own gradient.
    """
    delta = probs
    delta -= targets
    delta /= xb.shape[-2]
    np.matmul(_t(delta), layer.hidden, out=g2)
    np.matmul(delta, w2s, out=layer.dz)
    np.square(layer.act, out=layer.pre)
    np.subtract(1.0, layer.pre, out=layer.pre)
    layer.dz *= layer.pre
    np.matmul(_t(layer.dz), xb, out=g1)


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
    layer = _Layer(xb.shape[:-1], h)
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
    reshuffled rows; `_descend`'s rules keep the epoch only if the full
    training loss does not rise.  The one-problem case of `fit_mlp_stack`.
    """
    return fit_mlp_stack([dataset], [seed], hidden=hidden, learning_rate=learning_rate, epochs=epochs,
                         l2=l2, batch_size=batch_size)[0]


def fit_mlp_stack(
    datasets, seeds, *, hidden: int, learning_rate: float, epochs: int, l2: float, batch_size: int,
) -> tuple[MlpModel, ...]:
    """`fit_mlp` on each of `datasets` with the seed of the same place in `seeds`, all in lockstep.

    Model i has the bits of ``fit_mlp(datasets[i], seed=seeds[i], ...)``.
    The datasets must share their row, feature and class counts; they are
    read once, in order, so a generator of them keeps one at a time alive.
    Every hyperparameter is given: `fit_mlp` holds their defaults.
    """
    check_hyperparameters("mlp", hidden=hidden, learning_rate=learning_rate, epochs=epochs, l2=l2,
                          batch_size=batch_size)
    stds, rows, labels, class_counts = [], [], [], set()
    for dataset in datasets:
        std, xb = _design(dataset)
        stds.append(std)
        rows.append(xb)
        labels.append(dataset.y)
        class_counts.add(dataset.schema.n_classes)
    rngs = [SeededRng(seed) for seed in seeds]
    if len(rngs) != len(rows):
        raise ValueError(f"fit_mlp_stack got {len(rows)} datasets and {len(rngs)} seeds")
    if not rows:
        return ()
    if len({xb.shape for xb in rows}) > 1 or len(class_counts) > 1:
        raise ValueError("fit_mlp_stack needs datasets with equal row, feature and class counts")
    (n, d1), k = rows[0].shape, class_counts.pop()
    s = len(rows)
    # every problem's rows and one-hot targets once: problem i's are rows i*n to (i+1)*n
    flat, onehot = np.concatenate(rows), one_hot(np.concatenate(labels), k)
    del rows

    thetas = np.empty((s, hidden * d1 + k * (hidden + 1)))
    for theta, rng in zip(thetas, rngs):
        w1, w2 = _views(theta, hidden, d1)
        w1[...] = np.asarray(rng.normal((hidden, d1))) / np.sqrt(d1)
        w2[...] = np.asarray(rng.normal((k, hidden + 1))) / np.sqrt(hidden + 1)

    decay = _decay(thetas[0], hidden, d1, l2)
    grad, tmp = np.empty_like(thetas), np.empty_like(thetas)
    g1, g2 = _views(grad, hidden, d1)
    # the epoch's order of each running problem's rows, as row numbers of
    # `flat`; each batch gathers its rows and targets into buffers of its shape
    order = np.empty((s, n), dtype=np.int64)
    b = min(batch_size, n)
    batch, xbuf, tbuf = _Layer((s, b), hidden), np.empty(s * b * d1), np.empty(s * b * k)
    windows = [slice(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]
    steps = {}  # count of running problems -> the views a step over that many uses

    def views(a):
        batches = []
        for w in windows:
            m = w.stop - w.start
            xs, ts = xbuf[:a * m * d1].reshape(a, m, d1), tbuf[:a * m * k].reshape(a, m, k)
            batches.append((order[:a, w], xs, ts, batch.rows((slice(a), slice(m)))))
        return grad[:a], tmp[:a], g1[:a], g2[:a], batches

    full = _Layer((n,), hidden)  # the loss passes go one problem at a time

    def loss(xb, y):
        def evaluate(theta):  # the loss pass leaves nothing for the step to reuse
            w1, w2 = _views(theta, hidden, d1)
            probs = _forward(w1.T, w2.T, xb, full)
            return cross_entropy(probs, y) + l2_penalty(l2, w1, w2), None
        return evaluate

    descents = [_Descent(theta, learning_rate, epochs, loss(flat[i * n:(i + 1) * n], y), patience=10)
                for i, (theta, y) in enumerate(zip(thetas, labels))]
    problem = {descent: i for i, descent in enumerate(descents)}

    def epoch(live):
        a = len(live)
        if a not in steps:
            steps[a] = views(a)
        grad, tmp, g1, g2, batches = steps[a]
        theta = np.array([d.w for d in live])  # a fresh copy: each row is one proposal
        w1, w2 = _views(theta, hidden, d1)
        w1t, w2t, w2s = _t(w1), _t(w2), w2[..., :-1]
        lr = np.array([[d.lr] for d in live])
        for j, descent in enumerate(live):
            i = problem[descent]
            np.add(rngs[i].permutation(n), i * n, out=order[j])
        for idx, xs, ts, layer in batches:
            # "clip" writes straight into the buffer, where "raise" gathers
            # through a temporary, and a permutation has no index to clip
            flat.take(idx, axis=0, out=xs, mode="clip")
            onehot.take(idx, axis=0, out=ts, mode="clip")
            probs = _forward(w1t, w2t, xs, layer)
            _backprop(w2s, xs, layer, probs, ts, g1, g2)
            _add_l2(theta, grad, decay, tmp)
            np.multiply(grad, lr, out=grad)
            theta -= grad
        return theta

    _lockstep(descents, epoch)
    models = []
    for descent, std in zip(descents, stds):
        w1, w2 = _views(descent.w.copy(), hidden, d1)
        models.append(MlpModel(
            w1=w1, w2=w2, standardization=std, loss_history=tuple(descent.history),
            rejected_steps=descent.rejections, stop_reason=descent.stop_reason,
        ))
    return tuple(models)


def predict_mlp_batch(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and output probabilities, ties to the lowest class."""
    xb = add_bias(model.standardization.apply(feature_rows(x, model.d)))
    probs = _forward(model.w1.T, model.w2.T, xb, _Layer(xb.shape[:-1], model.h))
    return np.argmax(probs, axis=1).astype(np.int64), probs
