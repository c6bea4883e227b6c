"""Shared numeric primitives.

The softmax link, the trainers' shared math (`one_hot`, `cross_entropy`,
`l2_penalty`), the predictors' one input shape check
(`feature_rows`), the trainers' one hyperparameter check
(`check_hyperparameters` over `PARAM_CHECKS`), the central-difference
gradient oracle used by the gradient tests, and the toolkit's single seeded
random generator.  Every model and every fold stream draws randomness from
:class:`SeededRng`, which takes only integer seeds, so a run is a pure
function of its seeds.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _check_integer(name: str, value) -> None:
    # bool is an Integral, but True as a seed or index is a mistake, not 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for stream `index` (one stream per CV fold)."""
    _check_integer("seed", seed)
    _check_integer("index", index)
    return _mix64((int(seed) + (int(index) + 1) * _GAMMA) & _MASK64)


def _count(n) -> int:
    """`n` as a number of draws: ValueError unless it is a non-negative integer (True is not 1)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"draw size must be a non-negative integer, got {n!r}")
    return int(n)


def _shape(size) -> tuple[tuple, int]:
    """The array shape a draw `size` asks for, and its element count.

    Any integer, a numpy one too, is one dimension; otherwise `size` is a
    sequence of dimensions.  Anything else, and a bool or a negative
    dimension, is a ValueError, raised before the counter moves.
    """
    if isinstance(size, numbers.Integral):
        shape = (_count(size),)
    else:
        try:
            shape = tuple(map(_count, size))
        except (TypeError, ValueError):
            raise ValueError(
                f"draw size must be a non-negative integer or a sequence of them, got {size!r}"
            ) from None
    return shape, math.prod(shape)


class SeededRng:
    """Counter-based splitmix64 generator.

    The i-th raw draw is ``mix64(seed + i * golden_gamma)``: a pure function
    of (seed, counter).  Uniform doubles take the top 53 bits of a draw;
    integers scale uniforms, and a permutation is the stable argsort of those
    53-bit integers, which order and tie exactly as the uniforms do.  It sorts
    with numpy's default (fastest) argsort and keeps that order when the
    sorted keys strictly increase: distinct keys have exactly one sorting
    permutation, so any correct sort returns the stable one, whichever
    kernel numpy dispatches to.  Only keys with a tie take the stable sort.
    A draw size is a non-negative integer (or, for `random` and `normal`, a
    sequence of them), checked before the counter moves.  All three use
    integer math and correctly rounded float operations only, so they are
    the same on every platform.  Normals come from Box-Muller on uniform
    pairs, through ``np.log`` and ``np.cos``, whose last bits may differ
    between CPUs.  This is the only randomness source in the toolkit, which
    is what makes reports byte-reproducible on one machine.
    """

    def __init__(self, seed: int):
        _check_integer("seed", seed)
        self._seed = int(seed) & _MASK64
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    def _raw(self, n: int) -> np.ndarray:
        # uint64 array arithmetic wraps modulo 2**64 without a warning; each
        # step works in place, through one shift temporary
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._seed)
        shifted = z >> np.uint64(30)
        z ^= shifted
        z *= np.uint64(_MIX_A)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(_MIX_B)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        return z

    def _bits53(self, n: int) -> np.ndarray:
        """The top 53 bits of the next n draws: the integers that uniforms scale by 2**-53."""
        z = self._raw(n)
        z >>= np.uint64(11)
        return z

    def random(self, size=None) -> np.ndarray | float:
        """Uniform doubles in [0, 1)."""
        if size is None:
            return float(self._bits53(1)[0]) * 2.0**-53
        shape, count = _shape(size)
        u = self._bits53(count).astype(np.float64)
        u *= 2.0**-53
        return u.reshape(shape)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normals via Box-Muller (cosine branch only)."""
        if size is None:
            return float(self.normal(1)[0])
        shape, count = _shape(size)
        u1 = np.asarray(self.random(count))
        u2 = np.asarray(self.random(count))
        # 1 - u1 lies in (0, 1], so the log is finite.
        z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
        return z.reshape(shape)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high).

        Each bound must be an integer in the int64 range (a numpy integer is
        its `int`, a bool is refused), and `high - low` at most 2**53: a
        53-bit uniform cannot reach every integer of a wider span.  A bad
        bound is a ValueError naming it, raised before the counter moves.
        """
        for name, bound in (("low", low), ("high", high)):
            _check_integer(name, bound)
            if not -(2**63) <= bound < 2**63:
                raise ValueError(f"{name} must lie in the int64 range, got {bound!r}")
        low, high = int(low), int(high)
        if high <= low:
            raise ValueError("integers requires high > low")
        if high - low > 2**53:
            raise ValueError(f"integers requires high - low <= 2**53, got {high - low}")
        u = self.random(size)
        out = np.floor(np.asarray(u) * (high - low)).astype(np.int64) + low
        return int(out) if size is None else out

    def permutation(self, n: int) -> np.ndarray:
        # random(n) is exactly these integers times 2**-53: same order, same ties
        keys = self._bits53(_count(n))
        order = keys.argsort()
        ranked = keys.take(order)
        if np.greater(ranked[1:], ranked[:-1]).all():
            return order
        return keys.argsort(kind="stable")

    def spawn(self, index: int) -> "SeededRng":
        return SeededRng(derive_seed(self._seed, index))


def softmax(v) -> np.ndarray:
    """Shift-invariant softmax over the last axis (1-D scores or a matrix of rows); a fresh array.

    The input must be finite, which is checked before any arithmetic.  Each
    row is shifted by its max, taken as K - 1 `np.maximum` calls over the
    class columns: a reduction along a 3-wide last axis runs numpy's inner
    loop once per row, which costs more than the arithmetic.  A max is exact,
    so this gives the same bits for every K; a +-0.0 tie changes only the
    sign of a zero difference, and exp maps both zeros to 1.0.

    A matrix of K <= 7 classes divides by the sum of its class columns,
    added left to right, for the same reason.  numpy's reduction adds a row
    shorter than 8 from left to right too, in C and in F layout, so the bits
    are its bits.  The column form costs ~0.5 us more on one row, the same
    at 4 to 32 rows, and ~10 of ~30 us less on 768 rows of 3 classes.  Rows
    of K >= 8 (which numpy sums pairwise in C layout) and a 1-D input keep
    numpy's reduction.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("softmax expects a vector or a matrix of row scores")
    k = arr.shape[-1]
    if k == 0:
        raise ValueError("softmax requires at least one score")
    if not np.isfinite(arr).all():
        raise ValueError("softmax requires finite input")
    cols = arr.T  # cols[j] is class j's score in every row
    top = cols[0]
    for j in range(1, k):
        top = np.maximum(top, cols[j])
    e = (cols - top).T
    np.exp(e, out=e)
    if arr.ndim == 1 or k >= 8:
        e /= np.add.reduce(e, axis=-1, keepdims=True)
        return e
    cols = e.T
    total = cols[0].copy() if k == 1 else cols[0] + cols[1]
    for j in range(2, k):
        total += cols[j]
    e /= total[:, None]
    return e


def one_hot(y: np.ndarray, k: int) -> np.ndarray:
    """(n, k) float64 targets: row i is 1 in column y[i] and 0 elsewhere."""
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


# The two losses below, and the SVM's in `linear`, reduce with `np.add.reduce`:
# the bits of `np.sum`, and of `.mean()` after dividing by the count, without
# their Python wrapper frames.

def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean -log of each row's probability of its label, floored at 1e-300 so it stays finite."""
    n = y.shape[0]
    logp = probs[np.arange(n), y]
    np.maximum(logp, 1e-300, out=logp)
    np.log(logp, out=logp)
    return float(-np.add.reduce(logp) / n)  # rounding is sign-symmetric: the sum of -log, exactly


def l2_penalty(l2: float, *weights: np.ndarray) -> float:
    """0.5 * l2 * the sum of squares of every weight but each row's last (bias) column."""
    return float(0.5 * l2 * sum(np.add.reduce(w[..., :-1] ** 2, axis=None) for w in weights))


def feature_rows(x, d: int) -> np.ndarray:
    """`x` as a float matrix, or ValueError unless it is 2-D with `d` columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"dimension mismatch: expected rows of {d} features, got shape {x.shape}")
    return x


def _integer(low: int):
    return lambda v: isinstance(v, numbers.Integral) and v >= low, f"an integer >= {low}"


def _number(test, text: str):
    # an int too large for a float fails this bound, where math.isfinite raises OverflowError
    return lambda v: isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max and test(v), text


# hyperparameter -> (check of a value, what the check asks for)
PARAM_CHECKS = {
    "n_classes": _integer(2),  # n_classes and d: the counts a model document records
    "d": _integer(1),
    "learning_rate": _number(lambda v: v > 0, "a positive number"),
    "epochs": _integer(1),
    "l2": _number(lambda v: v >= 0, "a non-negative number"),
    "reg_c": _number(lambda v: v > 0, "a positive number"),
    "max_depth": _integer(0),
    "min_samples_leaf": _integer(1),
    "rounds": _integer(1),
    "shrinkage": _number(lambda v: 0 < v <= 1, "a number in (0, 1]"),
    "hidden": _integer(1),
    "batch_size": _integer(1),
}


def check_hyperparameters(model: str, **values) -> None:
    """ValueError naming the first of `values` that fails its `PARAM_CHECKS` entry (a bool fails all)."""
    for key, value in values.items():
        check, wanted = PARAM_CHECKS[key]
        if isinstance(value, bool) or not check(value):
            raise ValueError(f"hyperparameter {key!r} of model {model!r} must be {wanted}, got {value!r}")


def finite_difference_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Used as the independent oracle against analytic gradients: it never sees
    how the gradient under test was computed.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("function evaluated to a non-finite value")
        g[i] = (fp - fm) / (2.0 * h)
    return grad
