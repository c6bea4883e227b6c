"""Decision tree, gradient-boosted trees, and split-gain feature importance.

The lone classification tree splits on Gini impurity decrease; the boosted
ensemble fits one regression tree per class per round to the softmax
log-loss residuals, with variance-reduction splits and the one-step
closed-form leaf update.  Candidate thresholds sit at midpoints between
consecutive distinct sorted values, and all tie-breaks are fixed (lowest
feature index, then lowest threshold).  A tree is then a function of its
inputs alone; GBDT's residuals, though, pass through ``np.exp``, whose last
bits may differ between CPUs.

Both learners grow on one exact split kernel, `_best_split`, which scores
every (feature, threshold) of a node in one vectorized pass over a
presorted column block, as in XGBoost's exact greedy search (Chen &
Guestrin, 2016, section 4.1).  Each column is stably argsorted once per fit
(once per ensemble, since x never changes); a child inherits its parent's
sorted rows filtered by the split mask, written into a two-generation arena
that `_grow` reuses at every depth.  The filter keeps order and a stable
sort breaks value ties by row index, so every node sees exactly the order
a fresh stable argsort of its members gives: trees match a per-node sort
bit for bit.

The kernel allocates nothing of block size (d times the node's rows): it
writes every intermediate, and `_grow` every child block, into views of one
`_SplitWorkspace` per fit (per ensemble for boosting), as XGBoost keeps its
split statistics in reused buffers (section 4.2).  The one block-sized
temporary left is the positions of a child's members in its parent's
block; routing a split allocates only arrays of the node's row count (its
mask over one column of x, its two sides, its gathered statistic).  Only a
child that may still split (below the depth limit, with at least twice the
leaf floor) gets a sorted block and a place on the pending stack; any other
child becomes a leaf at its parent's split, and the learner gathers its
statistic and sets its value.  The Gini statistic is float64 one-hot
counts: every partial sum is an integer below 2**53, so Gini gains are
exact and one float kernel serves both learners.  A threshold is the
midpoint of the two values it separates, or the lower value where the
midpoint overflows or rounds up to the upper one.

At fixture scale (a few hundred rows) a node's blocks hold a few thousand
elements, so a numpy call's fixed cost of about a microsecond is worth as
much as its element work: the split path calls array methods and ufuncs
rather than their `np.` function wrappers, and routes, gathers and sums
with as few calls as it can while keeping every sum in the same order.

The models keep each fact once.  A `TreeModel`'s class count is the width
of its leaves; it stores `d`, since a tree need not split on every feature.
A `GbdtModel`'s round count is the length of `trees`, its class count the
size of `init_scores` and its width that of `importance_raw`.  A boosted
tree's leaf holds its one score as a Python float, not a 1-element array,
whether the leaf was fitted or loaded from a model document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema
from .numeric import check_hyperparameters, cross_entropy, feature_rows, one_hot, softmax


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (value).

    Internal nodes route x[feature] <= threshold to the left child.  A leaf
    of the classification tree stores its per-class training counts as a
    float64 vector; a leaf of a boosted regression tree stores its single
    additive score as a Python float.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _first_leaf(node: TreeNode) -> TreeNode:
    while not node.is_leaf:
        node = node.left
    return node


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A classification tree; `d` is stored, since a tree need not split on every feature."""

    root: TreeNode
    max_depth: int
    min_samples_leaf: int
    d: int

    @property
    def n_classes(self) -> int:
        return _first_leaf(self.root).value.size  # a leaf holds one count per class


@dataclass(frozen=True, eq=False)
class GbdtModel:
    """A boosted ensemble: `rounds` is len(trees), `n_classes` and `d` the sizes of its arrays."""

    shrinkage: float
    trees: tuple[tuple[TreeNode, ...], ...]  # rounds x n_classes
    init_scores: np.ndarray
    importance_raw: np.ndarray
    max_depth: int
    min_samples_leaf: int
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        if any(len(group) != self.n_classes for group in self.trees):
            raise ValueError("each round must hold one tree per class")

    @property
    def d(self) -> int:
        return self.importance_raw.size

    @property
    def n_classes(self) -> int:
        return self.init_scores.size


@dataclass(frozen=True)
class ImportanceReport:
    """Features ranked by normalized split-gain importance."""

    entries: tuple[tuple[str, float], ...]
    total: float


def tree_apply(root: TreeNode, x: np.ndarray) -> np.ndarray:
    """Each row's leaf value, routed in vectorized index batches.

    The result is shaped from a leaf: (n, K) for a tree's count vectors,
    (n,) for a boosted tree's float scores.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.shape[0], *np.shape(_first_leaf(root).value)))
    # an explicit stack, as in _grow: a recursive closure's reference cycle
    # would keep out and x alive until the next garbage collection
    pending = [(root, np.arange(x.shape[0]))]
    while pending:
        node, idx = pending.pop()
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = x[idx, node.feature] <= node.threshold
        pending.append((node.right, idx[~mask]))
        pending.append((node.left, idx[mask]))
    return out


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature stable sort of every row: (rows, values), each of shape (d, n)."""
    rows = np.argsort(x.T, axis=1, kind="stable")
    return rows, np.take_along_axis(x.T, rows, axis=1)


class _SplitWorkspace:
    """Buffers `_best_split` and `_grow` write into, allocated once per fit.

    Sized for the root (n rows, d features, s statistic rows); a node of m
    rows uses the first s*d*m elements of each of the kernel's `blocks`, so
    every view it takes is contiguous.  `nl` and `nr` hold the left and
    right row counts of the m split positions as `nl[:m]` = 1..m and
    `nr[-m:]` = m-1..1 plus a sentinel 1 for the last position (everything
    left), which is never a candidate but keeps its division finite.

    `rows` and `vals` are the child-block arena: two generations of d*n
    elements each, where `_grow` writes the sorted blocks of the children
    of a depth-t node into generation t % 2 (see `_grow`).  The kernel's
    blocks and the arena are views of one array, so a fit makes one large
    allocation, not one per node.  Keep it one array: with `blocks`, `vals`
    and `rows` as three `np.empty` arrays, 20 `fit_tree` fits on a 960x20
    input (one Xeon core, numpy 2.4, glibc 2.36; minor faults from
    `getrusage`) took ~435 page faults per fit, against ~22 with one array,
    for bit-identical models.
    """

    def __init__(self, s: int, d: int, n: int):
        kernel, arena = 2 * s * d * n, 2 * d * n
        words = np.empty(kernel + 2 * arena)  # float64 and intp are both 8 bytes
        self.blocks = words[:kernel].reshape(2, s * d * n)
        self.vals = words[kernel : kernel + arena].reshape(2, d * n)
        self.rows = words[kernel + arena :].view(np.intp).reshape(2, d * n)
        self.tied, self.keep = np.empty((2, d * n), dtype=bool)
        self.go_left = np.empty(n, dtype=bool)
        self.nl = np.arange(1.0, n + 1.0)
        self.nr = np.append(np.arange(n - 1.0, 0.0, -1.0), 1.0)


def _best_split(rows: np.ndarray, vals: np.ndarray, stat: np.ndarray, total, min_leaf: int,
                work: _SplitWorkspace):
    """Exhaustive best (gain, feature, threshold) over midpoint candidates, or None.

    `rows` and `vals` hold the node's members sorted by each feature, shape
    (d, m), C-contiguous; `stat` is the per-row float64 statistic, shape
    (s, n), C-contiguous, and `total` its node sum, shape (s,).  With S the
    sum of squared statistic sums, the gain is Sl/nl + Sr/nr - Sp/m: Gini
    decrease for one-hot class counts, squared-error decrease for a residual
    row.  Counts are integers below 2**53 in float64, so equal partitions
    give bit-identical gains and the tie-breaks (lowest feature, then lowest
    threshold) are meaningful.  Only strictly positive gains qualify.

    Every full-size intermediate lives in `work`: position i of feature j
    sends the first i + 1 sorted rows left, and the last position (all
    rows left) is masked out with the leaf floor.
    """
    s = stat.shape[0]
    d, m = rows.shape
    left = work.blocks[0, : s * d * m].reshape(s, d, m)
    right = work.blocks[1, : s * d * m].reshape(s, d, m)
    # array methods, not their np. wrappers: see the module docstring
    stat.take(rows, axis=1, out=right, mode="clip")  # rows are in range: clip never clips
    right.cumsum(axis=2, out=left)
    # right sums as sl - total: exactly -(total - sl), so their squares match
    np.subtract(left, total[:, None, None], out=right)
    for sums, counts in ((left, work.nl[:m]), (right, work.nr[-m:])):
        np.multiply(sums, sums, out=sums)
        for row in sums[1:]:
            sums[0] += row
        sums[0] /= counts
    gains = left[0]
    gains += right[0]
    gains -= np.add.reduce(total * total) / m
    flat_vals, flat_gains = vals.ravel(), gains.ravel()
    tied = work.tied[: d * m - 1]  # position p compares sorted values p + 1 and p
    np.less_equal(flat_vals[1:], flat_vals[:-1], out=tied)
    np.copyto(flat_gains[:-1], -np.inf, where=tied)
    gains[:, : min_leaf - 1] = -np.inf
    gains[:, m - min_leaf :] = -np.inf
    j, i = divmod(int(flat_gains.argmax()), m)  # feature-major: first max wins
    gain = float(gains[j, i])
    if not gain > 0:
        return None
    lo, hi = float(vals[j, i]), float(vals[j, i + 1])
    thr = (lo + hi) / 2.0
    if not lo <= thr < hi:  # the midpoint overflowed or rounded up to hi
        thr = lo
    return gain, j, thr


def _grow(x, presorted, stat, max_depth, min_leaf, importance, work):
    """Grow one tree depth-first on the shared split kernel; return (root, leaves).

    `presorted` is `_presort(x)`, `stat` the (s, n) float64 per-row
    statistic and `work` a `_SplitWorkspace` for (s, d, n).  A node becomes
    a leaf, listed in `leaves` as (node, its rows in ascending order) for
    the learner to gather its statistic and set its value, at the depth
    limit, below twice the leaf floor, when its statistic is constant, or
    when no split has a positive gain.  The first two are known at the
    parent's split, so such a child is listed there and never pushed; only
    a child that may split gets a sorted block and goes on the stack.  A
    split routes its rows by one column of x (a view, contiguous when x is
    F-ordered, as `clean_and_encode` builds it, strided for a fold's
    C-ordered rows), and each side keeps the node's ascending row order, so
    a node's statistic, summed in that order, has the same bits however the
    tree was grown.  Each split adds its gain to `importance[feature]`, in
    preorder.  The pending nodes sit on an explicit stack, not in a
    recursive closure, whose reference cycle would keep `work` alive until
    the next garbage collection.

    Child blocks go into the workspace's two-generation arena.  Each pending
    node carries a flat offset `base` and owns [base, base + d*m) of both
    generations, m being its row count.  A node at depth t reads its block
    from generation (t - 1) % 2 (the root reads `presorted`) and writes its
    children's into generation t % 2: the left child's d*ml elements at
    [base, base + d*ml), the right child's at [base + d*ml, base + d*m).  A
    node's descendants stay inside its slice and sibling slices are
    disjoint, so no pending node's slice overlaps the current one; in the
    generation a node writes, its slice holds part of its parent's block,
    consumed when the parent split.  Two generations of d*n elements
    therefore serve a tree of any depth.
    """
    n, d = x.shape
    columns = x.T  # a view: each split routes its rows by one column of it
    root = TreeNode()
    if max_depth == 0 or n < 2 * min_leaf:
        return root, [(root, np.arange(n))]
    leaves = []
    pending = [(root, np.arange(n), presorted, 0, 0)]
    while pending:
        node, idx, (rows, vals), depth, base = pending.pop()
        node_stat = stat.take(idx, axis=1)
        found = None
        if (node_stat != node_stat[:, :1]).any():
            total = np.add.reduce(node_stat, axis=1)  # in node order, as the learner sums a leaf
            found = _best_split(rows, vals, stat, total, min_leaf, work)
        if found is None:
            leaves.append((node, idx))
            continue
        gain, node.feature, node.threshold = found
        importance[node.feature] += gain
        mask = columns[node.feature].take(idx) <= node.threshold
        sides = (idx[mask], idx[~mask])
        children = node.left, node.right = TreeNode(), TreeNode()
        grows = [depth + 1 < max_depth and side.size >= 2 * min_leaf for side in sides]
        if grows[0] or grows[1]:
            flat_rows, flat_vals = rows.ravel(), vals.ravel()
            work.go_left[idx] = mask
            keep = work.keep[: flat_rows.size]
            work.go_left.take(flat_rows, out=keep, mode="clip")  # rows are in range: clip never clips
            arena_rows, arena_vals = work.rows[depth % 2], work.vals[depth % 2]
        blocks = []
        for c, side in enumerate(sides):
            if not grows[c]:
                leaves.append((children[c], side))
                continue
            if c:
                np.logical_not(keep, out=keep)
            # filtering keeps each feature's sorted order, so the child
            # block is the one a fresh stable sort of its rows gives
            members = keep.nonzero()[0]
            start = base + c * d * sides[0].size
            span, shape = slice(start, start + members.size), (d, side.size)
            block = (flat_rows.take(members, out=arena_rows[span], mode="clip").reshape(shape),
                     flat_vals.take(members, out=arena_vals[span], mode="clip").reshape(shape))
            blocks.append((children[c], side, block, depth + 1, start))
        pending += reversed(blocks)  # the left child is popped first: splits in preorder
    return root, leaves


def fit_tree(dataset: Dataset, max_depth: int = 5, min_samples_leaf: int = 2) -> TreeModel:
    """Greedy recursive partitioning on Gini impurity decrease.

    Stops on purity, depth, or the per-leaf sample floor; a node with no
    strictly positive gain also becomes a leaf.
    """
    check_hyperparameters("tree", max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    if dataset.n == 0:
        raise ValueError("empty dataset")
    k = dataset.schema.n_classes
    counts = one_hot(dataset.y, k).T.copy()  # float64 counts: exact, so Gini gains are too
    root, leaves = _grow(
        dataset.x, _presort(dataset.x), counts, max_depth, min_samples_leaf,
        importance=np.zeros(dataset.d),  # the lone tree reports no importance
        work=_SplitWorkspace(k, dataset.d, dataset.n),
    )
    for leaf, rows in leaves:
        leaf.value = counts.take(rows, axis=1).sum(axis=1)
    return TreeModel(
        root=root,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        d=dataset.d,
    )


def predict_tree_batch(model: TreeModel, x) -> np.ndarray:
    """Each row's leaf majority class, ties to the lowest class."""
    return np.argmax(tree_apply(model.root, feature_rows(x, model.d)), axis=1).astype(np.int64)


def fit_gbdt(
    dataset: Dataset,
    rounds: int = 200,
    shrinkage: float = 0.1,
    max_depth: int = 3,
    min_samples_leaf: int = 2,
) -> GbdtModel:
    """Multiclass gradient boosting with a softmax link and log-loss.

    Scores start at the class log-priors.  Each round fits one regression
    tree per class to the residuals 1{y=k} - p_k (the negative log-loss
    gradient); leaf values use the one-step update
    (K-1)/K * sum(r) / sum(|r|(1-|r|)), and scores move by shrinkage times
    the tree output.  One softmax per round gives both its training log-loss
    (recorded on the model) and the next round's residuals.
    """
    check_hyperparameters("gbdt", rounds=rounds, shrinkage=shrinkage, max_depth=max_depth,
                          min_samples_leaf=min_samples_leaf)
    if dataset.n == 0:
        raise ValueError("empty dataset")
    k = dataset.schema.n_classes
    n = dataset.n
    x, y = dataset.x, dataset.y

    counts = np.bincount(y, minlength=k).astype(np.float64)
    init = np.log(np.maximum(counts, 1e-12) / n)
    scores = np.tile(init, (n, 1))
    onehot = one_hot(y, k)
    importance = np.zeros(dataset.d)
    presorted = _presort(x)  # x never changes, so one sort serves every tree
    work = _SplitWorkspace(1, dataset.d, n)
    all_trees = []
    probs = softmax(scores)
    history = [cross_entropy(probs, y)]
    for _ in range(rounds):
        residuals = (onehot - probs).T.copy()  # contiguous rows, as the kernel gathers from
        group = []
        step = np.empty((n, k))
        for c in range(k):
            root, leaves = _grow(x, presorted, residuals[c : c + 1], max_depth, min_samples_leaf,
                                 importance, work)
            res, col = residuals[c], step[:, c]
            for leaf, rows in leaves:
                # |r|(1 - |r|) in one temporary, then Python floats: the same
                # IEEE operations as on numpy scalars, at a fraction of the cost
                r = res.take(rows)
                a = np.abs(r)
                a *= 1.0 - a
                denom = float(np.add.reduce(a))
                gamma = (k - 1) / k * float(np.add.reduce(r)) / denom if denom >= 1e-150 else 0.0
                leaf.value = gamma
                col[rows] = gamma
            group.append(root)
        scores += shrinkage * step
        all_trees.append(tuple(group))
        probs = softmax(scores)
        history.append(cross_entropy(probs, y))

    return GbdtModel(
        shrinkage=shrinkage,
        trees=tuple(all_trees),
        init_scores=init,
        importance_raw=importance,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        loss_history=tuple(history),
    )


def predict_gbdt_batch(model: GbdtModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and softmax of its accumulated ensemble scores."""
    x = feature_rows(x, model.d)
    scores = np.tile(model.init_scores.astype(float), (x.shape[0], 1))
    for group in model.trees:
        for c, root in enumerate(group):
            scores[:, c] += model.shrinkage * tree_apply(root, x)
    probs = softmax(scores)
    return np.argmax(probs, axis=1).astype(np.int64), probs


def feature_importance(model: GbdtModel, schema: FeatureSchema) -> ImportanceReport:
    """Normalized split-gain importance, sorted descending by weight.

    When no tree ever split, every importance is zero and the reported sum
    is 0 rather than 1.
    """
    if schema.d != model.d:
        raise ValueError(
            f"schema has {schema.d} features but the model was fitted against {model.d}"
        )
    raw = model.importance_raw
    total = float(raw.sum())
    norm = raw / total if total > 0 else np.zeros_like(raw)
    order = np.argsort(-norm, kind="stable")  # ties keep schema order
    entries = tuple((schema.features[int(i)].name, float(norm[int(i)])) for i in order)
    return ImportanceReport(entries=entries, total=float(norm.sum()))
