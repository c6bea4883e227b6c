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

Every fitted tree is a table of parallel node arrays (see `nodes`).
`_grow` appends a tree's nodes to Python lists of its own, the learner
sets the leaf values, and a GBDT fit joins every tree's lists into arrays
once, at its end: no node object is made during a fit.  A `TreeModel` is
one table whose root is node 0 and whose `value` is (nodes, K), each
leaf's class counts; its class count is the width of `value`, and it
stores `d`, since a tree need not split on every feature.  A `GbdtModel`
keeps all rounds x K trees in one table with `value` of shape (nodes,),
each leaf's score, and a (rounds, K) array of root ids; its round count is
the length of `roots`, its class count the size of `init_scores` and its
width that of `importance_raw`.  Each model checks its table when built,
so a model made by hand fails then, with a ValueError naming the fault,
and not at predict.

Both predict through `nodes.route`, which moves every row down every tree
at once.  GBDT then adds each round's shrunk leaf scores to the priors in
round order: every score takes the adds the fit made, in the fit's order,
so its bits do not depend on the router.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FeatureSchema
from .nodes import NodeArrays, TreeNode, checked, join, route
from .numeric import check_hyperparameters, cross_entropy, feature_rows, one_hot, softmax


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A classification tree: one node table whose root is node 0, `value` of shape (nodes, K)."""

    nodes: NodeArrays
    max_depth: int
    min_samples_leaf: int
    d: int
    _depth: int = field(init=False, repr=False)  # split levels: the router's step count

    def __post_init__(self):
        nodes, _, depth = checked(self.nodes, [0], self.d, value_ndim=2)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_depth", depth)

    @property
    def n_classes(self) -> int:
        return self.nodes.value.shape[1]

    @property
    def root(self) -> TreeNode:
        return TreeNode(self.nodes, 0)


@dataclass(frozen=True, eq=False)
class GbdtModel:
    """A boosted ensemble: one node table for all its trees, `value` of shape (nodes,).

    `roots[r, c]` is the root id of round r's tree for class c; the round
    count is len(roots), `n_classes` and `d` the sizes of `init_scores` and
    `importance_raw`.
    """

    shrinkage: float
    nodes: NodeArrays
    roots: np.ndarray
    init_scores: np.ndarray
    importance_raw: np.ndarray
    max_depth: int
    min_samples_leaf: int
    loss_history: tuple[float, ...] = ()
    _depth: int = field(init=False, repr=False)  # split levels of the deepest tree: the router's step count

    def __post_init__(self):
        roots = np.asarray(self.roots)
        if roots.ndim != 2 or roots.shape[1] != self.n_classes:
            raise ValueError(f"each round must hold one tree per class: 'roots' must have shape "
                             f"(rounds, {self.n_classes}), got {roots.shape}")
        nodes, roots, depth = checked(self.nodes, roots, self.d, value_ndim=1)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_depth", depth)

    @property
    def d(self) -> int:
        return self.importance_raw.size

    @property
    def n_classes(self) -> int:
        return self.init_scores.size

    @property
    def trees(self) -> tuple[tuple[TreeNode, ...], ...]:
        """The root view of each round's tree for each class, rounds x n_classes."""
        return tuple(tuple(TreeNode(self.nodes, r) for r in group) for group in self.roots.tolist())


@dataclass(frozen=True)
class ImportanceReport:
    """Features ranked by normalized split-gain importance."""

    entries: tuple[tuple[str, float], ...]
    total: float


# Node ids GBDT's predict routes at once, in whole rounds (at least one), so
# each array of the router holds at most 8192 ids (64 KB) or one round's
# K x n.  A 60-row fixture fold goes 45 of its 200 rounds at a time: its
# predict held at most ~0.45 MB, against ~1.4 MB for all 600 trees at once,
# in about the same time (tracemalloc and timeit, one Xeon core).
_ROUTED_IDS = 8192


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
    """Grow one tree depth-first on the shared split kernel; return (table, leaves).

    `presorted` is `_presort(x)`, `stat` the (s, n) float64 per-row
    statistic and `work` a `_SplitWorkspace` for (s, d, n).  `table` is
    the tree's four node lists (feature, threshold, left, right), with ids
    local to the tree and the root node 0: each node starts as a leaf and
    is rewritten as a split when it splits.  A node stays a leaf, listed in
    `leaves` as (node id, its rows in ascending order) for the learner to
    gather its statistic and set its value, at the depth limit, below twice
    the leaf floor, when its statistic is constant, or when no split has a
    positive gain.  The first two are known at the parent's split, so such
    a child is listed there and never pushed; only a child that may split
    gets a sorted block and goes on the stack.  A
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
    table = feature, threshold, left, right = [-1], [0.0], [0], [0]  # the root, a leaf until it splits
    if max_depth == 0 or n < 2 * min_leaf:
        return table, [(0, np.arange(n))]
    leaves = []
    pending = [(0, np.arange(n), presorted, 0, 0)]
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
        gain, j, thr = found
        importance[j] += gain
        mask = columns[j].take(idx) <= thr
        sides = (idx[mask], idx[~mask])
        children = (len(feature), len(feature) + 1)  # two new leaves
        feature[node], threshold[node] = j, thr
        left[node], right[node] = children
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += children
        right += children
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
    return table, leaves


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
    table, leaves = _grow(
        dataset.x, _presort(dataset.x), counts, max_depth, min_samples_leaf,
        importance=np.zeros(dataset.d),  # the lone tree reports no importance
        work=_SplitWorkspace(k, dataset.d, dataset.n),
    )
    value = np.zeros((len(table[0]), k))
    for leaf, rows in leaves:
        value[leaf] = counts.take(rows, axis=1).sum(axis=1)
    return TreeModel(
        nodes=NodeArrays(*table, value),
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        d=dataset.d,
    )


def predict_tree_batch(model: TreeModel, x) -> np.ndarray:
    """Each row's leaf majority class, ties to the lowest class."""
    leaves = route(feature_rows(x, model.d), model.nodes, np.zeros(1, dtype=np.intp), model._depth)[0]
    return np.argmax(model.nodes.value.take(leaves, axis=0), axis=1).astype(np.int64)


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
    tables = []
    probs = softmax(scores)
    history = [cross_entropy(probs, y)]
    for _ in range(rounds):
        residuals = (onehot - probs).T.copy()  # contiguous rows, as the kernel gathers from
        step = np.empty((n, k))
        for c in range(k):
            table, leaves = _grow(x, presorted, residuals[c : c + 1], max_depth, min_samples_leaf,
                                  importance, work)
            value = [0.0] * len(table[0])
            res, col = residuals[c], step[:, c]
            for leaf, rows in leaves:
                # |r|(1 - |r|) in one temporary, then Python floats: the same
                # IEEE operations as on numpy scalars, at a fraction of the cost
                r = res.take(rows)
                a = np.abs(r)
                a *= 1.0 - a
                denom = float(np.add.reduce(a))
                gamma = (k - 1) / k * float(np.add.reduce(r)) / denom if denom >= 1e-150 else 0.0
                value[leaf] = gamma
                col[rows] = gamma
            tables.append((*table, value))
        scores += shrinkage * step
        probs = softmax(scores)
        history.append(cross_entropy(probs, y))

    nodes, roots = join(tables)
    return GbdtModel(
        shrinkage=shrinkage,
        nodes=nodes,
        roots=roots.reshape(rounds, k),
        init_scores=init,
        importance_raw=importance,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        loss_history=tuple(history),
    )


def predict_gbdt_batch(model: GbdtModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Each row's label and softmax of its accumulated ensemble scores.

    The trees of a block of rounds are routed at once; the scores then take
    each round's shrunk leaf scores in round order, so each score sees the
    adds the fit made, in the fit's order.
    """
    x = feature_rows(x, model.d)
    n, k = x.shape[0], model.n_classes
    scores = np.tile(model.init_scores.astype(float), (n, 1))
    block = max(1, _ROUTED_IDS // (k * n or 1))  # rounds routed at once
    for start in range(0, len(model.roots), block):
        leaves = route(x, model.nodes, model.roots[start : start + block].ravel(), model._depth)
        steps = model.shrinkage * model.nodes.value.take(leaves)  # (rounds * K, n), round-major
        for step in steps.reshape(len(steps) // k, k, n):
            scores += step.T
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
