"""Decision tree, gradient-boosted trees, and split-gain feature importance.

The lone classification tree splits on Gini impurity decrease; the boosted
ensemble fits one regression tree per class per round to the softmax
log-loss residuals, with variance-reduction splits and the one-step
closed-form leaf update.  Candidate thresholds sit at midpoints between
consecutive distinct sorted values, and all tie-breaks are fixed (lowest
feature index, then lowest threshold) so fitted trees are stable across
platforms.

Both learners grow on one exact split kernel, `_best_split`, which scores
every (feature, threshold) of a node in one vectorized pass over a
presorted column block, as in XGBoost's exact greedy search (Chen &
Guestrin, 2016, section 4.1).  Each column is stably argsorted once per fit
(once per ensemble, since x never changes); a child inherits its parent's
sorted rows filtered by the split mask.  The filter keeps order and a
stable sort breaks value ties by row index, so every node sees exactly the
order a fresh stable argsort of its members gives: trees match a per-node
sort bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema
from .numeric import argmax_lowest, softmax


@dataclass
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (value vector).

    Internal nodes route x[feature] <= threshold to the left child.  A leaf
    of the classification tree stores per-class training counts; a leaf of a
    boosted regression tree stores the single additive score.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


@dataclass(frozen=True, eq=False)
class TreeModel:
    root: TreeNode
    max_depth: int
    min_samples_leaf: int
    d: int
    n_classes: int


@dataclass(frozen=True, eq=False)
class GbdtModel:
    rounds: int
    shrinkage: float
    trees: tuple[tuple[TreeNode, ...], ...]  # rounds x n_classes
    init_scores: np.ndarray
    importance_raw: np.ndarray
    d: int
    n_classes: int
    max_depth: int
    min_samples_leaf: int
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.trees) != self.rounds:
            raise ValueError("tree rounds do not match the declared round count")
        if any(len(group) != self.n_classes for group in self.trees):
            raise ValueError("each round must hold one tree per class")


@dataclass(frozen=True)
class ImportanceReport:
    """Features ranked by normalized split-gain importance."""

    entries: tuple[tuple[str, float], ...]
    total: float


def _route(node: TreeNode, x: np.ndarray) -> np.ndarray:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


def tree_apply(root: TreeNode, x: np.ndarray) -> np.ndarray:
    """Leaf values for every row of x, routed in vectorized index batches."""
    x = np.asarray(x, dtype=float)
    probe = root
    while not probe.is_leaf:
        probe = probe.left
    out = np.empty((x.shape[0], probe.value.shape[0]))

    def rec(node: TreeNode, idx: np.ndarray):
        if node.is_leaf:
            out[idx] = node.value
            return
        mask = x[idx, node.feature] <= node.threshold
        rec(node.left, idx[mask])
        rec(node.right, idx[~mask])

    rec(root, np.arange(x.shape[0]))
    return out


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature stable sort of every row: (rows, values), each of shape (d, n)."""
    rows = np.argsort(x.T, axis=1, kind="stable")
    return rows, np.take_along_axis(x.T, rows, axis=1)


def _best_split(rows: np.ndarray, vals: np.ndarray, stat: np.ndarray, total, min_leaf: int):
    """Exhaustive best (gain, feature, threshold) over midpoint candidates, or None.

    `rows` and `vals` hold the node's members sorted by each feature, shape
    (d, m); `stat` is the per-row statistic, shape (s, n), and `total` its
    node sum, shape (s,).  With S the sum of squared statistic sums, the
    gain is Sl/nl + Sr/nr - Sp/m: Gini decrease for one-hot class counts,
    squared-error decrease for a residual row.  Integer counts make equal
    partitions give bit-identical gains, so the tie-breaks (lowest feature,
    then lowest threshold) are meaningful.  Only strictly positive gains
    qualify.
    """
    m = rows.shape[1]
    parent_term = (total * total).sum() / m
    sums = np.cumsum(np.take(stat, rows[:, :-1], axis=1), axis=2)  # left, (s, d, m - 1)
    nl = np.arange(1, m)
    nr = m - nl
    gains = (sums * sums).sum(axis=0) / nl
    # right sums in place, sparing a block: sl - total is exactly -(total - sl)
    sums -= total[:, None, None]
    gains += (sums * sums).sum(axis=0) / nr
    gains -= parent_term
    gains[(vals[:, 1:] <= vals[:, :-1]) | (nl < min_leaf) | (nr < min_leaf)] = -np.inf
    j, i = divmod(int(np.argmax(gains)), m - 1)  # feature-major: first max wins
    if not gains[j, i] > 0:
        return None
    return float(gains[j, i]), j, float((vals[j, i] + vals[j, i + 1]) / 2.0)


def _grow(x, presorted, stat, max_depth, min_leaf, make_leaf, importance) -> TreeNode:
    """Grow one tree depth-first on the shared split kernel; return its root.

    `presorted` is `_presort(x)` and `stat` the (s, n) per-row statistic.
    A node becomes `make_leaf(idx, total)` at the depth limit, below twice
    the leaf floor, when its statistic is constant, or when no split has a
    positive gain.  Each split adds its gain to `importance[feature]`.
    """
    go_left = np.empty(x.shape[0], dtype=bool)

    def build(idx: np.ndarray, rows: np.ndarray, vals: np.ndarray, depth: int) -> TreeNode:
        node = stat[:, idx]
        total = node.sum(axis=1)  # in node order, as the leaf sums it
        found = None
        if depth < max_depth and idx.size >= 2 * min_leaf and (node != node[:, :1]).any():
            found = _best_split(rows, vals, stat, total, min_leaf)
        if found is None:
            return make_leaf(idx, total)
        gain, j, thr = found
        importance[j] += gain
        # filtering the parent's block keeps each feature's sorted order
        mask = x[idx, j] <= thr
        go_left[idx] = mask
        keep = go_left[rows].ravel()
        children = []
        for side, members in ((keep, mask), (~keep, ~mask)):
            flat = np.flatnonzero(side)
            shape = (rows.shape[0], flat.size // rows.shape[0])
            children.append(
                (idx[members], rows.take(flat).reshape(shape), vals.take(flat).reshape(shape))
            )
        left, right = children
        del keep, flat  # not held while the subtrees grow
        return TreeNode(
            feature=j,
            threshold=thr,
            left=build(*left, depth + 1),
            right=build(*right, depth + 1),
        )

    return build(np.arange(x.shape[0]), *presorted, 0)


def _check_tree_params(max_depth: int, min_samples_leaf: int):
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be at least 1")


def fit_tree(dataset: Dataset, max_depth: int = 5, min_samples_leaf: int = 2) -> TreeModel:
    """Greedy recursive partitioning on Gini impurity decrease.

    Stops on purity, depth, or the per-leaf sample floor; a node with no
    strictly positive gain also becomes a leaf.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    _check_tree_params(max_depth, min_samples_leaf)
    k = dataset.schema.n_classes
    onehot = np.zeros((k, dataset.n), dtype=np.int64)
    onehot[dataset.y, np.arange(dataset.n)] = 1
    root = _grow(
        dataset.x, _presort(dataset.x), onehot, max_depth, min_samples_leaf,
        make_leaf=lambda idx, counts: TreeNode(value=counts.astype(np.float64)),
        importance=np.zeros(dataset.d),  # the lone tree reports no importance
    )
    return TreeModel(
        root=root,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        d=dataset.d,
        n_classes=k,
    )


def predict_tree(model: TreeModel, x) -> int:
    """Route to a leaf and return the majority class, ties to the lowest class."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"dimension mismatch: expected {model.d} features, got {x.shape}")
    return argmax_lowest(_route(model.root, x))


def predict_tree_batch(model: TreeModel, x: np.ndarray) -> np.ndarray:
    return np.argmax(tree_apply(model.root, x), axis=1).astype(np.int64)


def _fit_regression_tree(x, presorted, targets, max_depth, min_leaf, leaf_value, importance):
    """Variance-reduction regression tree; returns (root, in-sample predictions).

    `presorted` is `_presort(x)`, shared by every tree of one ensemble.
    Split gains (sum-of-squares reduction) are accumulated per feature into
    `importance`.  Leaf payloads come from `leaf_value`, so the boosting loop
    can install its closed-form log-loss update.
    """
    out = np.empty(x.shape[0])

    def make_leaf(idx: np.ndarray, total) -> TreeNode:
        gamma = leaf_value(targets[idx])
        out[idx] = gamma
        return TreeNode(value=np.array([gamma]))

    root = _grow(x, presorted, targets[None, :], max_depth, min_leaf, make_leaf, importance)
    return root, out


def _log_loss(scores: np.ndarray, y: np.ndarray) -> float:
    p = softmax(scores)
    picked = p[np.arange(y.shape[0]), y]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def fit_gbdt(
    dataset: Dataset,
    rounds: int = 200,
    shrinkage: float = 0.1,
    max_depth: int = 3,
    min_samples_leaf: int = 2,
) -> GbdtModel:
    """Multiclass gradient boosting with a softmax link and log-loss.

    Scores start at the class log-priors.  Each round computes the
    probabilities once, then fits one regression tree per class to the
    residuals 1{y=k} - p_k (the negative log-loss gradient); leaf values use
    the one-step update (K-1)/K * sum(r) / sum(|r|(1-|r|)), and scores move
    by shrinkage times the tree output.  Per-round training log-loss is
    recorded on the model.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if not 0.0 < shrinkage <= 1.0:
        raise ValueError("invalid shrinkage: must lie in (0, 1]")
    _check_tree_params(max_depth, min_samples_leaf)
    k = dataset.schema.n_classes
    n = dataset.n
    x, y = dataset.x, dataset.y

    counts = np.bincount(y, minlength=k).astype(np.float64)
    init = np.log(np.maximum(counts, 1e-12) / n)
    scores = np.tile(init, (n, 1))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    def newton_leaf(r: np.ndarray) -> float:
        denom = (np.abs(r) * (1.0 - np.abs(r))).sum()
        if denom < 1e-150:
            return 0.0
        return (k - 1) / k * r.sum() / denom

    importance = np.zeros(dataset.d)
    presorted = _presort(x)  # x never changes, so one sort serves every tree
    all_trees = []
    history = [_log_loss(scores, y)]
    for _ in range(rounds):
        residuals = onehot - softmax(scores)
        group = []
        step = np.empty((n, k))
        for c in range(k):
            root, pred = _fit_regression_tree(
                x, presorted, residuals[:, c], max_depth, min_samples_leaf, newton_leaf, importance
            )
            group.append(root)
            step[:, c] = pred
        scores += shrinkage * step
        all_trees.append(tuple(group))
        history.append(_log_loss(scores, y))

    return GbdtModel(
        rounds=rounds,
        shrinkage=shrinkage,
        trees=tuple(all_trees),
        init_scores=init,
        importance_raw=importance,
        d=dataset.d,
        n_classes=k,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        loss_history=tuple(history),
    )


def gbdt_scores(model: GbdtModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"dimension mismatch: expected {model.d} features, got {x.shape}")
    scores = model.init_scores.astype(float).copy()
    for group in model.trees:
        for c, root in enumerate(group):
            scores[c] += model.shrinkage * _route(root, x)[0]
    return scores


def predict_gbdt(model: GbdtModel, x) -> tuple[int, np.ndarray]:
    """Label and probability vector from the accumulated ensemble scores."""
    probs = softmax(gbdt_scores(model, x))
    return argmax_lowest(probs), probs


def predict_gbdt_batch(model: GbdtModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    scores = np.tile(model.init_scores.astype(float), (x.shape[0], 1))
    for group in model.trees:
        for c, root in enumerate(group):
            scores[:, c] += model.shrinkage * tree_apply(root, x)[:, 0]
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
