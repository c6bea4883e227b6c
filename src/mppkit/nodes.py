"""Fitted trees as tables of parallel node arrays, and the router that predicts through them.

This is scikit-learn's `Tree` layout (Buitinck et al., 2013).  A
`NodeArrays` table holds, per node id, the split `feature` and
`threshold` (a split sends x[feature] <= threshold to node `left`, the
rest to node `right`) and the node's `value`.  A leaf's `left` and `right`
hold its own id and its `feature` is -1.  One table may hold many trees,
each entered at its own root id.

`route` moves every row down every tree at once, one gather of each id's
feature, threshold and children per depth level; a leaf's step keeps a row
where it is.  `checked` is the one check of a table, made when a model is
built.  `TreeNode` is a read-only view of one node, for code that walks a
tree node by node.  This module holds no learner: see `trees`.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np


class NodeArrays(NamedTuple):
    """One table of tree nodes: entry i of each array describes node i.

    `feature`, `left` and `right` are intp and `threshold` float64, one
    entry per node; `value` is float64 with one row (a tree's class counts)
    or one score (a boosted tree's) per node, 0 at a split.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _frozen(values, dtype, name: str) -> np.ndarray:
    """`values` as a read-only `dtype` array: kept if it already is one (as a fit builds it), else copied."""
    array = np.asarray(values)
    if array.dtype != dtype or array.flags.writeable:
        if dtype is np.intp and array.dtype.kind not in "iu":
            raise ValueError(f"node array {name!r} must hold integers, got dtype {array.dtype}")
        array = array.astype(dtype)
        array.flags.writeable = False
    return array


def checked(nodes: NodeArrays, roots, d: int, value_ndim: int) -> tuple[NodeArrays, np.ndarray, int]:
    """`nodes` and `roots` as read-only arrays, and the number of split levels of the deepest tree.

    Raises a ValueError naming the fault unless `feature`, `threshold`,
    `left` and `right` are 1-D of one length, `value` has `value_ndim`
    dimensions and one entry per node, every child and root id indexes the
    table, every split's feature is in 0..d-1, and no node is its own
    descendant.  A split is a node with a child other than itself, so a
    node that is its own left child but not its own right one is a cycle.
    """
    nodes = NodeArrays(*(_frozen(a, np.float64 if name in ("threshold", "value") else np.intp, name)
                         for name, a in zip(NodeArrays._fields, nodes)))
    roots = _frozen(roots, np.intp, "roots")
    feature, _, left, right, value = nodes
    m = feature.size
    if any(a.shape != (m,) for a in nodes[:4]):
        raise ValueError("node arrays 'feature', 'threshold', 'left' and 'right' must be 1-D and of one length")
    if value.ndim != value_ndim or value.shape[0] != m:
        raise ValueError(f"node array 'value' must have {value_ndim} dimension(s) and {m} rows, "
                         f"got shape {value.shape}")
    for name, ids in (("left", left), ("right", right), ("roots", roots)):
        if ids.size and not (ids.min() >= 0 and ids.max() < m):
            raise ValueError(f"node array {name!r} holds an id outside the {m} nodes")
    own = np.arange(m)
    split = (left != own) | (right != own)
    bad = split & ((feature < 0) | (feature >= d))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"node {i} splits on feature {int(feature[i])}, outside 0..{d - 1}")
    depth, level = 0, roots.ravel()
    while (level := level[split[level]]).size:
        depth += 1
        if depth >= m:  # a path through m splits repeats a node
            raise ValueError("the nodes' child ids form a cycle")
        level = np.concatenate((left[level], right[level]))
        if level.size > m:  # children shared between nodes: keep each id once
            level = np.unique(level)
    return nodes, roots, depth


def join(tables: list) -> tuple[NodeArrays, np.ndarray]:
    """One read-only table of per-tree node lists (feature, threshold, left, right, value), and each tree's root.

    A tree's ids move past those of the trees before it, so its root, its
    node 0, gets the offset.  A fit keeps each tree's lists apart, small
    enough for Python's object allocator, and joins them once: one set of
    lists grown through a whole 2000 x 20 GBDT fit (~8500 nodes) raised its
    peak resident memory by ~0.9 MB over linked node objects, where these
    leave it within ~0.1 MB.
    """
    sizes = np.array([len(table[0]) for table in tables], dtype=np.intp)
    roots = np.cumsum(sizes) - sizes
    columns = [np.fromiter(chain.from_iterable(table[i] for table in tables), dtype, count=int(sizes.sum()))
               for i, dtype in enumerate((np.intp, float, np.intp, np.intp, float))]
    shift = np.repeat(roots, sizes)
    for ids in columns[2:4]:
        ids += shift
    for column in (*columns, roots):
        column.flags.writeable = False
    return NodeArrays(*columns), roots


def route(x: np.ndarray, nodes: NodeArrays, roots: np.ndarray, steps: int) -> np.ndarray:
    """The leaf id of each row of `x` in each tree, shape (len(roots), n).

    Every row starts at every root and moves down one level per step: a
    gather of each id's feature, threshold and children, for `steps`, the
    split levels of the deepest tree.  A leaf's children are itself, so a
    row that reached one stays; its feature -1 reads some cell of x (the
    gather clips into range) that the compare ignores.  x is read through
    flat offsets, row i's cells starting at i * d.
    """
    n, d = x.shape
    cells = np.ascontiguousarray(x).ravel()
    starts = np.arange(0, n * d, d)
    ids = np.repeat(roots[:, None], n, axis=1)
    for _ in range(steps):
        at = nodes.feature.take(ids)
        at += starts
        go = cells.take(at, mode="clip") <= nodes.threshold.take(ids)
        ids = np.where(go, nodes.left.take(ids), nodes.right.take(ids))
    return ids


class TreeNode:
    """A read-only view of one node of a model's node arrays.

    A split has `feature`, `threshold` and its `left` and `right` children
    (views too), and `value` None; a leaf has `left` and `right` None and
    its `value`: a read-only row of class counts in a tree, a Python float
    score in a boosted tree.
    """

    __slots__ = ("_nodes", "_id")

    def __init__(self, nodes: NodeArrays, node_id: int):
        self._nodes = nodes
        self._id = node_id

    @property
    def is_leaf(self) -> bool:
        return int(self._nodes.left[self._id]) == self._id

    @property
    def feature(self) -> int:
        return int(self._nodes.feature[self._id])

    @property
    def threshold(self) -> float:
        return float(self._nodes.threshold[self._id])

    @property
    def left(self) -> TreeNode | None:
        return None if self.is_leaf else TreeNode(self._nodes, int(self._nodes.left[self._id]))

    @property
    def right(self) -> TreeNode | None:
        return None if self.is_leaf else TreeNode(self._nodes, int(self._nodes.right[self._id]))

    @property
    def value(self) -> np.ndarray | float | None:
        if not self.is_leaf:
            return None
        value = self._nodes.value[self._id]
        return float(value) if value.ndim == 0 else value
