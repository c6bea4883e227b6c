"""Versioned JSON model documents.

Every fitted model serializes to a single JSON object::

    {"format_version": 1, "model_type": ..., "schema_hash": ...,
     "hyperparameters": {...}, "standardization": {...} | null,
     "weights": {...}}

Floats are written with Python's shortest round-trip representation, so a
reloaded model makes bit-identical decisions.  Tree nodes nest as
``{"feature": j, "threshold": t, "left": ..., "right": ...}`` with leaves
as ``{"leaf": [values]}``; a tree deeper than MAX_TREE_DEPTH is refused,
since json can neither write nor read back a document nested that far.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import FeatureSchema, read_json
from .linear import LogisticModel, Standardization, SvmModel
from .mlp import MlpModel
from .numeric import PARAM_CHECKS, check_hyperparameters
from .trees import GbdtModel, TreeModel, TreeNode

FORMAT_VERSION = 1
MAX_TREE_DEPTH = 500  # json.dumps and json.loads recurse once per level, under a 1000-frame limit


def _tree_to_obj(root: TreeNode) -> dict:
    depth, level = 0, [root]
    while level := [child for node in level if not node.is_leaf for child in (node.left, node.right)]:
        depth += 1
    if depth > MAX_TREE_DEPTH:
        raise ValueError(
            f"tree of depth {depth} is too deep for a model document (at most {MAX_TREE_DEPTH})"
        )
    return _node_to_obj(root)


def _node_to_obj(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": [float(v) for v in np.atleast_1d(node.value)]}  # a GBDT leaf's float as [score]
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj, d: int, width: int, depth: int) -> TreeNode:
    """The tree under node `obj`: each split names one of the `d` feature columns, each leaf holds `width` values.

    A leaf of width 1 is a GBDT leaf (a tree has at least 2 classes), and
    its one score is read as a Python float, as `fit_gbdt` stores it.
    `depth` is the number of levels of splits still allowed at `obj`: the
    tree's `max_depth` at its root, one less at each level below.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"tree node must be a JSON object, got {type(obj).__name__}")
    if "leaf" in obj:
        value = _floats(obj, "leaf", (width,))
        return TreeNode(value=value if width > 1 else float(value[0]))
    if depth == 0:
        raise ValueError("tree is deeper than its hyperparameter 'max_depth'")
    feature = obj["feature"]
    if isinstance(feature, bool) or not isinstance(feature, int) or not 0 <= feature < d:
        raise ValueError(f"tree node 'feature' must be an integer in 0..{d - 1}, got {feature!r}")
    return TreeNode(
        feature=feature,
        threshold=float(_floats(obj, "threshold", ())),
        left=_node_from_obj(obj["left"], d, width, depth - 1),
        right=_node_from_obj(obj["right"], d, width, depth - 1),
    )


def _floats(section: dict, key: str, shape: tuple) -> np.ndarray:
    """`section[key]` as a float array of `shape` (None: any length) with every value finite."""
    try:
        values = np.array(section[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key {key!r} must hold numbers: {exc}") from None
    if values.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, values.shape)):
        expected = str(shape).replace("None", "any")
        raise ValueError(f"key {key!r} must have shape {expected}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"key {key!r} must hold finite numbers")
    return values


def _std_to_obj(std: Standardization) -> dict:
    return {"mean": [float(v) for v in std.mean], "std": [float(v) for v in std.std]}


def _std_from_obj(obj, weights: np.ndarray) -> Standardization:
    """The z-scoring that feeds the matrix `weights`: a mean and a std per column but the last (bias) one."""
    if not isinstance(obj, dict):
        raise ValueError(f"key 'standardization' must be a JSON object, got {type(obj).__name__}")
    width = (weights.shape[1] - 1,)
    try:
        std = Standardization(mean=_floats(obj, "mean", width), std=_floats(obj, "std", width))
    except ValueError as exc:
        raise ValueError(f"key 'standardization': {exc}") from None
    if not (std.std > 0).all():
        raise ValueError("key 'standardization': key 'std' must hold positive numbers")
    return std


def _matrix(w: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in w]


def to_document(model, schema: FeatureSchema) -> dict:
    """Build the JSON-ready document for any of the five model types."""
    doc = {"format_version": FORMAT_VERSION, "schema_hash": schema.schema_hash()}
    if isinstance(model, LogisticModel):
        doc.update(
            model_type="logistic",
            hyperparameters={"n_classes": int(model.n_classes)},
            standardization=_std_to_obj(model.standardization),
            weights={"coef": _matrix(model.weights)},
        )
    elif isinstance(model, SvmModel):
        doc.update(
            model_type="svm",
            hyperparameters={"n_classes": int(model.n_classes), "reg_c": float(model.reg_c)},
            standardization=_std_to_obj(model.standardization),
            weights={"coef": _matrix(model.weights)},
        )
    elif isinstance(model, TreeModel):
        doc.update(
            model_type="tree",
            hyperparameters={
                "n_classes": int(model.n_classes),
                "max_depth": int(model.max_depth),
                "min_samples_leaf": int(model.min_samples_leaf),
                "d": int(model.d),
            },
            standardization=None,
            weights={"root": _tree_to_obj(model.root)},
        )
    elif isinstance(model, GbdtModel):
        doc.update(
            model_type="gbdt",
            hyperparameters={
                "n_classes": int(model.n_classes),
                "rounds": len(model.trees),
                "shrinkage": float(model.shrinkage),
                "max_depth": int(model.max_depth),
                "min_samples_leaf": int(model.min_samples_leaf),
                "d": int(model.d),
            },
            standardization=None,
            weights={
                "init_scores": [float(v) for v in model.init_scores],
                "importance_raw": [float(v) for v in model.importance_raw],
                "trees": [[_tree_to_obj(root) for root in group] for group in model.trees],
                "loss_history": [float(v) for v in model.loss_history],
            },
        )
    elif isinstance(model, MlpModel):
        doc.update(
            model_type="mlp",
            hyperparameters={
                "n_classes": int(model.n_classes),
                "hidden": int(model.h),
                "activation": "tanh",  # the one activation fit_mlp trains
            },
            standardization=_std_to_obj(model.standardization),
            weights={"w1": _matrix(model.w1), "w2": _matrix(model.w2)},
        )
    else:
        raise TypeError(f"cannot serialize object of type {type(model).__name__}")
    return doc


def from_document(doc: dict):
    """Rebuild the model a document describes.

    A malformed document raises ValueError and nothing else.  The document,
    its hyperparameters and weights sections and each tree node must be
    JSON objects, its version and model type known, and no key missing (a
    truncated document).  Each hyperparameter must pass its rule in
    `numeric.PARAM_CHECKS`, the check the trainers make, and is used as
    written: counts are integers (`n_classes` >= 2, `d` >= 1), so 2.7, "2"
    and true are refused, not converted.  Weights, thresholds, leaf values,
    GBDT loss values, means and stds must be finite and stds positive, and
    every array must fit the hyperparameters: one row or value per class in
    `coef`, `w2`, `init_scores` and a tree's leaves (a GBDT leaf holds one
    value), one group of trees per GBDT round, one row of `w1` per hidden
    unit, one `importance_raw` value and one mean and std per feature, a
    split feature in 0..d-1, and no tree deeper than its `max_depth` (no
    split at depth `max_depth` or below).
    An MLP activation must be "tanh" (a missing one reads as "tanh").  Past
    the version and type checks every message names the model type, and
    those of the checks above name the key at fault.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    for key in ("hyperparameters", "weights"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"model document key {key!r} must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {version!r}")
    kind = doc.get("model_type")
    if kind not in ("logistic", "svm", "tree", "gbdt", "mlp"):
        raise ValueError(f"unknown model_type {kind!r}")
    try:
        return _model_from_document(kind, doc)
    except KeyError as exc:
        raise ValueError(f"truncated {kind} model document: missing key {exc.args[0]!r}") from None
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:  # e.g. "trees": 5, a deep tree
        raise ValueError(f"malformed {kind} model document: {exc}") from None


def _model_from_document(kind: str, doc: dict):
    hp = doc.get("hyperparameters", {})
    weights = doc.get("weights", {})
    # each hyperparameter the document holds must pass the check its trainer makes
    check_hyperparameters(kind, **{key: value for key, value in hp.items() if key in PARAM_CHECKS})
    k = hp["n_classes"]
    if kind in ("logistic", "svm"):
        coef = _floats(weights, "coef", (k, None))
        std = _std_from_obj(doc["standardization"], coef)
        if kind == "logistic":
            return LogisticModel(weights=coef, standardization=std)
        return SvmModel(weights=coef, reg_c=hp["reg_c"], standardization=std)
    if kind == "mlp":
        activation = hp.get("activation", "tanh")
        if activation != "tanh":
            raise ValueError(f"mlp hyperparameter 'activation' must be 'tanh', got {activation!r}")
        h = hp["hidden"]
        w1 = _floats(weights, "w1", (None, None))
        if w1.shape[0] != h:
            raise ValueError(f"hyperparameter 'hidden' is {h}, but key 'w1' has {w1.shape[0]} rows")
        return MlpModel(
            w1=w1,
            w2=_floats(weights, "w2", (k, h + 1)),
            standardization=_std_from_obj(doc["standardization"], w1),
        )
    d, max_depth, min_samples_leaf = hp["d"], hp["max_depth"], hp["min_samples_leaf"]
    if kind == "tree":
        return TreeModel(
            root=_node_from_obj(weights["root"], d, k, max_depth),
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            d=d,
        )
    history = _floats(weights, "loss_history", (None,)).tolist() if "loss_history" in weights else []
    trees = tuple(tuple(_node_from_obj(obj, d, 1, max_depth) for obj in group) for group in weights["trees"])
    if len(trees) != hp["rounds"]:  # a model's round count is len(trees): only a document can disagree
        raise ValueError("tree rounds do not match the declared round count")
    return GbdtModel(
        shrinkage=hp["shrinkage"],
        trees=trees,
        init_scores=_floats(weights, "init_scores", (k,)),
        importance_raw=_floats(weights, "importance_raw", (d,)),
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        loss_history=tuple(history),
    )


def save_model(model, schema: FeatureSchema, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_document(model, schema), indent=2, sort_keys=True) + "\n")
    return path


def load_model(path, schema: FeatureSchema | None = None):
    """Load a model document; if a schema is given, its hash must match."""
    doc = read_json(path, "model document", ValueError)
    # a non-object document falls through to from_document's ValueError
    if schema is not None and isinstance(doc, dict) and doc.get("schema_hash") != schema.schema_hash():
        raise ValueError("model document was fitted against a different schema")
    return from_document(doc)
