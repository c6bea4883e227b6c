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
        return {"leaf": [float(v) for v in node.value]}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj, d: int) -> TreeNode:
    """The tree under node `obj`, whose splits must each name one of the `d` feature columns."""
    if not isinstance(obj, dict):
        raise ValueError(f"tree node must be a JSON object, got {type(obj).__name__}")
    if "leaf" in obj:
        return TreeNode(value=np.array(obj["leaf"], dtype=float))
    feature = obj["feature"]
    if isinstance(feature, bool) or not isinstance(feature, int) or not 0 <= feature < d:
        raise ValueError(f"tree node 'feature' must be an integer in 0..{d - 1}, got {feature!r}")
    return TreeNode(
        feature=feature,
        threshold=float(obj["threshold"]),
        left=_node_from_obj(obj["left"], d),
        right=_node_from_obj(obj["right"], d),
    )


def _std_to_obj(std: Standardization) -> dict:
    return {"mean": [float(v) for v in std.mean], "std": [float(v) for v in std.std]}


def _std_from_obj(obj, weights: np.ndarray) -> Standardization:
    """The z-scoring that feeds `weights`: a mean and a std per column but the last (bias) one."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"model document key 'standardization' must be a JSON object, got {type(obj).__name__}"
        )
    std = Standardization(mean=np.array(obj["mean"], dtype=float), std=np.array(obj["std"], dtype=float))
    if weights.ndim != 2 or not std.mean.shape == std.std.shape == (weights.shape[1] - 1,):
        raise ValueError(
            f"model document key 'standardization' must hold a 'mean' and a 'std' per feature of "
            f"weights shaped {weights.shape}, got shapes {std.mean.shape} and {std.std.shape}"
        )
    return std


def _matrix(w: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in w]


def to_document(model, schema: FeatureSchema) -> dict:
    """Build the JSON-ready document for any of the five model types."""
    doc = {"format_version": FORMAT_VERSION, "schema_hash": schema.schema_hash()}
    if isinstance(model, LogisticModel):
        doc.update(
            model_type="logistic",
            hyperparameters={"n_classes": model.n_classes},
            standardization=_std_to_obj(model.standardization),
            weights={"coef": _matrix(model.weights)},
        )
    elif isinstance(model, SvmModel):
        doc.update(
            model_type="svm",
            hyperparameters={"n_classes": model.n_classes, "reg_c": float(model.reg_c)},
            standardization=_std_to_obj(model.standardization),
            weights={"coef": _matrix(model.weights)},
        )
    elif isinstance(model, TreeModel):
        doc.update(
            model_type="tree",
            hyperparameters={
                "n_classes": model.n_classes,
                "max_depth": model.max_depth,
                "min_samples_leaf": model.min_samples_leaf,
                "d": model.d,
            },
            standardization=None,
            weights={"root": _tree_to_obj(model.root)},
        )
    elif isinstance(model, GbdtModel):
        doc.update(
            model_type="gbdt",
            hyperparameters={
                "n_classes": model.n_classes,
                "rounds": model.rounds,
                "shrinkage": float(model.shrinkage),
                "max_depth": model.max_depth,
                "min_samples_leaf": model.min_samples_leaf,
                "d": model.d,
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
                "n_classes": model.n_classes,
                "hidden": model.h,
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

    A malformed document raises ValueError and nothing else: an
    unsupported version, an unknown model type, a missing key (a truncated
    document), a value of the wrong type or out of range, a document, a
    hyperparameters or weights section, or a tree node that is not a JSON
    object, a tree node whose feature is not a column index in 0..d-1, a
    standardization section that is not an object with a mean and a std
    per feature of the first weight matrix, and an MLP activation other
    than "tanh" (a missing one reads as "tanh").
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
    try:
        return _model_from_document(kind, doc)
    except KeyError as exc:
        raise ValueError(f"truncated {kind} model document: missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError, RecursionError) as exc:  # e.g. int(None), int(inf), a deep tree
        raise ValueError(f"malformed {kind} model document: {exc}") from None


def _model_from_document(kind, doc: dict):
    hp = doc.get("hyperparameters", {})
    weights = doc.get("weights", {})
    if kind == "logistic":
        coef = np.array(weights["coef"], dtype=float)
        return LogisticModel(
            weights=coef,
            standardization=_std_from_obj(doc["standardization"], coef),
            n_classes=int(hp["n_classes"]),
        )
    if kind == "svm":
        coef = np.array(weights["coef"], dtype=float)
        return SvmModel(
            weights=coef,
            reg_c=float(hp["reg_c"]),
            standardization=_std_from_obj(doc["standardization"], coef),
            n_classes=int(hp["n_classes"]),
        )
    if kind == "tree":
        d = int(hp["d"])
        return TreeModel(
            root=_node_from_obj(weights["root"], d),
            max_depth=int(hp["max_depth"]),
            min_samples_leaf=int(hp["min_samples_leaf"]),
            d=d,
            n_classes=int(hp["n_classes"]),
        )
    if kind == "gbdt":
        d = int(hp["d"])
        groups = tuple(
            tuple(_node_from_obj(obj, d) for obj in group) for group in weights["trees"]
        )
        return GbdtModel(
            rounds=int(hp["rounds"]),
            shrinkage=float(hp["shrinkage"]),
            trees=groups,
            init_scores=np.array(weights["init_scores"], dtype=float),
            importance_raw=np.array(weights["importance_raw"], dtype=float),
            d=d,
            n_classes=int(hp["n_classes"]),
            max_depth=int(hp["max_depth"]),
            min_samples_leaf=int(hp["min_samples_leaf"]),
            loss_history=tuple(float(v) for v in weights.get("loss_history", ())),
        )
    if kind == "mlp":
        activation = hp.get("activation", "tanh")
        if activation != "tanh":
            raise ValueError(f"mlp hyperparameter 'activation' must be 'tanh', got {activation!r}")
        w1 = np.array(weights["w1"], dtype=float)
        return MlpModel(
            w1=w1,
            w2=np.array(weights["w2"], dtype=float),
            standardization=_std_from_obj(doc["standardization"], w1),
            h=int(hp["hidden"]),
            n_classes=int(hp["n_classes"]),
        )
    raise ValueError(f"unknown model_type {kind!r}")


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
