#!/usr/bin/env python3
"""Print the sha256 of the model document of every fixed fit, one per line.

    python3 tools/model_digests.py

Fits the fixture's five models on the whole fixture with their default
hyperparameters and the fixture config's seed, a 200-round GBDT on a
2000x20 synthetic set and a tree on a 960x20 one, and prints
``<name> <sha256 of the sorted-key JSON document>`` for each.  A change
that must keep models bit-identical prints the same lines before and after;
compare the two outputs with diff.  Takes a few seconds on one core.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from mppkit.data import generate_synthetic, load_dataset, load_schema
from mppkit.evaluation import MODEL_DEFAULTS
from mppkit.linear import GdConfig, fit_logistic, fit_svm
from mppkit.mlp import fit_mlp
from mppkit.serialize import to_document
from mppkit.trees import fit_gbdt, fit_tree

FIXTURE_DIR = REPO / "tests" / "fixtures"
SEED = 7  # the fixture config's seed


def _fit(name: str, dataset, seed: int):
    p = MODEL_DEFAULTS[name]
    if name == "logistic":
        return fit_logistic(dataset, GdConfig(p["learning_rate"], p["epochs"], p["l2"], seed))
    if name == "svm":
        cfg = GdConfig(p["learning_rate"], p["epochs"], 0.0, seed)
        return fit_svm(dataset, cfg, reg_c=p["reg_c"])
    if name == "tree":
        return fit_tree(dataset, p["max_depth"], p["min_samples_leaf"])
    if name == "gbdt":
        return fit_gbdt(dataset, p["rounds"], p["shrinkage"], p["max_depth"], p["min_samples_leaf"])
    cfg = GdConfig(p["learning_rate"], p["epochs"], p["l2"], seed)
    return fit_mlp(dataset, h=p["hidden"], cfg=cfg, batch_size=p["batch_size"])


def _digest(model, schema) -> str:
    doc = to_document(model, schema)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main() -> None:
    schema = load_schema(FIXTURE_DIR / "fixture_schema.json")
    fixture = load_dataset(FIXTURE_DIR / "fixture.csv", schema)
    for name in MODEL_DEFAULTS:
        print(f"fixture/{name} {_digest(_fit(name, fixture, SEED), schema)}", flush=True)
    big = generate_synthetic(2000, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    print(f"synthetic-2000x20/gbdt {_digest(_fit('gbdt', big, SEED), big.schema)}", flush=True)
    mid = generate_synthetic(960, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    print(f"synthetic-960x20/tree {_digest(_fit('tree', mid, SEED), mid.schema)}", flush=True)


if __name__ == "__main__":
    main()
