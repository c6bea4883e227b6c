#!/usr/bin/env python3
"""Print the sha256 of the model document of every fixed fit, one per line.

    python3 tools/model_digests.py

Fits, through ``mppkit.evaluation.fit_model`` (the model table the CV
driver fits through), the fixture's five models on the whole fixture with
their default hyperparameters and the fixture config's seed, a 200-round
GBDT on a 2000x20 synthetic set and a tree on a 960x20 one, and prints
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
from mppkit.evaluation import MODEL_DEFAULTS, fit_model
from mppkit.serialize import to_document

FIXTURE_DIR = REPO / "tests" / "fixtures"
SEED = 7  # the fixture config's seed


def _digest(name: str, dataset) -> str:
    model = fit_model(name, {}, dataset, SEED)
    doc = to_document(model, dataset.schema)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main() -> None:
    fixture = load_dataset(FIXTURE_DIR / "fixture.csv", load_schema(FIXTURE_DIR / "fixture_schema.json"))
    for name in MODEL_DEFAULTS:
        print(f"fixture/{name} {_digest(name, fixture)}", flush=True)
    big = generate_synthetic(2000, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    print(f"synthetic-2000x20/gbdt {_digest('gbdt', big)}", flush=True)
    mid = generate_synthetic(960, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    print(f"synthetic-960x20/tree {_digest('tree', mid)}", flush=True)


if __name__ == "__main__":
    main()
