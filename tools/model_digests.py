#!/usr/bin/env python3
"""Print the sha256 of the model document and of the predictions of every fixed fit.

    python3 tools/model_digests.py

Fits, through ``mppkit.evaluation.fit_predictor`` (the fit the CV driver
makes for each fold), the fixture's five models on the whole fixture with
their default hyperparameters and the fixture config's seed, a 200-round
GBDT on a 2000x20 synthetic set, and a tree, an MLP, a logistic model (which
pins softmax on inputs of many rows) and an SVM on a 960x20 one.  The ``-cv``
lines are 5-fold CVs through ``mppkit.evaluation.fold_fits`` (the folds
``cross_validate`` fits): the MLP's on the fixture and on the 960x20 set,
whose folds train in lockstep, and the SVM's and the logistic model's on the
960x20 set, the fold models of the ``gd_960`` benchmark workload.  Each is
one document list of the fold models, in fold order, and the out-of-fold
labels.  It prints ``<name> <sha256 of the sorted-key JSON
document>`` for each fit, then ``<name>/predict <sha256 of the label bytes>``
for each fit, where the labels are ``MODELS[model].predict(model, x)`` on the
rows it was fitted on (each row's held-out fold model for ``mlp-cv``).  A
change that must keep models, or predictions, bit-identical prints the same
lines before and after; compare the two outputs with diff.  Takes a few
seconds on one core.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np

from mppkit.data import generate_synthetic, load_dataset, load_schema, stratified_kfold
from mppkit.evaluation import MODELS, fit_predictor, fold_fits, resolve_params
from mppkit.serialize import to_document

FIXTURE_DIR = REPO / "tests" / "fixtures"
SEED = 7  # the fixture config's seed


def _sha256(doc, labels) -> tuple[str, str]:
    return (
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        hashlib.sha256(labels.tobytes()).hexdigest(),
    )


def _digests(name: str, dataset) -> tuple[str, str]:
    """sha256 of the fitted model's document and of its labels for the same rows."""
    model = fit_predictor(name, {}, dataset, SEED)
    return _sha256(to_document(model, dataset.schema), MODELS[name].predict(model, dataset.x))


def _cv_digests(name: str, dataset) -> tuple[str, str]:
    """sha256 of the 5-fold CV's fold model documents, in fold order, and of its out-of-fold labels."""
    plan = stratified_kfold(dataset, 5, SEED)
    docs, labels = [], np.full(dataset.n, -1, dtype=np.int64)
    for test_idx, model, fold_labels in fold_fits(name, resolve_params(name), dataset, plan, SEED):
        docs.append(to_document(model, dataset.schema))
        labels[test_idx] = fold_labels
    return _sha256(docs, labels)


def main() -> None:
    fixture = load_dataset(FIXTURE_DIR / "fixture.csv", load_schema(FIXTURE_DIR / "fixture_schema.json"))
    fits = [(f"fixture/{name}", name, fixture) for name in MODELS]
    big = generate_synthetic(2000, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    mid = generate_synthetic(960, 20, {0, 1, 2}, seed=SEED, noise=0.05)
    fits += [("synthetic-2000x20/gbdt", "gbdt", big), ("synthetic-960x20/tree", "tree", mid),
             ("synthetic-960x20/mlp", "mlp", mid), ("synthetic-960x20/logistic", "logistic", mid),
             ("synthetic-960x20/svm", "svm", mid), ("fixture/mlp-cv", "mlp", fixture),
             ("synthetic-960x20/mlp-cv", "mlp", mid), ("synthetic-960x20/svm-cv", "svm", mid),
             ("synthetic-960x20/logistic-cv", "logistic", mid)]
    predictions = []
    for label, name, dataset in fits:
        digests = _cv_digests if label.endswith("-cv") else _digests
        model_digest, predict_digest = digests(name, dataset)
        print(f"{label} {model_digest}", flush=True)
        predictions.append(f"{label}/predict {predict_digest}")
    print("\n".join(predictions))


if __name__ == "__main__":
    main()
