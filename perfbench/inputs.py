"""Seeded input generator: writes one workload's input files into a directory.

    python3 perfbench/inputs.py WORKLOAD SEED DIR

prints one JSON object: the mppkit arguments (relative to DIR, which is the
program's working directory, so report bytes do not depend on where DIR
is), the report directory, what the checks expect and the numpy version.
The same seed writes the same bytes.  Inputs come from numpy's own generator, never from
mppkit code, so a change to the program cannot change what it is fed.  It
runs in a process of its own, so the benchmark process stays small.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import FIXTURE_FILES, RECIPES

REPO = Path(__file__).resolve().parent.parent


def _labels_from_informative(x: np.ndarray, informative, noise: float, rng) -> np.ndarray:
    # tercile band of the informative columns' mean, then `noise` of the
    # labels redrawn uniformly: the recipe of mppkit's synthetic surrogate
    n = x.shape[0]
    order = np.argsort(x[:, informative].mean(axis=1), kind="stable")
    third = n // 3
    labels = np.empty(n, dtype=np.int64)
    labels[order[:third]] = 0
    labels[order[third : 2 * third]] = 1
    labels[order[2 * third :]] = 2
    flip = rng.random(n) < noise
    return np.where(flip, rng.integers(0, 3, n), labels)


def _floats(values: np.ndarray) -> np.ndarray:
    return np.array([repr(v) for v in values.tolist()], dtype=object)


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.stack(columns, axis=1).tolist()
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(",".join(row) for row in rows))
        fh.write("\n")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _synthetic(work: Path, recipe: dict, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n, d = recipe["n"], recipe["d"]
    x = rng.random((n, d))
    y = _labels_from_informative(x, recipe["informative"], recipe["noise"], rng)
    names = [f"f{i}" for i in range(d)]
    _write_table(
        work / "data.csv",
        names + ["label"],
        [_floats(x[:, j]) for j in range(d)] + [y.astype(str).astype(object)],
    )
    _write_json(
        work / "schema.json",
        {"label": "label", "n_classes": 3,
         "features": [{"name": name, "kind": "continuous", "unit": None} for name in names]},
    )
    _write_json(
        work / "config.json",
        {"data": "data.csv", "schema": "schema.json",
         "models": {m: {} for m in recipe["models"]},
         "folds": recipe.get("folds", 5), "seed": seed, "out": "out",
         "format": recipe.get("format", "both")},
    )


def _mixed_kinds(work: Path, recipe: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n, kinds = recipe["n"], recipe["kinds"]
    header, columns, features = [], [], []
    codes = recipe["binary_codes"]
    for j in range(kinds["binary"]):
        header.append(f"b{j}")
        columns.append(np.where(rng.random(n) < 0.5, "yes", "no").astype(object))
        features.append({"name": f"b{j}", "kind": "binary", "unit": None, "mapping": codes})
    for j in range(kinds["ordinal"]):
        header.append(f"o{j}")
        columns.append(rng.integers(0, recipe["ordinal_levels"], n).astype(str).astype(object))
        features.append({"name": f"o{j}", "kind": "ordinal", "unit": None})
    for j in range(kinds["continuous"]):
        header.append(f"c{j}")
        columns.append(_floats(rng.normal(50.0, 10.0, n)))
        features.append({"name": f"c{j}", "kind": "continuous", "unit": "mg/L"})
    for col in columns:
        col[rng.random(n) < recipe["missing_rate"]] = ""
    y = rng.integers(0, 3, n)
    header.append("label")
    columns.append(y.astype(str).astype(object))
    _write_table(work / "data.csv", header, columns)
    _write_json(work / "schema.json", {"label": "label", "n_classes": 3, "features": features})
    return {"records": n, "features": len(features),
            "class_counts": np.bincount(y, minlength=3).tolist()}


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of `workload` for `seed` into `work`; describe the call."""
    recipe = RECIPES[workload]
    if workload == "fixture_run":
        for name in FIXTURE_FILES:
            shutil.copyfile(REPO / "tests" / "fixtures" / name, work / name)
        argv = ["run", "--config", "fixture_config.json", "--seed", str(seed), "--out", "out"]
        return {"argv": argv, "out_dir": "out", "expect": {"seed": seed}}
    if workload == "importance_2k":
        _synthetic(work, recipe, seed)
        return {"argv": ["importance", "--config", "config.json"], "out_dir": "out", "expect": {}}
    if workload == "gd_960":
        _synthetic(work, recipe, seed)
        argv = ["run", "--config", "config.json", "--models", ",".join(recipe["models"])]
        return {"argv": argv, "out_dir": "out", "expect": {}}
    if workload == "validate_100k":
        expect = _mixed_kinds(work, recipe, seed)
        argv = ["validate-data", "--data", "data.csv", "--schema", "schema.json"]
        return {"argv": argv, "out_dir": None, "expect": expect}
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps({**prepare(name, seed, directory), "numpy": np.__version__}))
