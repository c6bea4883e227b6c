"""Workload recipes and the checks on each invocation's outputs.

This module needs only the standard library, so the benchmark's own
process stays small and cannot inflate the peak memory it reads for the
processes it starts (on Linux a child's maximum resident size starts at its
parent's).  The seeded generators that write the inputs are in inputs.py.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

DEFAULT_SEED = 7  # the fixture config's own seed

# comparison.csv and importance.csv of `mppkit run` on the fixture at
# DEFAULT_SEED, recorded from the code this benchmark was written against
FIXTURE_DIGESTS = {
    "comparison.csv": "b0fd5215415151c83708ba24c6a027e90da3df11ef990f32eed38f7acdf62314",
    "importance.csv": "837c54b9aeb8f4fe94ef4fea14a02aafc4cfa6b3adfe4c48385b1389008f1c9c",
}
FIXTURE_FILES = ("fixture_config.json", "fixture.csv", "fixture_schema.json")
MODELS = ("logistic", "tree", "gbdt", "svm", "mlp")

# What each workload feeds the program; the one-line reasons are in BENCHMARK.json.
RECIPES = {
    "fixture_run": {
        "command": "run",
        "data": "tests/fixtures/fixture.csv",
        "n": 300, "d": 10, "models": list(MODELS), "folds": 5, "format": "both",
        "seed_use": "passed as `run --seed`; the data is the fixed fixture",
    },
    "importance_2k": {
        "command": "importance",
        "n": 2000, "d": 20, "informative": [0, 1, 2], "noise": 0.05,
        "kinds": {"continuous": 20}, "missing_rate": 0.0, "models": ["gbdt"],
    },
    "gd_960": {
        "command": "run",
        "n": 960, "d": 20, "informative": [0, 1, 2], "noise": 0.05,
        "kinds": {"continuous": 20}, "missing_rate": 0.0,
        "models": ["logistic", "svm", "mlp", "tree"], "folds": 5, "format": "both",
    },
    "validate_100k": {
        "command": "validate-data",
        "n": 100_000, "d": 30, "informative": [],
        "kinds": {"binary": 10, "ordinal": 10, "continuous": 10},
        "binary_codes": {"yes": 1, "no": 0}, "ordinal_levels": 5,
        "missing_rate": 0.02, "labels": "uniform over 0..2, never blank",
    },
}
WORKLOADS = tuple(RECIPES)


class CheckFailed(Exception):
    """An invocation's outputs are wrong."""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digest(work: Path, prepared: dict, stdout: bytes) -> str:
    """One digest over stdout and every report file, for the repeat check."""
    h = hashlib.sha256(stdout)
    if prepared["out_dir"] is not None:
        out = work / prepared["out_dir"]
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check(workload: str, work: Path, prepared: dict, stdout: str) -> None:
    """Raise CheckFailed unless the outputs of one invocation are right."""
    out = work / prepared["out_dir"] if prepared["out_dir"] else None
    expect = prepared["expect"]
    if workload == "fixture_run":
        wanted = {"comparison.csv", "importance.csv", "summary.json"}
        wanted |= {f"metrics_{m}.csv" for m in MODELS}
        found = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if found != wanted:
            raise CheckFailed(f"report files {sorted(found)}, expected {sorted(wanted)}")
        if expect["seed"] == DEFAULT_SEED:
            for name, digest in FIXTURE_DIGESTS.items():
                if _digest(out / name) != digest:
                    raise CheckFailed(f"{name} differs from the recorded digest")
    elif workload == "importance_2k":
        rows = _csv_rows(out / "importance.csv")[1:]
        top = {name for name, _ in rows[:3]}
        if top != {"f0", "f1", "f2"}:
            raise CheckFailed(f"top three features are {sorted(top)}, expected f0, f1, f2")
        total = sum(float(weight) for _, weight in rows)
        if abs(total - 1.0) > 1e-9:
            raise CheckFailed(f"importance weights sum to {total!r}")
    elif workload == "gd_960":
        rows = _csv_rows(out / "comparison.csv")[1:]
        wanted = len(RECIPES[workload]["models"])
        if len(rows) != wanted:
            raise CheckFailed(f"comparison.csv has {len(rows)} rows, expected {wanted}")
    elif workload == "validate_100k":
        wanted_lines = [
            f"ok: {expect['records']} records, {expect['features']} features",
            "class counts: " + ", ".join(f"{c}={v}" for c, v in enumerate(expect["class_counts"])),
        ]
        if stdout.splitlines() != wanted_lines:
            raise CheckFailed(f"validate-data printed {stdout!r}, expected {wanted_lines!r}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
