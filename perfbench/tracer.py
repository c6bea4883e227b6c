"""Span tracing of mppkit from outside the program, and the per-layer metrics.

A traced invocation is ``python3 perfbench/tracer.py trace --spans FILE
--run-id ID -- <mppkit arguments>``.  It imports mppkit, replaces each public function
named in ``TRACED`` at every ``mppkit.*`` module attribute that refers to it
(so ``mppkit.evaluation.fit_gbdt`` and ``mppkit.experiment.fit_gbdt`` are both
covered), runs ``mppkit.cli.main`` and writes the spans when it returns.
``python3 perfbench/tracer.py metrics FILE...`` turns span files into the
per-layer metrics, in a process of its own so the benchmark stays small.
Untraced runs never import this module's wrappers: they run ``python3 -m
mppkit.cli`` directly.

A span is (name, start, end, parent, tag); all spans of one file share its
run id.  Spans stay in memory until the run ends.  A CV fit and the full
importance fit are told apart by their ancestry (under
``evaluation.cross_validate`` or not), never by call site.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

PACKAGE = "mppkit"

# layer (module of the package) -> public functions whose calls become spans
TRACED = {
    "cli": ("main",),
    "experiment": ("load_config", "run_experiment", "emit_report"),
    "evaluation": ("cross_validate", "fit_predictor"),
    "data": ("load_schema", "load_raw", "clean_and_encode", "stratified_kfold"),
    "linear": ("fit_logistic", "fit_svm", "predict_logistic_batch", "predict_svm_batch"),
    "mlp": ("fit_mlp", "predict_mlp_batch"),
    "trees": (
        "fit_tree", "fit_gbdt", "predict_tree_batch", "predict_gbdt_batch", "feature_importance",
    ),
    "numeric": (
        "softmax",
        "SeededRng.random", "SeededRng.normal", "SeededRng.integers", "SeededRng.permutation",
    ),
}
LAYERS = tuple(TRACED)
# serialize is a layer of the package too, but no CLI command calls it, so
# no workload can measure it

# spans whose tag names the model they work for, taken from the call's arguments
TAGS = {
    "evaluation.cross_validate": lambda args, kw: (kw["spec"] if "spec" in kw else args[0]).name,
    "evaluation.fit_predictor": lambda args, kw: kw["name"] if "name" in kw else args[0],
}
MODELS = ("logistic", "tree", "gbdt", "svm", "mlp")
PREDICT = {
    "logistic": "linear.predict_logistic_batch",
    "svm": "linear.predict_svm_batch",
    "tree": "trees.predict_tree_batch",
    "gbdt": "trees.predict_gbdt_batch",
    "mlp": "mlp.predict_mlp_batch",
}
RNG = tuple(f"numeric.{q}" for q in TRACED["numeric"] if q.startswith("SeededRng."))
CV = "evaluation.cross_validate"


class MissingTarget(RuntimeError):
    """A function named in TRACED no longer exists in its module."""


class CountMismatch(RuntimeError):
    """Two traced runs of one seed counted different work."""


# -- counts taken from the objects the wrapped functions return --------------

def _tree_counts(node) -> tuple[int, int]:
    """(split nodes, leaves) below a TreeNode."""
    splits = leaves = 0
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            leaves += 1
        else:
            splits += 1
            stack.append(n.left)
            stack.append(n.right)
    return splits, leaves


def _gbdt_counts(model) -> dict:
    trees = [root for group in model.trees for root in group]
    splits = leaves = 0
    for root in trees:
        s, l = _tree_counts(root)
        splits += s
        leaves += l
    return {"trees.gbdt_trees": len(trees), "trees.gbdt_split_nodes": splits,
            "trees.gbdt_leaves": leaves}


# span name -> count metrics taken from the object the call returned
COUNTERS = {
    "trees.fit_gbdt": _gbdt_counts,
    "trees.fit_tree": lambda model: {"trees.tree_split_nodes": _tree_counts(model.root)[0]},
    "mlp.fit_mlp": lambda model: {"mlp.epochs": len(model.loss_history) - 1},
    "linear.fit_logistic": lambda model: {"linear.logistic_epochs": len(model.loss_history) - 1},
    "linear.fit_svm": lambda model: {
        "linear.svm_epochs": sum(len(h) - 1 for h in model.loss_history)},
    "data.clean_and_encode": lambda dataset: {"data.rows": dataset.n},
    "experiment.emit_report": lambda paths: {
        "experiment.report_bytes": sum(Path(p).stat().st_size for p in paths)},
}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self._stack: list[int] = []
        self._kept: list[tuple[int, object]] = []  # (span index, returned object)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, kept = self.spans, self._stack, self._kept
        tag_of = TAGS.get(name)
        keep = name in COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tag_of(args, kwargs) if tag_of else None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                kept.append((idx, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each package attribute that refers to it.

        Raises MissingTarget, before wrapping anything, if a named function is
        gone, so a metric cannot silently go missing.
        """
        targets = []
        for layer, names in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    raise MissingTarget(f"{PACKAGE}.{layer}.{qual} is not a function any more")
                targets.append((f"{layer}.{qual}", owner, attr, fn, bool(owner_name)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, owner, attr, fn, is_method in targets:
            wrapper = self._wrap(name, fn)
            if is_method:
                holders = [(owner, attr)]
            else:
                holders = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is fn]
            for holder, a in holders:
                self._patched.append((holder, a, fn))
                setattr(holder, a, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, fn = self._patched.pop()
            setattr(holder, attr, fn)

    def document(self) -> dict:
        counts = [[idx, COUNTERS[self.spans[idx][0]](obj)] for idx, obj in self._kept]
        return {"run_id": self.run_id, "spans": self.spans, "counts": counts}


# -- span arithmetic -----------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def _ancestors(spans, i: int):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def _under(spans, i: int, name: str) -> bool:
    return any(spans[a][0] == name for a in _ancestors(spans, i))


def busy_and_self(spans, selves, chosen: set[int]) -> tuple[float, float]:
    """Busy time (outermost chosen spans) and summed self time of a span set."""
    busy = sum(
        spans[i][2] - spans[i][1]
        for i in chosen
        if not any(a in chosen for a in _ancestors(spans, i))
    )
    return busy, sum(selves[i] for i in chosen)


def _timed_metrics() -> list[tuple[str, tuple[str, ...], bool | None, str | None]]:
    """(metric stem, span names, under CV or not or either, model tag) per busy/self pair."""
    stems = [
        ("trees.fit_gbdt", ("trees.fit_gbdt",), True, None),
        ("trees.fit_gbdt_full", ("trees.fit_gbdt",), False, None),
        ("trees.fit_tree", ("trees.fit_tree",), None, None),
        ("trees.predict_gbdt_batch", ("trees.predict_gbdt_batch",), None, None),
        ("trees.feature_importance", ("trees.feature_importance",), None, None),
        ("mlp.fit_mlp", ("mlp.fit_mlp",), None, None),
        ("linear.fit_logistic", ("linear.fit_logistic",), None, None),
        ("linear.fit_svm", ("linear.fit_svm",), None, None),
    ]
    for m in MODELS:
        stems.append((f"evaluation.cross_validate.{m}", (CV,), None, m))
        stems.append((f"evaluation.fit.{m}", ("evaluation.fit_predictor",), None, m))
        stems.append((f"evaluation.predict.{m}", (PREDICT[m],), True, None))
    for stem in ("data.load_schema", "data.load_raw", "data.clean_and_encode",
                 "data.stratified_kfold", "experiment.load_config",
                 "experiment.run_experiment", "experiment.emit_report", "numeric.softmax"):
        stems.append((stem, (stem,), None, None))
    stems.append(("numeric.rng", RNG, None, None))
    return stems


TIMED = _timed_metrics()


def _split_stem(stem: str) -> tuple[str, str]:
    # "evaluation.fit.gbdt" -> ("evaluation.fit_s.gbdt", "evaluation.fit_self_s.gbdt")
    layer, rest = stem.split(".", 1)
    base, dot, model = rest.partition(".")
    return f"{layer}.{base}_s{dot}{model}", f"{layer}.{base}_self_s{dot}{model}"


COUNT_METRICS = (
    "trees.gbdt_trees", "trees.gbdt_split_nodes", "trees.gbdt_leaves", "trees.tree_split_nodes",
    "mlp.epochs", "linear.logistic_epochs", "linear.svm_epochs", "evaluation.fits",
    "data.rows", "experiment.report_bytes", "numeric.softmax_calls",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for stem, *_ in TIMED:
        busy, own = _split_stem(stem)
        units[busy] = units[own] = "s"
    units["evaluation.driver_self_s"] = "s"
    units["cli.main_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in COUNT_METRICS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    units["trees.gbdt_us_per_node"] = "us"
    units["mlp.ms_per_epoch"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s)."""
    spans = doc["spans"]
    selves = self_times(spans)
    out: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    for stem, names, cv_only, tag in TIMED:
        chosen = {
            i for name in names for i in by_name.get(name, ())
            if (tag is None or spans[i][4] == tag)
            and (cv_only is None or _under(spans, i, CV) == cv_only)
        }
        busy_name, self_name = _split_stem(stem)
        out[busy_name], out[self_name] = busy_and_self(spans, selves, chosen)

    driver = set(by_name.get(CV, ())) | set(by_name.get("evaluation.fit_predictor", ()))
    out["evaluation.driver_self_s"] = busy_and_self(spans, selves, driver)[1]
    out["cli.main_s"] = busy_and_self(spans, selves, set(by_name.get("cli.main", ())))[0]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            selves[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer)

    totals: dict[str, int] = {name: 0 for name in COUNT_METRICS}
    for _, counts in doc["counts"]:
        for name, value in counts.items():
            totals[name] += value
    totals["evaluation.fits"] = len(by_name.get("evaluation.fit_predictor", ()))
    totals["numeric.softmax_calls"] = len(by_name.get("numeric.softmax", ()))
    out.update(totals)

    gbdt_busy = out["trees.fit_gbdt_s"] + out["trees.fit_gbdt_full_s"]
    nodes = totals["trees.gbdt_split_nodes"] + totals["trees.gbdt_leaves"]
    out["trees.gbdt_us_per_node"] = gbdt_busy / nodes * 1e6 if nodes else 0.0
    epochs = totals["mlp.epochs"]
    out["mlp.ms_per_epoch"] = out["mlp.fit_mlp_s"] / epochs * 1e3 if epochs else 0.0
    return out


def check_counts(per_run: list[dict[str, float]]) -> None:
    """Raise CountMismatch if traced invocations of one seed counted differently."""
    for name in COUNT_METRICS:
        values = {run[name] for run in per_run}
        if len(values) > 1:
            raise CountMismatch(f"{name} differs between traced runs: {sorted(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    trace = sub.add_parser("trace", help="run the mppkit CLI with span tracing")
    trace.add_argument("--spans", required=True, help="file the spans are written to")
    trace.add_argument("--run-id", required=True)
    trace.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then mppkit arguments")
    metrics = sub.add_parser("metrics", help="per-layer medians over span files of one seed")
    metrics.add_argument("spans", nargs="+")
    args = parser.parse_args(argv)

    if args.command == "metrics":
        runs = [layer_metrics(json.loads(Path(p).read_text(encoding="utf-8"))) for p in args.spans]
        try:
            check_counts(runs)
        except CountMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({name: statistics.median(run[name] for run in runs) for name in runs[0]}))
        return 0

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    Path(args.spans).write_text(json.dumps(tracer.document()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
