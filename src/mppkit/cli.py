"""Command-line entry point.

Subcommands::

    mppkit run --config cfg.json [--seed N] [--folds K] [--models a,b,c]
               [--out DIR] [--format csv|json|both]
    mppkit importance --config cfg.json
    mppkit validate-data --data records.csv --schema schema.json

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import DataError, load_dataset, load_schema
from .evaluation import resolve_params
from .experiment import (
    ConfigError,
    clear_reports,
    compare_models,
    emit_report,
    load_config,
    run_experiment,
    write_importance,
)
from .trees import feature_importance, fit_gbdt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mppkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run the configured cross-validation experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--folds", type=int, default=None)
    run.add_argument("--models", default=None, help="comma-separated subset, e.g. gbdt,tree")
    run.add_argument("--out", default=None)
    run.add_argument("--format", default=None, choices=["csv", "json", "both"])

    imp = sub.add_parser("importance", help="rank features by full-dataset GBDT importance")
    imp.add_argument("--config", required=True)

    val = sub.add_parser("validate-data", help="check a dataset file against its schema")
    val.add_argument("--data", required=True)
    val.add_argument("--schema", required=True)
    return parser


def _model_list(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    names = [name.strip() for name in arg.split(",") if name.strip()]
    if not names:
        raise ConfigError("--models requires at least one model name")
    return names


def _cmd_run(args) -> int:
    config = load_config(
        args.config,
        seed=args.seed,
        folds=args.folds,
        models=_model_list(args.models),
        out_dir=args.out,
        fmt=args.format,
    )
    bundle = run_experiment(config)
    written = emit_report(bundle, config.formats, config.out_dir)

    print(f"run complete: {len(bundle.reports)} model(s), k={config.k}, seed={config.seed}")
    for row in compare_models(bundle):
        print(f"  {row['model']:<10} accuracy={row['accuracy']:.6f}")
    for path in written:
        print(f"wrote {path}")
    print(f"started {bundle.started_at} finished {bundle.finished_at}", file=sys.stderr)
    return EXIT_OK


def _cmd_importance(args) -> int:
    config = load_config(args.config)
    schema = load_schema(config.schema_path)
    dataset = load_dataset(config.data_path, schema)
    overrides = {m.name: m.params for m in config.models}
    model = fit_gbdt(dataset, **resolve_params("gbdt", overrides.get("gbdt")))
    report = feature_importance(model, schema)

    path = clear_reports(config.out_dir) / "importance.csv"  # no report of an earlier run survives
    write_importance(path, report)

    print("feature importance (full-dataset GBDT fit):")
    for rank, (name, weight) in enumerate(report.entries[:10], start=1):
        print(f"  {rank:>2}. {name:<40} {weight:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_dataset(args.data, schema)
    counts = np.bincount(dataset.y, minlength=schema.n_classes)
    print(f"ok: {dataset.n} records, {dataset.d} features")
    print("class counts: " + ", ".join(f"{c}={int(v)}" for c, v in enumerate(counts)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "importance":
            return _cmd_importance(args)
        return _cmd_validate(args)
    except SystemExit:
        raise
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
