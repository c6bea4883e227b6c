"""Configuration-driven experiment runner and report emission.

A run walks three stages: load and clean the dataset, cross-validate every
configured model (each on its stratified fold plan, built before any fit,
so a class too small for k fails the run before training starts), and
assemble the comparison (plus a GBDT importance ranking fitted on the full
cleaned dataset).  Emitted CSV/JSON files are byte-identical for a fixed
(config, seed, dataset); wall-clock timestamps stay on the in-memory
bundle and never reach the report files.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .data import DataError, json_digest, load_dataset, load_schema, read_json, unknown_key
from .evaluation import MODELS, N_CLASSES, CvReport, ModelSpec, cross_validate, resolve_params
from .trees import ImportanceReport, feature_importance, fit_gbdt

REPORT_FORMATS = ("csv", "json")
CONFIG_KEYS = ("data", "schema", "models", "folds", "seed", "out", "format")  # the keys a config may hold
MODEL_ENTRY_KEYS = ("name", "params")  # and each object of a list-form "models"
# report files clear_reports removes besides the per-model metrics_<model>.csv
REPORT_NAMES = ("comparison.csv", "importance.csv", "summary.json")


class ConfigError(ValueError):
    """Bad experiment configuration (usage error, not a data error)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, each checked here, before any data is read.

    So a config built in code fails as one loaded from a file does, with
    the same ConfigError.  `k` (config key "folds") and `seed` must be
    integers and are stored as `int`; the nearest existing part of
    `out_dir` must be a directory (nothing is created); each model's params
    are checked as the trainers check them; and the config must digest,
    since summary.json records that digest after every fit has run.
    """

    data_path: Path
    schema_path: Path
    models: tuple[ModelSpec, ...]
    k: int = 5
    seed: int = 0
    out_dir: Path = Path("reports")
    formats: tuple[str, ...] = REPORT_FORMATS

    def __post_init__(self):
        for key, attr in (("folds", "k"), ("seed", "seed")):
            value = getattr(self, attr)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
            object.__setattr__(self, attr, int(value))
        out = Path(self.out_dir)
        nearest = next((part for part in (out, *out.parents) if part.exists()), out)
        if nearest.exists() and not nearest.is_dir():
            raise ConfigError(f"output directory 'out' {str(out)!r}: {str(nearest)!r} is not a directory")
        object.__setattr__(self, "out_dir", out)
        if not self.models:
            raise ConfigError("model list must be non-empty")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError("model list contains duplicates")
        for m in self.models:
            try:
                resolve_params(m.name, m.params)
            except ValueError as exc:  # unknown name/param is a usage error
                raise ConfigError(str(exc)) from exc
        if self.k < 2:
            raise ConfigError("fold count must be at least 2")
        if not self.formats:  # a run that writes no report loses every fit
            raise ConfigError("report format list must be non-empty")
        for fmt in self.formats:
            if fmt not in REPORT_FORMATS:
                raise ConfigError(f"unknown report format {fmt!r}")
        try:  # a value json cannot write (a numpy integer param) fails here, not after the fits
            self.digest()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config cannot be recorded in the report: {exc}") from exc

    def digest(self) -> str:
        return json_digest({
            "data": str(self.data_path),
            "schema": str(self.schema_path),
            "models": {m.name: resolve_params(m.name, m.params) for m in self.models},
            "folds": self.k,
            "seed": self.seed,
            "formats": list(self.formats),
        })


def _model_spec(name, params) -> ModelSpec:
    if not isinstance(params, dict):
        raise ConfigError(f"params of model {name!r} must be an object, got {params!r}")
    return ModelSpec(name, dict(params))


def _parse_models(raw) -> tuple[ModelSpec, ...]:
    if isinstance(raw, dict):
        return tuple(_model_spec(name, params) for name, params in raw.items())
    if isinstance(raw, list):
        specs = []
        for entry in raw:
            if isinstance(entry, str):
                specs.append(ModelSpec(entry))
            elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
                if (key := unknown_key(entry, MODEL_ENTRY_KEYS)) is not None:
                    raise ConfigError(f"model entry {entry['name']!r}: unknown key {key!r} "
                                      f"(expected {', '.join(MODEL_ENTRY_KEYS)})")
                specs.append(_model_spec(entry["name"], entry.get("params", {})))
            else:
                raise ConfigError(f"cannot parse model entry {entry!r}")
        return tuple(specs)
    raise ConfigError("'models' must be a list of names or a name -> params mapping")


def _parse_formats(raw) -> tuple[str, ...]:
    if raw in (None, "both"):
        return REPORT_FORMATS
    if raw in REPORT_FORMATS:
        return (raw,)
    raise ConfigError(f"unknown report format {raw!r} (expected csv, json, or both)")


def _config_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    return value


def load_config(
    path,
    seed: int | None = None,
    folds: int | None = None,
    models: list[str] | None = None,
    out_dir=None,
    fmt: str | None = None,
) -> ExperimentConfig:
    """Parse a JSON config file; keyword overrides mirror the CLI flags.

    Dataset and schema paths are resolved relative to the config file, the
    output directory relative to the working directory.  A key outside
    CONFIG_KEYS (a misspelt "fold" would otherwise run with k=5), or outside
    MODEL_ENTRY_KEYS in a list-form model entry, and a value of the wrong
    JSON type are rejected here; ExperimentConfig checks the values it
    holds.  Either way, before any data is read.
    """
    path = Path(path)
    doc = read_json(path, "config file", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if (key := unknown_key(doc, CONFIG_KEYS)) is not None:
        raise ConfigError(f"unknown config key {key!r} (expected {', '.join(CONFIG_KEYS)})")
    for key in ("data", "schema", "models"):
        if key not in doc:
            raise ConfigError(f"config file is missing key {key!r}")

    base = path.parent
    specs = _parse_models(doc["models"])
    if models is not None:
        overrides = {m.name: m.params for m in specs}
        specs = tuple(ModelSpec(name, overrides.get(name, {})) for name in models)
    return ExperimentConfig(
        data_path=base / _config_str("data", doc["data"]),
        schema_path=base / _config_str("schema", doc["schema"]),
        models=specs,
        k=folds if folds is not None else doc.get("folds", 5),
        seed=seed if seed is not None else doc.get("seed", 0),
        out_dir=out_dir if out_dir is not None else _config_str("out", doc.get("out", "reports")),
        formats=_parse_formats(fmt if fmt is not None else doc.get("format", "both")),
    )


@dataclass(frozen=True, eq=False)
class ReportBundle:
    """What one run of `config` produced: a CvReport per model, in config
    order, and the GBDT importance ranking (None when no gbdt ran).

    The config's seed, fold count and digest, and the toolkit version, are
    not copied here: emit_report reads them off `config` and `__version__`.
    The timestamps stay on the bundle and never reach a report file.
    """

    reports: tuple[CvReport, ...]
    importance: ImportanceReport | None
    config: ExperimentConfig
    started_at: str = field(repr=False, default="")
    finished_at: str = field(repr=False, default="")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute the three-stage workflow for every configured model (3 classes only)."""
    started = _now()

    try:  # stage 1: load and clean
        schema = load_schema(config.schema_path)
        if schema.n_classes != N_CLASSES:  # checked before any data is read
            raise DataError(f"schema key 'n_classes' is {schema.n_classes}, but run compares {N_CLASSES}")
        dataset = load_dataset(config.data_path, schema)
    except DataError as exc:
        raise DataError(f"stage 1 (load and clean): {exc}") from exc

    # stage 2: per-model cross-validation; the first model's fold plan
    # raises DataError for a class smaller than k, before any fit
    reports = tuple(
        cross_validate(spec, dataset, config.k, config.seed) for spec in config.models
    )

    # stage 3: comparison assembly; importance from a full-dataset GBDT fit
    # with the gbdt report's resolved params
    gbdt = next((r for r in reports if r.model == "gbdt"), None)
    importance = None if gbdt is None else feature_importance(fit_gbdt(dataset, **gbdt.params), schema)

    return ReportBundle(
        reports=reports,
        importance=importance,
        config=config,
        started_at=started,
        finished_at=_now(),
    )


def compare_models(bundle: ReportBundle) -> list[dict]:
    """Comparison rows sorted by accuracy descending, ties by model name."""
    if not bundle.reports:
        raise ValueError("empty bundle")
    rows = []
    for r in bundle.reports:
        row = {"model": r.model, "accuracy": r.accuracy}
        for cm in r.per_class:
            row[f"precision_{cm.class_id}"] = cm.precision
            row[f"recall_{cm.class_id}"] = cm.recall
            row[f"f1_{cm.class_id}"] = cm.f1
        rows.append(row)
    return sorted(rows, key=lambda row: (-row["accuracy"], row["model"]))


def _fmt(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    # feature names may contain commas, so go through the csv writer;
    # a fixed line terminator keeps output bytes platform-independent
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def write_importance(path: Path, ranking: ImportanceReport) -> None:
    """Write importance.csv at full precision: the ranking's weights must
    sum to 1 within 1e-9, which 6-decimal rounding cannot guarantee."""
    _write_csv(path, ["feature", "importance"], [[name, repr(float(w))] for name, w in ranking.entries])


def _report_to_obj(r: CvReport) -> dict:
    """The report's metrics and plan facts, `matrix` as `confusion_matrix` (int lists) and its fold count as `folds`.

    Not its `plan`, `y` or `preds`, which the metrics are read off.
    """
    return {
        "model": r.model, "params": r.params, "seed": r.seed, "folds": r.k, "fold_plan_digest": r.fold_plan_digest,
        "confusion_matrix": r.matrix.tolist(), "per_class": [asdict(cm) for cm in r.per_class],
        "accuracy": r.accuracy, "fold_accuracies": r.fold_accuracies,
        "fold_accuracy_mean": r.fold_accuracy_mean, "fold_accuracy_std": r.fold_accuracy_std,
    }


def clear_reports(out_dir) -> Path:
    """Make `out_dir` and remove the report files an earlier run left there, and no other file.

    Every command that writes reports calls this first, so the directory
    describes its latest run only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in [*(out / name for name in REPORT_NAMES), *(out / f"metrics_{name}.csv" for name in MODELS)]:
        stale.unlink(missing_ok=True)
    return out


def emit_report(bundle: ReportBundle, formats: tuple[str, ...], out_dir) -> list[Path]:
    """Write the CSV tables and/or the JSON summary, as `formats` ("csv", "json") asks.

    CSV values carry 6 decimal places for human tables; summary.json keeps
    full precision.  Output bytes are deterministic for a fixed bundle.
    Report files of an earlier run in `out_dir` are removed first.
    """
    if not set(formats) <= set(REPORT_FORMATS):
        raise ValueError(f"unknown report format in {formats!r}")
    out = clear_reports(out_dir)
    written: list[Path] = []

    if "csv" in formats:
        comparison = compare_models(bundle)
        path = out / "comparison.csv"
        _write_csv(path, list(comparison[0]), [list(row.values()) for row in comparison])
        written.append(path)
        for r in bundle.reports:
            path = out / f"metrics_{r.model}.csv"
            # one row of ClassMetrics' fields per class, class_id headed "class", the flags written as 0/1
            records = [asdict(cm) for cm in r.per_class]
            rows = [[int(v) if isinstance(v, bool) else v for v in rec.values()] for rec in records]
            _write_csv(path, ["class", *list(records[0])[1:]], rows)
            written.append(path)
        if bundle.importance is not None:
            path = out / "importance.csv"
            write_importance(path, bundle.importance)
            written.append(path)

    if "json" in formats:
        summary = {
            "metadata": {
                "toolkit_version": __version__,
                "config_digest": bundle.config.digest(),
                "seed": bundle.config.seed,
                "folds": bundle.config.k,
                "models": [r.model for r in bundle.reports],
            },
            "comparison": compare_models(bundle),
            "reports": {r.model: _report_to_obj(r) for r in bundle.reports},
            "importance": None if bundle.importance is None else asdict(bundle.importance),
        }
        path = out / "summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)

    return written
