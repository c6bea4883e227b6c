"""Dataset loading, cleaning, stratified fold plans, and synthetic surrogates.

The on-disk formats are a UTF-8 comma-separated file (first row header,
empty cell = missing) and a JSON schema manifest::

    {"label": "label", "n_classes": 3,
     "features": [{"name": "Cough", "kind": "binary", "unit": null}, ...]}

Feature order in the manifest is the canonical column order for every
matrix the toolkit produces.  A binary feature may optionally declare its
code mapping, e.g. ``"mapping": {"yes": 1, "no": 0}``; without one, the two
observed codes are mapped low -> 0, high -> 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numeric import SeededRng

FEATURE_KINDS = ("binary", "ordinal", "continuous")


class DataError(ValueError):
    """Raised for malformed datasets, schemas, or values outside their domain."""


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    unit: str | None = None
    mapping: dict[str, int] | None = None

    def __post_init__(self):
        if not self.name:
            raise DataError("feature name must be non-empty")
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.mapping is not None:
            if self.kind != "binary":
                raise DataError(f"feature {self.name!r}: mapping is only valid for binary features")
            if sorted(self.mapping.values()) != [0, 1]:
                raise DataError(f"feature {self.name!r}: mapping must cover exactly {{0, 1}}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list plus the label column; order is canonical."""

    features: tuple[FeatureSpec, ...]
    label_name: str = "label"
    n_classes: int = 3

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise DataError("schema must declare at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if not self.label_name:
            raise DataError("label column name must be non-empty")
        if self.n_classes < 2:
            raise DataError("n_classes must be at least 2")

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def to_manifest(self) -> dict:
        feats = []
        for f in self.features:
            entry: dict = {"name": f.name, "kind": f.kind, "unit": f.unit}
            if f.mapping is not None:
                entry["mapping"] = f.mapping
            feats.append(entry)
        return {"label": self.label_name, "n_classes": self.n_classes, "features": feats}

    @classmethod
    def from_manifest(cls, doc: dict) -> "FeatureSchema":
        try:
            feats = tuple(
                FeatureSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    unit=entry.get("unit"),
                    mapping=entry.get("mapping"),
                )
                for entry in doc["features"]
            )
            return cls(
                features=feats,
                label_name=doc.get("label", "label"),
                n_classes=int(doc.get("n_classes", 3)),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema manifest: {exc}") from exc

    def canonical_json(self) -> str:
        return json.dumps(self.to_manifest(), sort_keys=True, separators=(",", ":"))

    def schema_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def load_schema(path) -> FeatureSchema:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"schema manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"schema manifest {path} is not valid JSON: {exc}") from exc
    return FeatureSchema.from_manifest(doc)


@dataclass
class RawTable:
    """Parsed CSV: header plus rows of cells, missing cells as None."""

    header: list[str]
    rows: list[list[str | None]]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Clean numeric matrix with labels in {0..n_classes-1}."""

    schema: FeatureSchema
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DataError("x must be n*d and y length n")
        if x.shape[1] != self.schema.d:
            raise DataError(
                f"column count {x.shape[1]} does not match schema feature count {self.schema.d}"
            )
        if x.size and not np.all(np.isfinite(x)):
            raise DataError("feature matrix contains missing or non-finite values")
        if y.size and (y.min() < 0 or y.max() >= self.schema.n_classes):
            raise DataError(f"labels must lie in 0..{self.schema.n_classes - 1}")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def d(self) -> int:
        return int(self.x.shape[1])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, self.x[idx], self.y[idx])


@dataclass(frozen=True)
class FoldPlan:
    """Stratified k-way partition of record indices."""

    k: int
    folds: tuple[tuple[int, ...], ...]
    seed: int

    def digest(self) -> str:
        doc = {"k": self.k, "seed": self.seed, "folds": [list(f) for f in self.folds]}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_raw(path, schema: FeatureSchema) -> RawTable:
    """Parse a CSV file and check that every schema column is present.

    Extra columns are permitted (and ignored by the encoder) so a released
    dataset file can carry provenance columns.  Ragged rows are rejected
    with their physical line number.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    try:
        return _read_table(path, schema)
    except UnicodeDecodeError:
        # the streaming decoder's offset is relative to its buffer; find the file offset
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: byte {exc.start}: not valid UTF-8 ({exc.reason})") from None
        raise


def _read_table(path: Path, schema: FeatureSchema) -> RawTable:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        required = schema.feature_names + [schema.label_name]
        missing = [name for name in required if name not in header]
        if missing:
            raise DataError(f"{path}: header is missing column {missing[0]!r}")
        rows: list[list[str | None]] = []
        for cells in reader:
            if not cells:
                continue  # blank line
            if len(cells) != len(header):
                raise DataError(
                    f"{path}: row {reader.line_num}: expected {len(header)} cells, got {len(cells)}"
                )
            rows.append([c if c else None for c in (cell.strip() for cell in cells)])
    return RawTable(header=header, rows=rows)


def _parse_number(cell: str, row: int, name: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"row {row}, column {name!r}: cannot parse {cell!r} as a number") from None


def _encode_binary(cells: list[str | None], spec: FeatureSpec) -> list[float | None]:
    observed = sorted({c for c in cells if c is not None})
    if spec.mapping is not None:
        mapping = spec.mapping
        bad = [c for c in observed if c not in mapping]
        if bad:
            raise DataError(
                f"column {spec.name!r}: value {bad[0]!r} outside declared codes {sorted(mapping)}"
            )
    elif len(observed) > 2:
        raise DataError(
            f"column {spec.name!r}: binary feature has more than two codes: {observed}"
        )
    elif len(observed) == 2:
        try:
            lo, hi = sorted(observed, key=float)
        except ValueError:
            lo, hi = observed
        mapping = {lo: 0, hi: 1}
    else:  # a single observed code must already be a 0/1 value
        code = observed[0]
        try:
            val = float(code)
        except ValueError:
            val = None
        if val not in (0.0, 1.0):
            raise DataError(
                f"column {spec.name!r}: single observed code {code!r} cannot be mapped to 0/1"
            )
        mapping = {code: int(val)}
    return [None if c is None else float(mapping[c]) for c in cells]


def _mode(values: list[float]) -> float:
    # most frequent value, ties broken by the smallest value
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def clean_and_encode(raw: RawTable, schema: FeatureSchema) -> Dataset:
    """Encode schema columns to numbers, impute missing cells, validate labels.

    Rows with a missing label are dropped.  Missing continuous cells take the
    column median; missing binary and ordinal cells take the column mode.
    """
    col_of = {name: raw.header.index(name) for name in raw.header}
    label_col = col_of[schema.label_name]

    kept = [r for r in raw.rows if r[label_col] is not None]
    if not kept:
        raise DataError("no rows with a label")

    labels = np.empty(len(kept), dtype=np.int64)
    for i, row in enumerate(kept):
        value = _parse_number(row[label_col], i + 1, schema.label_name)
        if not value.is_integer() or not (0 <= int(value) < schema.n_classes):
            raise DataError(
                f"row {i + 1}: label {row[label_col]!r} outside 0..{schema.n_classes - 1}"
            )
        labels[i] = int(value)

    columns = []
    for spec in schema.features:
        j = col_of[spec.name]
        cells = [row[j] for row in kept]
        if all(c is None for c in cells):
            raise DataError(f"column {spec.name!r} is entirely missing")
        if spec.kind == "binary":
            values = _encode_binary(cells, spec)
        else:
            values = [
                None if c is None else _parse_number(c, i + 1, spec.name)
                for i, c in enumerate(cells)
            ]
        present = [v for v in values if v is not None]
        if spec.kind == "continuous":
            fill = float(np.median(present))
        else:
            fill = _mode(present)
        columns.append([fill if v is None else v for v in values])

    x = np.array(columns, dtype=np.float64).T.reshape(len(kept), schema.d)
    if not np.isfinite(x).all():
        # a missing cell can be imputed from a non-finite fill: name a cell that holds one
        for i, j in np.argwhere(~np.isfinite(x)):
            cell = kept[i][col_of[schema.features[j].name]]
            if cell is not None:
                raise DataError(
                    f"row {i + 1}, column {schema.features[j].name!r}: "
                    f"non-finite value {cell!r}"
                )
    return Dataset(schema=schema, x=x, y=labels)


def load_dataset(data_path, schema: FeatureSchema) -> Dataset:
    """Convenience: load_raw then clean_and_encode."""
    return clean_and_encode(load_raw(data_path, schema), schema)


def stratified_kfold(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Stratified k-way split: per-class proportions hold to within one record.

    Each class is shuffled and dealt base-size chunks to every fold; the
    remainder goes one record at a time to the currently smallest folds
    (ties to the lowest fold index), which keeps total fold sizes within one
    of each other as well.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    y = dataset.y
    n = dataset.n
    if n == 0:
        raise DataError("cannot split an empty dataset")
    counts = np.bincount(y, minlength=dataset.schema.n_classes)
    for c, cnt in enumerate(counts):
        if 0 < cnt < k:
            raise DataError(f"class {c} has {cnt} members, fewer than k={k}")

    rng = SeededRng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    loads = [0] * k
    for c in range(dataset.schema.n_classes):
        idx = np.flatnonzero(y == c)
        if idx.size == 0:
            continue
        shuffled = idx[rng.permutation(idx.size)]
        base, rem = divmod(idx.size, k)
        order = sorted(range(k), key=lambda f: (loads[f], f))
        extra = set(order[:rem])
        pos = 0
        for f in range(k):
            take = base + (1 if f in extra else 0)
            folds[f].extend(int(i) for i in shuffled[pos : pos + take])
            loads[f] += take
            pos += take

    return FoldPlan(k=k, folds=tuple(tuple(sorted(f)) for f in folds), seed=int(seed))


def generate_synthetic(
    n: int,
    d: int,
    informative,
    seed: int,
    noise: float = 0.0,
) -> Dataset:
    """Synthetic 3-class surrogate used when no real data is on hand.

    Features are uniform in [0, 1).  With informative columns, the label is
    the tercile band of their mean (so a shallow tree can recover it
    exactly at noise 0); with none, labels are a balanced shuffle.  `noise`
    redraws that fraction of labels uniformly.
    """
    if n < 6:
        raise ValueError("n must be at least 6")
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 <= noise <= 0.5:
        raise ValueError("noise must lie in [0, 0.5]")
    informative = sorted(set(int(i) for i in informative))
    for i in informative:
        if not 0 <= i < d:
            raise ValueError(f"informative index {i} out of range 0..{d - 1}")

    rng = SeededRng(seed)
    x = rng.random((n, d))
    if informative:
        score = x[:, informative].mean(axis=1)
        order = np.argsort(score, kind="stable")
        third = n // 3
        labels = np.empty(n, dtype=np.int64)
        labels[order[:third]] = 0
        labels[order[third : 2 * third]] = 1
        labels[order[2 * third :]] = 2
    else:
        labels = (np.arange(n, dtype=np.int64) % 3)[rng.permutation(n)]
    if noise > 0:
        flip = np.asarray(rng.random(n)) < noise
        redraw = rng.integers(0, 3, n)
        labels = np.where(flip, redraw, labels)

    if np.bincount(labels, minlength=3).min() < n // 6:
        raise ValueError("noise left a class with fewer than n/6 records")

    schema = FeatureSchema(
        features=tuple(FeatureSpec(name=f"f{i}", kind="continuous") for i in range(d)),
        label_name="label",
        n_classes=3,
    )
    return Dataset(schema=schema, x=x, y=labels)
