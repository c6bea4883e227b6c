"""Reference loader: the row-of-strings CSV loader the streaming one replaced.

Kept verbatim (apart from this docstring, its imports and the check that
refuses a header naming a schema column twice) as the oracle of the
differential tests in ``test_loader_differential.py``: for any
input, ``mppkit.data`` must produce the same dataset bytes or the same
``DataError`` message.  It holds one Python string per cell, so keep its
inputs small.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mppkit.data import DataError, Dataset, FeatureSchema, FeatureSpec


@dataclass
class RawTable:
    """Parsed CSV: header plus rows of cells, missing cells as None."""

    header: list[str]
    rows: list[list[str | None]]

    @property
    def n_rows(self) -> int:
        return len(self.rows)


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
        repeated = [name for name in required if header.count(name) > 1]
        if repeated:
            raise DataError(f"{path}: header names column {repeated[0]!r} more than once")
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
