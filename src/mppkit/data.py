"""Dataset loading, cleaning, stratified fold plans, and synthetic surrogates.

The on-disk formats are a UTF-8 comma-separated file (first row header,
empty cell = missing) and a JSON schema manifest::

    {"label": "label", "n_classes": 3,
     "features": [{"name": "Cough", "kind": "binary", "unit": null}, ...]}

Feature order in the manifest is the canonical column order for every
matrix the toolkit produces.  A binary feature may optionally declare its
code mapping, e.g. ``"mapping": {"yes": 1, "no": 0}``; without one, the two
observed codes are mapped low -> 0, high -> 1.

Loading streams the file: ``load_raw`` first counts its line terminators,
a bound on its rows, and allocates one float64 buffer with a row of that
many cells for each feature, in schema order, and one for the label.  It
then reads BLOCK_ROWS rows at a time and encodes each schema column of the
block into its row of the buffer (``float`` for ordinal and continuous
cells, a code index for binary ones, nan for a blank or unparsable cell),
keeping the text only of the present cells an error message may quote; a
cell is blank when it is nan and has no such text.  A column block is
parsed in one pass of C-level calls; only a block holding padded,
whitespace-only or unparsable cells, or a binary code not yet seen, takes
the per-cell path.
``clean_and_encode`` then works on whole columns: take the labels off
their row, compact each feature row, less its unlabelled cells, in place
to the front of the buffer, map binary codes, impute, and pick the error
to report.  The Dataset adopts that front of the buffer as its feature
matrix, so every number is held once.  Every file is read as UTF-8 with an
optional leading byte-order mark, as spreadsheet "CSV UTF-8" exports write;
`read_json` reads the JSON ones: schema manifest, config, model documents;
it refuses an object that repeats a key, as the loader refuses a header
that names a schema column twice.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .numeric import SeededRng, _check_integer

FEATURE_KINDS = ("binary", "ordinal", "continuous")
MANIFEST_KEYS = ("label", "n_classes", "features")  # the keys a schema manifest may hold
FEATURE_KEYS = ("name", "kind", "unit", "mapping")  # and each of its features

# rows per encoded block: a block's cells are still in cache while its columns encode
BLOCK_ROWS = 512
_BLANK_AS_NAN = {"": "nan"}  # lets float() take a whole column block, blanks included


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
            if not isinstance(self.mapping, dict):
                raise DataError(f"feature {self.name!r}: mapping must be an object, got {self.mapping!r}")
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
        if self.label_name in names:
            raise DataError(f"label column {self.label_name!r} is also listed as a feature")
        if isinstance(self.n_classes, bool) or not isinstance(self.n_classes, numbers.Integral):
            raise DataError(f"schema key 'n_classes' must be an integer, got {self.n_classes!r}")
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
        """The schema a manifest describes; a key it does not know is refused, not ignored."""
        if (key := unknown_key(doc, MANIFEST_KEYS)) is not None:
            raise DataError(f"unknown schema key {key!r} (expected {', '.join(MANIFEST_KEYS)})")
        try:
            feats = []
            for entry in doc["features"]:
                if (key := unknown_key(entry, FEATURE_KEYS)) is not None:
                    raise DataError(f"feature {entry.get('name')!r}: unknown key {key!r} "
                                    f"(expected {', '.join(FEATURE_KEYS)})")
                feats.append(FeatureSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    unit=entry.get("unit"),
                    mapping=entry.get("mapping"),
                ))
            return cls(
                features=feats,
                label_name=doc.get("label", "label"),
                n_classes=doc.get("n_classes", 3),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema manifest: {exc}") from exc

    def schema_hash(self) -> str:
        return json_digest(self.to_manifest())


def unknown_key(obj, allowed: tuple[str, ...]):
    """The first key of the JSON object `obj` outside `allowed`, or None (also when `obj` is no object)."""
    return next((key for key in obj if key not in allowed), None) if isinstance(obj, dict) else None


def json_digest(doc) -> str:
    """sha256 of `doc` as key-sorted compact JSON, the one canonical form every digest hashes."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_text(path: Path, error) -> str:
    """The file as UTF-8 text less a leading BOM; an invalid byte raises `error` with its file offset."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not valid UTF-8 ({exc.reason})") from None
    return text.removeprefix("\ufeff")


class _RepeatedKey(Exception):
    """A JSON object names one key twice; not a ValueError, so no parse error is taken for it."""


def _unique_keys(pairs: list) -> dict:
    """The JSON object of `pairs`, the `object_pairs_hook` that refuses a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _RepeatedKey(key)
        obj[key] = value
    return obj


def read_json(path, what: str, error):
    """The JSON value in file `path`.

    A missing, undecodable or unparsable file raises `error`, and so does
    an object that repeats a key: json would keep its last value silently.
    """
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    text = read_text(path, error)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except _RepeatedKey as exc:
        raise error(f"{what} {path} repeats the key {exc.args[0]!r}") from None
    except (ValueError, RecursionError) as exc:  # also an over-long integer, or nesting too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def load_schema(path) -> FeatureSchema:
    return FeatureSchema.from_manifest(read_json(path, "schema manifest", DataError))


@dataclass(eq=False)
class RawTable:
    """A parsed CSV: its header and encoded schema columns.

    Cell text is not kept beyond the cells a message may quote: each
    feature column (in schema order) and the label column is a RawColumn
    whose values are one row of `buffer`, the flat float64 array that
    `load_raw` sized by the file's line count.  Other columns are dropped
    after the ragged-row check.  The row count is the label column's
    length.  `clean_and_encode` consumes the table: it takes the buffer
    and the columns, and leaves `buffer` None.
    """

    header: list[str]
    buffer: np.ndarray | None
    label: RawColumn | None
    features: tuple[RawColumn, ...]

    @property
    def n_rows(self) -> int:
        return self.label.values.size

    def _take(self) -> tuple[np.ndarray, RawColumn, tuple[RawColumn, ...]]:
        """The buffer, label and feature columns, handed over once: the table keeps none of them."""
        if self.buffer is None:
            raise ValueError("this RawTable was cleaned already: clean_and_encode consumes "
                             "the table it is given, so load the file again")
        taken = (self.buffer, self.label, self.features)
        self.buffer, self.label, self.features = None, None, ()
        return taken


@dataclass(frozen=True, eq=False)
class Dataset:
    """Clean numeric matrix with labels in {0..n_classes-1}.

    `x` (float64, n*d) and `y` (int64, length n) are read-only and belong
    to the dataset alone.  The constructor copies the arrays a caller
    passes, so a later write to them cannot reach the dataset.  Arrays the
    library has just built and holds no other reference to (the loader's
    matrix, `subset`'s slices, synthetic draws) are adopted through
    `_adopt` instead: checked the same way and made read-only, not copied.
    """

    schema: FeatureSchema
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.x, dtype=np.float64), np.array(self.y, dtype=np.int64))

    @classmethod
    def _adopt(cls, schema: FeatureSchema, x: np.ndarray, y: np.ndarray) -> "Dataset":
        """A Dataset over fresh float64 `x` and int64 `y` that no one else holds."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "schema", schema)
        dataset._own(x, y)
        return dataset

    def _own(self, x: np.ndarray, y: np.ndarray) -> None:
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DataError("x must be n*d and y length n")
        if x.shape[1] != self.schema.d:
            raise DataError(
                f"column count {x.shape[1]} does not match schema feature count {self.schema.d}"
            )
        if not all(np.isfinite(column).all() for column in x.T):  # no n*d mask
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
        return Dataset._adopt(self.schema, self.x[idx], self.y[idx])


@dataclass(frozen=True)
class FoldPlan:
    """Stratified partition of record indices into `k` folds, drawn with `seed`.

    `folds` holds each fold's indices, ascending; the fold count `k` is
    their number, so the digest records a Python int whatever integer type
    the caller passed.
    """

    folds: tuple[tuple[int, ...], ...]
    seed: int

    @property
    def k(self) -> int:
        return len(self.folds)

    def digest(self) -> str:
        return json_digest({"k": self.k, "seed": self.seed, "folds": [list(f) for f in self.folds]})


def load_raw(path, schema: FeatureSchema) -> RawTable:
    """Parse a CSV file and check that every schema column is present.

    Extra columns are permitted (and not encoded) so a released
    dataset file can carry provenance columns.  Ragged rows are rejected
    with their physical line number.  Cell errors are left for
    clean_and_encode, which decides which of them is reported.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    bound = _line_bound(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # skips a leading BOM
            reader = csv.reader(fh)
            try:
                return _encode_rows(path, reader, schema, bound)
            except csv.Error as exc:
                raise DataError(f"{path}: row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # the streaming decoder's offset is relative to its buffer, and past any BOM:
        # only on this error path is the whole file read, for the file offset
        read_text(path, DataError)
        raise


def _line_bound(path: Path) -> int:
    """The line terminators of file `path`, a bound on the records after its header.

    csv ends a record at a newline, a carriage return followed by a newline
    (counted once), or a lone carriage return, or at the end of the file;
    so its records number at most one more than these terminators.  A CRLF
    split between two read chunks counts twice: the bound may only be over.
    """
    count = 0
    with path.open("rb") as fh:
        # chunks below glibc's 128 KiB mmap threshold: freeing a larger one
        # raises that threshold, so later mid-sized arrays stay in the heap
        # (1 MiB chunks raised a fixture run's peak RSS by ~0.35 MB)
        while chunk := fh.read(1 << 16):
            count += chunk.count(b"\n")
            if returns := chunk.count(b"\r"):  # the CRLF search costs more than both counts
                count += returns - chunk.count(b"\r\n")
    return count


def _encode_rows(path: Path, reader, schema: FeatureSchema, bound: int) -> RawTable:
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

    n_classes = schema.n_classes
    buffer = np.empty((schema.d + 1) * bound)
    rows = buffer.reshape(schema.d + 1, bound)  # features in schema order, then the label
    label = RawColumn(
        header.index(schema.label_name),
        lambda v: (v >= 0) & (v < n_classes) & (np.floor(v) == v),
        binary=False,
        row=rows[-1],
    )
    features = [
        RawColumn(header.index(spec.name), np.isfinite, binary=spec.kind == "binary", row=row)
        for spec, row in zip(schema.features, rows)
    ]
    n_rows = 0
    for block in _row_blocks(path, reader, len(header)):
        if n_rows + len(block) > bound:
            raise DataError(f"{path}: holds more rows than the {bound} lines counted before "
                            f"reading it; did it change while it was read?")
        columns = list(zip(*block))
        for column in (label, *features):
            column.add(columns[column.index], n_rows)
        n_rows += len(block)
    return RawTable(
        header=header,
        buffer=buffer,
        label=label.finish(n_rows),
        features=tuple(column.finish(n_rows) for column in features),
    )


def _row_blocks(path: Path, reader, width: int):
    """Yield the data rows in lists of up to BLOCK_ROWS, skipping blank lines.

    A block is checked by its set of row widths; only a block holding a
    ragged row, or one the reader fails in, re-reads the file row by row
    (`_first_ragged_row`), so that the first ragged row in file order is
    named by its physical line and beats any later error.
    """
    while True:
        try:
            block = list(islice(reader, BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            if (error := _first_ragged_row(path, width)) is not None:
                raise error from None
            raise
        if not block:
            return
        widths = set(map(len, block))
        if widths != {width}:
            if widths - {0, width}:
                raise _first_ragged_row(path, width) or DataError(
                    f"{path}: its rows changed while it was read")
            block = [cells for cells in block if cells]  # drop blank lines
        if block:
            yield block


def _first_ragged_row(path: Path, width: int) -> DataError | None:
    """The error naming the first row of `path` with neither 0 nor `width` cells, or None.

    The scan stops quietly where the reader fails: a ragged row after that
    point was never reached by the first read either.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if cells and len(cells) != width:
                    return DataError(f"{path}: row {reader.line_num}: expected {width} cells, got {len(cells)}")
        except (csv.Error, UnicodeDecodeError):
            pass
    return None


class RawColumn:
    """One schema column of a RawTable, encoded to float64 a block of cells at a time.

    `values` holds each row's number (for a binary column, the index of
    its code in `codes`) and nan where the cell is blank or does not
    parse: the column's row of its RawTable's buffer, cut to the rows
    read by `finish`.
    `texts` keeps, by row, the stripped text of each present cell that a
    message may quote: one that does not parse or is non-finite, and for
    the label column one outside the class range.  So a cell is blank
    (empty after stripping) exactly when its value is nan and `texts` has
    no entry for its row.
    """

    def __init__(self, index: int, valid, binary: bool, row: np.ndarray):
        self.index = index
        self.valid = valid  # values -> mask of the cells no message needs to quote
        # binary: stripped code -> its index in the finished `codes`; a blank maps to nan
        self.codes = {"": math.nan} if binary else None
        self.values = row
        self.texts: dict[int, str] = {}

    def add(self, cells: tuple[str, ...], start: int) -> None:
        try:  # fast path: blank cells are "" and every other cell is clean
            if self.codes is None:  # numpy parses each str with float()
                values = np.array(list(map(_BLANK_AS_NAN.get, cells, cells)), dtype=np.float64)
            else:
                values = np.fromiter(map(self.codes.__getitem__, cells), np.float64, len(cells))
        except (ValueError, KeyError):  # padding, whitespace-only, a new code or bad text
            values = np.fromiter(map(self._cell_value, cells), np.float64, len(cells))
        for i in np.flatnonzero(~self.valid(values)).tolist():  # blank, or present to quote
            text = cells[i].strip()
            if text:
                self.texts[start + i] = text
        self.values[start : start + len(cells)] = values

    def _cell_value(self, cell: str) -> float:
        if self.codes is None:
            try:
                return float(cell)  # float() strips the same whitespace str.strip() does
            except ValueError:
                return math.nan
        return self.codes.setdefault(cell.strip(), float(len(self.codes) - 1))

    def finish(self, n_rows: int) -> "RawColumn":
        """Cut `values` to the `n_rows` rows read and freeze the binary codes to a tuple in index order."""
        self.values = self.values[:n_rows]
        if self.codes is not None:
            self.codes = tuple(self.codes)[1:]
        return self

    def present(self) -> np.ndarray:
        """Mask of the rows whose cell is not blank: a number, or text a message may quote."""
        mask = ~np.isnan(self.values)
        mask[list(self.texts)] = True
        return mask


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _encode_binary(ids: np.ndarray, codes: tuple[str, ...], spec: FeatureSpec) -> np.ndarray:
    index = ids.astype(np.intp)
    observed = sorted(codes[i] for i in np.unique(index).tolist())
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
    table = np.array([mapping.get(code, math.nan) for code in codes], dtype=np.float64)
    return table[index]


def _fill_value(values: np.ndarray, kind: str) -> float:
    if kind == "continuous":
        return np.median(values)
    # mode, ties broken by the smallest value; the first cell holding it
    # gives the bits, so -0.0 and 0.0 keep the sign that came first
    uniques, counts = np.unique(values, return_counts=True)
    return values[np.argmax(values == uniques[np.argmax(counts)])]


def clean_and_encode(raw: RawTable, schema: FeatureSchema) -> Dataset:
    """Encode schema columns to numbers, impute missing cells, validate labels.

    Rows with a missing label are dropped, and rows are numbered from 1
    among the labelled ones in messages.  Missing continuous cells take the
    column median; missing binary and ordinal cells take the column mode.
    Errors are reported in this order: no labelled row; the first bad
    label; per feature in schema order, an entirely missing column, then
    its binary codes, then its first unparsable cell; the first non-finite
    cell in row-major order.

    It consumes `raw`: each feature row is compacted in place to the front
    of the table's buffer, which becomes the dataset's matrix, so a second
    call on one table raises ValueError.
    """
    buffer, label, features = raw._take()
    kept = label.present()
    if not kept.any():
        raise DataError("no rows with a label")
    row_number = np.cumsum(kept)  # position of each raw row among the labelled rows

    for r, text in label.texts.items():  # every row with text is labelled
        if _parses(text):
            raise DataError(f"row {row_number[r]}: label {text!r} outside 0..{schema.n_classes - 1}")
        raise DataError(
            f"row {row_number[r]}, column {schema.label_name!r}: cannot parse {text!r} as a number"
        )
    labels = label.values[kept].astype(np.int64)

    # row j of `columns` ends at or before row j + 1 of the buffer starts, so
    # compacting row j overwrites no source still to be read
    columns = buffer[: schema.d * labels.size].reshape(schema.d, labels.size)
    non_finite = []
    for j, (spec, column) in enumerate(zip(schema.features, features)):
        present = column.present()[kept]
        if not present.any():
            raise DataError(f"column {spec.name!r} is entirely missing")
        values = np.compress(kept, column.values, out=columns[j])  # numpy buffers an overlap
        if spec.kind == "binary":
            values[present] = _encode_binary(values[present], column.codes, spec)
        quoted = [(row_number[r], text) for r, text in column.texts.items() if kept[r]]
        for n, text in quoted:
            if not _parses(text):
                raise DataError(f"row {n}, column {spec.name!r}: cannot parse {text!r} as a number")
        if quoted:
            non_finite.append((quoted[0][0], j, quoted[0][1]))
        elif not non_finite and not present.all():  # no fill when an error is due
            values[~present] = _fill_value(values[present], spec.kind)

    if non_finite:
        n, j, text = min(non_finite)
        raise DataError(f"row {n}, column {schema.features[j].name!r}: non-finite value {text!r}")
    return Dataset._adopt(schema, columns.T, labels)


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
    _check_integer("k", k)
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
    fold_of = np.empty(n, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    for c in range(dataset.schema.n_classes):
        members = np.flatnonzero(y == c)
        base, rem = divmod(members.size, k)
        sizes = np.full(k, base)
        sizes[np.argsort(loads, kind="stable")[:rem]] += 1  # the smallest folds, lowest index first
        fold_of[members[rng.permutation(members.size)]] = np.repeat(np.arange(k), sizes)
        loads += sizes
    folds = tuple(tuple(np.flatnonzero(fold_of == f).tolist()) for f in range(k))
    return FoldPlan(folds=folds, seed=int(seed))


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
    return Dataset._adopt(schema, x, labels)
