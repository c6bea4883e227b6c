"""The streaming loader against the row-of-strings loader it replaced.

`loader_oracle` is that loader, frozen.  For every generated CSV both must
give the same dataset bytes or the same DataError message.
"""

import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loader_oracle
from mppkit import data
from mppkit.data import DataError, FeatureSchema, FeatureSpec

NUMBERS = ["0", "1", "2", "3", "-0", "0.5", "1.5", "2.0", "10", "1e3", "-4", "1_0"]
CODE_SETS = [("0", "1"), ("yes", "no"), ("2", "10"), ("0",), ("1",), ("yes",), ("0", "1", "2")]
MAPPINGS = [{"yes": 1, "no": 0}, {"0": 0, "1": 1}, {" yes": 1, "no": 0}]
# feature cells beyond the clean pool, by the kind of trouble they bring
NOISE = {
    "none": [],
    "padding": [" ", "\t", "\u00a0", " \u2003 "],  # blank once stripped
    "non-finite": ["nan", "inf", "-Infinity", " NaN ", "1e999"],
    "unparsable": ["x", "1,5", "a\nb", 'q"t', "\u200b1"],  # U+200B is not whitespace
}
LABEL_NOISE = {
    "none": [],
    "odd but valid": [" 1 ", "1.0", "-0", "\t0", " ", "\t"],
    "bad": ["3", "-1", "1.5", "x", "nan", "inf"],
}


def padded(cells):
    return [c for s in cells for c in (" " + s, s + "  ", " " + s + " ")]


def outcome(module, path, schema):
    """What a loader makes of a file: the dataset's bytes or the error message."""
    try:
        ds = module.clean_and_encode(module.load_raw(path, schema), schema)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", ds.x.shape, ds.x.tobytes(), ds.y.tobytes(), ds.x.flags.f_contiguous)


def assert_same(path, schema):
    expected = outcome(loader_oracle, path, schema)
    assert outcome(data, path, schema) == expected
    return expected


@st.composite
def columns(draw, rnd):
    """A schema column: (kind, declared mapping, pool of cells to draw from)."""
    kind = draw(st.sampled_from(["continuous", "ordinal", "binary"]))
    mapping = None
    if kind != "binary":
        clean = NUMBERS
    elif draw(st.booleans()):
        mapping = draw(st.sampled_from(MAPPINGS))
        clean = sorted(mapping) + draw(st.sampled_from([[], [], ["maybe"], ["Yes"]]))
    else:
        clean = list(draw(st.sampled_from(CODE_SETS)))
    noise = rnd.choice(["none", "none", "padding", "non-finite", "unparsable"])
    blanks = rnd.choice([0, 1, 1, 4, 200])  # 200: all but entirely missing
    pool = clean * 4 + [""] * blanks + NOISE[noise]
    if noise == "padding":
        pool += padded(clean)
    return kind, mapping, pool


@st.composite
def csv_files(draw):
    """(bytes, schema) of a small CSV built to reach every error path."""
    # hypothesis draws favour the first items of a list: weighted picks use its Random
    rnd = draw(st.randoms(use_true_random=True))
    n_classes = draw(st.sampled_from([3, 2]))
    specs = draw(st.lists(columns(rnd), min_size=1, max_size=3))
    names = [f"f{j}" for j in range(len(specs))]
    schema = FeatureSchema(
        features=tuple(FeatureSpec(n, kind, mapping=m) for n, (kind, m, _) in zip(names, specs)),
        label_name="label",
        n_classes=n_classes,
    )
    pools = {n: pool for n, (_, _, pool) in zip(names, specs)}
    label_noise = rnd.choice(["none", "none", "odd but valid", "odd but valid", "bad"])
    pools["label"] = [str(c) for c in range(n_classes)] * 12 + [""] + LABEL_NOISE[label_noise]
    pools["extra"] = ["siteA", "", "x,y"]
    header = draw(st.permutations(sorted(set(names) | {"label", "extra"})))
    layout = rnd.choice(["plain"] * 18 + ["missing column", "duplicate column"])
    if layout == "missing column":
        header = header[1:]
    elif layout == "duplicate column":
        header = header + [header[0]]  # refused for a schema column, read for 'extra'

    rows = [[rnd.choice(pools[name]) for name in header] for _ in range(draw(st.integers(1, 12)))]
    at = rnd.randrange(len(rows))
    shape = rnd.choice(["plain"] * 27 + ["short row", "long row", "blank line"])
    if shape == "short row":
        rows[at] = rows[at][:-1]
    elif shape == "long row":
        rows[at] = rows[at] + ["9"]
    elif shape == "blank line":
        rows.insert(at, [])

    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [[draw(st.sampled_from([h, f" {h} "])) for h in header]] + rows
    )
    blob = out.getvalue().encode("utf-8")
    trouble = rnd.choice(["none"] * 27 + ["empty", "header only", "latin-1 byte"])
    if trouble == "empty":
        blob = b""
    elif trouble == "header only":
        blob = blob.split(b"\n")[0] + b"\n"
    elif trouble == "latin-1 byte":
        cut = rnd.randrange(len(blob) + 1)
        blob = blob[:cut] + b"\xe9" + blob[cut:]
    return blob, schema


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(case=csv_files())
def test_same_dataset_or_same_error(scratch, case):
    blob, schema = case
    scratch.write_bytes(blob)
    assert_same(scratch, schema)


BLOCK = data.BLOCK_ROWS
LATE = 2 * BLOCK + 37  # a row in the third block
MIXED = FeatureSchema(
    features=(
        FeatureSpec("b", "binary"),
        FeatureSpec("o", "ordinal"),
        FeatureSpec("c", "continuous"),
    ),
    label_name="label",
)


def many_rows(n=3 * BLOCK + 5):
    # every tenth label blank, every seventh feature cell blank
    return [
        ["yes" if i % 3 else "no", "" if i % 7 == 0 else str(i % 4),
         "" if i % 7 == 3 else repr(i * 0.25), "" if i % 10 == 9 else str(i % 3)]
        for i in range(n)
    ]


def _set(rows, i, j, cell):
    rows[i][j] = cell
    return rows


LATE_CASES = {
    "clean": (many_rows(), None),
    "padded cells only in a late block": (
        _set(_set(many_rows(), LATE, 2, " 7.5 "), LATE + 1, 0, " no"), None),
    "whitespace-only cell in a late block": (_set(many_rows(), LATE, 1, "  "), None),
    "unparsable cell in a late block": (_set(many_rows(), LATE, 2, "7,5"), "cannot parse '7,5'"),
    "non-finite cell in a late block": (_set(many_rows(), LATE, 1, " inf "), "non-finite value 'inf'"),
    "unparsable after non-finite": (
        _set(_set(many_rows(), BLOCK + 1, 1, "nan"), LATE, 2, "x"), "cannot parse 'x'"),
    "bad label in a late block": (_set(many_rows(), LATE, 3, "7"), "label '7' outside 0..2"),
    "unparsable label in a late block": (_set(many_rows(), LATE, 3, "two"), "cannot parse 'two'"),
    "second binary code first seen late": (
        [["yes", *row[1:]] for row in many_rows()[:LATE]] + many_rows()[LATE:], None),
    "third binary code in a late block": (_set(many_rows(), LATE, 0, "maybe"), "more than two codes"),
    "bad cell in an unlabelled late row": (_set(_set(many_rows(), LATE, 2, "x"), LATE, 3, ""), None),
    "nan label in a late block": (_set(many_rows(), LATE, 3, "nan"), "row 956: label 'nan' outside 0..2"),
    "nan cell in an unlabelled late row": (_set(_set(many_rows(), LATE, 1, " nan "), LATE, 3, ""), None),
    "ragged row in a late block": (
        many_rows()[:LATE] + [["no", "1", "2", "1", "9"]], f"row {LATE + 2}: expected 4"),
}


@pytest.mark.parametrize("name", list(LATE_CASES))
def test_errors_past_the_first_block(tmp_path, name):
    rows, expected_error = LATE_CASES[name]
    path = tmp_path / "many.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([["b", "o", "c", "label"], *rows])
    result = assert_same(path, MIXED)
    if expected_error is None:
        assert result[0] == "ok"
    else:
        assert result[0] == "error" and expected_error in result[1]
        # a located error sits past the first block, in file lines or labelled rows
        row = re.search(r"row (\d+)", result[1])
        assert row is None or int(row.group(1)) > BLOCK
