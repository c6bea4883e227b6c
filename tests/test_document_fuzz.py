"""Fuzzed schema manifests and config files fail only with their documented errors.

`load_schema` may raise only DataError (the CLI's exit 2) and `load_config`
only ConfigError (exit 1): any other exception reaches the CLI as exit 3,
which is kept for bugs.  A file is raw bytes, or the JSON of a document
shaped like a manifest or a config, maybe led by a byte-order mark and
maybe with one byte replaced.
"""

import contextlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppkit.data import FEATURE_KINDS, DataError, load_schema
from mppkit.evaluation import MODEL_DEFAULTS
from mppkit.experiment import REPORT_FORMATS, ConfigError, load_config
from mppkit.numeric import PARAM_CHECKS

BOM = b"\xef\xbb\xbf"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def shaped(fields: dict, required=()):
    """Objects holding the `required` keys and some others of `fields`, each value drawn from its
    field's strategy or any JSON value."""
    drawn = {key: values | JSON_VALUES for key, values in fields.items()}
    return st.fixed_dictionaries({key: drawn.pop(key) for key in required}, optional=drawn)


MANIFESTS = shaped({
    "label": st.sampled_from(["label", "a", ""]),
    "n_classes": st.integers(-1, 4),
    "features": st.lists(
        shaped({
            "name": st.sampled_from(["a", "b", "label", ""]),
            "kind": st.sampled_from([*FEATURE_KINDS, "nominal"]),
            "unit": st.none() | st.text(max_size=3),
            "mapping": st.dictionaries(st.sampled_from(["yes", "no", "0"]), st.integers(-1, 2), max_size=3),
        }, required=("name", "kind")),
        max_size=3,
    ),
}, required=("features",))
MODEL_NAMES = st.sampled_from([*MODEL_DEFAULTS, "forest"])
PARAMS = st.dictionaries(st.sampled_from(list(PARAM_CHECKS)), st.integers(-1, 3) | st.floats(-1, 2), max_size=2)
CONFIGS = shaped({
    "data": st.just("data.csv"),
    "schema": st.just("schema.json"),
    "models": st.dictionaries(MODEL_NAMES, PARAMS, max_size=3)
    | st.lists(MODEL_NAMES | shaped({"name": MODEL_NAMES, "params": PARAMS}), max_size=3),
    "folds": st.integers(-1, 6),
    "seed": st.integers(),
    "out": st.sampled_from(["reports", "", "a\x00b"]),
    "format": st.sampled_from([*REPORT_FORMATS, "both", "xml"]),
}, required=("data", "schema", "models"))


@st.composite
def document_bytes(draw, documents):
    doc = draw(documents)
    blob = json.dumps(doc, ensure_ascii=draw(st.booleans())).encode("utf-8")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
    return draw(st.sampled_from([b"", BOM])) + blob


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=64) | document_bytes(MANIFESTS))
@example(blob=b'{"label": "\xe9"}')
@example(blob=b"[" * 100_000)  # nested past the parser's recursion limit
@example(blob=b"1" * 5000)  # over the interpreter's integer digit limit
def test_schema_fails_only_with_data_error(scratch, blob):
    path = scratch / "schema.json"
    path.write_bytes(blob)
    with contextlib.suppress(DataError):
        load_schema(path)


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=64) | document_bytes(CONFIGS))
@example(blob=b'{"data": "\xe9"}')
@example(blob=b'{"data": "d", "schema": "s", "models": {"svm": {"reg_c": 1' + b"0" * 400 + b"}}}")
def test_config_fails_only_with_config_error(scratch, blob):
    path = scratch / "config.json"
    path.write_bytes(blob)
    with contextlib.suppress(ConfigError):
        load_config(path)
