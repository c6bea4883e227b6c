import json
import re
import tracemalloc

import numpy as np
import pytest

from mppkit import data
from mppkit.data import (
    DataError,
    Dataset,
    FeatureSchema,
    FeatureSpec,
    clean_and_encode,
    generate_synthetic,
    load_dataset,
    load_raw,
    load_schema,
    stratified_kfold,
)
from mppkit.numeric import SeededRng
from mppkit.trees import fit_tree, predict_tree_batch


def schema_of(names_kinds, label="label", n_classes=3, mappings=None):
    mappings = mappings or {}
    feats = tuple(
        FeatureSpec(name, kind, mapping=mappings.get(name)) for name, kind in names_kinds
    )
    return FeatureSchema(features=feats, label_name=label, n_classes=n_classes)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BOM = b"\xef\xbb\xbf"
MPP_LIKE_COLUMNS = [(f"c{i}", "continuous") for i in range(41)] + [("Cough", "binary")]


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            schema_of([("a", "continuous"), ("a", "binary")])

    def test_label_listed_as_feature_rejected(self):
        with pytest.raises(DataError, match="label column 'label' is also listed as a feature"):
            schema_of([("a", "continuous"), ("label", "ordinal")])
        with pytest.raises(DataError, match="label column 'y' is also listed as a feature"):
            FeatureSchema.from_manifest(
                {"label": "y", "features": [{"name": "y", "kind": "continuous"}]}
            )

    def test_empty_feature_list_rejected(self):
        with pytest.raises(DataError):
            FeatureSchema(features=(), label_name="label")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            FeatureSpec("a", "categorical")

    def test_manifest_round_trip(self, tmp_path):
        schema = schema_of(
            [("age", "continuous"), ("Cough", "binary")],
            mappings={"Cough": {"yes": 1, "no": 0}},
        )
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema.to_manifest()))
        loaded = load_schema(path)
        assert loaded == schema
        assert loaded.schema_hash() == schema.schema_hash()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_classes": "x"}, "schema key 'n_classes' must be an integer, got 'x'"),
            ({"n_classes": 3.7}, "schema key 'n_classes' must be an integer, got 3.7"),
            ({"n_classes": True}, "schema key 'n_classes' must be an integer, got True"),
            (
                {"features": [{"name": "Cough", "kind": "binary", "mapping": ["yes", "no"]}]},
                "feature 'Cough': mapping must be an object, got ['yes', 'no']",
            ),
            ({"lable": "y"}, "unknown schema key 'lable' (expected label, n_classes, features)"),
            (
                {"features": [{"name": "Cough", "kind": "binary", "maping": {"yes": 0, "no": 1}}]},
                "feature 'Cough': unknown key 'maping' (expected name, kind, unit, mapping)",
            ),
            (
                {"features": [{"name": "a", "kind": "continuous"},
                              {"name": "b", "kind": "ordinal", "units": "cm"}]},
                "feature 'b': unknown key 'units' (expected name, kind, unit, mapping)",
            ),
        ],
    )
    def test_malformed_manifest_names_the_key(self, tmp_path, change, message):
        doc = {"label": "label", "n_classes": 3, "features": [{"name": "a", "kind": "continuous"}]}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(DataError, match=re.escape(message)):
            load_schema(path)

    def test_manifest_with_byte_order_mark(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = tmp_path / "schema.json"
        path.write_bytes(BOM + json.dumps(schema.to_manifest()).encode("utf-8"))
        assert load_schema(path) == schema

    def test_non_utf8_manifest_names_file_and_byte(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(BOM + b'{"label": "\xe9"}')
        with pytest.raises(DataError, match=r"schema\.json: byte 14: not valid UTF-8"):
            load_schema(path)

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(DataError):
            load_schema(tmp_path / "nope.json")


class TestLoadRaw:
    def test_small_csv(self, tmp_path):
        # 42 feature columns plus the label, two data rows
        schema = schema_of(MPP_LIKE_COLUMNS)
        header = ",".join(name for name, _ in MPP_LIKE_COLUMNS) + ",label"
        row = ",".join(["1"] * 42)
        path = write_csv(tmp_path, f"{header}\n{row},0\n{row},1\n")
        table = load_raw(path, schema)
        assert table.n_rows == 2
        assert len(table.header) == 43

    def test_missing_column_named_in_error(self, tmp_path):
        schema = schema_of(MPP_LIKE_COLUMNS)
        header = ",".join(name for name, _ in MPP_LIKE_COLUMNS[:-1]) + ",label"
        row = ",".join(["1"] * 41)
        path = write_csv(tmp_path, f"{header}\n{row},0\n")
        with pytest.raises(DataError, match="Cough"):
            load_raw(path, schema)

    @pytest.mark.parametrize(
        "header, column", [("a,a,label", "a"), ("a,label,label", "label"), ("label,a, a ", "a")]
    )
    def test_header_naming_a_schema_column_twice_is_refused(self, tmp_path, header, column):
        path = write_csv(tmp_path, f"{header}\n1,2,0\n")
        with pytest.raises(DataError, match=re.escape(f"header names column {column!r} more than once")):
            load_raw(path, schema_of([("a", "continuous")]))

    def test_header_may_repeat_an_extra_column(self, tmp_path):
        path = write_csv(tmp_path, "note,a,label,note\nx,1,0,y\nx,2,1,y\n")
        ds = load_dataset(path, schema_of([("a", "continuous")]))
        assert ds.x.ravel().tolist() == [1.0, 2.0] and ds.y.tolist() == [0, 1]

    def test_rows_past_the_counted_lines_are_refused(self, tmp_path, monkeypatch):
        # as when the file gains rows between the line count and the parse
        schema = schema_of([("a", "continuous")])
        path = write_csv(tmp_path, "a,label\n" + "1,0\n" * 600)
        monkeypatch.setattr(data, "_line_bound", lambda path: 599)
        with pytest.raises(DataError, match=r"data\.csv: holds more rows than the 599 lines counted"):
            load_raw(path, schema)

    @pytest.mark.parametrize("text, bound", [
        ("a,label\n1,0\n2,1\n", 3), ("a,label\r\n1,0\r\n2,1", 2), ("a,label\r1,0\r\r2,1\r", 4),
        ("a,label", 0), ("", 0), ('a,label\n"1\r\n",0\n', 3),
    ])
    def test_line_bound_counts_each_terminator_once(self, tmp_path, text, bound):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert data._line_bound(path) == bound

    def test_ragged_row_reports_line(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = write_csv(tmp_path, "a,label\n1,0\n2,1,9\n")
        with pytest.raises(DataError, match="row 3"):
            load_raw(path, schema)

    @pytest.mark.parametrize("late", [
        '"' + "9" * 131073 + '",1,x\n',  # a field over the reader's limit
        "\udce9,1,x\n",  # a byte that is not UTF-8, past the decoder's first chunk
    ])
    def test_ragged_row_beats_a_later_failure_in_its_block(self, tmp_path, late):
        schema = schema_of([("a", "continuous")])
        lines = ["a,label,note", "1,0,x", "2,1,x,9"] + ["1,0," + "x" * 90] * 200
        path = tmp_path / "data.csv"
        path.write_bytes(("\n".join(lines) + "\n" + late).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match=r"data\.csv: row 3: expected 3 cells, got 4"):
            load_raw(path, schema)

    def test_reader_failure_beats_a_later_ragged_row_in_its_block(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = write_csv(tmp_path, 'a,label\n1,0\n"' + "9" * 131073 + '",1\n2,1,9\n')
        with pytest.raises(DataError, match=r"data\.csv: row 3: field larger than field limit"):
            load_raw(path, schema)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_raw(tmp_path / "absent.csv", schema_of([("a", "continuous")]))

    def test_extra_columns_kept_in_table(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = write_csv(tmp_path, "a,label,provenance\n1,0,siteA\n")
        table = load_raw(path, schema)
        assert "provenance" in table.header

    def test_non_utf8_names_file_and_byte(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,label\n1,0\n\xe9,1\n")
        with pytest.raises(DataError, match=r"latin1\.csv: byte 12: not valid UTF-8"):
            load_raw(path, schema)

    def test_csv_error_names_file_and_row(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = write_csv(tmp_path, 'a,label\n1,0\n"' + "9" * 131073 + '",1\n')
        with pytest.raises(DataError, match=r"data\.csv: row 3: field larger than field limit"):
            load_raw(path, schema)

    def test_non_utf8_offset_is_from_file_start(self, tmp_path):
        # far past the text decoder's first buffer
        schema = schema_of([("a", "continuous")])
        head = b"a,label\n" + b"1,0\n" * 5000
        path = tmp_path / "late.csv"
        path.write_bytes(head + b"\xff,1\n")
        with pytest.raises(DataError, match=f"byte {len(head)}:"):
            load_raw(path, schema)

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        schema = schema_of([("a", "continuous")])
        text = "a,label\n1,0\n2,1\n"
        plain = load_dataset(write_csv(tmp_path, text), schema)
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + text.encode("utf-8"))
        marked = load_dataset(path, schema)
        assert marked.x.tobytes() == plain.x.tobytes() and marked.y.tobytes() == plain.y.tobytes()

    def test_non_utf8_offset_counts_the_byte_order_mark(self, tmp_path):
        schema = schema_of([("a", "continuous")])
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + b"a,label\n1,0\n\xe9,1\n")
        with pytest.raises(DataError, match=r"bom\.csv: byte 15: not valid UTF-8"):
            load_raw(path, schema)


class TestCleanAndEncode:
    def test_median_imputation(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        path = write_csv(tmp_path, "v,label\n1,0\n,1\n3,2\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_declared_binary_mapping(self, tmp_path):
        schema = schema_of(
            [("flag", "binary")], mappings={"flag": {"yes": 1, "no": 0}}
        )
        path = write_csv(tmp_path, "flag,label\nyes,0\nno,1\nyes,2\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.x[:, 0].tolist() == [1.0, 0.0, 1.0]

    def test_inferred_binary_mapping_orders_numerically(self, tmp_path):
        schema = schema_of([("flag", "binary")])
        path = write_csv(tmp_path, "flag,label\n2,0\n10,1\n2,2\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        # numeric order: 2 -> 0, 10 -> 1 (lexicographic would invert it)
        assert ds.x[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_binary_mode_imputation(self, tmp_path):
        schema = schema_of([("flag", "binary")])
        path = write_csv(tmp_path, "flag,label\n1,0\n1,1\n0,2\n,0\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.x[3, 0] == 1.0

    def test_ordinal_mode_imputation(self, tmp_path):
        schema = schema_of([("grade", "ordinal")])
        path = write_csv(tmp_path, "grade,label\n2,0\n2,1\n3,2\n,0\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.x[3, 0] == 2.0

    def test_label_out_of_domain(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        path = write_csv(tmp_path, "v,label\n1,0\n2,5\n")
        with pytest.raises(DataError, match=r"row 2.*5"):
            clean_and_encode(load_raw(path, schema), schema)

    def test_missing_label_rows_dropped(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        path = write_csv(tmp_path, "v,label\n1,0\n2,\n3,1\n4,2\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.n == 3
        assert ds.y.tolist() == [0, 1, 2]

    def test_binary_value_outside_codes(self, tmp_path):
        schema = schema_of([("flag", "binary")], mappings={"flag": {"yes": 1, "no": 0}})
        path = write_csv(tmp_path, "flag,label\nyes,0\nmaybe,1\n")
        with pytest.raises(DataError, match="maybe"):
            clean_and_encode(load_raw(path, schema), schema)

    def test_binary_three_codes_rejected(self, tmp_path):
        schema = schema_of([("flag", "binary")])
        path = write_csv(tmp_path, "flag,label\n0,0\n1,1\n2,2\n")
        with pytest.raises(DataError, match="more than two codes"):
            clean_and_encode(load_raw(path, schema), schema)

    def test_entirely_missing_column(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        path = write_csv(tmp_path, "v,label\n,0\n,1\n")
        with pytest.raises(DataError, match="entirely missing"):
            clean_and_encode(load_raw(path, schema), schema)

    @pytest.mark.parametrize("kind", ["continuous", "ordinal"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_located(self, tmp_path, kind, cell):
        schema = schema_of([("a", "continuous"), ("v", kind)])
        path = write_csv(tmp_path, f"a,v,label\n1,2,0\n2,,1\n3,{cell},2\n4,1,0\n")
        with pytest.raises(DataError, match=rf"row 3, column 'v': non-finite value '{cell}'"):
            clean_and_encode(load_raw(path, schema), schema)

    def test_first_non_finite_row_named(self, tmp_path):
        schema = schema_of([("a", "continuous"), ("v", "ordinal")])
        path = write_csv(tmp_path, "a,v,label\n1,2,0\n2,inf,1\nnan,1,2\n")
        with pytest.raises(DataError, match=r"row 2, column 'v'"):
            clean_and_encode(load_raw(path, schema), schema)

    def test_extra_columns_ignored(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        path = write_csv(tmp_path, "v,label,extra\n1,0,junk\n2,1,junk\n")
        ds = clean_and_encode(load_raw(path, schema), schema)
        assert ds.d == 1

    def test_idempotent_on_clean_values(self, fixture_dir, tmp_path):
        schema = load_schema(fixture_dir / "fixture_schema.json")
        ds = clean_and_encode(load_raw(fixture_dir / "fixture.csv", schema), schema)
        # re-serialize the cleaned matrix and clean it again: nothing changes
        header = ",".join([f.name for f in schema.features] + [schema.label_name])
        lines = [header]
        for i in range(ds.n):
            cells = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.y[i]))]
            lines.append(",".join(cells))
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        again = clean_and_encode(load_raw(path, schema), schema)
        assert np.array_equal(again.x, ds.x)
        assert np.array_equal(again.y, ds.y)

    def test_fixture_matches_manifest(self, fixture_dir):
        schema = load_schema(fixture_dir / "fixture_schema.json")
        ds = clean_and_encode(load_raw(fixture_dir / "fixture.csv", schema), schema)
        manifest = json.loads((fixture_dir / "fixture_manifest.json").read_text())
        assert ds.n == manifest["n"]
        assert ds.d == manifest["d"]
        assert np.bincount(ds.y, minlength=3).tolist() == manifest["class_counts"]
        for j, spec in enumerate(schema.features):
            col = manifest["columns"][spec.name]
            assert float(ds.x[:, j].min()) == float(col["min"])
            assert float(ds.x[:, j].max()) == float(col["max"])

    def test_peak_memory_above_input(self, tmp_path):
        # the matrix is built once: no second copy of it, and no per-column copy
        n, d = 20_000, 30
        path, schema = mixed_kinds_csv(tmp_path, n)
        raw = load_raw(path, schema)
        tracemalloc.start()
        try:
            ds = clean_and_encode(raw, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.x.shape == (n, d)
        assert peak <= 1.75 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f}x the matrix"

    def test_cleaning_compacts_in_place(self, tmp_path):
        # the matrix is the front of load_raw's buffer: cleaning allocates only
        # labels, masks and one column's temporaries (about 0.17x the matrix)
        path, schema = mixed_kinds_csv(tmp_path, 20_000)
        raw = load_raw(path, schema)
        peak, ds = traced_peak(clean_and_encode, raw, schema)
        assert ds.x.flags.f_contiguous
        assert peak <= 0.5 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f}x the matrix"

    def test_loading_holds_every_number_once(self, tmp_path):
        # one (d + 1) x n float64 buffer, plus a block of cell text in flight
        # and cleaning's temporaries (about 1.34x the buffer)
        n, d = 20_000, 30
        path, schema = mixed_kinds_csv(tmp_path, n)
        peak, ds = traced_peak(load_dataset, path, schema)
        assert ds.x.shape == (n, d)
        buffer = (d + 1) * n * 8
        assert peak <= 1.5 * buffer, f"peak {peak / buffer:.2f}x the buffer"

    def test_a_raw_table_is_cleaned_once(self, tmp_path):
        schema = schema_of([("v", "continuous")])
        raw = load_raw(write_csv(tmp_path, "v,label\n1,0\n,1\n3,2\n"), schema)
        ds = clean_and_encode(raw, schema)
        assert raw.buffer is None and raw.label is None and raw.features == ()
        with pytest.raises(ValueError, match="RawTable was cleaned already"):
            clean_and_encode(raw, schema)
        assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]


def mixed_kinds_csv(tmp_path, n):
    """A CSV of n rows: 10 yes/no binary, 10 ordinal and 10 continuous columns, 2% blank."""
    rng = SeededRng(3)
    per_kind = 10
    kinds = ["binary"] * per_kind + ["ordinal"] * per_kind + ["continuous"] * per_kind
    schema = schema_of([(f"f{j}", kind) for j, kind in enumerate(kinds)])
    draws = rng.random((n, len(kinds)))
    blank = rng.random((n, len(kinds))) < 0.02
    lines = [",".join(schema.feature_names + ["label"])]
    for i in range(n):
        cells = []
        for j, kind in enumerate(kinds):
            v = draws[i, j]
            if blank[i, j]:
                cells.append("")
            elif kind == "binary":
                cells.append("yes" if v < 0.5 else "no")
            else:
                cells.append(str(int(v * 5)) if kind == "ordinal" else repr(float(v)))
        lines.append(",".join(cells + [str(i % 3)]))
    return write_csv(tmp_path, "\n".join(lines) + "\n"), schema


def traced_peak(call, *args):
    """The tracemalloc peak of `call(*args)`, in bytes, and its result."""
    np.median(np.zeros(1))  # its first call imports numpy.ma: keep that out of the peak
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestDatasetInvariants:
    def test_rejects_non_finite(self):
        schema = schema_of([("a", "continuous")])
        with pytest.raises(DataError):
            Dataset(schema, np.array([[np.nan]]), np.array([0]))

    def test_rejects_label_out_of_domain(self):
        schema = schema_of([("a", "continuous")])
        with pytest.raises(DataError):
            Dataset(schema, np.array([[1.0]]), np.array([3]))

    def test_rejects_column_mismatch(self):
        schema = schema_of([("a", "continuous")])
        with pytest.raises(DataError):
            Dataset(schema, np.ones((2, 2)), np.array([0, 1]))

    def test_arrays_read_only(self):
        ds = generate_synthetic(12, 2, {0}, seed=1)
        with pytest.raises(ValueError):
            ds.x[0, 0] = 9.9

    @pytest.mark.parametrize("source", ["load_dataset", "subset", "generate_synthetic", "constructor"])
    def test_arrays_read_only_from_every_source(self, source, fixture_dir):
        if source == "load_dataset":
            ds = load_dataset(fixture_dir / "fixture.csv", load_schema(fixture_dir / "fixture_schema.json"))
        elif source == "subset":
            ds = generate_synthetic(12, 2, {0}, seed=1).subset([3, 1, 4])
        elif source == "generate_synthetic":
            ds = generate_synthetic(12, 2, {0}, seed=1)
        else:
            ds = Dataset(schema_of([("a", "continuous")]), np.array([[1.0], [2.0]]), np.array([0, 1]))
        for array in (ds.x, ds.y):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_subsets_are_private_and_read_only(self, fixture_dir):
        ds = load_dataset(fixture_dir / "fixture.csv", load_schema(fixture_dir / "fixture_schema.json"))
        sub = ds.subset(np.arange(0, ds.n, 2))
        subsub = sub.subset([4, 0, 2])
        assert subsub.x.tolist() == ds.x[[8, 0, 4]].tolist()
        for child, parent in ((sub, ds), (subsub, sub), (subsub, ds)):
            for array, parent_array in ((child.x, parent.x), (child.y, parent.y)):
                assert not array.flags.writeable
                assert not np.shares_memory(array, parent_array)
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_constructor_copies_callers_arrays(self):
        x, y = np.array([[1.0], [2.0]]), np.array([0, 1])
        ds = Dataset(schema_of([("a", "continuous")]), x, y)
        x[0, 0], y[0] = 9.0, 2
        assert x.flags.writeable and y.flags.writeable  # the caller's arrays stay theirs
        assert ds.x.tolist() == [[1.0], [2.0]] and ds.y.tolist() == [0, 1]


class TestStratifiedKfold:
    def test_960_records_five_folds(self):
        ds = generate_synthetic(960, 4, {0}, seed=5)
        plan = stratified_kfold(ds, 5, seed=11)
        sizes = [len(f) for f in plan.folds]
        assert sizes == [192] * 5

    def test_exact_divisibility_toy(self):
        ds = Dataset(
            schema_of([("a", "continuous")]),
            np.arange(6, dtype=float).reshape(6, 1),
            np.array([0, 0, 1, 1, 2, 2]),
        )
        plan = stratified_kfold(ds, 2, seed=0)
        for fold in plan.folds:
            assert np.bincount(ds.y[list(fold)], minlength=3).tolist() == [1, 1, 1]

    def test_determinism(self):
        ds = generate_synthetic(100, 3, {0}, seed=9)
        assert stratified_kfold(ds, 5, seed=4) == stratified_kfold(ds, 5, seed=4)

    def test_seed_changes_plan(self):
        ds = generate_synthetic(100, 3, {0}, seed=9)
        assert stratified_kfold(ds, 5, seed=4) != stratified_kfold(ds, 5, seed=5)

    def test_small_class_rejected(self):
        ds = Dataset(
            schema_of([("a", "continuous")]),
            np.arange(7, dtype=float).reshape(7, 1),
            np.array([0, 0, 0, 1, 1, 1, 2]),
        )
        with pytest.raises(DataError, match="class 2"):
            stratified_kfold(ds, 2, seed=0)

    def test_k_below_two_rejected(self):
        ds = generate_synthetic(30, 2, {0}, seed=2)
        with pytest.raises(ValueError):
            stratified_kfold(ds, 1, seed=0)

    @pytest.mark.parametrize("k", [3.0, 2.5, "3", True])
    def test_non_integer_k_rejected(self, k):
        ds = generate_synthetic(30, 2, {0}, seed=2)
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            stratified_kfold(ds, k, seed=0)

    def test_numpy_integer_k_plans_as_its_int(self):
        ds = generate_synthetic(100, 3, {0}, seed=9)
        plan = stratified_kfold(ds, np.int64(5), seed=np.int64(4))
        assert plan.digest() == stratified_kfold(ds, 5, seed=4).digest()
        assert type(plan.k) is int and plan.k == 5

    def test_properties_over_random_datasets(self):
        # disjointness, coverage, and per-class proportionality within 1
        rng = SeededRng(314)
        for trial in range(100):
            n = 30 + int(rng.integers(0, 200))
            k = int(rng.integers(2, 7))
            ds = generate_synthetic(n, 2, {0}, seed=trial, noise=0.2)
            if np.bincount(ds.y, minlength=3).min() < k:
                continue
            plan = stratified_kfold(ds, k, seed=trial)
            combined = np.concatenate([np.asarray(f, dtype=int) for f in plan.folds])
            assert len(combined) == n
            assert len(set(combined.tolist())) == n
            class_counts = np.bincount(ds.y, minlength=3)
            for fold in plan.folds:
                fold_counts = np.bincount(ds.y[list(fold)], minlength=3)
                for c in range(3):
                    assert abs(fold_counts[c] - class_counts[c] / k) <= 1


class TestGenerateSynthetic:
    def test_planted_feature_is_learnable_by_shallow_tree(self):
        ds = generate_synthetic(300, 10, {0}, seed=0, noise=0.0)
        tree = fit_tree(ds, max_depth=2, min_samples_leaf=1)
        assert np.mean(predict_tree_batch(tree, ds.x) == ds.y) == 1.0

    def test_no_informative_features_majority_is_best(self):
        ds = generate_synthetic(300, 10, set(), seed=0)
        counts = np.bincount(ds.y, minlength=3)
        tree = fit_tree(ds, max_depth=0)
        acc = np.mean(predict_tree_batch(tree, ds.x) == ds.y)
        assert acc == counts.max() / 300

    def test_byte_identical_for_same_seed(self):
        a = generate_synthetic(50, 4, {1}, seed=123, noise=0.1)
        b = generate_synthetic(50, 4, {1}, seed=123, noise=0.1)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_class_counts_floor(self):
        for seed in range(5):
            ds = generate_synthetic(120, 3, {0, 2}, seed=seed, noise=0.1)
            assert np.bincount(ds.y, minlength=3).min() >= 20

    def test_numpy_integer_n_draws_as_its_int(self):
        a = generate_synthetic(np.int64(60), 3, {0}, seed=1, noise=0.1)
        b = generate_synthetic(60, 3, {0}, seed=1, noise=0.1)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_informative_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            generate_synthetic(30, 3, {3}, seed=0)
