import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from mppkit.data import generate_synthetic
from mppkit.evaluation import MODELS
from mppkit.linear import fit_logistic, fit_svm, predict_logistic_batch, predict_svm_batch
from mppkit.mlp import fit_mlp, predict_mlp_batch
from mppkit.serialize import (
    FORMAT_VERSION,
    MAX_TREE_DEPTH,
    from_document,
    load_model,
    save_model,
    to_document,
)
from mppkit.trees import fit_gbdt, fit_tree, predict_gbdt_batch, predict_tree_batch


def small_mlp(ds):
    return fit_mlp(ds, hidden=3, epochs=2, l2=0.0, seed=1)


def small_tree(ds):
    return fit_tree(ds, max_depth=2)


def small_gbdt(ds):
    return fit_gbdt(ds, rounds=2)


# the models whose documents carry a standardization
STANDARDIZED_FITS = [fit_logistic, fit_svm, small_mlp]
# each model type: a small fit taking one size knob in 1..4, and its batch predictor
SMALL_FITS = {
    "logistic": (lambda ds, i: fit_logistic(ds, epochs=5 * i), predict_logistic_batch),
    "svm": (lambda ds, i: fit_svm(ds, epochs=5 * i), predict_svm_batch),
    "tree": (lambda ds, i: fit_tree(ds, max_depth=i, min_samples_leaf=1), predict_tree_batch),
    "gbdt": (lambda ds, i: fit_gbdt(ds, rounds=i, max_depth=2), predict_gbdt_batch),
    "mlp": (lambda ds, i: fit_mlp(ds, hidden=i, epochs=2, seed=i), predict_mlp_batch),
}


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(80, 5, {0, 1}, seed=77, noise=0.05)


def roundtrip(model, schema, tmp_path, name):
    path = save_model(model, schema, tmp_path / f"{name}.json")
    return load_model(path, schema)


class TestRoundTrips:
    def test_logistic(self, dataset, tmp_path):
        model = fit_logistic(dataset)
        clone = roundtrip(model, dataset.schema, tmp_path, "logistic")
        assert np.array_equal(model.weights, clone.weights)
        a = predict_logistic_batch(model, dataset.x)
        b = predict_logistic_batch(clone, dataset.x)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_svm(self, dataset, tmp_path):
        model = fit_svm(dataset)
        clone = roundtrip(model, dataset.schema, tmp_path, "svm")
        assert np.array_equal(model.weights, clone.weights)
        assert clone.reg_c == model.reg_c
        assert np.array_equal(
            predict_svm_batch(model, dataset.x), predict_svm_batch(clone, dataset.x)
        )

    def test_tree(self, dataset, tmp_path):
        model = fit_tree(dataset, max_depth=4)
        clone = roundtrip(model, dataset.schema, tmp_path, "tree")
        assert np.array_equal(
            predict_tree_batch(model, dataset.x), predict_tree_batch(clone, dataset.x)
        )
        assert clone.max_depth == 4

    def test_gbdt(self, dataset, tmp_path):
        model = fit_gbdt(dataset, rounds=12)
        clone = roundtrip(model, dataset.schema, tmp_path, "gbdt")
        a = predict_gbdt_batch(model, dataset.x)
        b = predict_gbdt_batch(clone, dataset.x)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(model.importance_raw, clone.importance_raw)
        assert len(clone.loss_history) == 13
        assert clone.loss_history == model.loss_history
        assert all(type(v) is float for v in clone.loss_history)

    def test_mlp(self, dataset, tmp_path):
        model = fit_mlp(dataset, hidden=5, epochs=25, l2=0.0, seed=2)
        clone = roundtrip(model, dataset.schema, tmp_path, "mlp")
        assert np.array_equal(model.w1, clone.w1)
        assert np.array_equal(model.w2, clone.w2)
        a = predict_mlp_batch(model, dataset.x)
        b = predict_mlp_batch(clone, dataset.x)
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize(
        ("fit", "count"),
        [
            (lambda ds, n: fit_tree(ds, max_depth=n), 3),
            (lambda ds, n: fit_gbdt(ds, rounds=n), 2),
            (lambda ds, n: fit_mlp(ds, hidden=n, epochs=2, seed=1), 4),
        ],
        ids=["tree", "gbdt", "mlp"],
    )
    def test_numpy_integer_hyperparameter_saves_as_a_python_int(self, dataset, tmp_path, fit, count):
        path = save_model(fit(dataset, np.int64(count)), dataset.schema, tmp_path / "numpy.json")
        expected = to_document(fit(dataset, count), dataset.schema)
        assert json.loads(path.read_text()) == expected
        assert to_document(load_model(path, dataset.schema), dataset.schema) == expected


class TestDocumentShape:
    def test_versioned_fields_present(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["model_type"] == "tree"
        assert doc["schema_hash"] == dataset.schema.schema_hash()
        assert "weights" in doc and "hyperparameters" in doc

    def test_tree_nodes_nest_as_documented(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        node = doc["weights"]["root"]
        if "leaf" not in node:
            assert set(node) == {"feature", "threshold", "left", "right"}
            assert isinstance(node["left"], dict)

    def test_document_is_json_clean(self, dataset):
        doc = to_document(fit_gbdt(dataset, rounds=3), dataset.schema)
        blob = json.dumps(doc)
        assert json.loads(blob) == doc

    def test_wrong_schema_rejected_on_load(self, dataset, tmp_path):
        model = fit_tree(dataset, max_depth=2)
        path = save_model(model, dataset.schema, tmp_path / "m.json")
        other = generate_synthetic(30, 4, {0}, seed=5).schema
        with pytest.raises(ValueError, match="different schema"):
            load_model(path, other)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            from_document({"format_version": 99, "model_type": "tree"})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="model_type"):
            from_document({"format_version": FORMAT_VERSION, "model_type": "forest"})

    @pytest.mark.parametrize(
        ("fit", "section", "key"),
        [
            (fit_logistic, "weights", "coef"),
            (fit_svm, "hyperparameters", "reg_c"),
            (lambda ds: fit_tree(ds, max_depth=2), "weights", "root"),
            (lambda ds: fit_gbdt(ds, rounds=2), "weights", "trees"),
            (lambda ds: fit_mlp(ds, hidden=3, epochs=2, l2=0.0, seed=1), "weights", "w2"),
        ],
    )
    def test_truncated_document_names_missing_key(self, dataset, fit, section, key):
        doc = to_document(fit(dataset), dataset.schema)
        del doc[section][key]
        with pytest.raises(ValueError, match=f"truncated {doc['model_type']} model document: "
                           f"missing key '{key}'"):
            from_document(doc)

    def test_truncated_tree_node_names_missing_key(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        del doc["weights"]["root"]["right"]
        with pytest.raises(ValueError, match="missing key 'right'"):
            from_document(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="model document must be a JSON object, got list"):
            from_document([1])

    def test_non_object_file_rejected_with_a_schema(self, dataset, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(ValueError, match="model document must be a JSON object, got list"):
            load_model(path, dataset.schema)

    def test_model_file_not_found(self, tmp_path):
        with pytest.raises(ValueError, match="model document not found"):
            load_model(tmp_path / "none.json")

    def test_model_file_read_as_utf8(self, dataset, tmp_path):
        model = fit_tree(dataset, max_depth=2)
        path = save_model(model, dataset.schema, tmp_path / "m.json")
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        clone = load_model(marked, dataset.schema)
        assert np.array_equal(predict_tree_batch(clone, dataset.x), predict_tree_batch(model, dataset.x))
        marked.write_bytes(b"\xef\xbb\xbf{\"model_type\": \"\xe9\"}")
        with pytest.raises(ValueError, match=r"bom\.json: byte 19: not valid UTF-8"):
            load_model(marked)
        marked.write_text("{")
        with pytest.raises(ValueError, match=r"model document .*bom\.json is not valid JSON"):
            load_model(marked)

    def test_model_file_repeating_a_key_rejected(self, dataset, tmp_path):
        path = save_model(fit_tree(dataset, max_depth=2), dataset.schema, tmp_path / "m.json")
        text = path.read_text()
        assert '"feature": ' in text
        path.write_text(text.replace('"feature": ', '"feature": 0, "feature": ', 1))
        with pytest.raises(ValueError, match=r"model document .*m\.json repeats the key 'feature'"):
            load_model(path)

    def test_non_object_hyperparameters_rejected(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        doc["hyperparameters"] = [1]
        with pytest.raises(ValueError, match="key 'hyperparameters' must be a JSON object"):
            from_document(doc)

    @pytest.mark.parametrize("fit", STANDARDIZED_FITS, ids=["logistic", "svm", "mlp"])
    def test_non_object_standardization_rejected(self, dataset, fit):
        doc = to_document(fit(dataset), dataset.schema)
        for value in ([1], None):
            doc["standardization"] = value
            with pytest.raises(ValueError, match="key 'standardization' must be a JSON object, got "
                               f"{type(value).__name__}"):
                from_document(doc)

    @pytest.mark.parametrize("fit", STANDARDIZED_FITS, ids=["logistic", "svm", "mlp"])
    def test_standardization_must_match_the_feature_count(self, dataset, fit):
        doc = to_document(fit(dataset), dataset.schema)
        assert len(doc["standardization"]["mean"]) == dataset.d
        for key in ("mean", "std"):
            short = {**doc, "standardization": {**doc["standardization"], key: [1.0]}}
            message = rf"key 'standardization': key '{key}' must have shape \(5,\), got \(1,\)"
            with pytest.raises(ValueError, match=message):
                from_document(short)

    def test_non_object_tree_node_rejected(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        doc["weights"]["root"]["left"] = [1]
        with pytest.raises(ValueError, match="tree node must be a JSON object, got list"):
            from_document(doc)
        doc = to_document(fit_gbdt(dataset, rounds=2), dataset.schema)
        doc["weights"]["trees"][1][2] = [1]
        with pytest.raises(ValueError, match="tree node must be a JSON object, got list"):
            from_document(doc)

    def test_mlp_activation_must_be_tanh(self, dataset):
        model = fit_mlp(dataset, hidden=3, epochs=2, l2=0.0, seed=1)
        doc = to_document(model, dataset.schema)
        assert doc["hyperparameters"]["activation"] == "tanh"
        del doc["hyperparameters"]["activation"]  # a missing activation reads as tanh
        clone = from_document(doc)
        assert np.array_equal(predict_mlp_batch(clone, dataset.x)[1], predict_mlp_batch(model, dataset.x)[1])
        for other in ("relu", None, 1):
            doc["hyperparameters"]["activation"] = other
            with pytest.raises(ValueError, match=f"mlp hyperparameter 'activation' must be 'tanh', got {other!r}"):
                from_document(doc)

    def test_unserializable_object_rejected(self, dataset):
        with pytest.raises(TypeError):
            to_document(object(), dataset.schema)


def predict_bytes(name, model, x) -> bytes:
    out = SMALL_FITS[name][1](model, x)
    return b"".join(np.asarray(part).tobytes() for part in (out if isinstance(out, tuple) else (out,)))


def chain_tree(n):
    """A tree fitted into a chain of depth n - 1: x = 0..n-1 with labels cycling through 0, 1, 2."""
    ds = make_dataset(np.arange(n)[:, None], np.arange(n) % 3)
    return fit_tree(ds, max_depth=5000, min_samples_leaf=1), ds


STD_POSITIVE = "key 'standardization': key 'std' must hold positive numbers"
TOO_DEEP = "tree is deeper than its hyperparameter 'max_depth'"
ROUNDS_DISAGREE = "tree rounds do not match the declared round count"


class TestMalformedValues:
    @pytest.mark.parametrize(
        ("fit", "section", "key", "value"),
        [
            (fit_logistic, "weights", "coef", {"a": 1}),
            (fit_logistic, "hyperparameters", "n_classes", None),
            (fit_svm, "hyperparameters", "n_classes", 1e400),
            (lambda ds: fit_gbdt(ds, rounds=2), "weights", "trees", 5),
            (lambda ds: fit_mlp(ds, hidden=3, epochs=2, l2=0.0, seed=1), "hyperparameters", "hidden", {}),
        ],
    )
    def test_wrong_type_or_range_raises_value_error(self, dataset, fit, section, key, value):
        doc = to_document(fit(dataset), dataset.schema)
        doc[section][key] = value
        with pytest.raises(ValueError, match=f"{doc['model_type']} model document"):
            from_document(doc)

    @pytest.mark.parametrize(
        ("fit", "section", "key", "value", "named"),
        [
            (small_mlp, "hyperparameters", "hidden", 7, "'hidden' is 7, but key 'w1' has 3 rows"),
            (small_mlp, "hyperparameters", "hidden", -1,
             "'hidden' of model 'mlp' must be an integer >= 1, got -1"),
            (small_mlp, "hyperparameters", "hidden", "x",
             "'hidden' of model 'mlp' must be an integer >= 1, got 'x'"),
            (small_mlp, "hyperparameters", "hidden", 3.0,
             "'hidden' of model 'mlp' must be an integer >= 1, got 3.0"),
            (small_gbdt, "weights", "init_scores", [0.0], r"'init_scores' must have shape \(3,\), got \(1,\)"),
            (small_gbdt, "weights", "init_scores", [0.0] * 5, r"'init_scores' must have shape \(3,\), got \(5,\)"),
            (small_tree, "weights", "root", {"leaf": 5}, r"'leaf' must have shape \(3,\), got \(\)"),
            (small_tree, "weights", "root", {"leaf": [1.0, 2.0]}, r"'leaf' must have shape \(3,\), got \(2,\)"),
            (small_gbdt, "weights", "trees", [[{"leaf": [0.0]}] * 2 + [{"leaf": 5}]] * 2,
             r"'leaf' must have shape \(1,\), got \(\)"),
            (fit_logistic, "hyperparameters", "n_classes", 1,
             "'n_classes' of model 'logistic' must be an integer >= 2, got 1"),
            (small_tree, "hyperparameters", "n_classes", 3.9,
             "'n_classes' of model 'tree' must be an integer >= 2, got 3.9"),
            (fit_svm, "hyperparameters", "n_classes", 2, r"'coef' must have shape \(2, any\), got \(3, 6\)"),
            (fit_svm, "hyperparameters", "reg_c", 1e400,
             "'reg_c' of model 'svm' must be a positive number, got inf"),
            (fit_svm, "hyperparameters", "reg_c", 0, "'reg_c' of model 'svm' must be a positive number, got 0"),
            (small_mlp, "weights", "w2", [[0.0] * 4] * 2, r"'w2' must have shape \(3, 4\), got \(2, 4\)"),
            (small_gbdt, "weights", "importance_raw", [0.0], r"'importance_raw' must have shape \(5,\)"),
            (small_gbdt, "hyperparameters", "shrinkage", "x",
             r"'shrinkage' of model 'gbdt' must be a number in \(0, 1\], got 'x'"),
            (small_gbdt, "hyperparameters", "shrinkage", 0,
             r"'shrinkage' of model 'gbdt' must be a number in \(0, 1\], got 0"),
            (small_gbdt, "hyperparameters", "shrinkage", 5.0,
             r"'shrinkage' of model 'gbdt' must be a number in \(0, 1\], got 5.0"),
            (small_gbdt, "hyperparameters", "rounds", 2.9,
             "'rounds' of model 'gbdt' must be an integer >= 1, got 2.9"),
            # the small GBDT holds two groups of trees
            (small_gbdt, "hyperparameters", "rounds", 1, ROUNDS_DISAGREE),
            (small_gbdt, "hyperparameters", "rounds", 3, ROUNDS_DISAGREE),
            (small_gbdt, "weights", "loss_history", [0.5, "x"], "key 'loss_history' must hold numbers"),
            (small_gbdt, "weights", "loss_history", [0.5, 1e400], "'loss_history' must hold finite"),
            (small_tree, "hyperparameters", "d", 0, "'d' of model 'tree' must be an integer >= 1, got 0"),
            (small_tree, "hyperparameters", "max_depth", 2.7,
             "'max_depth' of model 'tree' must be an integer >= 0, got 2.7"),
            (small_tree, "hyperparameters", "max_depth", "2",
             "'max_depth' of model 'tree' must be an integer >= 0, got '2'"),
            (small_tree, "hyperparameters", "max_depth", True,
             "'max_depth' of model 'tree' must be an integer >= 0, got True"),
            # the small tree holds two levels of splits, each small GBDT tree three
            (small_tree, "hyperparameters", "max_depth", 0, TOO_DEEP),
            (small_tree, "hyperparameters", "max_depth", 1, TOO_DEEP),
            (small_gbdt, "hyperparameters", "max_depth", 2, TOO_DEEP),
            (fit_logistic, "weights", "coef", [[1e400] + [0.0] * 5] + [[0.0] * 6] * 2, "'coef' must hold finite"),
            (small_mlp, "weights", "w1", [[0.0] * 6, [0.0] * 6, [0.0] * 5 + [1e400]], "'w1' must hold finite"),
            (small_tree, "weights", "root", {"feature": 0, "threshold": 1e400, "left": {"leaf": [1, 0, 0]},
                                             "right": {"leaf": [0, 1, 0]}}, "'threshold' must hold finite"),
            (fit_logistic, "standardization", "std", [1.0, 1.0, 0.0, 1.0, 1.0], STD_POSITIVE),
            (fit_svm, "standardization", "std", [1.0, -1.0, 1.0, 1.0, 1.0], STD_POSITIVE),
            (small_mlp, "standardization", "mean", [0.0, 0.0, 0.0, 0.0, 1e400],
             "key 'standardization': key 'mean' must hold finite numbers"),
            (fit_logistic, "standardization", "mean", {"a": 1},
             "key 'standardization': key 'mean' must hold numbers"),
            (small_mlp, "standardization", "std", "x", "key 'standardization': key 'std' must hold numbers"),
        ],
    )
    def test_value_that_does_not_fit_the_document_names_its_key(self, dataset, fit, section, key, value, named):
        doc = to_document(fit(dataset), dataset.schema)
        doc[section][key] = value
        with pytest.raises(ValueError, match=f"^malformed {doc['model_type']} model document: .*{named}"):
            from_document(doc)

    @pytest.mark.parametrize("feature", [None, -1, 1.9, 1.0, True, 5, 7, "0"])
    def test_node_feature_must_be_a_column_index(self, dataset, feature):
        assert dataset.d == 5
        doc = to_document(fit_tree(dataset, max_depth=2), dataset.schema)
        doc["weights"]["root"]["feature"] = feature
        with pytest.raises(ValueError, match=r"tree node 'feature' must be an integer in 0\.\.4, got"):
            from_document(doc)
        doc = to_document(fit_gbdt(dataset, rounds=2), dataset.schema)
        doc["weights"]["trees"][1][0]["feature"] = feature
        with pytest.raises(ValueError, match=r"tree node 'feature' must be an integer in 0\.\.4, got"):
            from_document(doc)


class TestTreeDepthLimit:
    @pytest.mark.parametrize("n", [MAX_TREE_DEPTH + 2, 3000])
    def test_tree_too_deep_for_a_document_is_refused(self, tmp_path, n):
        model, ds = chain_tree(n)
        message = f"tree of depth {n - 1} is too deep for a model document"
        with pytest.raises(ValueError, match=message):
            to_document(model, ds.schema)
        with pytest.raises(ValueError, match=message):
            save_model(model, ds.schema, tmp_path / "deep.json")
        assert not (tmp_path / "deep.json").exists()

    def test_tree_at_the_limit_round_trips(self, tmp_path):
        model, ds = chain_tree(MAX_TREE_DEPTH + 1)
        clone = load_model(save_model(model, ds.schema, tmp_path / "limit.json"), ds.schema)
        assert np.array_equal(predict_tree_batch(clone, ds.x), ds.y)
        assert np.array_equal(predict_tree_batch(model, ds.x), ds.y)

    def test_document_too_deep_to_rebuild_raises_value_error(self, dataset):
        doc = to_document(fit_tree(dataset, max_depth=1), dataset.schema)
        node = {"leaf": [1.0, 0.0, 0.0]}  # a valid leaf of the 3-class tree
        for _ in range(3000):
            node = {"feature": 0, "threshold": 0.5, "left": {"leaf": [1.0, 0.0, 0.0]}, "right": node}
        doc["weights"]["root"] = node
        doc["hyperparameters"]["max_depth"] = 3000  # so the depth check does not stop it first
        with pytest.raises(ValueError, match="malformed tree model document: maximum recursion depth"):
            from_document(doc)


@st.composite
def small_models(draw):
    """(model type, fitted model, dataset) of a small random fit."""
    name = draw(st.sampled_from(sorted(SMALL_FITS)))
    ds = generate_synthetic(
        draw(st.integers(12, 40)), draw(st.integers(1, 4)), draw(st.sampled_from([(), (0,)])),
        seed=draw(st.integers(0, 2**32)),
    )
    return name, SMALL_FITS[name][0](ds, draw(st.integers(1, 4))), ds


def value_paths(value, path=()):
    """The path (keys and list indices) to every value nested in `value`, itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


@pytest.fixture(scope="module")
def mangle_targets(dataset):
    """Model type -> (a document of a small fit, the path to each of its values)."""
    docs = {name: to_document(fit(dataset, 2), dataset.schema) for name, (fit, _) in SMALL_FITS.items()}
    return {name: (doc, list(value_paths(doc))) for name, doc in docs.items()}


class TestDocumentProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=small_models())
    def test_round_trip_predicts_the_same_bytes(self, case):
        name, model, ds = case
        clone = from_document(json.loads(json.dumps(to_document(model, ds.schema))))
        assert predict_bytes(name, clone, ds.x) == predict_bytes(name, model, ds.x)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mangled_document_loads_or_raises_value_error(self, mangle_targets, data):
        doc, paths = mangle_targets[data.draw(st.sampled_from(sorted(SMALL_FITS)))]
        path = data.draw(st.sampled_from(paths))
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from([None, {"a": 1}, "x", 1e400, -1]))
        try:
            model = from_document(doc)
        except ValueError:
            return
        # a document that loads predicts: one label in 0..n_classes-1 per row of its width
        labels = MODELS[doc["model_type"]].predict(model, np.resize(np.arange(-3.0, 4.0), (9, model.d)))
        assert labels.shape == (9,)
        assert set(labels.tolist()) <= set(range(model.n_classes))

