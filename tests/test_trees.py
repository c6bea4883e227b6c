import gc
import hashlib
import importlib.util
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_DIR, make_dataset
from mppkit.data import Dataset, generate_synthetic, load_dataset, load_schema
from mppkit.evaluation import MODELS
from mppkit.nodes import NodeArrays, TreeNode, route
from mppkit.numeric import SeededRng, cross_entropy, one_hot, softmax
from mppkit.serialize import from_document, to_document
from mppkit.trees import (
    GbdtModel,
    TreeModel,
    _ROUTED_IDS,
    _SplitWorkspace,
    _best_split,
    _presort,
    feature_importance,
    fit_gbdt,
    fit_tree,
    predict_gbdt_batch,
    predict_tree_batch,
)


def brute_force_root_split(x, y, k=3, min_leaf=1):
    """Independent oracle: enumerate every (feature, midpoint) candidate by
    filtering rows, score with the weighted Gini form, and pick the best with
    the documented tie-breaks (lowest feature, then lowest threshold)."""
    n = len(y)
    counts = [0] * k
    for label in y:
        counts[int(label)] += 1
    if max(counts) == n:
        return None
    parent_term = sum(c * c for c in counts) / n

    best = None
    for j in range(x.shape[1]):
        values = sorted(set(float(v) for v in x[:, j]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [int(y[i]) for i in range(n) if x[i, j] <= thr]
            right = [int(y[i]) for i in range(n) if x[i, j] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            cl = [0] * k
            for label in left:
                cl[label] += 1
            cr = [0] * k
            for label in right:
                cr[label] += 1
            gain = (
                sum(c * c for c in cl) / len(left)
                + sum(c * c for c in cr) / len(right)
                - parent_term
            )
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, j, thr)
    return None if best is None else (best[1], best[2])


class TestFitTree:
    def test_toy_split_at_midpoint(self):
        # exhaustive search over candidates {0.5, 1.5, 2.5} picks 1.5
        ds = make_dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])
        model = fit_tree(ds, max_depth=3, min_samples_leaf=1)
        assert model.root.feature == 0
        assert model.root.threshold == 1.5
        assert np.mean(predict_tree_batch(model, ds.x) == ds.y) == 1.0

    def test_pure_input_is_lone_leaf(self):
        ds = make_dataset(np.array([[0.0], [1.0], [2.0]]), [1, 1, 1])
        model = fit_tree(ds)
        assert model.root.is_leaf
        assert model.root.value.tolist() == [0.0, 3.0, 0.0]

    def test_depth_zero_majority_leaf(self):
        ds = make_dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [2, 2, 2, 1])
        model = fit_tree(ds, max_depth=0)
        assert model.root.is_leaf
        assert predict_tree_batch(model, np.array([[99.0]])).tolist() == [2]

    def test_empty_rejected(self):
        ds = make_dataset(np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            fit_tree(ds)

    def test_root_split_matches_brute_force(self):
        rng = SeededRng(2024)
        checked = 0
        for trial in range(60):
            n = 2 + int(rng.integers(0, 7))
            d = 1 + int(rng.integers(0, 3))
            x = np.floor(np.asarray(rng.random((n, d))) * 4)
            y = rng.integers(0, 3, n)
            model = fit_tree(make_dataset(x, y), max_depth=1, min_samples_leaf=1)
            expected = brute_force_root_split(x, y)
            if expected is None:
                assert model.root.is_leaf, f"trial {trial}: expected a leaf"
            else:
                assert not model.root.is_leaf, f"trial {trial}: expected a split"
                assert (model.root.feature, model.root.threshold) == expected
                checked += 1
        assert checked > 10

    def test_memorizes_without_conflicts(self):
        rng = SeededRng(5)
        x = np.asarray(rng.random((40, 3)))
        y = rng.integers(0, 3, 40)
        model = fit_tree(make_dataset(x, y), max_depth=40, min_samples_leaf=1)
        assert np.mean(predict_tree_batch(model, x) == y) == 1.0

    def test_depth_limit_respected(self):
        ds = generate_synthetic(200, 4, {0, 1}, seed=6, noise=0.2)
        model = fit_tree(ds, max_depth=3)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 3

    def test_min_samples_leaf_respected(self):
        ds = generate_synthetic(100, 3, {0}, seed=8, noise=0.1)
        model = fit_tree(ds, max_depth=10, min_samples_leaf=5)

        def check(node):
            if node.is_leaf:
                assert node.value.sum() >= 5
            else:
                check(node.left)
                check(node.right)

        check(model.root)


class TestPredictTree:
    def test_lone_leaf_predicts_majority_everywhere(self):
        ds = make_dataset(np.array([[0.0], [1.0], [5.0]]), [1, 1, 0])
        model = fit_tree(ds, max_depth=0)
        assert predict_tree_batch(model, np.array([[-10.0], [0.0], [3.0], [100.0]])).tolist() == [1] * 4

    def test_routes_right_of_toy_threshold(self):
        ds = make_dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])
        model = fit_tree(ds, max_depth=3, min_samples_leaf=1)
        assert predict_tree_batch(model, np.array([[2.7]])).tolist() == [1]

    def test_tied_counts_take_lowest_class(self):
        model = TreeModel(node_table([-1], [0.0], [0], [0], [[5.0, 5.0, 0.0]]), max_depth=0,
                          min_samples_leaf=1, d=1)
        assert predict_tree_batch(model, np.array([[0.0]])).tolist() == [0]

    def test_dimension_mismatch(self):
        ds = make_dataset(np.array([[0.0], [1.0]]), [0, 1])
        model = fit_tree(ds)
        with pytest.raises(ValueError, match="dimension"):
            predict_tree_batch(model, np.array([[1.0, 2.0]]))


class TestFitGbdt:
    def test_leaf_sums_of_one_gather_match_row_sums(self):
        # fit_gbdt gathers a leaf's residuals and |r|(1 - |r|) in one take of
        # both rows and sums them with one axis-1 reduce; that keeps the leaf
        # values' bits only while numpy blocks each row's pairwise sum as it
        # blocks a 1-D sum of the same length
        rng = SeededRng(41)
        n = 2000
        r = np.asarray(rng.random(n)) * 2.0 - 1.0
        pair = np.stack([r, np.abs(r) * (1.0 - np.abs(r))])
        orders_differ = 0
        for length in range(1, n + 1):  # 7, 8, 9, 128 and 129 cross numpy's blocking
            rows = np.sort(rng.permutation(n)[:length])
            sums = np.add.reduce(pair.take(rows, axis=1), axis=1)
            rowwise = [np.add.reduce(pair[0].take(rows)), np.add.reduce(pair[1].take(rows))]
            assert sums.tobytes() == np.array(rowwise).tobytes(), length
            orders_differ += sums[0] != np.cumsum(pair[0].take(rows))[-1]
        # the data tells pairwise from left-to-right summation, so a change of order shows
        assert orders_differ >= 100, orders_differ

    def test_separable_planted_feature(self):
        ds = generate_synthetic(300, 10, {0}, seed=7)
        model = fit_gbdt(ds, rounds=100, shrinkage=0.1)
        labels, _ = predict_gbdt_batch(model, ds.x)
        assert np.mean(labels == ds.y) >= 0.99

    def test_zero_shrinkage_rejected(self):
        ds = generate_synthetic(30, 2, {0}, seed=1)
        with pytest.raises(ValueError, match="shrinkage"):
            fit_gbdt(ds, rounds=1, shrinkage=0.0)

    def test_tree_parameters_checked_like_fit_tree(self):
        ds = generate_synthetic(60, 3, {0}, seed=1)
        for kwargs, message in (
            ({"max_depth": -1}, "hyperparameter 'max_depth' of model '{}' must be an integer >= 0"),
            ({"min_samples_leaf": 0}, "hyperparameter 'min_samples_leaf' of model '{}' must be an integer >= 1"),
        ):
            with pytest.raises(ValueError, match=message.format("tree")):
                fit_tree(ds, **kwargs)
            with pytest.raises(ValueError, match=message.format("gbdt")):
                fit_gbdt(ds, rounds=3, **kwargs)

    def test_loss_history_non_increasing(self):
        ds = generate_synthetic(150, 6, {0, 3}, seed=13, noise=0.1)
        model = fit_gbdt(ds, rounds=60, shrinkage=0.1)
        hist = np.array(model.loss_history)
        assert len(hist) == 61
        assert np.all(np.diff(hist) <= 0)

    def test_loss_non_increasing_at_shrinkage_point_three(self):
        for seed in range(5):
            ds = generate_synthetic(120, 5, {0, 2}, seed=seed, noise=0.1)
            model = fit_gbdt(ds, rounds=40, shrinkage=0.3)
            assert np.all(np.diff(np.array(model.loss_history)) <= 0), f"seed {seed}"

    def test_deterministic(self):
        ds = generate_synthetic(80, 4, {0}, seed=2)
        a = fit_gbdt(ds, rounds=15)
        b = fit_gbdt(ds, rounds=15)
        _, pa = predict_gbdt_batch(a, ds.x)
        _, pb = predict_gbdt_batch(b, ds.x)
        assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("rounds", [1, 7, 30])
    def test_loss_history_ends_at_the_training_predictions(self, rounds):
        ds = generate_synthetic(90, 4, {0, 1}, seed=21, noise=0.1)
        model = fit_gbdt(ds, rounds=rounds)
        assert len(model.loss_history) == rounds + 1
        # bit for bit: the last entry is the log-loss of the probabilities the model predicts
        assert model.loss_history[-1] == cross_entropy(predict_gbdt_batch(model, ds.x)[1], ds.y)

    def test_workspace_freed_without_the_cycle_collector(self):
        # the per-fit workspace (~1.9 MB at 2000x20) must die with the fit:
        # a reference cycle through it would hold it until the next collection
        ds = generate_synthetic(2000, 20, {0, 1, 2}, seed=7, noise=0.05)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = fit_gbdt(ds, rounds=5)
            del model
            assert tracemalloc.get_traced_memory()[0] - before < 256 * 1024
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_tree_count_invariant(self):
        ds = generate_synthetic(60, 3, {0}, seed=4)
        model = fit_gbdt(ds, rounds=7)
        assert len(model.trees) == 7
        assert all(len(group) == 3 for group in model.trees)


def node_table(feature, threshold, left, right, value):
    """A NodeArrays of the given per-node lists, ids as intp."""
    ids = (np.array(a, dtype=np.intp) for a in (feature, left, right))
    feature, left, right = ids
    return NodeArrays(feature, np.array(threshold, dtype=float), left, right, np.array(value, dtype=float))


EMPTY_TABLE = node_table([], [], [], [], [])


def _init_only_model(priors, d=2):
    return GbdtModel(
        shrinkage=0.1,
        nodes=EMPTY_TABLE,
        roots=np.empty((0, len(priors)), dtype=np.intp),
        init_scores=np.log(np.asarray(priors, dtype=float)),
        importance_raw=np.zeros(d),
        max_depth=3,
        min_samples_leaf=2,
    )


def _leaves(root):
    stack, leaves = [root], []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack += [node.left, node.right]
    return leaves


class TestShapeFacts:
    """Each model keeps a shape fact once: in the arrays or leaves that define it."""

    def test_tree_class_count_is_its_leaf_width(self):
        nodes = node_table([0, -1, -1], [0.5, 0.0, 0.0], [1, 1, 2], [2, 1, 2],
                           [[0.0] * 3, [1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        model = TreeModel(nodes=nodes, max_depth=1, min_samples_leaf=1, d=2)
        assert (model.n_classes, model.d) == (3, 2)
        schema = make_dataset(np.zeros((1, 2)), [0]).schema
        doc = to_document(model, schema)
        assert doc["hyperparameters"]["n_classes"] == 3
        clone = from_document(doc)
        assert (clone.n_classes, clone.d) == (3, 2)
        assert to_document(clone, schema) == doc
        x = np.array([[0.0, 9.0], [1.0, 9.0]])
        assert predict_tree_batch(model, x).tolist() == predict_tree_batch(clone, x).tolist() == [2, 1]
        with pytest.raises(TypeError, match="n_classes"):
            TreeModel(nodes=nodes, max_depth=1, min_samples_leaf=1, d=2, n_classes=2)

    def test_gbdt_shape_facts_are_its_array_sizes(self):
        model = _init_only_model([0.5, 0.25, 0.25], d=4)
        assert (len(model.trees), model.n_classes, model.d) == (0, 3, 4)
        for removed in ("rounds", "n_classes", "d"):
            with pytest.raises(TypeError, match=removed):
                GbdtModel(0.1, EMPTY_TABLE, model.roots, model.init_scores, model.importance_raw, 3, 2,
                          **{removed: 3})

    def test_gbdt_round_must_hold_one_tree_per_class(self):
        model = _init_only_model([0.5, 0.25, 0.25])
        leaves = node_table([-1, -1], [0.0, 0.0], [0, 1], [0, 1], [0.0, 0.0])
        for roots in ([[0, 1]], [0, 1, 1]):
            with pytest.raises(ValueError, match="each round must hold one tree per class"):
                GbdtModel(0.1, leaves, roots, model.init_scores, model.importance_raw, 3, 2)

    def gbdt_with(self, **changes):
        model = _init_only_model([0.5, 0.25, 0.25])
        fields = {"init_scores": model.init_scores, "importance_raw": model.importance_raw, **changes}
        return GbdtModel(0.1, EMPTY_TABLE, model.roots, max_depth=3, min_samples_leaf=2, **fields)

    def test_gbdt_vectors_given_as_lists_become_read_only_arrays(self):
        model = _init_only_model([0.5, 0.25, 0.25])
        listed = self.gbdt_with(init_scores=model.init_scores.tolist(), importance_raw=[0, 0])
        for name in ("init_scores", "importance_raw"):
            array = getattr(listed, name)
            assert array.dtype == np.float64 and not array.flags.writeable
            assert np.array_equal(array, getattr(model, name))
        x = np.zeros((2, 2))
        assert np.array_equal(predict_gbdt_batch(listed, x)[1], predict_gbdt_batch(model, x)[1])
        with pytest.raises(ValueError, match="'init_scores' must hold numbers"):
            self.gbdt_with(init_scores=["a", "b", "c"])

    @pytest.mark.parametrize("name", ["init_scores", "importance_raw"])
    def test_gbdt_vectors_must_be_one_dimensional(self, name):
        with pytest.raises(ValueError, match=rf"'{name}' must be 1-D, got shape \(1, 2\)"):
            self.gbdt_with(**{name: np.zeros((1, 2))})

    @pytest.mark.parametrize("name", ["init_scores", "importance_raw"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gbdt_vectors_must_be_finite(self, name, bad):
        values = np.zeros(3 if name == "init_scores" else 2)
        values[1] = bad
        with pytest.raises(ValueError, match=f"'{name}' must hold finite numbers"):
            self.gbdt_with(**{name: values})

    def test_gbdt_leaves_hold_floats_fitted_and_loaded(self):
        ds = generate_synthetic(60, 3, {0}, seed=4)
        model = fit_gbdt(ds, rounds=4)
        clone = from_document(to_document(model, ds.schema))
        for fitted in (model, clone):
            leaves = [leaf for group in fitted.trees for root in group for leaf in _leaves(root)]
            assert len(leaves) > 12  # some tree split
            assert all(type(leaf.value) is float for leaf in leaves)
        assert to_document(clone, ds.schema) == to_document(model, ds.schema)
        assert np.array_equal(predict_gbdt_batch(clone, ds.x)[1], predict_gbdt_batch(model, ds.x)[1])
        leaves = route(ds.x, model.nodes, model.roots.ravel(), model._depth)
        assert leaves.shape == (12, 60)  # 4 rounds x 3 classes, one leaf id per row
        assert model.nodes.value.take(leaves).shape == (12, 60)


class TestPredictGbdt:
    def test_init_only_model_uniform_priors(self):
        model = _init_only_model([1 / 3, 1 / 3, 1 / 3])
        labels, probs = predict_gbdt_batch(model, np.array([[5.0, -2.0]]))
        assert np.allclose(probs, [[1 / 3] * 3], atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert labels.tolist() == [0]

    def test_in_sample_predictions_match_training(self):
        ds = generate_synthetic(300, 10, {0}, seed=7)
        model = fit_gbdt(ds, rounds=100, shrinkage=0.1)
        rows = [0, 57, 123, 299]
        assert np.array_equal(predict_gbdt_batch(model, ds.x[rows])[0], ds.y[rows])

    def test_score_shift_invariance(self):
        rng = SeededRng(66)
        scores = np.asarray(rng.normal(3))
        assert np.allclose(softmax(scores), softmax(scores + 11.5), atol=1e-12)

    def test_batch_matches_single(self):
        # reference: route the row down each tree on its own and add the
        # shrunk leaf scores to the priors in round and class order
        def leaf_score(node, row):
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.value

        ds = generate_synthetic(40, 3, {0}, seed=3)
        model = fit_gbdt(ds, rounds=10)
        batch_labels, batch_probs = predict_gbdt_batch(model, ds.x)
        for i in range(0, 40, 7):
            scores = model.init_scores.copy()
            for group in model.trees:
                for c, root in enumerate(group):
                    scores[c] += model.shrinkage * leaf_score(root, ds.x[i])
            expected = softmax(scores)
            assert np.argmax(expected) == batch_labels[i]
            assert np.array_equal(expected, batch_probs[i])

    def test_dimension_mismatch(self):
        model = _init_only_model([0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="dimension"):
            predict_gbdt_batch(model, np.array([[1.0]]))


class TestFeatureImportance:
    def test_planted_feature_dominates(self):
        for seed in (0, 1):
            ds = generate_synthetic(300, 10, {0}, seed=seed)
            model = fit_gbdt(ds, rounds=100, shrinkage=0.1)
            report = feature_importance(model, ds.schema)
            assert report.entries[0][0] == "f0"
            assert report.entries[0][1] >= 0.8

    def test_no_splits_reports_zero_sum(self):
        # constant features leave no split candidates anywhere
        x = np.ones((30, 3))
        y = np.array([0, 1, 2] * 10)
        ds = make_dataset(x, y)
        model = fit_gbdt(ds, rounds=5)
        report = feature_importance(model, ds.schema)
        assert all(weight == 0.0 for _, weight in report.entries)
        assert report.total == 0.0

    def test_sorted_and_normalized(self):
        ds = generate_synthetic(200, 6, {0, 1}, seed=9, noise=0.05)
        model = fit_gbdt(ds, rounds=50)
        report = feature_importance(model, ds.schema)
        weights = [w for _, w in report.entries]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
        assert all(w >= 0 for w in weights)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_schema_size_mismatch(self):
        ds = generate_synthetic(60, 3, {0}, seed=5)
        model = fit_gbdt(ds, rounds=5)
        other = generate_synthetic(60, 4, {0}, seed=5)
        with pytest.raises(ValueError, match="features"):
            feature_importance(model, other.schema)


def walk_leaf(node, row):
    """Reference router: the leaf view `row` reaches from `node`, one node at a time, recursively."""
    if node.is_leaf:
        return node
    return walk_leaf(node.left if row[node.feature] <= node.threshold else node.right, row)


def assert_router_matches_walk(model, x):
    """The model's predictions equal, bit for bit, those of each row walked through each tree.

    A tree predicts the first largest of its leaf's counts; a boosted model
    the softmax of the priors plus every tree's shrunk leaf score, added in
    round and class order.
    """
    if isinstance(model, TreeModel):
        counts = np.array([walk_leaf(model.root, row).value for row in x])
        leaves = route(x, model.nodes, np.zeros(1, dtype=np.intp), model._depth)[0]
        assert model.nodes.value[leaves].tobytes() == counts.tobytes()
        assert predict_tree_batch(model, x).tolist() == np.argmax(counts, axis=1).tolist()
        return
    scores = np.tile(model.init_scores, (len(x), 1))
    for i, row in enumerate(x):
        for group in model.trees:
            for c, root in enumerate(group):
                scores[i, c] += model.shrinkage * walk_leaf(root, row).value
    probs = softmax(scores)
    labels, got = predict_gbdt_batch(model, x)
    assert got.tobytes() == probs.tobytes()
    assert labels.tolist() == np.argmax(probs, axis=1).tolist()


FITS = {"tree": fit_tree, "gbdt": lambda ds, **kw: fit_gbdt(ds, rounds=8, **kw)}


class TestRouter:
    """`_route` moves every row down every tree at once; a recursive walk is its reference."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(100, 4, {0, 1}, seed=14, noise=0.1)

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_matches_the_walk(self, dataset, name):
        assert_router_matches_walk(FITS[name](dataset, max_depth=4), dataset.x)

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_single_leaf_model_matches_the_walk(self, dataset, name):
        model = FITS[name](dataset, max_depth=0)
        roots = [model.root] if name == "tree" else [root for group in model.trees for root in group]
        assert model._depth == 0 and all(root.is_leaf for root in roots)
        assert_router_matches_walk(model, dataset.x)

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_reloaded_model_matches_the_walk(self, dataset, name):
        model = FITS[name](dataset, max_depth=4)
        clone = from_document(json.loads(json.dumps(to_document(model, dataset.schema))))
        assert_router_matches_walk(clone, dataset.x)
        assert MODELS[name].predict(clone, dataset.x).tobytes() == MODELS[name].predict(model, dataset.x).tobytes()

    def test_blocks_of_rounds_match_the_walk(self, dataset):
        # 70 rounds of 3 trees on 100 rows are routed 27 rounds (8100 ids) at
        # a time: blocks of 27, 27 and 16 rounds
        model = fit_gbdt(dataset, rounds=70, max_depth=3)
        assert _ROUTED_IDS // (3 * 100) == 27
        assert_router_matches_walk(model, dataset.x)

    def test_leaf_ids_per_tree_and_row(self, dataset):
        model = fit_gbdt(dataset, rounds=3, max_depth=2)
        leaves = route(dataset.x, model.nodes, model.roots.ravel(), model._depth)
        assert leaves.shape == (9, 100)
        for t, root in enumerate(model.roots.ravel()):
            for i in range(0, 100, 13):
                assert walk_leaf(TreeNode(model.nodes, int(root)), dataset.x[i])._id == leaves[t, i]

    def test_no_rows(self, dataset):
        for name, fit in FITS.items():
            assert MODELS[name].predict(fit(dataset, max_depth=3), np.empty((0, 4))).shape == (0,)

    def test_result_freed_without_the_cycle_collector(self, dataset):
        # routing must leave no reference cycle that holds the result until
        # the next garbage collection
        model = fit_tree(dataset, max_depth=4)
        gc.disable()
        try:
            leaves = route(dataset.x, model.nodes, np.zeros(1, dtype=np.intp), model._depth)
            freed = weakref.ref(leaves)
            del leaves
            assert freed() is None
        finally:
            gc.enable()


class TestBuiltByHand:
    """A model checks its node arrays when built: a bad table fails then, naming the fault, not at predict."""

    # node 0 splits on feature 0 into leaves 1 and 2
    SPLIT = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, 1, 2], "right": [2, 1, 2]}

    def tree(self, d=2, **changes):
        # the changed entries go in as given, lists or arrays of any dtype
        nodes = node_table(**self.SPLIT, value=[[0.0] * 3, [3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        return TreeModel(nodes._replace(**changes), max_depth=1, min_samples_leaf=1, d=d)

    def gbdt(self, d=3, roots=((0, 0),), **changes):
        nodes = node_table(**self.SPLIT, value=[0.0, 0.5, -0.5])
        return GbdtModel(0.1, nodes._replace(**changes), np.array(roots, dtype=np.intp), np.log([0.5, 0.5]),
                         np.zeros(d), max_depth=1, min_samples_leaf=1)

    def test_models_built_by_hand_predict(self):
        x = np.array([[0.0, 9.0, 9.0], [1.0, 9.0, 9.0]])
        assert predict_tree_batch(self.tree(), x[:, :2]).tolist() == [0, 1]
        labels, probs = predict_gbdt_batch(self.gbdt(), x)
        assert labels.tolist() == [0, 0] and probs[0, 0] == probs[0, 1] == 0.5
        assert self.gbdt(roots=((0, 1),)).trees[0][1].value == 0.5

    def test_arrays_are_read_only(self):
        nodes = node_table(**self.SPLIT, value=[0.0, 0.5, -0.5])
        model = GbdtModel(0.1, nodes, np.array([[0, 0]]), np.log([0.5, 0.5]), np.zeros(3), 1, 1)
        nodes.feature[0] = 5  # a writable array is copied: the caller's array is not the model's
        assert model.nodes.feature[0] == 0
        for array in (*model.nodes, model.roots):
            assert not array.flags.writeable
        assert not self.tree().root.left.value.flags.writeable
        # a read-only array of the right dtype, as a fit builds, is kept
        assert TreeModel(model.nodes._replace(value=np.zeros((3, 2))), 1, 1, 3).nodes.feature is model.nodes.feature

    def test_tree_split_feature_outside_its_width(self):
        with pytest.raises(ValueError, match=r"node 0 splits on feature 7, outside 0\.\.1"):
            self.tree(feature=[7, -1, -1])

    def test_tree_leaves_of_two_widths(self):
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            self.tree(value=[[0.0] * 3, [3.0, 0.0, 2.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match=r"'value' must have 2 dimension\(s\) and 3 rows, got shape \(3,\)"):
            self.tree(value=[1.0, 2.0, 3.0])

    def test_gbdt_split_feature_beyond_its_importance(self):
        with pytest.raises(ValueError, match=r"node 0 splits on feature 5, outside 0\.\.2"):
            self.gbdt(feature=[5, -1, -1])

    @pytest.mark.parametrize(("changes", "message"), [
        ({"threshold": [0.5, 0.0]}, "must be 1-D and of one length"),
        ({"left": [[1, 1, 2]]}, "must be 1-D and of one length"),
        ({"feature": [0.0, -1.0, -1.0]}, "node array 'feature' must hold integers, got dtype float64"),
        ({"left": [3, 1, 2]}, "node array 'left' holds an id outside the 3 nodes"),
        ({"right": [-1, 1, 2]}, "node array 'right' holds an id outside the 3 nodes"),
        ({"right": [2, 0, 2]}, r"node 1 splits on feature -1, outside 0\.\."),  # its own left child only
        ({"feature": [0, 0, -1], "left": [1, 0, 2], "right": [2, 2, 2]}, "child ids form a cycle"),
        ({"feature": [-1, -1, -1]}, r"node 0 splits on feature -1, outside 0\.\."),
        ({"left": [0, 1, 2]}, "child ids form a cycle"),  # the root is its own left child
    ])
    def test_bad_table(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.tree(**changes)
        with pytest.raises(ValueError, match=message):
            self.gbdt(**changes)

    def test_shared_children_are_walked_once(self):
        # node i < 40 sends both sides to node i + 1: 2**40 paths, 41 nodes
        m = 41
        nodes = node_table([0] * (m - 1) + [-1], [0.5] * (m - 1) + [0.0], list(range(1, m)) + [m - 1],
                           list(range(1, m)) + [m - 1], [[0.0, 0.0]] * (m - 1) + [[0.0, 1.0]])
        model = TreeModel(nodes, max_depth=m, min_samples_leaf=1, d=1)
        assert model._depth == m - 1
        assert predict_tree_batch(model, np.array([[0.0], [1.0]])).tolist() == [1, 1]

    def test_gbdt_roots(self):
        with pytest.raises(ValueError, match="node array 'roots' holds an id outside the 3 nodes"):
            self.gbdt(roots=((0, 3),))
        with pytest.raises(ValueError, match=r"'roots' must have shape \(rounds, 2\), got \(1, 3\)"):
            self.gbdt(roots=((0, 1, 2),))
        with pytest.raises(ValueError, match=r"'value' must have 1 dimension\(s\) and 3 rows"):
            self.gbdt(value=[[0.0]] * 3)


def _load_tracer():
    """perfbench's tracer module, loaded from its file and left unchanged."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_counts_the_nodes_of_the_arrays():
    tracer = _load_tracer()
    ds = generate_synthetic(120, 4, {0, 1}, seed=3, noise=0.1)
    for model in (fit_gbdt(ds, rounds=6), fit_tree(ds, max_depth=5)):
        nodes = model.nodes
        splits = int((nodes.left != np.arange(nodes.left.size)).sum())
        assert 0 < splits < nodes.left.size
        if isinstance(model, TreeModel):
            assert tracer._tree_counts(model.root) == (splits, nodes.left.size - splits)
            assert tracer.COUNTERS["trees.fit_tree"](model) == {"trees.tree_split_nodes": splits}
        else:
            assert tracer._gbdt_counts(model) == {"trees.gbdt_trees": 18, "trees.gbdt_split_nodes": splits,
                                                  "trees.gbdt_leaves": nodes.left.size - splits}


_AFTER_ONE = float(np.nextafter(1.0, 2.0))
# (lo, hi) pairs whose midpoint is not in [lo, hi): it overflows to inf, or
# it rounds up to hi (adjacent doubles, round half to even)
MIDPOINT_OUTSIDE = {
    "overflow": (1e308, 1.5e308),
    "adjacent": (_AFTER_ONE, float(np.nextafter(_AFTER_ONE, 2.0))),
}


class TestSplitThreshold:
    """A threshold separates its split's sides even when the midpoint cannot."""

    @pytest.fixture(params=sorted(MIDPOINT_OUTSIDE))
    def two_values(self, request):
        lo, hi = MIDPOINT_OUTSIDE[request.param]
        return make_dataset(np.array([[lo]] * 3 + [[hi]] * 3), [0, 0, 0, 1, 1, 1], n_classes=2)

    def test_tree_threshold_is_lower_value(self, two_values):
        model = fit_tree(two_values, max_depth=1, min_samples_leaf=1)
        assert model.root.threshold == two_values.x[0, 0]
        assert np.array_equal(predict_tree_batch(model, two_values.x), two_values.y)

    def test_gbdt_loss_falls_below_ln2(self, two_values):
        model = fit_gbdt(two_values, rounds=5)
        assert model.loss_history[0] == pytest.approx(np.log(2.0))
        assert model.loss_history[-1] < 0.5
        assert np.array_equal(predict_gbdt_batch(model, two_values.x)[0], two_values.y)


def brute_force_split(x, stat, min_leaf):
    """Reference for `_best_split`: every (feature, midpoint) pair, one at a time.

    Left sums accumulate in sorted order (value, then row), right sums are
    the node total (summed in row order) minus the left sums, and the gain
    is Sl/nl + Sr/nr - Sp/m, so the arithmetic is the kernel's, operation
    for operation.  Ties keep the first candidate: lowest feature, then
    lowest threshold.
    """
    n, d = x.shape
    total = stat.sum(axis=1)
    parent = sum(v * v for v in total) / n
    best = None
    for j in range(d):
        order = sorted(range(n), key=lambda i: (x[i, j], i))
        values = sorted(set(x[:, j].tolist()))
        for lo, hi in zip(values, values[1:]):
            left = [i for i in order if x[i, j] <= lo]
            nl, nr = len(left), n - len(left)
            if nl < min_leaf or nr < min_leaf:
                continue
            sl = [stat[c, left[0]] for c in range(stat.shape[0])]
            for i in left[1:]:
                sl = [acc + stat[c, i] for c, acc in enumerate(sl)]
            sr = [total[c] - sl[c] for c in range(stat.shape[0])]
            gain = sum(v * v for v in sl) / nl + sum(v * v for v in sr) / nr - parent
            if gain > 0 and (best is None or gain > best[0]):
                best = (float(gain), j, (lo + hi) / 2.0)
    return best


def first_window_max(x, stat, min_leaf):
    """Where the kernel's first argmax lands before any tie is masked: (gain, tied), or None.

    Scores every sorted position that leaves both sides the leaf floor, tied
    positions (the next sorted value equals this one) included, with
    `brute_force_split`'s arithmetic, and keeps the first maximum: lowest
    feature, then lowest position.  `tied` says whether it sits on a tie,
    i.e. whether the kernel has to mask ties and look again.
    """
    n, d = x.shape
    total = stat.sum(axis=1)
    parent = sum(v * v for v in total) / n
    best = None
    for j in range(d):
        order = sorted(range(n), key=lambda i: (x[i, j], i))
        sl = [0.0] * stat.shape[0]
        for p in range(n - 1):  # position p sends order[: p + 1] left
            sl = [acc + stat[c, order[p]] if p else stat[c, order[p]] for c, acc in enumerate(sl)]
            nl, nr = p + 1, n - p - 1
            if nl < min_leaf or nr < min_leaf:
                continue
            sr = [total[c] - sl[c] for c in range(stat.shape[0])]
            gain = sum(v * v for v in sl) / nl + sum(v * v for v in sr) / nr - parent
            if best is None or gain > best[0]:
                best = (gain, bool(x[order[p + 1], j] == x[order[p], j]))
    return best


def _tied_matrix(rng, n, d):
    # few distinct values (heavy ties) and a duplicated column (exact gain ties)
    x = np.floor(np.asarray(rng.random((n, d))) * 4) / 2
    x[:, d - 1] = x[:, 0]
    return x


class TestSplitKernel:
    MIN_LEAVES = (1, 2, 3, 4, 5)
    # each must occur at least 10 times: a "tie" is a split on column 0, whose
    # copy, the last column, scores the same gain; a "tied maximum" (the
    # unmasked first maximum sits on a tie) makes the kernel mask ties
    OUTCOMES = ("split", "none", "tie", "untied maximum", "tied maximum", "split after a tied maximum")

    def _kernel(self, x, stat, min_leaf):
        work = _SplitWorkspace(stat.shape[0], x.shape[1], x.shape[0])
        columns, rows = _presort(x)
        return _best_split(rows, columns, stat, stat.sum(axis=1), min_leaf, work)

    def _check(self, x, stat, outcomes, trial):
        for min_leaf in self.MIN_LEAVES:
            expected = brute_force_split(x, stat, min_leaf)
            assert self._kernel(x, stat, min_leaf) == expected, (trial, min_leaf)
            first = first_window_max(x, stat, min_leaf)
            if first is not None:
                outcomes["tied maximum" if first[1] else "untied maximum"] += 1
            if expected is None:
                outcomes["none"] += 1
                continue
            outcomes["split"] += 1
            outcomes["tie"] += expected[1] == 0
            outcomes["split after a tied maximum"] += first[1]

    def test_gini_counts_match_brute_force(self):
        rng = SeededRng(31)
        outcomes = dict.fromkeys(self.OUTCOMES, 0)
        for trial in range(120):
            n = 2 + int(rng.integers(0, 15))
            x = _tied_matrix(rng, n, 2 + int(rng.integers(0, 3)))
            y = rng.integers(0, 3, n)
            stat = np.zeros((3, n))
            stat[y, np.arange(n)] = 1.0
            self._check(x, stat, outcomes, trial)
        assert min(outcomes.values()) >= 10, outcomes

    def test_residuals_match_brute_force(self):
        rng = SeededRng(32)
        outcomes = dict.fromkeys(self.OUTCOMES, 0)
        for trial in range(120):
            n = 2 + int(rng.integers(0, 15))
            x = _tied_matrix(rng, n, 2 + int(rng.integers(0, 3)))
            stat = (np.asarray(rng.random(n)) - 0.5)[None, :]
            self._check(x, stat, outcomes, trial)
        assert min(outcomes.values()) >= 10, outcomes

    def test_duplicate_columns_pick_lowest_feature(self):
        x = np.array([[5.0, 0.0, 0.0], [5.0, 1.0, 1.0], [5.0, 2.0, 2.0], [5.0, 3.0, 3.0]])
        stat = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        # column 0 is constant and offers no candidate; 1 and 2 tie exactly
        assert self._kernel(x, stat, 1) == (2.0, 1, 1.5)

    def test_no_valid_split(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        stat = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        assert self._kernel(x, stat, 1) is None  # the only split has zero gain
        assert self._kernel(x, stat[:, [0, 0, 1, 1]], 3) is None  # leaf floor too high
        assert self._kernel(np.ones((4, 2)), stat, 1) is None  # constant columns

    def test_too_few_rows_for_two_leaves(self):
        # with m < 2 * min_leaf no position leaves both sides the floor: the
        # window the argmax runs over is empty, and the kernel says None
        for m in range(1, 10):
            x = np.arange(float(m))[:, None]
            stat = np.array([[(-1.0) ** i for i in range(m)]])
            for min_leaf in range(m // 2 + 1, 7):
                assert self._kernel(x, stat, min_leaf) is None, (m, min_leaf)

    def test_first_maximum_on_a_tie_is_skipped(self):
        # sorted stats 3 | -3, 2, -2 score 12 at the tied position between the
        # two zeros; masked, the best split is 0 0 1 | 2, scoring 4/3 + 4
        x = np.array([[0.0], [0.0], [1.0], [2.0]])
        stat = np.array([[3.0, -3.0, 2.0, -2.0]])
        assert first_window_max(x, stat, 1) == (12.0, True)
        assert self._kernel(x, stat, 1) == (4.0 / 3.0 + 4.0, 0, 1.5)


def per_node_sort_grow(x, stat, max_depth, min_leaf, importance, leaf_value, table, split_value):
    """Reference for `_grow`: each node stably argsorts its own rows afresh.

    The stopping rules and node statistic are `_grow`'s, and the split comes
    from `_best_split` on a freshly sorted block, with its gain added to
    `importance` in preorder; a leaf's value is `leaf_value(its rows)`.  So a
    difference from `_grow` can only come from the sorted blocks a child
    inherits from its parent, or from how a split routes its rows.  The
    tree's nodes are appended in preorder to `table`, five per-node lists
    in `NodeArrays` order, a split's value being `split_value`; the root's
    id is returned.
    """
    work = _SplitWorkspace(stat.shape[0], x.shape[1], x.shape[0])

    def add(*entries):
        for column, entry in zip(table, entries):
            column.append(entry)

    def grow(idx, depth):
        i = len(table[0])
        node_stat = stat[:, idx]
        found = None
        if depth < max_depth and idx.size >= 2 * min_leaf and (node_stat != node_stat[:, :1]).any():
            order = np.argsort(x[idx].T, axis=1, kind="stable")
            found = _best_split(idx[order], np.ascontiguousarray(x.T), stat, node_stat.sum(axis=1), min_leaf, work)
        if found is None:
            add(-1, 0.0, i, i, leaf_value(idx))
            return i
        gain, feature, threshold = found
        importance[feature] += gain
        mask = x[idx, feature] <= threshold
        add(feature, threshold, i, i, split_value)
        table[2][i] = grow(idx[mask], depth + 1)
        table[3][i] = grow(idx[~mask], depth + 1)
        return i

    return grow(np.arange(x.shape[0]), 0)


def per_node_sort_tree(dataset, max_depth, min_leaf):
    """Reference for `fit_tree` on `per_node_sort_grow`: a leaf holds its class counts."""
    k = dataset.schema.n_classes
    counts = one_hot(dataset.y, k).T.copy()
    table = ([], [], [], [], [])
    per_node_sort_grow(dataset.x, counts, max_depth, min_leaf, np.zeros(dataset.d),
                       lambda idx: counts[:, idx].sum(axis=1), table, np.zeros(k))
    return TreeModel(NodeArrays(*table), max_depth, min_leaf, dataset.d)


def per_node_sort_gbdt(dataset, rounds, max_depth, min_leaf, shrinkage=0.1):
    """Reference for `fit_gbdt` on `per_node_sort_grow`, written out step by step.

    Scores start at the class log-priors; each round fits one tree per class
    to the residuals 1{y=k} - p_k, each leaf takes the one-step value
    (K-1)/K * sum(r) / sum(|r|(1-|r|)), 0 where that denominator is below
    1e-150, and the scores move by shrinkage times the leaf values.
    """
    x, y, n, k = dataset.x, dataset.y, dataset.n, dataset.schema.n_classes
    init = np.log(np.maximum(np.bincount(y, minlength=k).astype(float), 1e-12) / n)
    scores = np.tile(init, (n, 1))
    importance = np.zeros(dataset.d)
    history, roots, table = [], [], ([], [], [], [], [])
    for _ in range(rounds):
        probs = softmax(scores)
        history.append(cross_entropy(probs, y))
        residuals = one_hot(y, k) - probs
        step = np.zeros((n, k))
        group = []
        for c in range(k):
            r_c = residuals[:, c].copy()

            def leaf_value(idx, r_c=r_c, c=c):
                r = r_c[idx]
                denom = (np.abs(r) * (1.0 - np.abs(r))).sum()
                gamma = (k - 1) / k * r.sum() / denom if denom >= 1e-150 else 0.0
                step[idx, c] = gamma
                return float(gamma)

            group.append(per_node_sort_grow(x, r_c[None, :], max_depth, min_leaf, importance, leaf_value,
                                            table, 0.0))
        roots.append(group)
        scores += shrinkage * step
    history.append(cross_entropy(softmax(scores), y))
    return GbdtModel(shrinkage, NodeArrays(*table), roots, init, importance, max_depth, min_leaf, tuple(history))


def _depth(node):
    return 0 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


class TestInheritedBlocks:
    """Trees grown from inherited sorted blocks match a fresh sort per node.

    Deep trees on tie-heavy data reuse every part of the child-block arena
    many times over, past the depth-5 tree and depth-4 GBDT the golden
    digests pin; and a fit does not depend on the memory layout of x.
    """

    @pytest.fixture(scope="class")
    def tied_dataset(self):
        rng = SeededRng(41)
        n = 301  # odd: the root cannot split into equal halves
        x = np.column_stack([
            rng.integers(0, 3, n),  # binary-like and ordinal: heavy value ties
            rng.integers(0, 6, n),
            rng.integers(0, 40, n),
            rng.integers(0, 40, n),
        ]).astype(float)
        x = np.column_stack([x, x[:, 2]])  # a duplicated column: exact gain ties
        y = (x[:, 0] + (x[:, 2] > 20) + rng.integers(0, 2, n)) % 3  # learnable, with label noise
        return make_dataset(x, y)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [8, 40])
    def test_matches_per_node_sort(self, tied_dataset, max_depth, min_leaf):
        model = fit_tree(tied_dataset, max_depth=max_depth, min_samples_leaf=min_leaf)
        expected = per_node_sort_tree(tied_dataset, max_depth, min_leaf)
        assert to_document(model, tied_dataset.schema) == to_document(expected, tied_dataset.schema)
        assert _depth(model.root) >= min(max_depth, 10)  # past depth 5: both generations reused

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [8, 40])
    def test_gbdt_matches_per_node_sort(self, tied_dataset, max_depth, min_leaf):
        model = fit_gbdt(tied_dataset, rounds=5, max_depth=max_depth, min_samples_leaf=min_leaf)
        expected = per_node_sort_gbdt(tied_dataset, 5, max_depth, min_leaf)
        assert to_document(model, tied_dataset.schema) == to_document(expected, tied_dataset.schema)
        assert max(_depth(root) for group in model.trees for root in group) >= min(max_depth, 10)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("fit", [fit_tree, fit_gbdt])
    def test_router_matches_the_walk_at_depth_40(self, tied_dataset, fit, min_leaf):
        kwargs = {"rounds": 5} if fit is fit_gbdt else {}
        model = fit(tied_dataset, max_depth=40, min_samples_leaf=min_leaf, **kwargs)
        assert model._depth >= 10
        assert_router_matches_walk(model, tied_dataset.x)

    @pytest.mark.parametrize("fit", [fit_tree, fit_gbdt])
    def test_memory_layout_does_not_matter(self, tied_dataset, fit):
        # the full-data fit gets clean_and_encode's F-ordered x and a CV fold
        # subset's C-ordered rows; a split routes its rows by one column of x
        fortran = Dataset(tied_dataset.schema, np.asfortranarray(tied_dataset.x), tied_dataset.y)
        rows = Dataset(tied_dataset.schema, np.ascontiguousarray(tied_dataset.x), tied_dataset.y)
        assert fortran.x.flags.f_contiguous and not rows.x.flags.f_contiguous
        kwargs = {"rounds": 5} if fit is fit_gbdt else {}
        assert to_document(fit(fortran, max_depth=8, **kwargs), fortran.schema) == to_document(
            fit(rows, max_depth=8, **kwargs), rows.schema)


def _fixture_digest(model):
    schema = load_schema(FIXTURE_DIR / "fixture_schema.json")
    doc = to_document(model, schema)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestGoldenModels:
    """Model documents fitted on the fixture, pinned by sha256.

    The default-parameter digests were recorded from the per-node argsort
    search that the presorted kernel replaced, and the others from the
    presorted kernel before it moved its intermediates into a per-fit
    workspace and stopped sorting children that cannot split; so any change
    to a split, threshold, leaf, importance or loss value shows here.  The
    non-default depths and leaf floors pin the edges of the candidate window
    and of the children that get no sorted block.
    """

    @pytest.fixture(scope="class")
    def fixture_dataset(self):
        schema = load_schema(FIXTURE_DIR / "fixture_schema.json")
        return load_dataset(FIXTURE_DIR / "fixture.csv", schema)

    def test_tree_document(self, fixture_dataset):
        digest = _fixture_digest(fit_tree(fixture_dataset))
        assert digest == "98475941871f1497cf5ec1b130f6547889adc5506d646707c56efc27b2f5095e"

    def test_gbdt_document(self, fixture_dataset):
        digest = _fixture_digest(fit_gbdt(fixture_dataset, rounds=20))
        assert digest == "33dcf1b720fd70bd5af6eb1adc0b6c67b97f9a0f65bd3ac3a21479d08b6d1cf2"

    @pytest.mark.parametrize(
        ("max_depth", "min_samples_leaf", "digest"),
        [
            (1, 1, "686f8d927473cfca0c4693d00f78ba444b9829bee96a41600ffdc802956deade"),
            (1, 5, "b1f0436ad18c057c1c7fd9c724046e5a19e5b15b3a5b4035dde8c412b70d9b1f"),
            (4, 1, "cca0a177b444470980a87960c8b126d2741143ca8bab02d4f1275801138c1a16"),
            (4, 5, "90baa1d2a30b4ef6223bc1cfad38406a61ef6809888019d52e24f28eedc5af6d"),
        ],
    )
    def test_gbdt_document_at_depth_and_leaf_floor(
        self, fixture_dataset, max_depth, min_samples_leaf, digest
    ):
        model = fit_gbdt(
            fixture_dataset, rounds=20, max_depth=max_depth, min_samples_leaf=min_samples_leaf
        )
        assert _fixture_digest(model) == digest

    def test_tree_document_shallow_with_leaf_floor(self, fixture_dataset):
        digest = _fixture_digest(fit_tree(fixture_dataset, max_depth=2, min_samples_leaf=5))
        assert digest == "15e08bac6c3fe74fdfe0b7d346c952a6b3fe8a882b0de6361f68798069567af3"
