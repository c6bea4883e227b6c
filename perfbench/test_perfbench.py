"""Self-tests of the benchmark harness (run with the repository's pytest command)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import tracer
from run import END_TO_END, REFERENCE_PROBE_S, at_reference_speed

import mppkit
import mppkit.cli
import mppkit.evaluation
import mppkit.experiment
import mppkit.trees
from mppkit.data import Dataset, FeatureSchema, FeatureSpec

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(name, start, end, parent=-1, tag=None):
    return [name, start, end, parent, tag]


def test_self_time_subtracts_child_cover():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("evaluation.cross_validate", 1.0, 6.0, 0, "gbdt"),
        _span("trees.fit_gbdt", 1.5, 4.0, 1),
        _span("numeric.softmax", 2.0, 2.5, 2),
        _span("trees.predict_gbdt_batch", 4.0, 5.0, 1),
        _span("trees.fit_gbdt", 7.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 1.5, 2.0, 0.5, 1.0, 2.0])


def test_busy_time_counts_nested_spans_of_one_set_once():
    spans = [
        _span("numeric.SeededRng.normal", 0.0, 4.0),
        _span("numeric.SeededRng.random", 1.0, 2.0, 0),
        _span("numeric.SeededRng.random", 5.0, 6.0),
    ]
    selves = tracer.self_times(spans)
    busy, own = tracer.busy_and_self(spans, selves, {0, 1, 2})
    assert busy == pytest.approx(5.0)
    assert own == pytest.approx(5.0)


def test_cv_and_full_fits_are_told_apart_by_ancestry():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("evaluation.cross_validate", 0.0, 5.0, 0, "gbdt"),
        _span("evaluation.fit_predictor", 0.0, 4.0, 1, "gbdt"),
        _span("trees.fit_gbdt", 0.0, 3.0, 2),
        _span("trees.fit_gbdt", 6.0, 7.0, 0),
    ]
    m = tracer.layer_metrics({"run_id": "t", "spans": spans, "counts": []})
    assert m["trees.fit_gbdt_s"] == pytest.approx(3.0)
    assert m["trees.fit_gbdt_full_s"] == pytest.approx(1.0)
    assert m["evaluation.fit_s.gbdt"] == pytest.approx(4.0)
    assert m["evaluation.fit_self_s.gbdt"] == pytest.approx(1.0)
    assert m["evaluation.driver_self_s"] == pytest.approx(2.0)
    assert m["trees.self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(4.0)


def _tiny_dataset(n=30):
    rng = np.random.default_rng(0)
    x = rng.random((n, 2))
    y = np.arange(n) % 3
    schema = FeatureSchema(tuple(FeatureSpec(f"f{i}", "continuous") for i in range(2)))
    return Dataset(schema, x, y)


def test_wrappers_reach_every_module_reference():
    original = mppkit.trees.fit_gbdt
    holders = [mppkit, mppkit.trees, mppkit.evaluation, mppkit.experiment, mppkit.cli]
    assert all(getattr(m, "fit_gbdt") is original for m in holders)

    t = tracer.Tracer("test")
    t.install()
    try:
        wrapped = mppkit.trees.fit_gbdt
        assert wrapped is not original
        assert all(getattr(m, "fit_gbdt") is wrapped for m in holders)

        dataset = _tiny_dataset()
        mppkit.evaluation.cross_validate(
            mppkit.evaluation.ModelSpec("gbdt", {"rounds": 2}), dataset, k=3, seed=1)
        mppkit.experiment.fit_gbdt(dataset, 2)
    finally:
        t.uninstall()
    assert all(getattr(m, "fit_gbdt") is original for m in holders)

    m = tracer.layer_metrics(json.loads(json.dumps(t.document())))
    assert m["evaluation.fits"] == 3
    assert m["trees.gbdt_trees"] == 4 * 2 * 3  # three CV fits and one full fit
    assert m["trees.gbdt_split_nodes"] > 0
    assert m["trees.fit_gbdt_s"] > 0 and m["trees.fit_gbdt_full_s"] > 0
    assert m["data.stratified_kfold_s"] > 0
    assert m["numeric.softmax_calls"] > 0


def test_missing_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(mppkit.trees, "predict_gbdt_batch")
    t = tracer.Tracer("test")
    with pytest.raises(tracer.MissingTarget, match="mppkit.trees.predict_gbdt_batch"):
        t.install()
    assert not t._patched  # nothing was wrapped before the failure


def test_differing_counts_fail_the_run():
    runs = [{name: 1 for name in tracer.COUNT_METRICS} for _ in range(2)]
    tracer.check_counts(runs)
    runs[1]["mlp.epochs"] = 2
    with pytest.raises(tracer.CountMismatch, match="mlp.epochs"):
        tracer.check_counts(runs)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        work = tmp_path / name
        work.mkdir()
        inputs.prepare("importance_2k", seed, work)
        digests.append({p.name: p.read_bytes() for p in work.iterdir()})
    assert digests[0] == digests[1]
    assert digests[0]["data.csv"] != digests[2]["data.csv"]


def test_wall_time_is_scaled_by_the_mean_probed_speed():
    assert at_reference_speed(8.0, [REFERENCE_PROBE_S] * 10) == pytest.approx(8.0)
    # half the time at twice the reference speed: 4 s of it count as 8
    probes = [REFERENCE_PROBE_S] * 10 + [REFERENCE_PROBE_S / 2] * 10
    assert at_reference_speed(8.0, probes) == pytest.approx(12.0)
    # one probe in ten at either end is dropped
    assert at_reference_speed(8.0, [REFERENCE_PROBE_S] * 8 + [1e-9, 1e3]) == pytest.approx(8.0)


def test_benchmark_json_names_what_the_harness_prints():
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracer.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(inputs.RECIPES)
