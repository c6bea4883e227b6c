import dataclasses
import hashlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mppkit
from conftest import cli_env
from mppkit import evaluation
from mppkit.data import DataError, FoldPlan, RawTable, json_digest
from mppkit.evaluation import CvReport, ModelSpec
from mppkit.experiment import (
    ConfigError,
    ExperimentConfig,
    ReportBundle,
    compare_models,
    emit_report,
    load_config,
    run_experiment,
)


@pytest.fixture(scope="module")
def fixture_config(fixture_dir_module):
    return fixture_dir_module / "fixture_config.json"


@pytest.fixture(scope="module")
def fixture_dir_module():
    from conftest import FIXTURE_DIR

    return FIXTURE_DIR


@pytest.fixture(scope="module")
def small_bundle(fixture_config):
    # two fast models keep the module quick; CLI tests cover the full five
    config = load_config(fixture_config, models=["tree", "gbdt"], folds=3)
    config = ExperimentConfig(
        data_path=config.data_path,
        schema_path=config.schema_path,
        models=(ModelSpec("tree"), ModelSpec("gbdt", {"rounds": 40})),
        k=3,
        seed=7,
        out_dir=config.out_dir,
        formats=config.formats,
    )
    return run_experiment(config), config


class TestLoadConfig:
    def test_parses_fixture_config(self, fixture_config):
        config = load_config(fixture_config)
        assert [m.name for m in config.models] == ["logistic", "tree", "gbdt", "svm", "mlp"]
        assert config.k == 5
        assert config.seed == 7
        assert config.data_path.is_file()

    def test_overrides_win(self, fixture_config):
        config = load_config(fixture_config, seed=99, folds=4, models=["tree"], fmt="csv")
        assert config.seed == 99
        assert config.k == 4
        assert [m.name for m in config.models] == ["tree"]
        assert config.formats == ("csv",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "none.json")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": "x.csv"}))
        with pytest.raises(ConfigError, match="schema"):
            load_config(path)

    def test_unknown_model_rejected(self, fixture_config):
        config_doc = json.loads(fixture_config.read_text())
        config_doc["models"] = {"forest": {}}
        bad = fixture_config.parent / "bad_config.json"
        bad.write_text(json.dumps(config_doc))
        try:
            with pytest.raises(ValueError, match="unknown model"):
                load_config(bad)
        finally:
            bad.unlink()

    def test_unknown_format_rejected(self, fixture_config):
        with pytest.raises(ConfigError, match="format"):
            load_config(fixture_config, fmt="xml")

    @pytest.mark.parametrize("key", ["folds", "seed"])
    @pytest.mark.parametrize("value", ["x", 2.7, 5.0, True, None])
    def test_non_integer_folds_and_seed_rejected(self, fixture_config, tmp_path, key, value):
        doc = json.loads(fixture_config.read_text())
        doc[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"config key '{key}' must be an integer"):
            load_config(path)


    @pytest.mark.parametrize(
        "change, message",
        [
            ({"models": {"gbdt": [1]}}, "params of model 'gbdt' must be an object, got [1]"),
            ({"models": [{"name": "tree", "params": [1]}]}, "params of model 'tree' must be an object, got [1]"),
            ({"models": [{"name": "tree", "params": None}]}, "params of model 'tree' must be an object, got None"),
            ({"models": [{"name": ["tree"]}]}, "cannot parse model entry {'name': ['tree']}"),
            ({"data": 5}, "config key 'data' must be a string, got 5"),
            ({"schema": ["s.json"]}, "config key 'schema' must be a string, got ['s.json']"),
            ({"out": 5}, "config key 'out' must be a string, got 5"),
            ({"fold": 3, "seeds": 11},
             "unknown config key 'fold' (expected data, schema, models, folds, seed, out, format)"),
            ({"fromat": "csv"}, "unknown config key 'fromat'"),
            ({"models": ["svm", {"name": "tree", "param": {"max_depth": 1}}]},
             "model entry 'tree': unknown key 'param' (expected name, params)"),
        ],
    )
    def test_malformed_config_names_the_key(self, fixture_config, tmp_path, change, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**json.loads(fixture_config.read_text()), **change}))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_byte_order_mark_skipped(self, fixture_config, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + fixture_config.read_bytes())
        config, plain = load_config(path), load_config(fixture_config)
        assert (config.models, config.k, config.seed) == (plain.models, plain.k, plain.seed)
        assert config.data_path.name == plain.data_path.name

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            load_config(path)

    @pytest.mark.parametrize("under", [(), ("sub",), ("sub", "deeper")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_naming_a_file_rejected(self, fixture_config, tmp_path, under, source):
        blocker = tmp_path / "notes.txt"
        blocker.write_text("keep")
        out = blocker.joinpath(*under)
        doc = json.loads(fixture_config.read_text())
        if source == "config":
            doc["out"] = str(out)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        message = f"output directory 'out' {str(out)!r}: {str(blocker)!r} is not a directory"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path, out_dir=out if source == "flag" else None)
        assert blocker.read_text() == "keep"

    def test_out_may_be_an_existing_or_new_directory(self, fixture_config, tmp_path):
        assert load_config(fixture_config, out_dir=tmp_path).out_dir == tmp_path
        assert load_config(fixture_config, out_dir=tmp_path / "a" / "b").out_dir == tmp_path / "a" / "b"
        assert not (tmp_path / "a").exists()


class TestExperimentConfig:
    """A config built in code gets the checks load_config's does, at construction."""

    @staticmethod
    def build(tmp_path, **changes):
        # the data file does not exist: a check that read it would fail with DataError
        settings = dict(
            data_path=tmp_path / "missing.csv",
            schema_path=tmp_path / "missing.json",
            models=(ModelSpec("tree"),),
            out_dir=tmp_path / "reports",
        )
        return ExperimentConfig(**{**settings, **changes})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"out_dir": Path("notes.txt", "sub")},
             f"output directory 'out' {str(Path('notes.txt', 'sub'))!r}: 'notes.txt' is not a directory"),
            ({"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
            ({"k": True}, "config key 'folds' must be an integer, got True"),
            ({"k": 1}, "fold count must be at least 2"),
            ({"models": (ModelSpec("gbdt", {"rounds": np.int64(10)}),)},
             "config cannot be recorded in the report: Object of type int64 is not JSON serializable"),
            # a run that writes no report would fit every model and lose the results
            ({"formats": ()}, "report format list must be non-empty"),
            ({"formats": ("xml",)}, "unknown report format 'xml'"),
        ],
    )
    def test_bad_setting_fails_at_construction(self, tmp_path, monkeypatch, change, message):
        monkeypatch.chdir(tmp_path)  # out_dir is relative to the working directory
        Path("notes.txt").write_text("keep")
        with pytest.raises(ConfigError, match=re.escape(message)):
            self.build(tmp_path, **change)
        assert Path("notes.txt").read_text() == "keep"

    def test_numpy_integers_are_stored_as_int(self, tmp_path):
        config = self.build(tmp_path, k=np.int64(3), seed=np.uint16(7), out_dir=str(tmp_path))
        assert (type(config.k), type(config.seed), config.k, config.seed) == (int, int, 3, 7)
        assert config.out_dir == tmp_path
        assert config.digest() == self.build(tmp_path, k=3, seed=7).digest()

    def test_digest_is_of_the_resolved_params(self, tmp_path):
        # the same experiment, however its overrides are written
        digests = {
            self.build(tmp_path, models=(spec,)).digest()
            for spec in (ModelSpec("tree"), ModelSpec("tree", None), ModelSpec("tree", {"max_depth": 5}))
        }
        assert len(digests) == 1
        assert self.build(tmp_path, models=(ModelSpec("tree", {"max_depth": 4}),)).digest() not in digests


class TestRunExperiment:
    def test_bundle_shape(self, small_bundle):
        bundle, config = small_bundle
        assert len(bundle.reports) == 2
        assert {r.model for r in bundle.reports} == {"tree", "gbdt"}
        assert bundle.importance is not None  # gbdt configured
        assert bundle.config is config

    def test_single_model_bundle(self, fixture_config):
        config = load_config(fixture_config, models=["tree"], folds=3)
        bundle = run_experiment(config)
        assert len(bundle.reports) == 1
        assert bundle.reports[0].model == "tree"
        assert bundle.importance is None

    def test_stage_one_errors_are_labeled(self, fixture_config, tmp_path):
        doc = json.loads(fixture_config.read_text())
        doc["data"] = "missing.csv"
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(doc))
        # schema path resolves relative to the config file, so copy it over
        (tmp_path / "fixture_schema.json").write_text(
            (fixture_config.parent / "fixture_schema.json").read_text()
        )
        config = load_config(bad, models=["tree"])
        with pytest.raises(DataError, match="stage 1"):
            run_experiment(config)

    def test_class_smaller_than_k_fails_before_any_fit(self, fixture_config, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted before the fold plan was checked")

        monkeypatch.setattr(evaluation, "fit_predictor", no_fit)
        with pytest.raises(DataError, match="class 0 has 100 members, fewer than k=200"):
            run_experiment(load_config(fixture_config, folds=200))


@pytest.mark.parametrize(
    "record, keyword",
    [(ReportBundle, "config_digest"), (ReportBundle, "toolkit_version"), (ReportBundle, "seed"),
     (ReportBundle, "k"), (FoldPlan, "k"), (RawTable, "n_rows"),
     *((CvReport, name) for name in ("matrix", "per_class", "accuracy", "fold_accuracies", "fold_accuracy_mean",
                                     "fold_accuracy_std", "seed", "k", "fold_plan_digest"))],
)
def test_derived_facts_are_not_constructor_keywords(record, keyword):
    # each is read off another field (or the config, or __version__), so it cannot disagree with it
    assert keyword not in inspect.signature(record).parameters


class TestCompareModels:
    def test_sorted_by_accuracy_desc(self, small_bundle):
        bundle, _ = small_bundle
        rows = compare_models(bundle)
        accs = [row["accuracy"] for row in rows]
        assert accs == sorted(accs, reverse=True)

    def test_accuracy_column_is_trace_over_total(self, small_bundle):
        bundle, _ = small_bundle
        rows = {row["model"]: row for row in compare_models(bundle)}
        for report in bundle.reports:
            expected = np.trace(report.matrix) / report.matrix.sum()
            assert rows[report.model]["accuracy"] == expected

    def test_tied_accuracy_breaks_by_name(self, small_bundle):
        bundle, _ = small_bundle
        base = bundle.reports[0]
        twin_a = dataclasses.replace(base, model="zeta")
        twin_b = dataclasses.replace(base, model="alpha")
        tied = dataclasses.replace(bundle, reports=(twin_a, twin_b), importance=None)
        rows = compare_models(tied)
        assert [row["model"] for row in rows] == ["alpha", "zeta"]

    def test_empty_bundle_rejected(self, small_bundle):
        bundle, _ = small_bundle
        empty = dataclasses.replace(bundle, reports=(), importance=None)
        with pytest.raises(ValueError, match="empty"):
            compare_models(empty)


def configured(bundle, out_dir, formats):
    """`bundle` with its config writing `formats` into `out_dir`."""
    return dataclasses.replace(bundle, config=dataclasses.replace(bundle.config, out_dir=out_dir, formats=formats))


class TestEmitReport:
    @pytest.mark.parametrize("formats, names", [
        (("csv",), {"comparison.csv", "metrics_tree.csv", "metrics_gbdt.csv", "importance.csv"}),
        (("json",), {"summary.json"}),
        (("csv", "json"), {"comparison.csv", "metrics_tree.csv", "metrics_gbdt.csv", "importance.csv",
                           "summary.json"}),
    ])
    def test_files_exist_with_expected_names(self, small_bundle, tmp_path, formats, names):
        # the formats and the directory the bundle's config names
        bundle = configured(small_bundle[0], tmp_path / "a" / "b", formats)
        written = emit_report(bundle)
        assert {p.name for p in written} == names
        assert sorted(written) == sorted(bundle.config.out_dir.iterdir())

    def test_json_summary_shape(self, small_bundle, tmp_path):
        bundle, _ = small_bundle
        (path,) = emit_report(configured(bundle, tmp_path, ("json",)))
        summary = json.loads(path.read_text())
        assert set(summary) == {"metadata", "comparison", "reports", "importance"}
        assert summary["metadata"]["folds"] == 3
        assert set(summary["reports"]) == {"tree", "gbdt"}
        matrix = np.array(summary["reports"]["tree"]["confusion_matrix"])
        assert matrix.sum() == 300
        # a report's metrics and plan facts, `matrix` written as `confusion_matrix` and `k` as `folds`
        assert set(summary["reports"]["tree"]) == set(SUMMARY_REPORT_KEYS)
        assert summary["reports"]["tree"]["folds"] == 3
        assert set(summary["importance"]) == {"entries", "total"}

    def test_summary_metadata_is_read_off_the_config(self, small_bundle, tmp_path):
        bundle, config = small_bundle
        bundle = configured(bundle, tmp_path, ("json",))
        (path,) = emit_report(bundle)
        # the digest of the config that wrote the summary, not of the one the bundle was run with
        assert bundle.config.digest() != config.digest()
        assert json.loads(path.read_text())["metadata"] == {
            "toolkit_version": mppkit.__version__,
            "config_digest": bundle.config.digest(),
            "seed": config.seed,
            "folds": config.k,
            "models": ["tree", "gbdt"],
        }

    def test_importance_csv_sorted_and_normalized(self, small_bundle, tmp_path):
        bundle, _ = small_bundle
        emit_report(configured(bundle, tmp_path, ("csv",)))
        lines = (tmp_path / "importance.csv").read_text().splitlines()
        assert lines[0] == "feature,importance"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert weights == sorted(weights, reverse=True)
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_comma_in_feature_name_is_quoted(self, small_bundle, tmp_path):
        from mppkit.trees import ImportanceReport

        bundle, _ = small_bundle
        weird = dataclasses.replace(bundle, importance=ImportanceReport(
            entries=(("Renal function (CREA, Umol/L)", 0.75), ("Cough", 0.25)),
            total=1.0,
        ))
        emit_report(configured(weird, tmp_path, ("csv",)))
        import csv as csv_mod

        with (tmp_path / "importance.csv").open(newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[1][0] == "Renal function (CREA, Umol/L)"
        assert float(rows[1][1]) == 0.75

    def test_emission_is_byte_stable(self, small_bundle, tmp_path):
        bundle, _ = small_bundle
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for path_a, path_b in zip(
            emit_report(configured(bundle, dir_a, ("csv", "json"))),
            emit_report(configured(bundle, dir_b, ("csv", "json"))),
        ):
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_stale_cleanup_spares_other_files(self, small_bundle, tmp_path):
        bundle, _ = small_bundle
        for name in ("metrics_svm.csv", "metrics_notes.csv", "notes.txt"):
            (tmp_path / name).write_text("earlier")
        emit_report(configured(bundle, tmp_path, ("csv",)))
        assert not (tmp_path / "metrics_svm.csv").exists()  # an earlier run's report
        assert (tmp_path / "metrics_notes.csv").read_text() == "earlier"
        assert (tmp_path / "notes.txt").read_text() == "earlier"

    def test_csv_headers(self, small_bundle, tmp_path):
        # read from compare_models' row keys and experiment.CLASS_METRICS_KEYS: pinned here
        bundle, _ = small_bundle
        emit_report(configured(bundle, tmp_path, ("csv",)))
        assert (tmp_path / "comparison.csv").read_text().splitlines()[0] == (
            "model,accuracy,precision_0,recall_0,f1_0,precision_1,recall_1,f1_1,precision_2,recall_2,f1_2"
        )
        assert (tmp_path / "metrics_tree.csv").read_text().splitlines()[0] == (
            "class,tp,fp,fn,tn,precision,recall,f1,precision_defined,recall_defined,f1_defined"
        )

    def test_timestamps_never_reach_report_files(self, small_bundle, tmp_path):
        bundle, _ = small_bundle
        assert bundle.started_at and bundle.finished_at
        for path in emit_report(configured(bundle, tmp_path, ("csv", "json"))):
            assert bundle.started_at not in path.read_text()


# sha256 of each report of the fixture run at seed 7.  comparison.csv and importance.csv
# are perfbench/workloads.py's FIXTURE_DIGESTS; the metrics files were recorded from the
# same run.  summary.json is pinned by its fold plan digest alone: its config_digest
# hashes file paths.
FIXTURE_REPORT_DIGESTS = {
    "comparison.csv": "b0fd5215415151c83708ba24c6a027e90da3df11ef990f32eed38f7acdf62314",
    "importance.csv": "837c54b9aeb8f4fe94ef4fea14a02aafc4cfa6b3adfe4c48385b1389008f1c9c",
    "metrics_gbdt.csv": "1650dd64cb8127b84c2a60ed8c0e1c487af56e5655c81ce8f875312ca7f9470a",
    "metrics_logistic.csv": "6901904e18ec837121e16d7d34e2f0ecc2702fe2c35227e89cb2b0f75942136c",
    "metrics_mlp.csv": "2adcc36be9c9a271f42378896eddec2e9f69a5a7000844f1f1cfe3b73b6b63af",
    "metrics_svm.csv": "a7aefdfb8372c5969457a689d8bb3c4441edf86c885aac2f4a8799343cc30835",
    "metrics_tree.csv": "7b9e2d8c548f9de52f5cd3cdce6295fedb6dde8c303eb97b38b64aa50e0d983d",
}
FIXTURE_FOLD_PLAN_DIGEST = "9bc3f8ec8f36e742a49e4d8a9a8c0e7238a8152e429017653f1509a230382066"
# json_digest of summary.json's reports, each cut to the keys below (so a key added later
# leaves it alone); metadata is left out, as its config_digest hashes absolute paths
SUMMARY_REPORT_KEYS = ("model", "params", "confusion_matrix", "accuracy", "per_class", "fold_accuracies",
                       "fold_accuracy_mean", "fold_accuracy_std", "seed", "folds", "fold_plan_digest")
FIXTURE_SUMMARY_REPORTS_DIGEST = "65e968ee2626592180c235c69b104eb072d63ed11ee011ead7cfd3126cee2b04"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mppkit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


class TestCli:
    def test_run_subcommand(self, fixture_config, tmp_path):
        out = tmp_path / "reports"
        result = run_cli(
            "run", "--config", str(fixture_config),
            "--models", "tree", "--folds", "3", "--out", str(out), "--format", "csv",
        )
        assert result.returncode == 0, result.stderr
        assert (out / "comparison.csv").is_file()
        assert "tree" in result.stdout

    def test_fixture_reports_match_the_recorded_digests(self, fixture_config, tmp_path):
        out = tmp_path / "reports"
        result = run_cli("run", "--config", str(fixture_config), "--seed", "7", "--out", str(out))
        assert result.returncode == 0, result.stderr
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FIXTURE_REPORT_DIGESTS}
        assert digests == FIXTURE_REPORT_DIGESTS
        reports = json.loads((out / "summary.json").read_text(encoding="utf-8"))["reports"]
        assert {name: r["fold_plan_digest"] for name, r in reports.items()} == dict.fromkeys(
            ["gbdt", "logistic", "mlp", "svm", "tree"], FIXTURE_FOLD_PLAN_DIGEST)
        kept = {name: {key: r[key] for key in SUMMARY_REPORT_KEYS} for name, r in reports.items()}
        assert json_digest(kept) == FIXTURE_SUMMARY_REPORTS_DIGEST

    def test_validate_data_ok(self, fixture_dir_module):
        result = run_cli(
            "validate-data",
            "--data", str(fixture_dir_module / "fixture.csv"),
            "--schema", str(fixture_dir_module / "fixture_schema.json"),
        )
        assert result.returncode == 0
        assert "300 records" in result.stdout

    def test_validate_data_error_exit_2(self, fixture_dir_module, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n1,7\n")
        result = run_cli(
            "validate-data",
            "--data", str(bad),
            "--schema", str(fixture_dir_module / "fixture_schema.json"),
        )
        assert result.returncode == 2
        assert "data error" in result.stderr

    def test_non_utf8_data_exit_2(self, fixture_dir_module, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"f0,label\n1,0\n\xe9,1\n")
        result = run_cli(
            "validate-data",
            "--data", str(bad),
            "--schema", str(fixture_dir_module / "fixture_schema.json"),
        )
        assert result.returncode == 2, result.stderr
        assert "latin1.csv: byte 13: not valid UTF-8" in result.stderr

    def test_non_utf8_schema_exit_2(self, fixture_dir_module, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"label": "\xe9tat", "features": []}')
        result = run_cli(
            "validate-data", "--data", str(fixture_dir_module / "fixture.csv"), "--schema", str(bad),
        )
        assert result.returncode == 2, result.stderr
        assert "latin1.json: byte 11: not valid UTF-8" in result.stderr

    def test_non_utf8_config_exit_1(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"data": "\xe9.csv"}')
        result = run_cli("run", "--config", str(bad), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert "latin1.json: byte 10: not valid UTF-8" in result.stderr

    def test_missing_dataset_exit_2(self, fixture_dir_module, tmp_path):
        result = run_cli(
            "validate-data",
            "--data", str(tmp_path / "none.csv"),
            "--schema", str(fixture_dir_module / "fixture_schema.json"),
        )
        assert result.returncode == 2

    def test_usage_error_exit_1(self):
        result = run_cli("run")  # --config is required
        assert result.returncode == 1

    def test_unknown_model_exit_1(self, fixture_config):
        result = run_cli("run", "--config", str(fixture_config), "--models", "forest")
        assert result.returncode == 1
        assert "unknown model" in result.stderr

    @pytest.mark.parametrize(
        "models",
        [
            {"mlp": {"hidden": 2.5}},
            {"mlp": {"batch_size": 0}},
            {"logistic": {"epochs": "ten"}},
            {"gbdt": {"max_depth": -1}},
        ],
    )
    def test_bad_hyperparameter_exit_1(self, fixture_dir_module, tmp_path, models):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": str(fixture_dir_module / "fixture.csv"),
            "schema": str(fixture_dir_module / "fixture_schema.json"),
            "models": models,
        }))
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        (name, params), = models.items()
        (key, _), = params.items()
        assert f"hyperparameter '{key}' of model '{name}'" in result.stderr
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("change", [{"models": {"gbdt": [1]}}, {"data": 5}])
    def test_malformed_config_exit_1(self, fixture_config, tmp_path, change):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(fixture_config.read_text()), **change}))
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert "must be" in result.stderr
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize(
        "fragment, key",
        [('"seed": 1, "seed": 3', "seed"), ('"models": {"tree": {}, "tree": {"max_depth": 1}}', "tree")],
        ids=["top-level", "nested"],
    )
    def test_config_repeating_a_key_exit_1(self, fixture_dir_module, tmp_path, fragment, key):
        config = tmp_path / "config.json"
        data = json.dumps(str(fixture_dir_module / "fixture.csv"))
        schema = json.dumps(str(fixture_dir_module / "fixture_schema.json"))
        config.write_text(f'{{"data": {data}, "schema": {schema}, {fragment}}}')
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert f"config file {config} repeats the key '{key}'" in result.stderr
        assert not (tmp_path / "reports").exists()

    def test_config_with_unknown_keys_exit_1(self, fixture_config, tmp_path):
        # refused when the config loads: the data file, missing here, is never opened
        config = tmp_path / "config.json"
        doc = {**json.loads(fixture_config.read_text()), "data": "missing.csv",
               "fold": 3, "seeds": 11, "fromat": "csv"}
        config.write_text(json.dumps(doc))
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert "error: unknown config key 'fold'" in result.stderr
        assert not (tmp_path / "reports").exists()

    def test_schema_with_unknown_key_exit_2(self, fixture_dir_module, tmp_path):
        text = (fixture_dir_module / "fixture_schema.json").read_text()
        bad = tmp_path / "schema.json"
        bad.write_text(text.replace('"kind": ', '"knid": "x", "kind": ', 1))
        result = run_cli(
            "validate-data", "--data", str(fixture_dir_module / "fixture.csv"), "--schema", str(bad),
        )
        assert result.returncode == 2, result.stderr
        assert "unknown key 'knid' (expected name, kind, unit, mapping)" in result.stderr

    def test_schema_repeating_a_key_exit_2(self, fixture_dir_module, tmp_path):
        text = (fixture_dir_module / "fixture_schema.json").read_text()
        bad = tmp_path / "schema.json"
        bad.write_text(text.replace('"kind": ', '"kind": "continuous", "kind": ', 1))
        result = run_cli(
            "validate-data", "--data", str(fixture_dir_module / "fixture.csv"), "--schema", str(bad),
        )
        assert result.returncode == 2, result.stderr
        assert f"schema manifest {bad} repeats the key 'kind'" in result.stderr

    def test_malformed_schema_exit_2(self, fixture_dir_module, tmp_path):
        schema = json.loads((fixture_dir_module / "fixture_schema.json").read_text())
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({**schema, "n_classes": "x"}))
        result = run_cli(
            "validate-data", "--data", str(fixture_dir_module / "fixture.csv"), "--schema", str(bad),
        )
        assert result.returncode == 2, result.stderr
        assert "schema key 'n_classes' must be an integer, got 'x'" in result.stderr

    def test_run_needs_three_classes_exit_2(self, fixture_dir_module, tmp_path):
        schema = json.loads((fixture_dir_module / "fixture_schema.json").read_text())
        four = tmp_path / "schema.json"
        four.write_text(json.dumps({**schema, "n_classes": 4}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": str(fixture_dir_module / "fixture.csv"), "schema": str(four), "models": ["tree"],
        }))
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "stage 1 (load and clean): schema key 'n_classes' is 4" in result.stderr
        assert not (tmp_path / "reports").exists()
        # the other commands take any class count
        result = run_cli("validate-data", "--data", str(fixture_dir_module / "fixture.csv"), "--schema", str(four))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[1].endswith(", 3=0")
        result = run_cli("importance", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    def test_class_smaller_than_k_exit_2(self, fixture_config, tmp_path):
        out = tmp_path / "reports"
        result = run_cli("run", "--config", str(fixture_config), "--folds", "200", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert "class 0" in result.stderr and "k=200" in result.stderr
        assert not out.exists()

    def test_non_integer_folds_exit_1(self, fixture_dir_module, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": str(fixture_dir_module / "fixture.csv"),
            "schema": str(fixture_dir_module / "fixture_schema.json"),
            "models": ["tree"],
            "folds": "x",
        }))
        result = run_cli("run", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert "config key 'folds' must be an integer, got 'x'" in result.stderr
        assert not (tmp_path / "reports").exists()

    def test_csv_error_exit_2(self, fixture_dir_module, tmp_path):
        header = (fixture_dir_module / "fixture.csv").read_text().splitlines()[0]
        bad = tmp_path / "huge.csv"
        bad.write_text(header + '\n"' + "9" * 131073 + '"' + ",1" * header.count(",") + "\n")
        result = run_cli(
            "validate-data",
            "--data", str(bad),
            "--schema", str(fixture_dir_module / "fixture_schema.json"),
        )
        assert result.returncode == 2, result.stderr
        assert "huge.csv: row 2: field larger than field limit" in result.stderr

    def test_rerun_leaves_only_its_own_reports(self, fixture_config, tmp_path):
        out = tmp_path / "reports"
        for models in ("tree,logistic", "tree"):
            result = run_cli(
                "run", "--config", str(fixture_config),
                "--models", models, "--folds", "3", "--out", str(out),
            )
            assert result.returncode == 0, result.stderr
        wrote = {line.split(" ", 1)[1] for line in result.stdout.splitlines() if line.startswith("wrote ")}
        assert {str(p) for p in out.iterdir()} == wrote
        assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "metrics_tree.csv", "summary.json"]

    @pytest.mark.parametrize("under", [(), ("sub",)])
    def test_run_out_naming_a_file_exit_1(self, fixture_config, tmp_path, under):
        blocker = tmp_path / "notes.txt"
        blocker.write_text("keep")
        out = blocker.joinpath(*under)
        result = run_cli("run", "--config", str(fixture_config), "--out", str(out), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert f"error: output directory 'out' {str(out)!r}" in result.stderr
        assert blocker.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt"]

    def test_importance_out_naming_a_file_exit_1(self, fixture_config, tmp_path):
        blocker = tmp_path / "notes.txt"
        blocker.write_text("keep")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(fixture_config.read_text()), "out": str(blocker)}))
        result = run_cli("importance", "--config", str(config), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert f"error: output directory 'out' {str(blocker)!r}" in result.stderr
        assert blocker.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "notes.txt"]

    def test_unknown_subcommand_exit_1(self):
        result = run_cli("serve")
        assert result.returncode == 1

    def test_importance_clears_the_reports_of_an_earlier_run(self, fixture_config, tmp_path):
        out = tmp_path / "reports"
        doc = json.loads(fixture_config.read_text())
        for rounds, name in ((5, "run.json"), (20, "importance.json")):
            (tmp_path / name).write_text(json.dumps({
                **doc, "data": str(fixture_config.parent / doc["data"]),
                "schema": str(fixture_config.parent / doc["schema"]),
                "models": {"gbdt": {"rounds": rounds}}, "out": str(out),
            }))
        result = run_cli("run", "--config", str(tmp_path / "run.json"), "--folds", "2")
        assert result.returncode == 0, result.stderr
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.csv", "importance.csv", "metrics_gbdt.csv", "summary.json"]
        (out / "notes.csv").write_text("keep")
        result = run_cli("importance", "--config", str(tmp_path / "importance.json"))
        assert result.returncode == 0, result.stderr
        # the 5-round summary.json would disagree with the 20-round importance.csv
        assert sorted(p.name for p in out.iterdir()) == ["importance.csv", "notes.csv"]
        assert (out / "notes.csv").read_text() == "keep"

    def test_importance_subcommand(self, fixture_config, tmp_path):
        result = run_cli("importance", "--config", str(fixture_config), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "reports" / "importance.csv").is_file()
        assert "feature importance" in result.stdout
        # the same full-data fit and writer as `run`: the same bytes
        out = tmp_path / "run"
        result = run_cli(
            "run", "--config", str(fixture_config),
            "--models", "gbdt", "--folds", "2", "--format", "csv", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "reports" / "importance.csv").read_bytes() == (out / "importance.csv").read_bytes()
