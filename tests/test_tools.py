import importlib.util
import re
import subprocess
import sys

from conftest import FIXTURE_DIR, SRC_DIR, cli_env

MODEL_DIGESTS = SRC_DIR.parent / "tools" / "model_digests.py"
MAKE_FIXTURE = SRC_DIR.parent / "tools" / "make_fixture.py"

# The synthetic fits are the only ones whose split blocks are large enough to
# exercise the tree kernel's buffer reuse at scale, and the MLP's at the
# benchmark's 960x20 shape; the fixture fits are pinned by the golden digests
# of test_trees.py and friends.  Recorded on an
# X86_V4 (AVX512) CPU with numpy 2.4.6; see ROADMAP item 1 for other CPUs.
SCALE_DIGESTS = {
    "synthetic-2000x20/gbdt": "2549190dbd9e2c692cc37fa3ec53fda47ad70e98d099f620709872818fa4dd38",
    "synthetic-960x20/tree": "7cb2cf13868bfa6e569c8eecbca7e99d0cbef3f8a7027da859be39dd350147ac",
    "synthetic-960x20/mlp": "e4f6874329308de86186ad0d8799ee7a45c8220c955bad950419244e5a104d5a",
    "synthetic-2000x20/gbdt/predict": "c651df71cd2590e239740045e80d352300023a15d1bda79827db5601b072b0fd",
    "synthetic-960x20/tree/predict": "b62659e88cba6595f653ebd59db26a21bd241a17c6268132f687126082217c2c",
    "synthetic-960x20/mlp/predict": "0d1809290b435da62fab75422330a6c04167e451181387e590f13c665b497ce6",
    # softmax on n x 3 inputs with n >= 100, where its max goes column by column
    "synthetic-960x20/logistic": "adb2c703934f57d18d8f43be22b2c035da3ca24dbd117a4883bb90f2254fe8a6",
    "synthetic-960x20/logistic/predict": "f32b2851adf285811b12ac9a1ac11cc0748019ec142c20e3d1fbf9ea89d1cb83",
    # the MLP's five CV fold models, trained in lockstep, and their out-of-fold
    # labels: recorded from five separate fit_mlp calls before the folds were stacked
    "synthetic-960x20/mlp-cv": "beacd15a0dea2a87e948797eceae9019c7aa5337c0fa90ae420455df28b487e1",
    "synthetic-960x20/mlp-cv/predict": "baa8cead1910b942102cc47b9935de646c6a412f25de9880be3f5fcde8320386",
    # the SVM on the full set and its five CV fold models, the fold fits of the
    # gd_960 benchmark workload: recorded before the subgradient became one einsum
    "synthetic-960x20/svm": "f393cf438d65991f25b20cd7cfda7c3151f2e4b02af070cc65e0e3d1603a2bff",
    "synthetic-960x20/svm/predict": "1113122718cb2d4f55b56584e30b48bfee7b0423fd2b8e7f07bbe7017fe19a0c",
    "synthetic-960x20/svm-cv": "950eec64d8e5a1d899814ab2c367b5c11a5a37e5b8c6ac431b91811a1e0b28ac",
    "synthetic-960x20/svm-cv/predict": "8297dd6211b860953fcb2dd92ff778fced8a1c57c86cc0dfb1acc8a59b946a1a",
    # the logistic model's five CV fold models, softmax on 768-row folds: recorded
    # before softmax summed rows of fewer than 8 classes column by column
    "synthetic-960x20/logistic-cv": "559d0a8a19f75c25906d063a49aa0dc12c89038ea96823ec23de773139e5183d",
    "synthetic-960x20/logistic-cv/predict": "81a29616e96d11bf064aadad3f8076b4f24234138dc675924616df2c05bc02e7",
}


def test_model_digests_prints_every_fit_then_every_predict():
    # the bit-identity check of every model and predict path: 14 fits, then
    # the 14 fits' /predict lines, each "<label> <sha256>", in this order
    result = subprocess.run(
        [sys.executable, str(MODEL_DIGESTS)], capture_output=True, text=True, env=cli_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    fits = [f"fixture/{name}" for name in ("logistic", "svm", "tree", "gbdt", "mlp")]
    fits += ["synthetic-2000x20/gbdt", "synthetic-960x20/tree", "synthetic-960x20/mlp",
             "synthetic-960x20/logistic", "synthetic-960x20/svm", "fixture/mlp-cv", "synthetic-960x20/mlp-cv",
             "synthetic-960x20/svm-cv", "synthetic-960x20/logistic-cv"]
    lines = result.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == fits + [f"{label}/predict" for label in fits]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    printed = dict(line.split(" ") for line in lines)
    assert {label: printed[label] for label in SCALE_DIGESTS} == SCALE_DIGESTS


def test_make_fixture_rewrites_the_bundled_fixture(tmp_path):
    # perfbench's recorded report digests rest on these bytes
    spec = importlib.util.spec_from_file_location("make_fixture", MAKE_FIXTURE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.FIXTURE_DIR = tmp_path
    tool.main()
    names = ["fixture.csv", "fixture_config.json", "fixture_manifest.json", "fixture_schema.json"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name
