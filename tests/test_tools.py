import re
import subprocess
import sys

from conftest import SRC_DIR, cli_env

MODEL_DIGESTS = SRC_DIR.parent / "tools" / "model_digests.py"


def test_model_digests_prints_every_fit_then_every_predict():
    # the bit-identity check of every model and predict path: 7 fits, then
    # the 7 fits' /predict lines, each "<label> <sha256>", in this order
    result = subprocess.run(
        [sys.executable, str(MODEL_DIGESTS)], capture_output=True, text=True, env=cli_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    fits = [f"fixture/{name}" for name in ("logistic", "svm", "tree", "gbdt", "mlp")]
    fits += ["synthetic-2000x20/gbdt", "synthetic-960x20/tree"]
    lines = result.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == fits + [f"{label}/predict" for label in fits]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
