import ast
import sys
from pathlib import Path

import mppkit


def test_every_exported_name_resolves_once():
    # `from mppkit import *` fails on a name left in __all__ after its object is gone
    names = mppkit.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mppkit, name)] == []
    namespace = {}
    exec("from mppkit import *", namespace)
    assert set(names) <= set(namespace)


def test_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy as the one dependency; a third-party import would fail
    # on an install that has numpy alone
    package = Path(mppkit.__file__).parent
    outside = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                outside.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: the package itself
                outside.add(node.module.split(".")[0])
    assert outside - set(sys.stdlib_module_names) - {"numpy", "mppkit"} == set()
    assert "numpy" in outside
