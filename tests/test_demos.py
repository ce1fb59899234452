"""The demos import only names the package still defines.

Each demo is parsed, not run (running them takes minutes); every name a demo
imports from mfpricelab or one of its modules must exist there.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) pairs of the demo's imports from mfpricelab; name is
    None for a plain `import mfpricelab...`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mfpricelab":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "mfpricelab"]
    return out


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    pairs = package_imports(path)
    assert pairs, f"{path.name} imports nothing from mfpricelab"
    missing = []
    for module, name in pairs:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names mfpricelab no longer defines: {missing}"
