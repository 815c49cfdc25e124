"""The package computes exactly: no floating point and no numeric dependency.

An AST scan of src/orbistring rejects imports of numpy and cmath and calls of
float(...) and complex(...); a fresh interpreter checks that importing the CLI
does not pull in numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbistring"
BANNED_MODULES = {"numpy", "cmath"}
BANNED_CALLS = {"float", "complex"}


def _violations(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        for m in modules:
            if m.split(".")[0] in BANNED_MODULES:
                yield f"{path.name}:{node.lineno} imports {m}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in BANNED_CALLS:
            yield f"{path.name}:{node.lineno} calls {node.func.id}()"


def test_no_floats_or_numeric_imports():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _violations(path)]
    assert not found, "inexact code in the package: " + ", ".join(found)


def test_cli_import_leaves_numpy_out():
    code = "import sys, orbistring.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr or "numpy was imported"
