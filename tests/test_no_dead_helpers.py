"""Every top-level name defined in the package is used somewhere.

A function, class or constant defined at the top level of a module under
src/orbistring must be named in some Python file under src, tests, demos or
perfbench outside its own definition, and a private (underscore) name must be
used under src itself: a use from tests alone does not keep a helper alive.
Dunder names are exempt.  A module other than __init__.py also uses every
name it imports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbistring"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _definitions(path: Path):
    """(name, first line, last line) of each top-level definition in a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def _unused(searched, keep):
    """Top-level names, among those keep selects, that no line of a Python file
    under the searched directories names outside the name's own definition."""
    words = {  # path -> the identifier-like words of each line
        p: [set(re.findall(r"\w+", line)) for line in p.read_text().splitlines()]
        for d in searched
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(module):
            used = any(
                name in line
                for path, lines in words.items()
                for i, line in enumerate(lines, start=1)
                if not (path == module and first <= i <= last)
            )
            if keep(name) and not used:
                dead.append(f"{module.name}:{first} {name}")
    return dead


def test_no_dead_top_level_names():
    dead = _unused(SEARCHED, lambda name: True)
    assert not dead, "top-level names with no use: " + ", ".join(dead)


def test_private_names_are_used_in_src():
    dead = _unused(("src",), lambda name: name.startswith("_"))
    assert not dead, "private top-level names with no use in src: " + ", ".join(dead)


def _unused_imports(path: Path):
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_modules_use_every_name_they_import():
    modules = [m for m in sorted(PACKAGE.glob("*.py")) if m.name != "__init__.py"]
    dead = [entry for module in modules for entry in _unused_imports(module)]
    assert not dead, "imported names with no use: " + ", ".join(dead)
