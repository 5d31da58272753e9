"""Source hygiene: no fracpot module keeps an import it does not use.

A refactor that moves work from one module to another tends to leave the
old imports behind; this catches them.  __init__.py is exempt, since its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fracpot"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "riesz.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _used_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"
