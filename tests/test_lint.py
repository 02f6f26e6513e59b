"""Every module-level import of the package is used as a name, so a
deletion leaves no dead import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tunnelfwi"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name a module-level import binds and no
    expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_scan_flags_an_appended_unused_import():
    source = (SRC / "optimize.py").read_text() + "import os\n"
    assert unused_imports(source) == [(len(source.splitlines()), "os")]
