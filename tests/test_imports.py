"""Every name a library module imports is used in that module.

Package ``__init__.py`` files are skipped: their imports are re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "holoqa"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` binds by an import statement and never loads,
    ``from __future__`` imports aside."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_unused_imports_are_found():
    src = "import os\nimport json\nfrom math import pi, tau\nprint(json.dumps(tau))\n"
    assert unused_imports(src) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
