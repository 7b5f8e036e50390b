"""Every name a module imports is read somewhere in that module.

Package __init__ modules are skipped: their imports are their exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/jampack", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("import a.b\na.b.c\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (
    p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
