"""Every name a module of the package imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "epmu"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source):
    """The names that `source` binds by an import and never reads, with the
    line of each import; `from __future__` imports are directives, not
    names.  `import a.b` binds `a`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_are_found():
    assert {"checker.py", "distinction.py", "system.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import deque, Counter as C\n"
        "import json\n"
        "x = deque(json.loads('[]'))\n"
    )
    assert unread_imports(source) == [(2, "os"), (3, "C")]
