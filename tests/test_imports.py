"""Every name a module of the package imports is read somewhere in it, and
no module imports hashlib when it is loaded."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "epmu"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


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


def load_time_imports(source):
    """The top-level names of the modules that `source` imports when it is
    loaded: everywhere but in a function body, which imports only when the
    function is called.  Relative imports are left out."""
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_hashlib_is_imported_only_where_a_digest_is_made(path):
    # hashlib loads OpenSSL, 3.5 MB of resident memory, into every process
    # that imports the package; only a report or a long name needs it
    assert "hashlib" not in load_time_imports(path.read_text())


def test_a_load_time_import_is_found():
    source = (
        "import os.path\n"
        "from . import formula\n"
        "try:\n"
        "    from hashlib import sha256\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import json\n"
        "    def f(self):\n"
        "        import zlib\n"
        "async def g():\n"
        "    import gzip\n"
        "def h():\n"
        "    import random\n"
    )
    assert load_time_imports(source) == {"os", "hashlib", "json"}
