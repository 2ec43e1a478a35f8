"""Every public function, class and method of the package has a caller.

A caller is a reference by name from the package itself, the scripts, the
benchmark (whose tracer names what it wraps in strings) or the acceptance
suite; other tests do not count, and neither does an import, nor a
reference inside the name's own definition.  The reference layer
(`oracle.py`, `gen.py`) is exempt: it exists for the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "epmu"
REFERENCE_LAYER = {"oracle.py", "gen.py"}
CALLERS = [
    *sorted(SRC.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

# Methods Python calls itself: construction, comparison, hashing, repr,
# copy, and the container, truth and call protocols.  Any other special
# method, an operator say, needs a caller by name like any public method.
IMPLICIT = frozenset([
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
    "__reduce__", "__len__", "__contains__", "__iter__", "__bool__", "__call__",
])

# Kept without a caller, each for its reason.
ALLOWED = {
    "translate.coalition_next": "the paper's ATL next step; `epmu translate atl` will call it",
    "formula.Formula.__str__": "Python's printing protocol: str(f) and f-strings print a formula",
}


def public_definitions(path):
    """(qualified name, bare name, first line, last line) of each public
    module-level function and class of a module and each public or
    non-implicit special method of its public classes."""
    module = path.stem
    out = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append((f"{module}.{node.name}", node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name in IMPLICIT:
                    continue
                special = item.name.startswith("__") and item.name.endswith("__")
                if special or not item.name.startswith("_"):
                    qual = f"{module}.{node.name}.{item.name}"
                    out.append((qual, item.name, item.lineno, item.end_lineno))
    return out


def references(path):
    """(name, line) of each name a module reads: a variable, an attribute,
    or a part of a dotted string such as the tracer's "Class.method"."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((part, node.lineno) for part in node.value.split(".") if part.isidentifier())
    return out


def uncalled(definers, callers):
    """The qualified names of the public definitions in `definers` that no
    module of `callers` reads outside the definition itself."""
    refs = {path: references(path) for path in callers}
    out = []
    for path in definers:
        for qual, name, first, last in public_definitions(path):
            if not any(
                ref == name and not (other == path and first <= line <= last)
                for other, seen in refs.items()
                for ref, line in seen
            ):
                out.append(qual)
    return out


def test_every_public_name_has_a_caller():
    definers = [p for p in sorted(SRC.glob("*.py")) if p.name not in REFERENCE_LAYER]
    assert sorted(set(uncalled(definers, CALLERS)) - ALLOWED.keys()) == []


def test_every_allowed_name_exists_and_has_no_caller():
    definers = [p for p in sorted(SRC.glob("*.py")) if p.name not in REFERENCE_LAYER]
    assert set(uncalled(definers, CALLERS)) >= ALLOWED.keys()


@pytest.fixture
def package(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Node:\n"
        "    def __and__(self, other):\n"
        "        return Node()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        return self.used\n"
        "    def traced(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        return 2\n"
        "def walk(n):\n"
        "    return walk(n)\n"
        "def helper():\n"
        "    return Node()\n"
        "def _hidden():\n"
        "    return helper()\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "from lib import walk\n"
        "LAYERS = [('lib', 'Node.traced')]\n"
        "def go(n):\n"
        "    return n.used()\n"
    )
    return lib, user


def test_a_name_without_a_caller_is_found(package):
    lib, user = package
    # walk calls only itself and is imported but never read; helper's one
    # caller is private, but a caller all the same
    assert uncalled([lib], [lib, user]) == ["lib.Node.__and__", "lib.walk"]
