"""Dead-code gates: every module-level import of the package, its tests
and its scripts is used, and every public function and class of the
package has a caller outside the tests.

A stand-in for a linter's unused-import rule.  It covers every module of
the package, `__init__.py` included: the package exports nothing from its
top level, so every module is imported by its own name.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toruslab"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "scripts").glob("*.py")))
# code that counts as a caller: the package, its scripts and the benchmark
PRODUCTION = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "benchmark").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_gate_sees_unused_names():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom typing import Any, Dict\n"
           "def f(x: Dict) -> int:\n    return np.sum(x)\n")
    assert unused_imports(src) == ["Any", "os"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "runner.py",
                                          "markov.py", "config.py",
                                          "test_markov.py",
                                          "entropy_experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source: str) -> set[str]:
    """Module-level functions and classes whose names do not start with _."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names(source: str) -> set[str]:
    """Names read or attributes taken, each top-level definition's own name
    inside its body excepted (a recursive call is not a caller)."""
    names = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr",
                                                                None)
            if name is not None and name != own:
                names.add(name)
    return names


def test_caller_gate_sees_dead_names():
    src = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Helper:\n    pass\n"
           "def _private():\n    return used() + Helper.x\n")
    defined = public_definitions(src)
    assert defined == {"used", "recursive", "Helper"}
    assert defined - referenced_names(src) == {"recursive"}


def test_public_names_have_production_callers():
    # methods are not checked: the acceptance criteria are found by getattr
    defined, referenced = set(), set()
    for path in PRODUCTION:
        source = path.read_text(encoding="utf-8")
        if path in PACKAGE:
            defined |= public_definitions(source)
        referenced |= referenced_names(source)
    assert sorted(defined - referenced) == []


# code whose attribute reads count for the instance-state gate
READERS = MODULES + sorted((ROOT / "benchmark").glob("*.py"))


def self_attributes(source: str) -> set[str]:
    """Names stored as `self.<name>` inside the classes of a module."""
    return {n.attr for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def loaded_attributes(source: str) -> set[str]:
    """Attribute names read anywhere in a module, on any object."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_state_gate_sees_unread_attributes():
    src = ("class Box:\n"
           "    def __init__(self, n):\n"
           "        self.n, self.spare = n, 0\n"
           "        self.total = 0\n"
           "        self.total += n\n"
           "    def size(self):\n"
           "        return self.n\n")
    assert self_attributes(src) - loaded_attributes(src) == {"spare",
                                                              "total"}


def test_instance_state_is_read():
    """Every attribute a package class stores on self is read somewhere in
    the package, its scripts, the benchmark or the tests.

    Reads are matched by name, not by owner: a stored `trace` would pass on
    `args.trace` in benchmark/run.py, so a dead attribute that shares its
    name with any read attribute goes unseen.
    """
    stored, loaded = set(), set()
    for path in READERS:
        source = path.read_text(encoding="utf-8")
        if path in PACKAGE:
            stored |= self_attributes(source)
        loaded |= loaded_attributes(source)
    assert sorted(stored - loaded) == []
