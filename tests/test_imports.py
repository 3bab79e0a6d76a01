"""Unused-import gate: every module-level import of the package, its tests
and its scripts is used.

A stand-in for a linter's unused-import rule.  The package's `__init__.py`
is skipped because its imports are the package's exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toruslab"
MODULES = sorted([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "scripts").glob("*.py")))


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
    assert {p.name for p in MODULES} >= {"runner.py", "markov.py",
                                          "config.py", "test_markov.py",
                                          "entropy_experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
