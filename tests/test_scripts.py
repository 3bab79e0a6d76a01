"""Smoke test of the experiment scripts: each one imports and answers --help.

The scripts build their configs from `toruslab.experiments`, so a renamed or
removed constant shows up here and not only when a script is run by hand.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert {p.name for p in SCRIPTS} >= {"leb_rate_experiment.py",
                                          "dirac_rate_experiment.py",
                                          "entropy_experiment.py"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(path), "--help"],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage:")
