"""Smoke test of the experiment scripts: each one imports, answers --help
and rejects a non-positive count.

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


def _run(path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path), *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0(path):
    r = _run(path, "--help")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage:")


@pytest.mark.parametrize("script, flag", [
    ("leb_rate_experiment.py", "--threads"),
    ("leb_rate_experiment.py", "--grid"),
    ("dirac_rate_experiment.py", "--threads"),
    ("dirac_rate_experiment.py", "--grid"),
    ("entropy_experiment.py", "--length"),
    ("entropy_experiment.py", "--depth"),
])
def test_nonpositive_count_is_a_usage_error(script, flag, tmp_path):
    # argparse's usage error, before any run starts or writes a record
    r = _run(ROOT / "scripts" / script, flag, "0", "--out", str(tmp_path))
    assert r.returncode == 2
    assert f"argument {flag}: must be >= 1, got 0" in r.stderr
    assert not any(tmp_path.iterdir())
