"""Smoke tests for the scripts in scripts/, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import corelabel
from test_enumeration import TABLE1_SEVEN

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = str(Path(corelabel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout.splitlines()


def test_run_table1_prints_the_census_rows():
    lines = run_script("run_table1.py", "--max-n", "7")
    assert lines[0].split() == ["n", "l", "c", "s", "S", "seconds"]
    # Each row is n, l, c, s, S and the seconds its size took.
    rows = [line.split() for line in lines[1:]]
    assert [",".join(r[:5]) for r in rows] == TABLE1_SEVEN
    assert all(float(r[5]) >= 0 for r in rows)


def test_run_search61_ends_verified_empty():
    lines = run_script("run_search61.py", "--max-m", "3")
    assert [line.split(":")[0] for line in lines[:-1]] == ["m=1", "m=2", "m=3"]
    assert lines[-1] == "no candidates: every scanned ground size is verified empty"
