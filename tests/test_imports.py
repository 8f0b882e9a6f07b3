"""`import corelabel` loads the package's API modules and nothing more.

The lanes, the command line and the fixtures are imported on first use,
so a plain import does not compile them.
"""

import os
import subprocess
import sys
from pathlib import Path

import corelabel

EAGER = {
    "corelabel",
    "corelabel.biclosed",
    "corelabel.bitsets",
    "corelabel.canon",
    "corelabel.congruence",
    "corelabel.core_label",
    "corelabel.doubling",
    "corelabel.enumeration",
    "corelabel.lattice",
    "corelabel.poset",
}


def test_import_loads_only_the_api_modules():
    src = str(Path(corelabel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys, corelabel\n"
        "print(corelabel.__file__)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'corelabel'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve() == Path(corelabel.__file__).resolve()
    assert set(loaded.split()) == EAGER
