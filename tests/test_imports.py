"""`import corelabel` loads the package's API modules and nothing more.

The lanes, the command line and the fixtures are imported on first use,
so a plain import does not compile them.
"""

import ast
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


def _definitions(tree):
    # Module-level functions, classes and uppercase constants.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    yield t.id


def _uses(tree):
    # Names read anywhere in the module, as a bare name, an attribute or
    # an import (which may rename it).
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_public_or_used():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(corelabel.__file__).parent.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _uses(tree)}
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in corelabel.__all__ and name not in used
    ]
    assert dead == []


def _imported(tree):
    # The names a module's imports bind, wherever they stand.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    # __init__.py is left out: its imports are the package's re-exports.
    unused = []
    for path in sorted(Path(corelabel.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused += [f"{path.name}: {name}" for name in _imported(tree)
                   if name not in read]
    assert unused == []
