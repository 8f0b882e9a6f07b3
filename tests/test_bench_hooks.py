"""The benchmark's tracer finds every kernel it wraps, and puts it back.

bench/tracing.py replaces corelabel functions by name.  A kernel that is
renamed, or that the census stream stops looking up in its own module,
would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import corelabel
from corelabel import table1
from corelabel.poset import Poset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corelabel_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is corelabel or name.startswith("corelabel.")
    }


def test_tracer_wraps_the_census_kernels_and_restores_them():
    tracing = load_tracing()
    for modname, attr, _, kind in tracing.SPANS:
        home = sys.modules["corelabel." + modname]
        if kind == "method":
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), attr
        else:
            assert hasattr(home, attr), f"corelabel.{modname}.{attr}"
    before = corelabel_namespaces()
    mobius = vars(Poset)["mobius"]

    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        rows = table1(6)
    finally:
        uninstall()

    assert [r.lattices for r in rows] == [1, 1, 1, 2, 5, 15]
    for span in ("core_label.labels_raw", "core_label.psi_masks_raw",
                 "core_label.clo_is_lattice_raw"):
        assert tracer.calls[span] > 0, span
    after = corelabel_namespaces()
    assert after.keys() == before.keys()
    for name, names in before.items():
        for attr, value in names.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert vars(Poset)["mobius"] is mobius
