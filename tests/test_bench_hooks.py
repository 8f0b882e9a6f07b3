"""The benchmark's tracer finds every kernel it wraps, and puts it back.

bench/tracing.py replaces corelabel functions by name.  A kernel that is
renamed, or that the census stream stops looking up in its own module,
would otherwise surface only when the benchmark runs.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import corelabel
from corelabel import lanes, table1
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


def test_traced_rounds_count_the_same_spans_with_forked_lanes(monkeypatch):
    # bench/run.py fails a traced run whose per-layer counts differ from
    # round to round.  The n=9 level is keyed in a forked lane; spans inside
    # a lane are not recorded, and the fixed split keeps the caller's share
    # the same in every round.
    monkeypatch.setattr(lanes, "_cpu_count", lambda: 2)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    tracing = load_tracing()
    before = corelabel_namespaces()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        uninstall = tracer.install()
        try:
            rows = table1(9)
        finally:
            uninstall()
        assert rows[-1].lattices == 1078
        counts.append(tracer.snapshot(0.0)["counts"])
    assert len(forks) == 2
    assert counts[0] == counts[1]
    assert counts[0]["calls"]["canon.canonical_key"] > 0
    after = corelabel_namespaces()
    for name, names in before.items():
        for attr, value in names.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
