"""Layer tracing from outside the program.

install() replaces functions of corelabel with timing wrappers.  A public
function is replaced under every name a corelabel module (or the package)
binds it to, so calls between modules go through the wrapper; an internal
kernel is replaced only in the module named in SPANS, which is the caller
that looks it up.  Nothing in the source tree changes, and uninstall()
puts every original back.

Every wrapped call is a span: name, start, end and the span that caused
it.  A span's self time is its duration minus the time of the spans it
caused, so the self times of one round add up, with the unattributed
remainder, to the round's wall time.  Calls that are too hot to time one
by one (the canonical labelling's search-tree nodes) are counted, not
given a span.  A generator gets one span per resumption.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, kind).  kind "api": wrapped wherever it is
# bound; "caller": wrapped only in the named module's namespace; "gen-api"
# and "gen-caller": the same for a generator; "count": counted in the named
# module, no span; "method": a method of a class of the named module.
SPANS = [
    ("canon", "canonical_key", "canon.canonical_key", "api"),
    ("canon", "_refine", "canon.node", "count"),
    ("enumeration", "_iter_lattice_arrays", "enumeration.stream", "gen-caller"),
    ("enumeration", "_children", "enumeration.children", "gen-caller"),
    ("enumeration", "_materialize", "enumeration.materialize", "caller"),
    ("enumeration", "_sd_witness", "lattice.sd_witness", "caller"),
    ("enumeration", "_cu_witness", "congruence.cu_witness", "caller"),
    ("enumeration", "_labels_raw", "core_label.labels_raw", "caller"),
    ("enumeration", "_psi_masks_raw", "core_label.psi_masks_raw", "caller"),
    ("enumeration", "_clo_is_lattice_raw", "core_label.clo_is_lattice_raw", "caller"),
    ("lattice", "as_lattice", "lattice.as_lattice", "api"),
    ("lattice", "is_join_semidistributive", "lattice.is_jsd", "api"),
    ("lattice", "is_meet_semidistributive", "lattice.is_msd", "api"),
    ("congruence", "is_congruence_uniform", "congruence.is_cu", "api"),
    ("congruence", "congruence_lattice", "congruence.congruence_lattice", "api"),
    ("congruence", "quotient", "congruence.quotient", "api"),
    ("core_label", "label_covers", "core_label.label_covers", "api"),
    ("core_label", "core_label_order", "core_label.core_label_order", "api"),
    ("core_label", "boolean_nexus", "core_label.boolean_nexus", "api"),
    ("doubling", "generate_cu", "doubling.generate_cu", "gen-api"),
    ("doubling", "double_interval", "doubling.double_interval", "api"),
    ("doubling", "double", "doubling.double", "api"),
    ("biclosed", "search_problem_6_1", "biclosed.search", "gen-api"),
    ("biclosed", "canonical_family_key", "biclosed.family_key", "api"),
    ("biclosed", "is_single_step", "biclosed.single_step", "api"),
    ("biclosed", "closed_sets_lattice", "biclosed.closed_sets_lattice", "api"),
    ("poset", "from_covers", "poset.from_covers", "api"),
    ("poset", "Poset.mobius", "poset.mobius", "method"),
]


# Spans whose result is a verdict: a raw witness (None when the test
# passes) or a Verdict (falsy when it fails).
VERDICTS = {"lattice.sd_witness", "lattice.is_jsd", "lattice.is_msd",
            "congruence.cu_witness", "congruence.is_cu"}


class Tracer:
    """Per-round span aggregates, plus the span records of one round."""

    def __init__(self):
        self.reset()
        self.recording = False
        self.records: list[tuple] = []

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.rejects: Counter = Counter()
        self.sizes: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans = 0
        # Stack of [span id, time covered by child spans]; the bottom entry
        # stands for the benchmark itself.
        self._stack = [[-1, 0.0]]

    def _enter(self) -> float:
        self.spans += 1
        self._stack.append([self.spans, 0.0])
        return perf_counter()

    def _exit(self, name: str, t0: float) -> None:
        t1 = perf_counter()
        sid, child = self._stack.pop()
        dt = t1 - t0
        self.self_s[name] += dt - child
        parent = self._stack[-1]
        parent[1] += dt
        if self.recording:
            self.records.append((sid, parent[0], name, t0, t1))

    def wrap_call(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
            if name in VERDICTS:
                raw = name.endswith("_witness")
                self.rejects[name] += (result is not None) if raw else not result
            elif name == "congruence.congruence_lattice":
                self.sizes[name] += len(result.congruences)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, t0)
                    self.yields[name] += 1
                    yield item
            finally:
                it.close()

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every function in SPANS; return a function that undoes it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "corelabel" or k.startswith("corelabel.")]
        undo = []
        for modname, attr, name, kind in SPANS:
            home = sys.modules["corelabel." + modname]
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap_call(name, orig))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            if kind == "count":
                wrapper = self.wrap_count(name, orig)
            elif kind.startswith("gen"):
                wrapper = self.wrap_gen(name, orig)
            else:
                wrapper = self.wrap_call(name, orig)
            targets = [home] if kind.endswith("caller") or kind == "count" else [
                m for m in modules if getattr(m, attr, None) is orig]
            for mod in targets:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))

        def uninstall():
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

        return uninstall

    def snapshot(self, wall_s: float) -> dict:
        """This round's aggregates; counts must repeat from round to round."""
        return {
            "wall_s": wall_s,
            "self_s": dict(self.self_s),
            "counts": {
                "calls": dict(self.calls),
                "yields": dict(self.yields),
                "rejects": dict(self.rejects),
                "sizes": dict(self.sizes),
                "spans": self.spans,
            },
        }

    def write(self, path, summary: dict) -> None:
        """Summary plus the recorded spans, one [id, parent, name, start,
        end] list per span, times in seconds from the first span's start."""
        base = self.records[0][3] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary,
                       "spans": [[s, p, n, round(a - base, 7), round(b - base, 7)]
                                 for s, p, n, a, b in self.records]}, fh)


def per_layer(rounds: list[dict], untraced_wall_s: float) -> dict:
    """The per-layer metrics: counts from the first traced round, times as
    medians over the traced rounds; untraced_wall_s is the median untraced
    round."""
    first = rounds[0]["counts"]
    calls, yields = first["calls"], first["yields"]
    rejects, sizes = first["rejects"], first["sizes"]

    def t(*names):
        return median([sum(r["self_s"].get(n, 0.0) for n in names) for r in rounds])

    def c(table, *names):
        return sum(table.get(n, 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    wall = median([r["wall_s"] for r in rounds])
    sd = ("lattice.sd_witness", "lattice.is_jsd", "lattice.is_msd")
    cu = ("congruence.cu_witness", "congruence.is_cu")
    canon_calls = c(calls, "canon.canonical_key")
    candidates = c(yields, "enumeration.children")
    classes = c(yields, "enumeration.stream")
    doublings = c(calls, "doubling.double_interval")
    generated = c(yields, "doubling.generate_cu") - c(calls, "doubling.generate_cu")
    metrics = {
        "canon.calls": (canon_calls, "count"),
        "canon.s": (t("canon.canonical_key"), "s"),
        "canon.nodes": (c(calls, "canon.node"), "count"),
        "canon.nodes_per_call": (ratio(c(calls, "canon.node"), canon_calls), "count"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.classes": (classes, "count"),
        # The one-element lattice starts the stream without being a candidate.
        "enumeration.accept_ratio": (ratio(max(classes - 1, 0), candidates), "ratio"),
        "enumeration.children_s": (t("enumeration.children"), "s"),
        "enumeration.materialize_s": (t("enumeration.materialize"), "s"),
        "enumeration.stream_s": (t("enumeration.stream"), "s"),
        "lattice.sd_calls": (c(calls, *sd), "count"),
        "lattice.sd_rejects": (c(rejects, *sd), "count"),
        "lattice.sd_s": (t(*sd), "s"),
        "lattice.as_lattice_calls": (c(calls, "lattice.as_lattice"), "count"),
        "lattice.as_lattice_s": (t("lattice.as_lattice"), "s"),
        "congruence.cu_calls": (c(calls, *cu), "count"),
        "congruence.cu_rejects": (c(rejects, *cu), "count"),
        "congruence.cu_s": (t(*cu), "s"),
        "congruence.con_lattice_s": (t("congruence.congruence_lattice"), "s"),
        "congruence.congruences": (c(sizes, "congruence.congruence_lattice"), "count"),
        "congruence.quotient_s": (t("congruence.quotient"), "s"),
        "core_label.labels_s": (t("core_label.labels_raw"), "s"),
        "core_label.psi_s": (t("core_label.psi_masks_raw"), "s"),
        "core_label.clo_s": (t("core_label.clo_is_lattice_raw"), "s"),
        "core_label.label_covers_s": (t("core_label.label_covers"), "s"),
        "core_label.order_s": (t("core_label.core_label_order"), "s"),
        "core_label.nexus_s": (t("core_label.boolean_nexus"), "s"),
        "doubling.doublings": (doublings, "count"),
        "doubling.double_s": (t("doubling.double_interval", "doubling.double"), "s"),
        "doubling.generate_s": (t("doubling.generate_cu"), "s"),
        "doubling.accept_ratio": (ratio(max(generated, 0), doublings), "ratio"),
        "biclosed.search_s": (t("biclosed.search"), "s"),
        "biclosed.family_key_calls": (c(calls, "biclosed.family_key"), "count"),
        "biclosed.family_key_s": (t("biclosed.family_key"), "s"),
        "biclosed.single_step_s": (t("biclosed.single_step"), "s"),
        "biclosed.closed_lattice_s": (t("biclosed.closed_sets_lattice"), "s"),
        "poset.from_covers_calls": (c(calls, "poset.from_covers"), "count"),
        "poset.from_covers_s": (t("poset.from_covers"), "s"),
        "poset.mobius_s": (t("poset.mobius"), "s"),
        "trace.spans": (first["spans"], "count"),
        "trace.traced_wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.unattributed_s": (
            median([r["wall_s"] - sum(r["self_s"].values()) for r in rounds]), "s"),
        "trace.overhead_pct": (100.0 * (wall / untraced_wall_s - 1.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
