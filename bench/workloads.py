"""The benchmark's workloads.

Each workload is built from the corelabel module, a seed and a size
(full or tiny).  Building it is the set-up: it makes every input from the
seed.  run_round() does one whole round of the workload's operations,
closed loop (one call at a time), and returns a Round.  check() holds the
outputs of a round to the independent checks in checks.py; it may ask the
program, untimed, for the further answers that property checks need.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import checks


@dataclass
class Round:
    wall_s: float
    item_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: object = None
    same_as_first: bool = True


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


class Census:
    """table1 through n=10: canonical labelling and enumeration."""

    name = "census"

    def __init__(self, C, seed: int, tiny: bool):
        # table1 takes only a size, so the seed changes nothing here.
        self.C = C
        self.max_n = 6 if tiny else 10
        self.classes = sum(checks.TABLE1[n][0] for n in range(1, self.max_n + 1))

    def run_round(self) -> Round:
        t0 = perf_counter()
        try:
            rows = self.C.table1(self.max_n)
        except Exception as exc:
            _report(exc)
            return Round(perf_counter() - t0, attempted=self.classes,
                         failed=self.classes)
        wall = perf_counter() - t0
        outputs = [(r.n, r.lattices, r.congruence_uniform, r.spherical_cu,
                    r.spherical_clo_lattice) for r in rows]
        return Round(wall, [wall * 1e3], self.classes, 0, outputs)

    def check(self, outputs) -> list[str]:
        return checks.census(outputs, self.max_n)


class CuAnalysis:
    """Every CU lattice through n=11 from generate_cu, analysed the way
    `lattice check` and `lattice clo` report it; lattices with at most
    con_max_n elements also get Con(L) and every quotient by cg(j)."""

    name = "cu-analysis"

    def __init__(self, C, seed: int, tiny: bool):
        self.C = C
        self.max_n = 7 if tiny else 11
        self.con_max_n = 6 if tiny else 9
        self.count = sum(checks.TABLE1[n][1] for n in range(1, self.max_n + 1))
        # The seed fixes the order in which the generated lattices are
        # analysed; the set of lattices is the whole class.
        self.order = list(range(self.count))
        random.Random(seed).shuffle(self.order)

    def analyse(self, lat) -> dict:
        C = self.C
        cl = C.label_covers(lat)
        clo = C.core_label_order(cl)
        rec = {
            "n": lat.n,
            "up": tuple(lat.poset.up),
            "clo_lattice": bool(C.is_clo_lattice(clo)),
            "clo_meet_semilattice": bool(C.is_clo_meet_semilattice(clo)),
            "intersection": bool(C.has_intersection_property(clo)),
            "defect": C.boolean_defect(cl),
            "nexus": len(C.boolean_nexus(cl)[0]),
            "spherical": C.is_spherical(lat),
            "con": None,
            "quotient_clo": None,
        }
        if lat.n <= self.con_max_n:
            rec["con"] = tuple(t.cls for t in C.congruence_lattice(lat).congruences)
            qs = []
            for ji in C.join_irreducibles(lat):
                q, _ = C.quotient(lat, C.cg_join_irreducible(lat, ji.j))
                qs.append(bool(C.is_clo_lattice(C.core_label_order(C.label_covers(q)))))
            rec["quotient_clo"] = tuple(qs)
        return rec

    def run_round(self) -> Round:
        t0 = perf_counter()
        try:
            lattices = list(self.C.generate_cu(self.max_n))
        except Exception as exc:
            _report(exc)
            return Round(perf_counter() - t0, attempted=self.count, failed=self.count)
        order = self.order if len(lattices) == self.count else range(len(lattices))
        records = [None] * len(lattices)
        item_ms = []
        failed = 0
        for i in order:
            s = perf_counter()
            try:
                records[i] = self.analyse(lattices[i])
            except Exception as exc:
                failed += 1
                if failed == 1:
                    _report(exc)
            item_ms.append((perf_counter() - s) * 1e3)
        wall = perf_counter() - t0
        return Round(wall, item_ms, max(self.count, len(lattices)), failed, records)

    def check(self, outputs) -> list[str]:
        records = [r for r in outputs if r is not None]
        problems = []
        if len(outputs) != self.count:
            problems.append(f"generate_cu gave {len(outputs)} lattices, "
                            f"Table 1 counts {self.count}")
        problems += checks.cu_counts(records, self.max_n)
        for r in records:
            problems += checks.cu_record(r)
            if r["con"] is not None:
                problems += [f"n={r['n']} {p}" for p in
                             checks.congruences(r["n"], r["up"], r["con"])]
                problems += checks.quotients_inherit(r)
        return problems


class ClosureSearch:
    """search_problem_6_1(4) in its two shipped settings, the canonical
    key of every Moore family on 4 points, and the `lattice biclosed`
    analysis of a seeded uniform sample of the Moore families on 5 points
    that search_problem_6_1(5) scans."""

    name = "closure-search"

    def __init__(self, C, seed: int, tiny: bool):
        self.C = C
        self.seed = seed
        self.m = 4 if tiny else 5
        self.size = 40 if tiny else 1500
        # The sample comes from the stream that search_problem_6_1(m) scans:
        # seeded distinct positions in moore_families(m), so every Moore
        # family on m points is equally likely to be drawn.
        picks = set(random.Random(seed).sample(
            range(checks.MOORE_FAMILIES[self.m]), self.size))
        self.sample = []
        self.stream_len = 0
        for fam in C.moore_families(self.m):
            if self.stream_len in picks:
                self.sample.append(fam)
            self.stream_len += 1

    def analyse(self, fam) -> dict:
        C = self.C
        m = self.m
        op = C.operator_from_family(m, fam)
        closed = C.closed_sets_lattice(op)
        p, got = C.biclosed_poset(op)
        out = {
            "table": op.table,
            "valid": bool(C.validate(op)),
            "closed_n": closed.n,
            "biclosed_n": p.n,
            "biclosed_lattice": isinstance(got, C.Lattice),
            "single_step": bool(C.is_single_step(op)),
            "key": C.canonical_family_key(m, fam),
        }
        for name, lat in (("closed", closed), ("biclosed", got)):
            cu = isinstance(lat, C.Lattice) and bool(C.is_congruence_uniform(lat))
            out[name + "_cu"] = cu
            out[name + "_spherical"] = C.is_spherical(lat) if cu else None
            out[name + "_clo_lattice"] = (
                bool(C.is_clo_lattice(C.core_label_order(C.label_covers(lat))))
                if cu else None
            )
        return out

    def run_round(self) -> Round:
        C = self.C
        count = len(self.sample)
        t0 = perf_counter()
        try:
            default = [C.closed_family(op) for op in C.search_problem_6_1(4)]
            relaxed = [C.closed_family(op)
                       for op in C.search_problem_6_1(4, require_single_step=False)]
            fams4 = list(C.moore_families(4))
            keys4 = [C.canonical_family_key(4, f) for f in fams4]
        except Exception as exc:
            _report(exc)
            return Round(perf_counter() - t0, attempted=count, failed=count)
        records = []
        item_ms = []
        failed = 0
        for fam in self.sample:
            s = perf_counter()
            try:
                records.append(self.analyse(fam))
            except Exception as exc:
                records.append(None)
                failed += 1
                if failed == 1:
                    _report(exc)
            item_ms.append((perf_counter() - s) * 1e3)
        wall = perf_counter() - t0
        outputs = {"default": default, "relaxed": relaxed, "fams4": fams4,
                   "keys4": keys4, "records": records}
        return Round(wall, item_ms, count, failed, outputs)

    def check(self, outputs) -> list[str]:
        C = self.C
        problems = checks.moore_sample(self.m, self.stream_len, self.sample, self.size)
        relaxed = outputs["relaxed"]
        relaxed_key = C.canonical_family_key(4, relaxed[0]) if len(relaxed) == 1 else None
        ex61_key = C.canonical_family_key(4, checks.closed_sets(4, checks.EX61_RULES))
        problems += checks.search(outputs["default"], relaxed, relaxed_key, ex61_key)
        problems += checks.moore_four(outputs["fams4"], outputs["keys4"])
        # Keys of relabelled families: every 4-point family, and every tenth
        # sampled one (a 5-point key costs 120 permutations).
        rng = random.Random(f"relabel-{self.seed}")
        maps4, maps = checks.perm_maps(4), checks.perm_maps(self.m)
        pairs = [(k, C.canonical_family_key(4, checks.relabel(f, rng.choice(maps4))))
                 for f, k in zip(outputs["fams4"], outputs["keys4"])]
        pairs += [(rec["key"],
                   C.canonical_family_key(self.m, checks.relabel(fam, rng.choice(maps))))
                  for fam, rec in list(zip(self.sample, outputs["records"]))[::10]
                  if rec is not None]
        problems += checks.relabelled_keys(pairs)
        for fam, rec in zip(self.sample, outputs["records"]):
            if rec is not None:
                problems += checks.operator_sample(self.m, fam, rec)
        return problems


WORKLOADS = {w.name: w for w in (Census, CuAnalysis, ClosureSearch)}
