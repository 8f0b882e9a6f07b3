"""Tests of the benchmark itself: every check rejects a corrupted answer,
and every workload passes all its checks at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corelabel as C  # noqa: E402
import tracing  # noqa: E402
from corelabel.fixtures import load_closure  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

# The square 0 < 1, 2 < 3 and its four congruences as class arrays.
SQUARE_UP = (0b1111, 0b1010, 0b1100, 0b1000)
SQUARE_CON = [(0, 1, 2, 3), (0, 0, 2, 2), (0, 1, 0, 1), (0, 0, 0, 0)]


def test_census_rejects_a_row_off_by_one():
    rows = [(n, *checks.TABLE1[n]) for n in range(1, 11)]
    assert checks.census(rows, 10) == []
    bad = list(rows)
    bad[8] = (9, 1079, 174, 17, 16)
    assert checks.census(bad, 10)
    assert checks.census(rows[:-1], 10)


def test_cu_counts_reject_a_wrong_column():
    records = []
    for n in range(1, 8):
        c, s, big_s = checks.TABLE1[n][1:]
        for k in range(c):
            records.append({"n": n, "spherical": k < s, "clo_lattice": k < big_s})
    assert checks.cu_counts(records, 7) == []
    records[-1] = dict(records[-1], spherical=True, clo_lattice=True)
    assert checks.cu_counts(records, 7)
    assert checks.cu_counts(records[:-1], 7)


def test_congruences_reject_a_dropped_or_false_congruence():
    assert checks.congruences(4, SQUARE_UP, SQUARE_CON) == []
    for k in range(4):
        dropped = SQUARE_CON[:k] + SQUARE_CON[k + 1:]
        assert checks.congruences(4, SQUARE_UP, dropped), k
    # Collapsing 0 with 1 alone is not join-compatible.
    assert checks.congruences(4, SQUARE_UP, SQUARE_CON + [(0, 0, 2, 3)])
    assert checks.congruences(4, SQUARE_UP, SQUARE_CON + [SQUARE_CON[1]])


def test_congruences_agree_with_the_program_on_small_cu_lattices():
    for lat in C.generate_cu(7):
        cons = [t.cls for t in C.congruence_lattice(lat).congruences]
        up = tuple(lat.poset.up)
        assert checks.congruences(lat.n, up, cons) == []
        if len(cons) > 2:
            assert checks.congruences(lat.n, up, cons[:1] + cons[2:])


def test_congruences_reject_a_lattice_that_is_not_cu():
    # M3 has three atoms whose principal congruences coincide.
    m3 = C.as_lattice(C.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
    cons = [t.cls for t in C.congruence_lattice(m3).congruences]
    assert checks.congruences(5, tuple(m3.poset.up), cons)


def test_quotient_inheritance_rejects_a_non_lattice_quotient():
    rec = {"n": 6, "clo_lattice": True, "quotient_clo": (True, True)}
    assert checks.quotients_inherit(rec) == []
    assert checks.quotients_inherit(dict(rec, quotient_clo=(True, False)))
    assert checks.quotients_inherit(dict(rec, clo_lattice=False,
                                         quotient_clo=(False,))) == []


def _ex61():
    return checks.closed_sets(4, checks.EX61_RULES)


def test_ex61_rules_match_the_bundled_fixture():
    op, _ = load_closure("ex61")
    assert frozenset(C.closed_family(op)) == _ex61()


def test_search_check_rejects_wrong_hits():
    ex61 = _ex61()
    key = C.canonical_family_key(4, ex61)
    assert checks.search([], [tuple(ex61)], key, key) == []
    assert checks.search([tuple(ex61)], [tuple(ex61)], key, key)
    assert checks.search([], [], key, key)
    other = frozenset(range(16))
    assert checks.search([], [tuple(other)], C.canonical_family_key(4, other), key)
    # A relabelled ex61 is still ex61.
    relabelled = checks.relabel(ex61, checks.perm_maps(4)[5])
    assert checks.search([], [tuple(relabelled)], key, key) == []


def test_moore_check_rejects_a_missing_family_or_merged_keys():
    fams = [frozenset(f) for f in C.moore_families(4)]
    keys = [C.canonical_family_key(4, f) for f in fams]
    assert checks.moore_four(fams, keys) == []
    assert checks.moore_four(fams[:-1], keys[:-1])
    merged = [keys[0] if k == keys[-1] else k for k in keys]
    assert checks.moore_four(fams, merged)


def test_relabelled_keys_reject_a_changed_key():
    assert checks.relabelled_keys([((1, 2), (1, 2))]) == []
    assert checks.relabelled_keys([((1, 2), (1, 2)), ((1, 2), (1, 3))])


def test_single_step_oracle():
    ex61 = _ex61()
    table = C.operator_from_family(4, ex61).table
    assert checks.single_step(4, table) is False
    assert checks.single_step(3, list(range(8))) is True
    for fam in list(C.moore_families(3)):
        op = C.operator_from_family(3, fam)
        assert checks.single_step(3, op.table) == bool(C.is_single_step(op))


def test_lattice_facts_on_small_orders():
    boolean = checks.family_facts(range(8))
    assert boolean == {"lattice": True, "cu": True, "spherical": True, "defect": 0,
                       "nexus": 8, "clo_meet_semilattice": True,
                       "clo_lattice": True, "intersection": True}
    # A three-element chain is CU, but mu(0, 1) = 0.
    assert checks.family_facts([0, 1, 3])["spherical"] is False
    assert checks.family_facts([0, 1, 2, 7, 11, 15]) == {"lattice": False}
    assert checks.family_facts([]) == {"lattice": False}
    m3 = C.as_lattice(C.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
    assert checks.lattice_facts(5, tuple(m3.poset.up)) == {"lattice": True, "cu": False}


def test_lattice_facts_agree_with_the_program_on_small_cu_lattices():
    wl = WORKLOADS["cu-analysis"](C, 0, True)
    for lat in C.generate_cu(8):
        rec = wl.analyse(lat)
        assert checks.cu_record(rec) == [], rec
        # The facts do not depend on how the elements are numbered.
        rev = [lat.n - 1 - x for x in range(lat.n)]
        up = [0] * lat.n
        for x in range(lat.n):
            up[rev[x]] = sum(1 << rev[k] for k in checks.bits(lat.poset.up[x]))
        assert checks.cu_record(dict(rec, up=tuple(up))) == []


def test_cu_record_rejects_a_wrong_field():
    lat = C.as_lattice(C.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    rec = WORKLOADS["cu-analysis"](C, 0, True).analyse(lat)
    assert checks.cu_record(rec) == []
    for field in checks.CU_FIELDS:
        value = rec[field]
        wrong = value + 1 if type(value) is int else not value
        assert checks.cu_record(dict(rec, **{field: wrong})), field
    m3 = C.as_lattice(C.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
    assert checks.cu_record(dict(rec, n=5, up=tuple(m3.poset.up)))


def test_operator_sample_rejects_a_wrong_answer():
    wl = WORKLOADS["closure-search"](C, 0, True)
    # The second family is a five-point Problem 6.1 candidate (a..e are
    # bits 0..4): bcd -> abcd, bce -> abce, bde -> abde, cde -> acde,
    # bcde -> abcde.
    rules = {14: 15, 22: 23, 26: 27, 28: 29, 30: 31}
    for m, fam in ((3, frozenset({0, 1, 2, 3, 7})),
                   (5, frozenset(x for x in range(32) if rules.get(x, x) == x))):
        wl.m = m
        out = wl.analyse(fam)
        assert checks.operator_sample(m, fam, out) == []
        assert checks.operator_sample(m, fam, dict(out, closed_n=out["closed_n"] + 1))
        assert checks.operator_sample(m, fam, dict(out, single_step=not out["single_step"]))
        for name in ("closed", "biclosed"):
            cu = out[name + "_cu"]
            assert checks.operator_sample(m, fam, dict(out, **{name + "_cu": not cu}))
            for field in ("_spherical", "_clo_lattice"):
                if cu:
                    flipped = dict(out, **{name + field: not out[name + field]})
                    assert checks.operator_sample(m, fam, flipped), name + field
    assert (out["biclosed_cu"], out["biclosed_spherical"],
            out["biclosed_clo_lattice"]) == (True, True, False)
    assert checks.is_moore_family(3, {0, 1, 2, 7})
    assert not checks.is_moore_family(3, {1, 2, 7})


def test_moore_sample_rejects_a_short_stream_or_repeats():
    wl = WORKLOADS["closure-search"](C, 5, True)
    assert wl.stream_len == checks.MOORE_FAMILIES[4] and len(wl.sample) == wl.size
    assert checks.moore_sample(4, wl.stream_len, wl.sample, wl.size) == []
    assert checks.moore_sample(4, wl.stream_len - 1, wl.sample, wl.size)
    assert checks.moore_sample(4, wl.stream_len, wl.sample[:-1] + wl.sample[:1], wl.size)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_every_check(name):
    wl = WORKLOADS[name](C, 7, True)
    first = wl.run_round()
    assert isinstance(first, Round) and first.failed == 0
    assert wl.check(first.outputs) == []
    assert wl.run_round().outputs == first.outputs


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "end_to_end" if trace == "0" else "per_layer"
    done = _run(ROOT, "--workload", "cu-analysis", "--seed", "3", "--seconds",
                "1", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_tracer_restores_every_function():
    before = {(m, a): getattr(sys.modules["corelabel." + m], a.split(".")[0])
              for m, a, _, _ in tracing.SPANS}
    uninstall = tracing.Tracer().install()
    uninstall()
    after = {(m, a): getattr(sys.modules["corelabel." + m], a.split(".")[0])
             for m, a, _, _ in tracing.SPANS}
    assert after == before
    assert "__wrapped__" not in vars(C.Poset)["mobius"].__dict__


def test_recheck61_confirms_a_candidate_and_rejects_ex61():
    import recheck61

    # A five-point operator that search_problem_6_1(5) reports (a..e are
    # bits 0..4): bcd -> abcd, bce -> abce, bde -> abde, cde -> acde,
    # bcde -> abcde.
    rules = {14: 15, 22: 23, 26: 27, 28: 29, 30: 31}
    got = recheck61.verdicts(5, [rules.get(x, x) for x in range(32)])
    assert got == {"n": 22, "lattice": True, "cu": True, "spherical": True,
                   "single_step": True, "clo_lattice": False}
    # ex61's biclosed lattice (fig10a) fails only the single-step test.
    ex61 = recheck61.verdicts(4, [checks.EX61_RULES.get(x, x) for x in range(16)])
    assert ex61["cu"] and ex61["spherical"] and ex61["clo_lattice"] is False
    assert not ex61["single_step"]
