"""Acceptance gate: one test per shipped claim, with a printed verdict line."""

import os
import time

import pytest

from corelabel import (
    Lattice,
    are_isomorphic,
    as_lattice,
    biclosed_family,
    biclosed_poset,
    boolean_defect,
    canonical_family_key,
    canonical_key_poset,
    closed_family,
    closed_sets_lattice,
    core_label_order,
    double_interval,
    enumerate_lattices,
    from_covers,
    gamma,
    generate_cu,
    has_intersection_property,
    is_clo_lattice,
    is_clo_meet_semilattice,
    is_congruence_uniform,
    is_single_step,
    is_spherical,
    label_covers,
    search_problem_6_1,
    smallest_counterexample_scan,
)
from corelabel.cli import main
from corelabel.fixtures import load_closure, load_lattice
from suites import CRITERION_CHECKS, check_crosscut_consistency
from test_concept_kernels import reference_canonical_join_representation

TABLE1_CSV_11 = [
    "1,1,1,1,1",
    "2,1,1,1,1",
    "3,1,1,0,0",
    "4,2,2,1,1",
    "5,5,4,1,1",
    "6,15,9,2,2",
    "7,53,22,3,3",
    "8,222,60,8,8",
    "9,1078,174,17,16",
    "10,5994,534,45,41",
    "11,37622,1720,123,107",
]

PSI_LINES_FIG7A = [
    "Psi(0) = {}",
    "Psi(1) = {1}",
    "Psi(2) = {2}",
    "Psi(3) = {3}",
    "Psi(4) = {1,2}",
    "Psi(5) = {4}",
    "Psi(6) = {5}",
    "Psi(7) = {6}",
    "Psi(8) = {7}",
    "Psi(9) = {2,3,5,6}",
    "Psi(10) = {1,4,6,7}",
    "Psi(11) = {3,4}",
]

B3_COVERS = [
    (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6),
    (3, 5), (3, 6), (4, 7), (5, 7), (6, 7),
]


def test_criterion_1_census_through_eleven(capsys):
    start = time.perf_counter()
    rc = main(["table1", "--max-n", "11"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0
    csv = out.splitlines()[out.splitlines().index("n,l,c,s,S") + 1:]
    assert csv == TABLE1_CSV_11
    assert elapsed < 300, f"census through n=11 took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\ncriterion 1: PASS - census exact through n=11 in {elapsed:.1f}s")


@pytest.mark.skipif(
    not os.environ.get("CORELABEL_EXTENDED"),
    reason="set CORELABEL_EXTENDED=1 for the n=12 census (several minutes)",
)
def test_criterion_1_extended_census(capsys):
    start = time.perf_counter()
    rc = main(["table1", "--max-n", "12", "--extended"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0
    csv = out.splitlines()[out.splitlines().index("n,l,c,s,S") + 1:]
    assert csv == TABLE1_CSV_11 + ["12,262776,5767,367,304"]
    assert elapsed < 1800, f"census through n=12 took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\ncriterion 1 (extended): PASS - n=12 row exact in {elapsed:.1f}s")


def test_criterion_2_twelve_element_fixture(capsys):
    rc = main(["clo", "fig7a.lat"])
    out = capsys.readouterr().out
    assert rc == 0
    psi_lines = [line for line in out.splitlines() if line.startswith("Psi(")]
    assert psi_lines == PSI_LINES_FIG7A
    lat = load_lattice("fig7a")
    assert lat.poset.mobius(lat.bottom, lat.top) == 0
    clo = core_label_order(label_covers(lat))
    assert is_clo_meet_semilattice(clo)
    verdict = is_clo_lattice(clo)
    assert not verdict and verdict.witness == "no greatest element"
    assert clo.poset.maximals() == [4, 9, 10, 11]
    with capsys.disabled():
        print(
            "\ncriterion 2: PASS - twelve label sets verbatim, meet-semilattice "
            "without greatest element, vanishing Mobius value, "
            "four maximal elements (4, 9, 10, 11)"
        )


@pytest.mark.xfail(
    strict=True,
    reason="the fixture's label order has four maximal elements, not two",
)
def test_criterion_2_maximal_count_as_stated():
    lat = load_lattice("fig7a")
    clo = core_label_order(label_covers(lat))
    assert len(clo.poset.maximals()) == 2


def test_criterion_3_doubled_cube_and_scan(capsys):
    cube = as_lattice(from_covers(8, B3_COVERS))
    assert isinstance(cube, Lattice)
    doubled = double_interval(cube, 1, 1)
    assert doubled.n == 9
    assert is_congruence_uniform(doubled)
    assert is_spherical(doubled)
    cl = label_covers(doubled)
    assert boolean_defect(cl) == 3
    assert not is_clo_lattice(core_label_order(cl))
    fixture = load_lattice("fig8a")
    assert are_isomorphic(doubled.poset, fixture.poset)

    report = smallest_counterexample_scan(9)
    assert all(report.failures_at(n) == () for n in range(1, 9))
    failures = report.failures_at(9)
    assert len(failures) == 1 and len(report.failures) == 1
    assert failures[0].key == canonical_key_poset(fixture.poset)
    with capsys.disabled():
        print(
            "\ncriterion 3: PASS - doubled cube matches the fixture; "
            "scan finds exactly one failure, at nine elements"
        )


def test_criterion_4_four_point_closure(capsys):
    op, names = load_closure("ex61")
    assert names == ["a", "b", "c", "d"]
    assert len(closed_family(op)) == 13
    assert are_isomorphic(closed_sets_lattice(op).poset, load_lattice("fig9").poset)
    assert len(biclosed_family(op)) == 10
    p, lat = biclosed_poset(op)
    assert isinstance(lat, Lattice)
    assert is_congruence_uniform(lat)
    assert is_spherical(lat)
    doubled = double_interval(load_lattice("fig8a"), 6, 6)
    assert are_isomorphic(p, doubled.poset)
    step = is_single_step(op)
    assert not step and step.witness == (4, 7)
    assert not is_clo_lattice(core_label_order(label_covers(lat)))
    with capsys.disabled():
        print(
            "\ncriterion 4: PASS - thirteen closed and ten biclosed sets, "
            "spherical uniform lattice, single-step fails at {c} < {a,b,c}, "
            "label order is not a lattice"
        )


def test_criterion_5_theorem_suites(capsys, labeled_corpus):
    start = time.perf_counter()
    failures = []
    for name, fn in CRITERION_CHECKS:
        bad = fn(labeled_corpus)
        if bad:
            failures.append((name, bad[:3]))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 120, f"theorem suites took {elapsed:.1f}s"
    with capsys.disabled():
        print(
            f"\ncriterion 5: PASS - {len(CRITERION_CHECKS)} corpus properties, "
            f"zero violations in {elapsed:.1f}s"
        )


def test_criterion_6_oracle_equivalence(capsys, small_lattices, labeled_corpus):
    for lat, cl, _ in labeled_corpus:
        for x in range(lat.n):
            assert gamma(cl, x) == reference_canonical_join_representation(lat, x)

    assert check_crosscut_consistency(small_lattices) == []

    filtered = {
        canonical_key_poset(lat.poset)
        for n in range(1, 10)
        for lat in enumerate_lattices(n)
        if is_congruence_uniform(lat)
    }
    generated = {canonical_key_poset(lat.poset) for lat in generate_cu(9)}
    assert generated == filtered
    with capsys.disabled():
        print(
            "\ncriterion 6: PASS - labels match canonical joins, crosscuts "
            "match the Mobius recursion, generation matches filtered enumeration"
        )


def test_criterion_7_search_terminates(capsys):
    start = time.perf_counter()
    assert list(search_problem_6_1(4)) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"four-point search took {elapsed:.1f}s"

    hits = list(search_problem_6_1(4, require_single_step=False))
    assert len(hits) == 1
    op, _ = load_closure("ex61")
    assert canonical_family_key(4, closed_family(hits[0])) == canonical_family_key(
        4, closed_family(op)
    )
    with capsys.disabled():
        print(
            f"\ncriterion 7: PASS - four-point search verified empty in "
            f"{elapsed:.2f}s; dropping single-step rediscovers the fixture"
        )
