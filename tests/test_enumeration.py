"""Isomorph-free lattice enumeration, the census table, the counterexample scan."""

from itertools import combinations, permutations

import pytest

from corelabel import (
    Lattice,
    as_lattice,
    canonical_key_poset,
    enumerate_lattices,
    from_covers,
    generate_cu,
    is_congruence_uniform,
    smallest_counterexample_scan,
    table1,
)
from corelabel import enumeration
from corelabel.enumeration import HARD_BOUND
from corelabel.fixtures import load_lattice

LATTICE_COUNTS = [1, 1, 1, 2, 5, 15, 53, 222]


def brute_lattice_count(n):
    """Count lattices on n labeled elements up to isomorphism, from scratch."""
    if n == 1:
        return 1
    inner = list(range(1, n - 1))
    seen = set()
    count = 0
    pairs = list(combinations(range(n), 2))
    for sub in range(1 << len(pairs)):
        rel = {(x, x) for x in range(n)}
        rel.update(p for i, p in enumerate(pairs) if sub >> i & 1)
        for x in range(1, n - 1):
            rel.add((0, x))
            rel.add((x, n - 1))
        rel.add((0, n - 1))
        if any((x, y) in rel and (y, z) in rel and (x, z) not in rel
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        ok = True
        for x in range(n):
            for y in range(x + 1, n):
                ub = [z for z in range(n) if (x, z) in rel and (y, z) in rel]
                mins = [z for z in ub if not any((w, z) in rel and w != z for w in ub)]
                if len(mins) != 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        key = min(
            tuple(sorted((p[x], p[y]) for x, y in rel if x != y))
            for p in [dict(zip((0, *c, n - 1), range(n)))
                      for c in permutations(inner)]
        ) if n > 2 else tuple(sorted(rel - {(x, x) for x in range(n)}))
        if key not in seen:
            seen.add(key)
            count += 1
    return count


def test_counts_match_brute_force():
    for n in range(1, 7):
        assert brute_lattice_count(n) == LATTICE_COUNTS[n - 1]


def test_counts_small(small_lattices):
    per_size = {}
    for lat in small_lattices:
        # enumerate_lattices builds each lattice from its arrays unchecked.
        assert isinstance(as_lattice(lat.poset), Lattice)
        per_size[lat.n] = per_size.get(lat.n, 0) + 1
    assert [per_size[n] for n in range(1, 9)] == LATTICE_COUNTS


def test_enumeration_is_isomorph_free(small_lattices):
    keys = [canonical_key_poset(lat.poset) for lat in small_lattices]
    assert len(keys) == len(set(keys))


def test_bound_guards():
    with pytest.raises(ValueError):
        list(enumerate_lattices(13))
    with pytest.raises(ValueError):
        list(enumerate_lattices(13, bound=HARD_BOUND + 1))
    assert list(enumerate_lattices(1, bound=HARD_BOUND))


# table1(7) as CSV rows n,l,c,s,S.
TABLE1_SEVEN = [
    "1,1,1,1,1",
    "2,1,1,1,1",
    "3,1,1,0,0",
    "4,2,2,1,1",
    "5,5,4,1,1",
    "6,15,9,2,2",
    "7,53,22,3,3",
]


def test_census_table_golden():
    rows = table1(7)
    assert [r.csv() for r in rows] == TABLE1_SEVEN
    for r in rows:
        assert r.spherical_clo_lattice <= r.spherical_cu
        assert r.spherical_cu <= r.congruence_uniform <= r.lattices


def test_survey_yields_each_row_once_its_size_completes(monkeypatch):
    stream = enumeration._iter_lattice_arrays
    sizes = []

    def recorded(max_n):
        for arrays in stream(max_n):
            sizes.append(arrays[0])
            yield arrays

    monkeypatch.setattr(enumeration, "_iter_lattice_arrays", recorded)
    rows = enumeration._survey(9)
    assert [next(rows).csv() for _ in range(7)] == TABLE1_SEVEN
    # Row 7 is complete at the first 8-element lattice, before any of 9.
    assert max(sizes) == 8 and sizes.count(8) == 1
    assert [r.csv() for r in rows] == ["8,222,60,8,8", "9,1078,174,17,16"]


def test_scan_finds_the_nine_element_counterexample():
    report = smallest_counterexample_scan(9)
    assert report.max_n == 9
    assert len(report.failures) == 1
    assert report.failures_at(8) == ()
    failure = report.failures_at(9)[0]
    assert failure.n == 9
    assert failure.key == canonical_key_poset(load_lattice("fig8a").poset)
    rebuilt = as_lattice(from_covers(9, failure.covers))
    assert isinstance(rebuilt, Lattice)
    assert canonical_key_poset(rebuilt.poset) == failure.key


def test_generation_agrees_with_filtered_enumeration(small_lattices):
    filtered = {
        canonical_key_poset(lat.poset)
        for lat in small_lattices
        if lat.n <= 7 and is_congruence_uniform(lat)
    }
    generated = {
        canonical_key_poset(lat.poset) for lat in generate_cu(7)
    }
    assert generated == filtered
