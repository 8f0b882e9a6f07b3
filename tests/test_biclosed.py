"""Closure operators, Moore families, biclosed sets, the Problem 6.1 search."""

import hashlib
import os
import random
import sys
from itertools import islice, permutations, zip_longest
from pathlib import Path

import pytest

from corelabel import (
    ClosureOperator,
    FormatError,
    Lattice,
    are_isomorphic,
    as_lattice,
    biclosed_family,
    biclosed_poset,
    canonical_family_key,
    closed_family,
    closed_sets_lattice,
    core_label_order,
    double_interval,
    is_clo_lattice,
    is_congruence_uniform,
    is_meet_semidistributive,
    is_single_step,
    label_covers,
    moore_families,
    operator_from_family,
    read_closure_text,
    search_problem_6_1,
    validate,
    write_closure_text,
)
from corelabel import biclosed
from corelabel.biclosed import MAX_GROUND, _containment_poset
from corelabel.bitsets import bits
from corelabel.fixtures import PROBLEM_61_HITS, load_closure, load_lattice, load_poset

extended = pytest.mark.skipif(
    not os.environ.get("CORELABEL_EXTENDED"),
    reason="set CORELABEL_EXTENDED=1 for the full five-point walks",
)


def test_four_point_fixture_families():
    op, names = load_closure("ex61")
    assert names == ["a", "b", "c", "d"]
    assert validate(op)
    closed = closed_family(op)
    assert len(closed) == 13
    assert closed == (0, 1, 2, 4, 8, 3, 6, 10, 12, 7, 11, 14, 15)
    assert biclosed_family(op) == (0, 1, 4, 8, 3, 12, 7, 11, 14, 15)


def test_four_point_fixture_structures():
    op, _ = load_closure("ex61")
    closed = closed_sets_lattice(op)
    assert are_isomorphic(closed.poset, load_lattice("fig9").poset)
    fam = closed_family(op)
    for i in range(closed.n):
        for k in range(closed.n):
            assert fam[closed.meet[i][k]] == fam[i] & fam[k]
    p, lat = biclosed_poset(op)
    assert isinstance(lat, Lattice)
    assert are_isomorphic(p, load_poset("fig10a"))
    assert are_isomorphic(p, double_interval(load_lattice("fig8a"), 6, 6).poset)


def test_four_point_fixture_single_step_failure():
    op, _ = load_closure("ex61")
    verdict = is_single_step(op)
    assert not verdict
    assert verdict.witness == (4, 7)


def test_validate_witnesses():
    table = list(range(4))
    table[1] = 0
    assert validate(ClosureOperator(2, table)).witness == ("extensive", 1)
    table = list(range(8))
    table[1] = 7
    op = ClosureOperator(3, table)
    v = validate(op)
    assert not v and v.witness[0] == "monotone"
    table = list(range(4))
    table[1] = 3
    table[3] = 3
    assert validate(ClosureOperator(2, table))
    table[3] = 1
    v = validate(ClosureOperator(2, table))
    assert not v


def test_moore_family_counts():
    assert sum(1 for _ in moore_families(1)) == 2
    assert sum(1 for _ in moore_families(2)) == 7
    assert sum(1 for _ in moore_families(3)) == 61
    assert sum(1 for _ in moore_families(4)) == 2480


def test_moore_families_refuse_ground_sizes_when_called():
    # Refused before a stream exists: no next() is needed to see the error.
    for m in (-1, MAX_GROUND + 1):
        with pytest.raises(ValueError, match=rf"outside 0\.\.{MAX_GROUND}\b"):
            moore_families(m)


def test_moore_families_against_brute_force():
    for m in range(1, 4):
        full = (1 << m) - 1
        brute = set()
        for sub in range(1 << (1 << m)):
            fam = frozenset(x for x in range(1 << m) if sub >> x & 1)
            if full not in fam:
                continue
            if all(a & b in fam for a in fam for b in fam):
                brute.add(fam)
        assert set(moore_families(m)) == brute


def test_operator_from_family_round_trip():
    for fam in moore_families(3):
        op = operator_from_family(3, fam)
        assert validate(op)
        assert set(closed_family(op)) == set(fam)
    with pytest.raises(ValueError):
        operator_from_family(2, [0, 1])


def test_family_members_outside_the_ground_set_are_refused():
    for fam in ([-1], [4], [0, 3, 4], [3, -1]):
        with pytest.raises(ValueError, match=r"family member -?\d+ outside 0\.\.3"):
            canonical_family_key(2, fam)
    for fam in ([3, 7, -2], [-1, 3], [0, 3, 4]):
        with pytest.raises(ValueError, match=r"family members must lie in 0\.\.3"):
            operator_from_family(2, fam)
    assert canonical_family_key(2, [0, 3]) == (0, 3)
    assert closed_family(operator_from_family(2, [0, 3])) == (0, 3)


def test_canonical_family_key():
    keys = {canonical_family_key(2, fam) for fam in moore_families(2)}
    assert len(keys) == 5
    fam = [0, 1, 3, 7]
    for perm in permutations(range(3)):
        img = [sum(1 << perm[b] for b in range(3) if x >> b & 1) for x in fam]
        assert canonical_family_key(3, img) == canonical_family_key(3, fam)


def test_biclosed_families_are_complement_closed():
    for fam in moore_families(3):
        op = operator_from_family(3, fam)
        bic = biclosed_family(op)
        assert all(7 ^ x in bic for x in bic)


def test_closure_text_round_trip_and_errors():
    op, names = load_closure("ex61")
    op2, names2 = read_closure_text(write_closure_text(op, names))
    assert op2 == op and names2 == names
    with pytest.raises(FormatError) as err:
        read_closure_text("a,b\na -> a,b\nnonsense\n")
    assert err.value.lineno == 3
    with pytest.raises(ValueError, match="not a closure operator"):
        read_closure_text("a,b\na,b -> a\n")


def test_search_is_empty_on_three_points():
    assert list(search_problem_6_1(3)) == []
    # Sizes whose walk cannot finish are refused at the call.
    for m in (6, 7):
        with pytest.raises(ValueError, match=f"ground size {m} above 5"):
            search_problem_6_1(m)


def test_search_without_single_step_rediscovers_the_fixture():
    hits = list(search_problem_6_1(4, require_single_step=False))
    assert len(hits) == 1
    op, _ = load_closure("ex61")
    assert canonical_family_key(4, closed_family(hits[0])) == canonical_family_key(
        4, closed_family(op)
    )


# Test-only references: the recursive Moore walk, the key that rebuilds a
# remap for every permutation, and the search that runs its filters once per
# Moore family.  The fast versions must agree with them exactly.

def reference_moore_families(m):
    full = (1 << m) - 1
    fam = [full]
    forced = bytearray(1 << m)

    def include(x):
        marked = []
        for y in fam:
            r = x & y
            if r != x and not forced[r]:
                forced[r] = 1
                marked.append(r)
        fam.append(x)
        return marked

    def undo(marked):
        fam.pop()
        for r in marked:
            forced[r] = 0

    def rec(x):
        if x < 0:
            yield frozenset(fam)
            return
        if forced[x]:
            marked = include(x)
            yield from rec(x - 1)
            undo(marked)
            return
        yield from rec(x - 1)
        marked = include(x)
        yield from rec(x - 1)
        undo(marked)

    yield from rec(full - 1)


def reference_family_key(m, fam):
    fs = sorted(fam)
    best = None
    for perm in permutations(range(m)):
        remap = [0] * (1 << m)
        for x in range(1 << m):
            y = 0
            for b in bits(x):
                y |= 1 << perm[b]
            remap[x] = y
        img = tuple(sorted(remap[f] for f in fs))
        if best is None or img < best:
            best = img
    return best


def reference_search(m, require_single_step=True):
    # Keys through canonical_family_key, which is compared with
    # reference_family_key on its own below.
    full = (1 << m) - 1
    seen = set()
    for fam in reference_moore_families(m):
        members = set(fam)
        bic = [x for x in members if full ^ x in members]
        bic.sort(key=lambda x: (x.bit_count(), x))
        if not bic:
            continue
        lat = as_lattice(_containment_poset(tuple(bic)))
        if not isinstance(lat, Lattice) or not is_congruence_uniform(lat):
            continue
        if not is_meet_semidistributive(lat):
            continue
        if lat.poset.mobius(lat.bottom, lat.top) == 0:
            continue
        if is_clo_lattice(core_label_order(label_covers(lat))):
            continue
        if require_single_step:
            members_set = set(bic)
            ok = all(
                any(x | (1 << e) in members_set for e in bits(y & ~x))
                for i, x in enumerate(bic)
                for y in bic[i + 1:]
                if not (x & ~y or x == y)
            )
            if not ok:
                continue
        key = canonical_family_key(m, fam)
        if key in seen:
            continue
        seen.add(key)
        yield operator_from_family(m, key)


def relabel_family(fam, perm):
    return [sum(1 << perm[b] for b in bits(x)) for x in fam]


def random_moore_family(rng, m):
    """A seeded Moore family: random subsets closed under intersection."""
    full = (1 << m) - 1
    fam = {full}
    for x in rng.sample(range(full), rng.randint(0, full)):
        fam |= {x & y for y in fam}
    return frozenset(fam)


@pytest.mark.parametrize("m", range(5))
def test_moore_stream_order_matches_the_recursive_walk(m):
    assert list(moore_families(m)) == list(reference_moore_families(m))


def test_moore_tail_tables_are_kept_across_calls():
    # The completions below the cut-off are keyed by the cut-off and the
    # state, so walks of every ground size share them and a second walk
    # builds none.
    biclosed._moore_tails.cache_clear()
    first = [list(moore_families(m)) for m in range(5)]
    built = biclosed._moore_tails.cache_info().misses
    assert [list(moore_families(m)) for m in range(5)] == first
    assert biclosed._moore_tails.cache_info().misses == built


def test_moore_stream_prefix_on_five_points():
    n = 40_000
    assert list(islice(moore_families(5), n)) == list(
        islice(reference_moore_families(5), n)
    )


# The five-point stream, pinned by a SHA-256 computed from the plain
# depth-first walk (the order of reference_moore_families): each family's
# sorted members as bytes, followed by 0xff.
MOORE_5_COUNT = 1_385_552
MOORE_5_DIGEST = "5f4c5c9ed565d9ab9a9435a4b13b55b1d950c17807a240cd2cd675265fc0323a"


def test_moore_stream_on_five_points_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for fam in moore_families(5):
        count += 1
        digest.update(bytes(sorted(fam)) + b"\xff")
    assert count == MOORE_5_COUNT
    assert digest.hexdigest() == MOORE_5_DIGEST


@extended
def test_moore_stream_on_five_points_matches_the_recursive_walk():
    # Streamed on both sides; the members' iteration order must agree too.
    pairs = zip_longest(moore_families(5), reference_moore_families(5))
    for i, (got, want) in enumerate(pairs):
        assert got == want and list(got) == list(want), i
    assert i + 1 == MOORE_5_COUNT


def test_family_keys_match_the_permutation_loop():
    rng = random.Random(61)
    for m in range(5):
        for fam in moore_families(m):
            key = reference_family_key(m, fam)
            assert canonical_family_key(m, fam) == key
            perm = list(range(m))
            rng.shuffle(perm)
            assert canonical_family_key(m, relabel_family(fam, perm)) == key
    assert canonical_family_key(3, []) == reference_family_key(3, []) == ()


@pytest.mark.parametrize("m, count", [(5, 150), (6, 20), (7, 2)])
def test_family_keys_match_on_a_seeded_sample(m, count):
    rng = random.Random(m)
    for _ in range(count):
        fam = random_moore_family(rng, m)
        key = reference_family_key(m, fam)
        assert canonical_family_key(m, fam) == key
        perm = list(range(m))
        rng.shuffle(perm)
        assert canonical_family_key(m, relabel_family(fam, perm)) == key


@pytest.mark.parametrize("flags", [
    {"m": m, "require_single_step": single_step}
    for single_step in (True, False) for m in range(5)
])
def test_search_matches_the_per_family_loop(flags):
    got = [op.table for op in search_problem_6_1(**flags)]
    assert got == [op.table for op in reference_search(**flags)]


def test_search_filters_each_biclosed_family_once(monkeypatch):
    fams = []
    build = biclosed._containment_poset

    def recorded(fam):
        fams.append(fam)
        return build(fam)

    monkeypatch.setattr(biclosed, "_containment_poset", recorded)
    distinct = {
        frozenset(x for x in fam if 15 ^ x in fam) for fam in moore_families(4)
    }
    assert len(distinct) == 122
    for require_single_step in (True, False):
        fams.clear()
        list(search_problem_6_1(4, require_single_step=require_single_step))
        # Every distinct nonempty biclosed family is built once.
        assert len(fams) == len(set(fams)) == 121


def test_single_step_kernel_is_shared(monkeypatch):
    calls = []
    kernel = biclosed._single_step_witness

    def counted(bic):
        calls.append(tuple(bic))
        return kernel(bic)

    monkeypatch.setattr(biclosed, "_single_step_witness", counted)
    op, _ = load_closure("ex61")
    assert is_single_step(op).witness == (4, 7)
    assert calls == [biclosed_family(op)]
    assert list(search_problem_6_1(4)) == [] and len(calls) > 1


def _recheck61():
    """bench/recheck61.py: the Problem 6.1 verdicts derived without corelabel."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import recheck61
    finally:
        sys.path.remove(bench)
    return recheck61


@pytest.mark.parametrize("name, size", PROBLEM_61_HITS)
def test_problem_6_1_hits_on_five_points(name, size):
    op, names = load_closure(name)
    assert names == ["a", "b", "c", "d", "e"]
    # The fixture is the operator search61 prints: the canonical relabeling.
    closed = closed_family(op)
    assert canonical_family_key(5, closed) == tuple(sorted(closed))
    p, lat = biclosed_poset(op)
    assert isinstance(lat, Lattice) and lat.n == size
    cu = bool(is_congruence_uniform(lat))
    mu = lat.poset.mobius(lat.bottom, lat.top)
    spherical = bool(is_meet_semidistributive(lat)) and mu != 0
    single_step = bool(is_single_step(op))
    clo_lattice = bool(is_clo_lattice(core_label_order(label_covers(lat))))
    assert cu and mu == (1 if size == 22 else -1) and spherical and single_step
    assert not clo_lattice
    assert _recheck61().verdicts(5, list(op.table)) == {
        "n": size, "lattice": True, "cu": cu, "spherical": spherical,
        "single_step": single_step, "clo_lattice": clo_lattice,
    }


def test_problem_6_1_hits_are_pairwise_distinct():
    keys = {canonical_family_key(5, closed_family(load_closure(name)[0]))
            for name, _ in PROBLEM_61_HITS}
    assert len(keys) == len(PROBLEM_61_HITS)


@extended
def test_search_on_five_points_prints_the_fixtures_in_order():
    got = [op.table for op in search_problem_6_1(5)]
    assert got == [load_closure(name)[0].table for name, _ in PROBLEM_61_HITS]
