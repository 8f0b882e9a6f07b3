"""Cover congruences, Con(L), quotients, kernels."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from corelabel import (
    Congruence,
    are_isomorphic,
    as_lattice,
    cg,
    cg_join_irreducible,
    congruence_lattice,
    from_covers,
    identity_congruence,
    is_congruence_uniform,
    join_irreducibles,
    kernel_irreducibles,
    quotient,
    run_intervals,
)
from corelabel import congruence
from corelabel.bitsets import bits, lowest
from corelabel.congruence import CongruenceLattice, _cg_classes
from corelabel.fixtures import load_lattice


def boolean2():
    got = as_lattice(from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    return got


def test_cg_golden_on_the_pentagon():
    n5 = load_lattice("fig2a")
    theta = cg(n5, 1, 3)
    assert theta.classes() == [[0], [1, 3], [2], [4]]
    assert cg(n5, 3, 1) == theta
    assert theta.collapses(1, 3) and not theta.collapses(0, 2)


def test_cg_rejects_non_covers():
    n5 = load_lattice("fig2a")
    with pytest.raises(ValueError):
        cg(n5, 0, 4)
    with pytest.raises(ValueError):
        cg(n5, 1, 1)


def test_cg_join_irreducible():
    n5 = load_lattice("fig2a")
    assert cg_join_irreducible(n5, 3) == cg(n5, 1, 3)
    with pytest.raises(ValueError):
        cg_join_irreducible(n5, 4)
    with pytest.raises(ValueError):
        cg_join_irreducible(n5, 0)


def test_congruence_validation():
    n5 = load_lattice("fig2a")
    with pytest.raises(ValueError):
        Congruence(n5, (0, 0, 0))
    with pytest.raises(ValueError):
        Congruence(n5, (0, 1, 2, 3, 3))
    with pytest.raises(ValueError):
        Congruence(n5, (0, 1, 1, 3, 4))
    with pytest.raises(ValueError):
        Congruence(n5, (0, 0, 2, 3, 4))


def test_congruence_lattice_of_the_pentagon():
    n5 = load_lattice("fig2a")
    con = congruence_lattice(n5)
    assert len(con.congruences) == 5
    parts = [theta.classes() for theta in con.congruences]
    assert parts == [
        [[0], [1], [2], [3], [4]],
        [[0], [1, 3], [2], [4]],
        [[0, 1, 3], [2, 4]],
        [[0, 2], [1, 3, 4]],
        [[0, 1, 2, 3, 4]],
    ]
    assert con.lattice.n == 5


def test_congruence_lattice_sizes():
    assert len(congruence_lattice(load_lattice("fig1a")).congruences) == 2
    assert len(congruence_lattice(boolean2()).congruences) == 4


def test_identity_and_full_congruences():
    n5 = load_lattice("fig2a")
    ident = identity_congruence(n5)
    assert ident.num_classes() == 5
    full = Congruence(n5, (0,) * 5)
    assert full.num_classes() == 1
    assert ident.refines(full) and not full.refines(ident)
    for theta in congruence_lattice(n5).congruences:
        assert ident.refines(theta) and theta.refines(full)


def test_quotient_golden():
    n5 = load_lattice("fig2a")
    q, proj = quotient(n5, cg(n5, 1, 3))
    assert q.n == 4
    assert proj == [0, 1, 2, 1, 3]
    assert are_isomorphic(q.poset, boolean2().poset)


def test_quotient_by_identity_and_full():
    n5 = load_lattice("fig2a")
    q, proj = quotient(n5, identity_congruence(n5))
    assert q.poset == n5.poset and proj == [0, 1, 2, 3, 4]
    q, proj = quotient(n5, Congruence(n5, (0,) * 5))
    assert q.n == 1 and proj == [0] * 5


def test_quotient_rejects_foreign_congruence():
    n5 = load_lattice("fig2a")
    other = load_lattice("fig1a")
    theta = identity_congruence(other)
    with pytest.raises(ValueError):
        quotient(n5, theta)


def test_kernel_irreducibles():
    n5 = load_lattice("fig2a")
    assert kernel_irreducibles(n5, cg(n5, 1, 3)) == [3]
    assert kernel_irreducibles(n5, identity_congruence(n5)) == []
    assert kernel_irreducibles(n5, Congruence(n5, (0,) * 5)) == [1, 2, 3]


def test_cg_is_finest_collapsing_congruence():
    for name in ("fig2a", "fig7a", "fig8a"):
        lat = load_lattice(name)
        con = congruence_lattice(lat).congruences
        for x, y in lat.poset.covers:
            theta = cg(lat, x, y)
            for other in con:
                if other.collapses(x, y):
                    assert theta.refines(other)


def test_uniformity_verdicts():
    assert is_congruence_uniform(load_lattice("fig2a"))
    assert is_congruence_uniform(load_lattice("fig8a"))
    m3 = is_congruence_uniform(load_lattice("fig1a"))
    assert not m3 and m3.witness == ("join", 1, 2)
    fig5 = is_congruence_uniform(load_lattice("fig5"))
    assert not fig5 and fig5.witness == ("join", 3, 5)


# References for the two kernels: Con(L) as the fixpoint of joins with the
# cover congruences, compared pairwise by refinement, and the CU test that
# closes the meet side always.  The fast kernels must agree byte for byte:
# congruence indices, Con(L) element order and witnesses are all output.


def reference_congruence_lattice(lat):
    n = lat.n
    gens = []
    for ji in join_irreducibles(lat):
        arr = _cg_classes(n, lat.poset.up, lat.poset.down, ((ji.j_star, ji.j),))
        if arr not in gens:
            gens.append(arr)
    known = {tuple(range(n))} | set(gens)
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                pairs = [(i, a[i]) for i in range(n) if a[i] != i]
                pairs += [(i, g[i]) for i in range(n) if g[i] != i]
                j = _cg_classes(n, lat.poset.up, lat.poset.down, tuple(pairs))
                if j not in known:
                    known.add(j)
                    fresh.append(j)
        frontier = fresh
    ordered = sorted(known, key=lambda arr: (-len(set(arr)), arr))
    congruences = tuple(Congruence(lat, arr) for arr in ordered)
    edges = [
        (i, k)
        for i, ci in enumerate(congruences)
        for k, ck in enumerate(congruences)
        if i != k and ci.refines(ck)
    ]
    conlat = as_lattice(from_covers(len(ordered), edges))
    return CongruenceLattice(conlat, congruences)


def reference_cu_witness(lat):
    n, up, down = lat.n, lat.poset.up, lat.poset.down
    for side, covers in (("join", lat.poset.lower), ("meet", lat.poset.upper)):
        seen = {}
        for e in range(n):
            c = covers[e]
            if c and c & (c - 1) == 0:
                pair = (lowest(c), e) if side == "join" else (e, lowest(c))
                arr = _cg_classes(n, up, down, (pair,))
                if arr in seen:
                    return (side, seen[arr], e)
                seen[arr] = e
    return None


def assert_matches_reference(lat):
    got, ref = congruence_lattice(lat), reference_congruence_lattice(lat)
    assert [t.cls for t in got.congruences] == [t.cls for t in ref.congruences]
    assert got.lattice.poset.up == ref.lattice.poset.up
    assert is_congruence_uniform(lat).witness == reference_cu_witness(lat)


def test_kernels_match_the_references_on_small_lattices(small_lattices):
    for lat in small_lattices:
        assert_matches_reference(lat)


def test_kernels_match_the_references_on_the_cu_corpus(cu_corpus):
    for lat in cu_corpus:
        assert_matches_reference(lat)


@st.composite
def doubling_scripts(draw, max_n=9):
    # Interval endpoints valid for the lattice each step doubles.
    lat = as_lattice(from_covers(1, []))
    pairs = []
    while draw(st.booleans()):
        a = draw(st.integers(0, lat.n - 1))
        b = draw(st.sampled_from(list(bits(lat.poset.up[a]))))
        size = (lat.poset.up[a] & lat.poset.down[b]).bit_count()
        if lat.n + size > max_n:
            break
        pairs.append((a, b))
        _, lat = run_intervals(pairs)
    return pairs


@settings(deadline=None, max_examples=60)
@given(doubling_scripts())
def test_kernels_match_the_references_on_doublings(pairs):
    _, lat = run_intervals(pairs)
    assert_matches_reference(lat)


def count_closures(monkeypatch):
    calls = []
    kernel = congruence._cg_classes

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(congruence, "_cg_classes", counted)
    return calls


def test_meet_side_runs_when_irreducible_counts_differ(monkeypatch):
    # The join map is injective on |J| = 3, but |M| = 4, so two
    # meet-irreducibles must share a congruence.
    lat = as_lattice(from_covers(
        7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (4, 6), (5, 6)]
    ))
    calls = count_closures(monkeypatch)
    got = is_congruence_uniform(lat)
    assert not got and got.witness == ("meet", 2, 3)
    assert len(calls) == 3 + 2  # the meet side stops at its first repeat
    assert_matches_reference(lat)


def test_congruence_lattice_closes_each_join_irreducible_once(
    monkeypatch, cu_corpus
):
    calls = count_closures(monkeypatch)
    for lat in cu_corpus[::10] + [load_lattice("fig1a"), load_lattice("fig5")]:
        calls.clear()
        congruence_lattice(lat)
        assert len(calls) == len(join_irreducibles(lat))


def test_uniformity_closes_only_the_join_side_on_cu_lattices(
    monkeypatch, cu_corpus
):
    calls = count_closures(monkeypatch)
    for lat in cu_corpus:
        calls.clear()
        assert is_congruence_uniform(lat)
        assert len(calls) == len(join_irreducibles(lat))


def chain(n):
    return as_lattice(from_covers(n, [(i, i + 1) for i in range(n - 1)]))


def test_con_of_a_chain_is_boolean():
    con = congruence_lattice(chain(11))
    assert len(con.congruences) == 1024
    assert con.lattice.n == 1024 and len(con.lattice.poset.covers) == 10 * 512


def assert_tables_match_as_lattice(lat):
    # Imported here: test_lattice imports this module.
    from test_lattice import assert_tables_match_reference

    assert_tables_match_reference(congruence_lattice(lat).lattice)


def test_con_tables_match_as_lattice_on_small_lattices(small_lattices):
    # Con(L)'s joins and meets are read off its down-set bitsets; the
    # earlier table-filling as_lattice on the same order is the oracle.
    for lat in small_lattices:
        assert_tables_match_as_lattice(lat)


def test_con_tables_match_as_lattice_on_the_cu_corpus(cu_corpus):
    for lat in cu_corpus:
        assert_tables_match_as_lattice(lat)


def test_con_tables_match_as_lattice_on_a_chain():
    assert_tables_match_as_lattice(chain(11))


def test_con_of_a_chain_peaks_under_four_megabytes():
    # Con(L) stores no |Con L|-by-|Con L| tables; for the 1,024
    # congruences of the 11-chain they would peak at 18.6 MB.
    lat = chain(11)
    tracemalloc.start()
    try:
        con = congruence_lattice(lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(con.congruences) == 1024
    assert peak < 4 * 2**20


def test_congruence_lattice_limit_stops_before_any_partition(monkeypatch):
    assert len(congruence_lattice(load_lattice("fig2a"), limit=5).congruences) == 5

    def refuse(*args):
        raise AssertionError("a partition join was built")

    monkeypatch.setattr(congruence, "_join_partitions", refuse)
    with pytest.raises(ValueError, match="more than 1024 congruences"):
        congruence_lattice(chain(12), limit=1024)
    with pytest.raises(ValueError, match="more than 4 congruences"):
        congruence_lattice(load_lattice("fig2a"), limit=4)
