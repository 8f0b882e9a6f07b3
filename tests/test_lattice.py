"""Lattice verdicts, irreducibles, semidistributivity, crosscuts."""

import pytest
from hypothesis import given, settings

from corelabel import (
    Lattice,
    NotALattice,
    Poset,
    as_lattice,
    atoms,
    canonical_join_representation,
    cg,
    coatoms,
    congruence_lattice,
    crosscut_mobius,
    double_interval,
    from_covers,
    is_atomic,
    is_crosscut,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    is_spherical,
    join_irreducibles,
    meet_irreducibles,
    quotient,
    run_intervals,
)
from corelabel.bitsets import bits, highest, lowest
from corelabel.enumeration import _iter_lattice_arrays
from corelabel.fixtures import load_lattice, load_poset
from suites import reference_sd_witness, violates_sd
from test_congruence import doubling_scripts


def chain(n):
    got = as_lattice(from_covers(n, [(i, i + 1) for i in range(n - 1)]))
    assert isinstance(got, Lattice)
    return got


def test_join_and_meet_tables():
    n5 = load_lattice("fig2a")
    assert n5.bottom == 0 and n5.top == 4
    assert n5.join[1][2] == 4
    assert n5.meet[3][2] == 0
    assert n5.join[1][3] == 3


def test_missing_join_is_reported_with_bounds():
    got = as_lattice(load_poset("fig3_right"))
    assert isinstance(got, NotALattice)
    assert got.kind == "join"
    assert got.pair == (1, 5)
    assert got.bounds == (8, 9)


def test_missing_upper_bound_has_empty_bounds():
    got = as_lattice(from_covers(2, []))
    assert isinstance(got, NotALattice)
    assert got.kind == "join"
    assert got.pair == (0, 1)
    assert got.bounds == ()


def test_irreducibles_of_the_nine_element_fixture():
    f8 = load_lattice("fig8a")
    assert [(ji.j, ji.j_star) for ji in join_irreducibles(f8)] == [
        (1, 0),
        (2, 0),
        (3, 0),
        (4, 2),
    ]
    assert [(ji.j, ji.j_star) for ji in meet_irreducibles(f8)] == [
        (2, 4),
        (5, 8),
        (6, 8),
        (7, 8),
    ]
    assert atoms(f8) == [1, 2, 3]
    assert coatoms(f8) == [5, 6, 7]


def test_diamond_fails_semidistributivity():
    m3 = load_lattice("fig1a")
    verdict = is_semidistributive(m3)
    assert not verdict
    assert is_join_semidistributive(m3).witness == (1, 2, 3)
    assert is_meet_semidistributive(m3).witness == (1, 2, 3)


def test_semidistributive_fixtures():
    assert is_semidistributive(load_lattice("fig2a"))
    assert is_semidistributive(load_lattice("fig5"))
    fig9 = load_lattice("fig9")
    # The cover 0 -< 2 fails: 1 and 8 are maximal in up(0) minus up(2).
    witness = is_meet_semidistributive(fig9).witness
    assert witness == (2, 1, 8)
    assert violates_sd(fig9.poset.up, fig9.poset.down, witness, True)


def assert_sd_matches_the_triple_search(lat):
    n, up, down = lat.n, lat.poset.up, lat.poset.down
    for dual, law in ((False, is_join_semidistributive), (True, is_meet_semidistributive)):
        got = law(lat)
        want = reference_sd_witness(n, up, down, dual)
        assert bool(got) == (want is None)
        assert got or violates_sd(up, down, got.witness, dual)


def test_semidistributivity_matches_the_triple_search(small_lattices, cu_corpus):
    for lat in small_lattices + cu_corpus:
        assert_sd_matches_the_triple_search(lat)
    count = 0
    for arrays in _iter_lattice_arrays(9):
        assert_sd_matches_the_triple_search(Lattice(Poset(*arrays)))
        count += 1
    assert count == 1378


def test_canonical_join_representations():
    n5 = load_lattice("fig2a")
    assert canonical_join_representation(n5, 0) == frozenset()
    assert canonical_join_representation(n5, 3) == frozenset({3})
    assert canonical_join_representation(n5, 4) == frozenset({1, 2})
    assert canonical_join_representation(load_lattice("fig1a"), 4) is None


def test_atomicity():
    assert is_atomic(load_lattice("fig1a"))
    assert not is_atomic(load_lattice("fig2a"))
    assert not is_atomic(chain(3))


def test_crosscut_detection():
    m3 = load_lattice("fig1a")
    assert is_crosscut(m3, atoms(m3))
    assert not is_crosscut(m3, [1, 2])
    assert not is_crosscut(m3, [0])
    assert not is_crosscut(m3, [])


def test_crosscut_mobius_values():
    assert crosscut_mobius(load_lattice("fig1a"), [1, 2, 3]) == 2
    assert crosscut_mobius(chain(3), [1]) == 0
    with pytest.raises(ValueError):
        crosscut_mobius(load_lattice("fig1a"), [1, 2])


def test_sphericity():
    assert is_spherical(load_lattice("fig2a"))
    assert is_spherical(load_lattice("fig8a"))
    assert not is_spherical(load_lattice("fig7a"))
    assert not is_spherical(chain(3))
    with pytest.raises(ValueError):
        is_spherical(load_lattice("fig1a"))


def test_every_small_lattice_reconstructs(small_lattices):
    for lat in small_lattices:
        rebuilt = as_lattice(from_covers(lat.n, lat.poset.covers))
        assert isinstance(rebuilt, Lattice)
        assert rebuilt.poset == lat.poset


# The reference for as_lattice is the earlier version that filled both
# tables pair by pair.  as_lattice now stores nothing and skips the meet
# side when there is a least element; it must give the same verdicts and
# witnesses, and its tables built on first access must equal these.


def reference_as_lattice(p):
    # (join, meet) tables as lists, or the NotALattice witness.
    n = p.n
    up, down = p.up, p.down
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        join[i][i] = i
        meet[i][i] = i
    for i in range(n):
        for j in range(i + 1, n):
            u = up[i] & up[j]
            if not u:
                return NotALattice("join", (i, j), ())
            z = lowest(u)
            if u & ~up[z]:
                mins = tuple(w for w in bits(u) if u & down[w] == 1 << w)
                return NotALattice("join", (i, j), mins)
            join[i][j] = join[j][i] = z
            d = down[i] & down[j]
            if not d:
                return NotALattice("meet", (i, j), ())
            z = highest(d)
            if d & ~down[z]:
                maxs = tuple(w for w in bits(d) if d & up[w] == 1 << w)
                return NotALattice("meet", (i, j), maxs)
            meet[i][j] = meet[j][i] = z
    return join, meet


def assert_tables_match_reference(lat):
    join, meet = reference_as_lattice(lat.poset)
    assert [list(row) for row in lat.join] == join
    assert [list(row) for row in lat.meet] == meet
    assert (lat.bottom, lat.top) == (0, lat.n - 1)


def assert_as_lattice_matches_reference(p):
    got, ref = as_lattice(p), reference_as_lattice(p)
    if isinstance(ref, NotALattice):
        assert got == ref
    else:
        assert isinstance(got, Lattice)
        assert_tables_match_reference(got)
    return got


def test_as_lattice_matches_the_reference_on_small_lattices(small_lattices):
    for lat in small_lattices:
        assert_as_lattice_matches_reference(lat.poset)


def test_as_lattice_matches_the_reference_on_the_cu_corpus(cu_corpus):
    for lat in cu_corpus:
        assert_as_lattice_matches_reference(lat.poset)


@settings(deadline=None, max_examples=60)
@given(doubling_scripts())
def test_as_lattice_matches_the_reference_on_doublings(pairs):
    _, lat = run_intervals(pairs)
    assert_as_lattice_matches_reference(lat.poset)


def test_as_lattice_matches_the_reference_on_non_lattices(small_lattices):
    # Each small lattice with one cover removed; most lose a join or a meet.
    # A meet failure comes first only when there is no least element, and
    # then on row 0, with no common lower bound at all.
    kinds = set()
    assert isinstance(assert_as_lattice_matches_reference(load_poset("fig3_right")),
                      NotALattice)
    for lat in small_lattices:
        covers = lat.poset.covers
        for k in range(len(covers)):
            got = assert_as_lattice_matches_reference(
                from_covers(lat.n, covers[:k] + covers[k + 1:])
            )
            if isinstance(got, NotALattice):
                kinds.add((got.kind, bool(got.bounds)))
    assert kinds == {("join", False), ("join", True), ("meet", False)}


def test_lattices_hold_no_tables_until_read():
    lat = load_lattice("fig7a")
    theta = cg(lat, 0, 1)
    built = [
        lat,
        quotient(lat, theta)[0],
        double_interval(lat, 0, 4),
        congruence_lattice(lat).lattice,
    ]
    for got in built:
        assert got._join is None and got._meet is None
        assert_tables_match_reference(got)
        assert got.join is got.join and got.meet is got.meet


def reference_is_atomic(lat):
    # Every element is the join of the atoms below it, joined in the table.
    for x in range(lat.n):
        v = lat.bottom
        for a in atoms(lat):
            if lat.poset.leq(a, x):
                v = lat.join[v][a]
        if v != x:
            return False
    return True


def test_atomicity_matches_the_join_of_atoms(small_lattices, cu_corpus):
    # is_atomic asks only whether every join-irreducible is an atom.
    got = [(is_atomic(lat), reference_is_atomic(lat)) for lat in small_lattices + cu_corpus]
    assert all(a == b for a, b in got)
    assert {a for a, _ in got} == {True, False}
