"""One bitset kernel per concept: cover labels, canonical joins, sphericity,
nuclei and induced orders.

The references below are the earlier implementations: the perspectivity
search over J(L) for every cover, the search over all irredundant join
representations, the Mobius value of the bounds, the nucleus as a meet
in the meet table, and up-masks filled pair by pair with leq.  The
kernels must give the same labels, representations, verdicts, nuclei and
orders on every corpus.
"""

import pytest
from hypothesis import given, settings

from corelabel import (
    Lattice,
    Poset,
    as_lattice,
    atoms,
    boolean_nexus,
    canonical_join_representation,
    cli,
    core_label_order,
    double,
    gamma,
    is_clo_lattice,
    is_congruence_uniform,
    is_meet_semidistributive,
    is_spherical,
    label_covers,
    moore_families,
    nucleus,
    run_intervals,
    search_problem_6_1,
    table1,
)
from corelabel.bitsets import bits, highest, lowest, mask_of
from corelabel.core_label import _labels_raw
from corelabel.enumeration import _census_stage
from corelabel.poset import _containment_poset
from corelabel.fixtures import load_lattice
from test_congruence import doubling_scripts
from test_enumeration import TABLE1_SEVEN


def reference_labels_raw(n, up, down, upper, lower):
    # Each cover (u, v) is labelled by the unique join-irreducible j with
    # j join u = v and j meet u = j_star; None if some cover has no such j
    # or more than one.
    jlist = []
    jstar = {}
    for j in range(n):
        lc = lower[j]
        if lc and lc & (lc - 1) == 0:
            jlist.append(j)
            jstar[j] = lowest(lc)
    label = {}
    for u in range(n):
        for v in bits(upper[u]):
            hit = -1
            for j in jlist:
                if (
                    lowest(up[j] & up[u]) == v
                    and highest(down[j] & down[u]) == jstar[j]
                ):
                    if hit >= 0:
                        return None
                    hit = j
            if hit < 0:
                return None
            label[(u, v)] = hit
    return jlist, label


def reference_canonical_join_representation(lat, x):
    # The irredundant representation that refines every other one.
    if x == lat.bottom:
        return frozenset()
    reps = reference_irredundant_reps(lat, x)
    for r in reps:
        if all(reference_refines(lat, r, s) for s in reps):
            return frozenset(r)
    return None


def reference_irredundant_reps(lat, x):
    below = [y for y in bits(lat.poset.down[x]) if y != lat.bottom]
    join = lat.join
    out = []

    def extend(start, chosen, value):
        if value == x:
            for drop in range(len(chosen)):
                rest = chosen[:drop] + chosen[drop + 1:]
                v = lat.bottom
                for c in rest:
                    v = join[v][c]
                if v == x:
                    return
            out.append(chosen)
            return
        for k in range(start, len(below)):
            y = below[k]
            comparable = any(
                lat.poset.leq(y, c) or lat.poset.leq(c, y) for c in chosen
            )
            if comparable:
                continue
            extend(k + 1, chosen + (y,), join[value][y])

    extend(0, (), lat.bottom)
    return out


def reference_refines(lat, a, b):
    return all(any(lat.poset.leq(x, y) for y in b) for x in a)


def reference_is_spherical(lat):
    if not is_meet_semidistributive(lat):
        raise ValueError("not meet-semidistributive")
    return lat.poset.mobius(lat.bottom, lat.top) != 0


def reference_nucleus(lat, x):
    lc = lat.poset.lower[x]
    if not lc:
        return x
    out = -1
    for y in bits(lc):
        out = y if out < 0 else lat.meet[out][y]
    return out


def reference_double(p, members):
    imask = mask_of(members)
    below = 0
    for y in bits(imask):
        below |= p.down[y]
    ground = [(x, 0) for x in bits(below)]
    full = (1 << p.n) - 1
    ground += [(x, 1) for x in bits((full & ~below) | imask)]
    ground.sort(key=lambda e: (e[1], e[0]))
    up = [
        mask_of(k for k, (y, b) in enumerate(ground) if a <= b and p.leq(x, y))
        for x, a in ground
    ]
    return up, tuple(ground)


def reference_nexus(cl):
    lat = cl.parent
    am = set(atoms(lat))
    members = [x for x in range(lat.n) if gamma(cl, x) <= am]
    up = [
        mask_of(b for b, y in enumerate(members) if lat.poset.leq(x, y))
        for x in members
    ]
    return members, up


def assert_kernels_match(lat):
    p = lat.poset
    for x in range(lat.n):
        assert canonical_join_representation(lat, x) == (
            reference_canonical_join_representation(lat, x))
        assert nucleus(lat, x) == reference_nucleus(lat, x)
    if is_meet_semidistributive(lat):
        assert is_spherical(lat) == reference_is_spherical(lat)
    else:
        with pytest.raises(ValueError):
            is_spherical(lat)

    # Every interval, and the atoms, which need not be order convex.
    sets = [list(bits(p.up[a] & p.down[b])) for a in range(lat.n) for b in bits(p.up[a])]
    for members in sets + [atoms(lat)]:
        got, ground = double(p, members)
        assert (got.up, ground) == reference_double(p, members)

    if not is_congruence_uniform(lat):
        return
    arrays = (lat.n, p.up, p.down, p.upper, p.lower)
    assert _labels_raw(*arrays) == reference_labels_raw(*arrays)
    cl = label_covers(lat)
    members, nexus = boolean_nexus(cl)
    assert (members, nexus.up) == reference_nexus(cl)


def test_kernels_match_the_references_on_small_lattices(small_lattices):
    for lat in small_lattices:
        assert_kernels_match(lat)


def test_kernels_match_the_references_on_the_cu_corpus(cu_corpus):
    for lat in cu_corpus:
        assert_kernels_match(lat)


@settings(deadline=None, max_examples=60)
@given(doubling_scripts())
def test_kernels_match_the_references_on_doublings(pairs):
    _, lat = run_intervals(pairs)
    assert_kernels_match(lat)


def test_sphericity_never_runs_the_mobius_recursion(monkeypatch, capsys):
    # Mobius values are printed by `check` and pinned for fig7a; every
    # sphericity verdict is read off the atoms.
    def refuse(self, x, y):
        raise AssertionError("a sphericity test computed a Mobius value")

    monkeypatch.setattr(Poset, "mobius", refuse)
    assert is_spherical(load_lattice("fig8a"))
    assert not is_spherical(load_lattice("fig7a"))
    assert [r.csv() for r in table1(7)] == TABLE1_SEVEN
    assert list(search_problem_6_1(4)) == []
    assert len(list(search_problem_6_1(4, require_single_step=False))) == 1
    assert cli.main(["clo", "--json", "fig8a.lat"]) == 0
    assert cli.main(["biclosed", "p61a.clo"]) == 0
    out = capsys.readouterr().out
    assert '"spherical": true' in out and "spherical: yes" in out



# The census stage: how many of Table 1's columns c, s, S count a lattice.
# The census and the closure search both read it; the public predicates
# must give the same count.

def public_stage(lat):
    if not is_congruence_uniform(lat):
        return 0
    if not is_spherical(lat):
        return 1
    return 3 if is_clo_lattice(core_label_order(label_covers(lat))) else 2


def assert_stages_match(lats):
    stages = set()
    for lat in lats:
        p = lat.poset
        stage = _census_stage(lat.n, p.up, p.down, p.upper, p.lower)
        assert stage == public_stage(lat), p.covers
        stages.add(stage)
    return stages


def biclosed_lattices(max_m):
    # Every distinct nonempty biclosed family on at most max_m points whose
    # containment order is a lattice.
    fams = set()
    for m in range(max_m + 1):
        full = (1 << m) - 1
        for fam in moore_families(m):
            bic = tuple(sorted((x for x in fam if full ^ x in fam),
                               key=lambda x: (x.bit_count(), x)))
            if bic:
                fams.add(bic)
    lats = [as_lattice(_containment_poset(bic)) for bic in sorted(fams)]
    return [lat for lat in lats if isinstance(lat, Lattice)]


def test_census_stage_matches_the_public_api_on_small_lattices(small_lattices):
    assert assert_stages_match(small_lattices) == {0, 1, 3}


def test_census_stage_matches_the_public_api_on_the_cu_corpus(cu_corpus):
    assert assert_stages_match(cu_corpus) == {1, 2, 3}


def test_census_stage_matches_the_public_api_on_biclosed_lattices():
    # Stage 2 is the closure search's target: ex61 on 4 points.
    assert assert_stages_match(biclosed_lattices(4)) == {0, 2, 3}
