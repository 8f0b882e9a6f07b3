"""Every internal order is built from up-masks, never through from_covers.

The references below are the earlier edge-list builders: each order was
written out as a list of comparable pairs and sent through from_covers,
which sorts and closes again.  The mask builders must give the same
covers, up-sets, Psi masks and witnesses, since all of them are output.
"""

import sys

from hypothesis import given, settings

from corelabel import (
    biclosed_family,
    biclosed_poset,
    boolean_defect,
    boolean_nexus,
    closed_family,
    closed_sets_lattice,
    congruence_lattice,
    core_label_order,
    double,
    double_interval,
    from_covers,
    gamma,
    is_clo_lattice,
    is_clo_meet_semilattice,
    is_congruence_uniform,
    join_irreducibles,
    label_covers,
    moore_families,
    nucleus,
    operator_from_family,
    psi,
    quotient,
    run_intervals,
)
from corelabel import cli
from corelabel.bitsets import bits, highest, mask_of
from corelabel.congruence import _cg_classes, _down_sets, _join_partitions
from corelabel.core_label import _clo_is_lattice_raw
from corelabel.enumeration import _materialize
from corelabel.fixtures import load_closure, load_lattice
from corelabel.lattice import atoms
from test_congruence import doubling_scripts


def reference_materialize(ups):
    m = len(ups)
    n = m + 1
    up = [0] * n
    for i, u in enumerate(ups):
        lifted = 0
        for b in bits(u):
            lifted |= 1 << (m - b)
        up[m - i] = lifted
    up[0] = (1 << n) - 1
    down = [0] * n
    for v in range(n):
        for w in bits(up[v]):
            down[w] |= 1 << v
    upper = [0] * n
    for v in range(n):
        strict = up[v] & ~(1 << v)
        cov = strict
        for w in bits(strict):
            cov &= ~(up[w] & ~(1 << w))
        upper[v] = cov
    lower = [0] * n
    for v in range(n):
        for w in bits(upper[v]):
            lower[w] |= 1 << v
    return n, up, down, upper, lower


def reference_containment_poset(fam):
    edges = [
        (i, k)
        for i in range(len(fam))
        for k in range(len(fam))
        if i != k and fam[i] & ~fam[k] == 0
    ]
    return from_covers(len(fam), edges)


def reference_psi(cl, x):
    lat = cl.parent
    core = lat.poset.up[nucleus(lat, x)] & lat.poset.down[x]
    out = set()
    for u in bits(core):
        for v in bits(lat.poset.upper[u] & core):
            out.add(cl.label[(u, v)])
    return frozenset(out)


def reference_core_label_order(cl):
    n = cl.parent.n
    masks = [mask_of(cl.jpos[j] for j in reference_psi(cl, x)) for x in range(n)]
    return masks, reference_containment_poset(masks)


def reference_clo_witnesses(p):
    # (meet-semilattice witness, lattice witness), None for a pass.
    for i in range(p.n):
        for k in range(i + 1, p.n):
            d = p.down[i] & p.down[k]
            if not d:
                return (i, k), (i, k)
            z = highest(d)
            if d & ~p.down[z]:
                return (i, k), (i, k)
    if p.down[p.n - 1] != (1 << p.n) - 1:
        return None, "no greatest element"
    return None, None


def reference_clo_is_lattice_raw(n, psi_masks):
    full = 0
    for m in psi_masks:
        full |= m
    if full not in psi_masks:
        return False
    downs = []
    for i in range(n):
        d = 0
        for k in range(n):
            if psi_masks[k] & ~psi_masks[i] == 0:
                d |= 1 << k
        downs.append(d)
    for i in range(n):
        for k in range(i + 1, n):
            d = downs[i] & downs[k]
            z = highest(d)
            if d & ~downs[z]:
                return False
    return True


def reference_boolean_defect(cl):
    return sum(
        len(reference_psi(cl, x) - gamma(cl, x)) for x in range(cl.parent.n)
    )


def reference_boolean_nexus(cl):
    lat = cl.parent
    am = set(atoms(lat))
    members = [x for x in range(lat.n) if gamma(cl, x) <= am]
    edges = [
        (a, b)
        for a, x in enumerate(members)
        for b, y in enumerate(members)
        if x != y and lat.poset.leq(x, y)
    ]
    return members, from_covers(len(members), edges)


def reference_quotient(lat, theta):
    classes = theta.classes()
    index = {c[0]: k for k, c in enumerate(classes)}
    proj = [index[theta.cls[i]] for i in range(lat.n)]
    edges = []
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a != b and lat.poset.leq(ca[0], cb[-1]):
                edges.append((a, b))
    return from_covers(len(classes), edges), proj


def reference_double(p, members):
    imask = mask_of(members)
    below = 0
    for y in bits(imask):
        below |= p.down[y]
    ground = [(x, 0) for x in bits(below)]
    full = (1 << p.n) - 1
    ground += [(x, 1) for x in bits((full & ~below) | imask)]
    ground.sort(key=lambda e: (e[1], e[0]))
    pos = {e: k for k, e in enumerate(ground)}
    edges = []
    for (x, a), k in pos.items():
        for (y, b), m in pos.items():
            if k != m and a <= b and p.leq(x, y):
                edges.append((k, m))
    return from_covers(len(ground), edges), tuple(ground)


def reference_congruence_lattice(lat):
    # The down-set construction with its covers D -> D + {g} sent through
    # from_covers; the kernels it calls are shared with the library.
    n = lat.n
    seen = {}
    for ji in join_irreducibles(lat):
        arr = _cg_classes(n, lat.poset.up, lat.poset.down, ((ji.j_star, ji.j),))
        seen.setdefault(arr, (ji.j_star, ji.j))
    gens = sorted(seen, key=lambda arr: -len(set(arr)))
    below = [
        mask_of(h for h, g in enumerate(gens)
                if h != i and arr[seen[g][0]] == arr[seen[g][1]])
        for i, arr in enumerate(gens)
    ]
    downsets = _down_sets(below, None)
    index = {d: k for k, d in enumerate(downsets)}
    parts = [tuple(range(n))]
    for d in downsets[1:]:
        top = d.bit_length() - 1
        parts.append(_join_partitions(parts[index[d ^ 1 << top]], gens[top]))
    rank = sorted(range(len(parts)), key=lambda k: (-len(set(parts[k])), parts[k]))
    pos = [0] * len(rank)
    for r, k in enumerate(rank):
        pos[k] = r
    edges = [
        (pos[k], pos[index[d | 1 << g]])
        for k, d in enumerate(downsets)
        for g in range(len(gens))
        if not d >> g & 1 and below[g] & ~d == 0
    ]
    return [parts[k] for k in rank], from_covers(len(rank), edges)


def same_order(p, q):
    return (p.n, p.covers, p.up, p.down, p.upper, p.lower) == (
        q.n, q.covers, q.up, q.down, q.upper, q.lower)


def semilattice_state(lat):
    # The enumeration's state for lat: its non-bottom elements, reversed.
    m = lat.n - 1
    return tuple(
        mask_of(m - b for b in bits(lat.poset.up[m - i])) for i in range(m)
    )


def assert_builders_match(lat):
    p = lat.poset
    state = semilattice_state(lat)
    arrays = (lat.n, p.up, p.down, p.upper, p.lower)
    assert _materialize(state) == reference_materialize(state) == arrays
    assert same_order(p, from_covers(lat.n, p.covers))

    con = congruence_lattice(lat)
    parts, ref = reference_congruence_lattice(lat)
    assert [t.cls for t in con.congruences] == parts
    assert same_order(con.lattice.poset, ref)
    for theta in con.congruences:
        q, proj = quotient(lat, theta)
        rq, rproj = reference_quotient(lat, theta)
        assert proj == rproj and same_order(q.poset, rq)

    # Every interval, and the atoms, which need not be order convex.
    sets = [list(bits(p.up[a] & p.down[b])) for a in range(lat.n) for b in bits(p.up[a])]
    for members in sets + [atoms(lat)]:
        got, ground = double(p, members)
        ref, rground = reference_double(p, members)
        assert ground == rground and same_order(got, ref)

    if not is_congruence_uniform(lat):
        return
    cl = label_covers(lat)
    for x in range(lat.n):
        assert psi(cl, x) == reference_psi(cl, x)
    clo = core_label_order(cl)
    masks, ref = reference_core_label_order(cl)
    assert list(clo.psi_masks) == masks and same_order(clo.poset, ref)
    msl, whole = reference_clo_witnesses(ref)
    got = is_clo_meet_semilattice(clo)
    assert bool(got) == (msl is None) and got.witness == msl
    got = is_clo_lattice(clo)
    assert bool(got) == (whole is None) and got.witness == whole
    raw = _clo_is_lattice_raw(lat.n, masks)
    assert raw == reference_clo_is_lattice_raw(lat.n, masks) == (whole is None)
    assert boolean_defect(cl) == reference_boolean_defect(cl)
    members, nexus = boolean_nexus(cl)
    rmembers, rnexus = reference_boolean_nexus(cl)
    assert members == rmembers and same_order(nexus, rnexus)


def test_builders_match_the_references_on_small_lattices(small_lattices):
    for lat in small_lattices:
        assert_builders_match(lat)


def test_builders_match_the_references_on_the_cu_corpus(cu_corpus):
    for lat in cu_corpus:
        assert_builders_match(lat)


@settings(deadline=None, max_examples=60)
@given(doubling_scripts())
def test_builders_match_the_references_on_doublings(pairs):
    _, lat = run_intervals(pairs)
    assert_builders_match(lat)


def test_set_family_orders_match_the_reference():
    for m in (3, 4):
        for fam in moore_families(m):
            op = operator_from_family(m, fam)
            closed = closed_sets_lattice(op).poset
            assert same_order(closed, reference_containment_poset(closed_family(op)))
            bic, _ = biclosed_poset(op)
            assert same_order(bic, reference_containment_poset(biclosed_family(op)))
    for name in ("ex61", "p61a", "p61b", "p61c", "p61d"):
        op, _ = load_closure(name)
        bic, _ = biclosed_poset(op)
        assert same_order(bic, reference_containment_poset(biclosed_family(op)))


def test_internal_orders_never_go_through_from_covers(monkeypatch):
    # from_covers is for outside input; fixtures are read before it goes.
    lats = [load_lattice(name) for name in ("fig2a", "fig7a", "fig8a", "fig10a")]
    ops = [load_closure(name)[0] for name in ("ex61", "p61a")]

    def refuse(*args):
        raise AssertionError("an internal order went through from_covers")

    patched = set()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "corelabel" and hasattr(mod, "from_covers"):
            monkeypatch.setattr(mod, "from_covers", refuse)
            patched.add(name)
    assert {"corelabel", "corelabel.poset", cli.__name__} <= patched
    for lat in lats:
        cl = label_covers(lat)
        clo = core_label_order(cl)
        is_clo_lattice(clo)
        boolean_nexus(cl)
        con = congruence_lattice(lat)
        for theta in con.congruences[:8]:
            quotient(lat, theta)
        for a in range(lat.n):
            double_interval(lat, a, lat.top)
    _, lat = run_intervals([(0, 0), (0, 1), (1, 3)])
    assert lat.n == 6
    for op in ops:
        closed_sets_lattice(op)
        biclosed_poset(op)
