"""Corpus-wide property checks shared by the theorem and acceptance tests.

Each check takes the labeled corpus (or the small-lattice corpus) and
returns a list of violation strings; an empty list means the property
held everywhere.
"""

from itertools import combinations, permutations

from corelabel import (
    are_isomorphic,
    atoms,
    boolean_defect,
    boolean_nexus,
    canonical_join_representation,
    cg,
    cg_join_irreducible,
    check_swap_lemma,
    congruence_lattice,
    core_label_order,
    crosscut_complex,
    crosscut_mobius,
    double,
    double_interval,
    from_covers,
    gamma,
    has_intersection_property,
    irreducible_count_delta,
    is_atomic,
    is_clo_lattice,
    is_congruence_uniform,
    is_crosscut,
    is_meet_semidistributive,
    is_semidistributive,
    join_irreducibles,
    label_covers,
    nucleus,
    psi,
    quotient,
)
from corelabel.bitsets import bits, highest, lowest
from corelabel.lattice import Lattice, as_lattice
from corelabel.poset import Poset

_BOOLEAN: dict[int, Lattice] = {}
_CON: dict[int, list] = {}
_QUOTIENTS: dict[int, list] = {}


def mu(lat: Lattice) -> int:
    return lat.poset.mobius(lat.bottom, lat.top)


def join_of(lat: Lattice, xs) -> int:
    v = lat.bottom
    for x in xs:
        v = lat.join[v][x]
    return v


def meet_of(lat: Lattice, xs) -> int:
    v = lat.top
    for x in xs:
        v = lat.meet[v][x]
    return v


def reference_sd_witness(n, up, down, dual):
    # The semidistributive laws by search over all triples: the first
    # (x, y, z), y < z, with x join y = x join z but x join (y meet z)
    # different (meets and joins swapped if dual), else None.
    outer, inner = (down, up) if dual else (up, down)
    pick, inner_pick = (highest, lowest) if dual else (lowest, highest)
    for x in range(n):
        row = [pick(outer[x] & outer[y]) for y in range(n)]
        for y in range(n):
            for z in range(y + 1, n):
                if row[z] == row[y] and row[inner_pick(inner[y] & inner[z])] != row[y]:
                    return (x, y, z)
    return None


def violates_sd(up, down, triple, dual) -> bool:
    # Does (x, y, z) violate the join law (the meet law if dual)?  Joins
    # and meets are read off the up- and down-masks.
    x, y, z = triple
    outer, inner = (down, up) if dual else (up, down)
    pick, inner_pick = (highest, lowest) if dual else (lowest, highest)
    xy = pick(outer[x] & outer[y])
    yz = inner_pick(inner[y] & inner[z])
    return xy == pick(outer[x] & outer[z]) != pick(outer[x] & outer[yz])


def boolean_lattice(k: int) -> Lattice:
    if k not in _BOOLEAN:
        edges = [
            (x, x | (1 << b))
            for x in range(1 << k)
            for b in range(k)
            if not x & (1 << b)
        ]
        got = as_lattice(from_covers(1 << k, edges))
        assert isinstance(got, Lattice)
        _BOOLEAN[k] = got
    return _BOOLEAN[k]


def weak_order(k: int) -> Lattice:
    # The weak order on the permutations of range(k), the lattice of regions
    # of the braid arrangement: w is covered by each w with two adjacent
    # ascending entries swapped (w times an adjacent transposition).
    perms = list(permutations(range(k)))
    index = {w: i for i, w in enumerate(perms)}
    edges = [
        (index[w], index[w[:i] + (w[i + 1], w[i]) + w[i + 2:]])
        for w in perms
        for i in range(k - 1)
        if w[i] < w[i + 1]
    ]
    got = as_lattice(from_covers(len(perms), edges))
    assert isinstance(got, Lattice)
    return got


def is_boolean(lat: Lattice) -> bool:
    k = len(atoms(lat))
    return lat.n == 1 << k and are_isomorphic(lat.poset, boolean_lattice(k).poset)


def induced_poset(p: Poset, xs) -> Poset:
    xs = sorted(xs)
    idx = {x: i for i, x in enumerate(xs)}
    edges = [
        (idx[u], idx[v]) for u in xs for v in xs if u != v and p.leq(u, v)
    ]
    return from_covers(len(xs), edges)


def congruences_of(lat: Lattice) -> list:
    key = id(lat)
    if key not in _CON:
        _CON[key] = list(congruence_lattice(lat).congruences)
    return _CON[key]


def quotient_rows(lat: Lattice) -> list:
    """(theta, quotient, projection, quotient labeling) per congruence."""
    key = id(lat)
    if key not in _QUOTIENTS:
        rows = []
        for theta in congruences_of(lat):
            q, proj = quotient(lat, theta)
            rows.append((theta, q, proj, label_covers(q)))
        _QUOTIENTS[key] = rows
    return _QUOTIENTS[key]


def check_labels_sit_below(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        for x in range(lat.n):
            for j in psi(cl, x):
                if not lat.poset.leq(j, x):
                    bad.append(f"lattice {k}: label {j} of {x} not below it")
    return bad


def check_join_of_labels(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        for x in range(lat.n):
            if join_of(lat, psi(cl, x)) != x:
                bad.append(f"lattice {k}: labels of {x} do not join to it")
    return bad


def check_full_labels_iff_nonzero_mobius(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        full = {ji.j for ji in join_irreducibles(lat)}
        if (psi(cl, lat.top) == full) != (mu(lat) != 0):
            bad.append(f"lattice {k}: top labels disagree with the Mobius value")
    return bad


def check_quotient_label_bijection(labeled):
    # Equality holds at the least member of each class; other members
    # still inject into the quotient label set.
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        jis = join_irreducibles(lat)
        for theta, q, proj, qcl in quotient_rows(lat):
            sigma = {ji.j for ji in jis if theta.collapses(ji.j_star, ji.j)}
            for cls in theta.classes():
                target = psi(qcl, proj[cls[0]])
                survivors = psi(cl, min(cls)) - sigma
                image = {proj[j] for j in survivors}
                if image != target or len(image) != len(survivors):
                    bad.append(f"lattice {k}: label bijection fails at class {cls}")
                for x in cls:
                    rest = psi(cl, x) - sigma
                    if not {proj[j] for j in rest} <= target:
                        bad.append(f"lattice {k}: labels of {x} escape the quotient")
    return bad


def check_containment_refines_order(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        for x in range(lat.n):
            for y in range(lat.n):
                if clo.psi_set(x) <= clo.psi_set(y) and not lat.poset.leq(x, y):
                    bad.append(f"lattice {k}: containment {x} in {y} without order")
    return bad


def check_top_labels_maximal(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        top_labels = clo.psi_set(lat.top)
        for x in range(lat.n):
            if top_labels < clo.psi_set(x):
                bad.append(f"lattice {k}: {x} sits above the top in the label order")
    return bad


def check_order_lattice_implies_nonzero_mobius(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        if is_clo_lattice(clo) and mu(lat) == 0:
            bad.append(f"lattice {k}: label order is a lattice yet Mobius vanishes")
    return bad


def check_order_lattice_iff_mobius_and_intersections(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        lhs = bool(is_clo_lattice(clo))
        rhs = mu(lat) != 0 and bool(has_intersection_property(clo))
        if lhs != rhs:
            bad.append(f"lattice {k}: lattice verdict {lhs} vs characterization {rhs}")
    return bad


def check_quotient_order_stays_lattice(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        if mu(lat) == 0 or not has_intersection_property(clo):
            continue
        for theta, q, proj, qcl in quotient_rows(lat):
            if not is_clo_lattice(core_label_order(qcl)):
                bad.append(
                    f"lattice {k}: quotient with {theta.num_classes()} classes "
                    "has a non-lattice label order"
                )
    return bad


def check_self_order_iff_boolean(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        if are_isomorphic(clo.poset, lat.poset) != is_boolean(lat):
            bad.append(f"lattice {k}: self label order test disagrees with booleanness")
    return bad


def check_uniform_implies_semidistributive(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        got = is_semidistributive(lat)
        if not got:
            bad.append(f"lattice {k}: witness {got.witness}")
    return bad


def check_canonical_join_subsets(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        for x in range(lat.n):
            rep = canonical_join_representation(lat, x)
            if rep is None:
                bad.append(f"lattice {k}: {x} has no canonical join")
                continue
            members = sorted(rep)
            for r in range(len(members)):
                for sub in combinations(members, r):
                    if canonical_join_representation(
                        lat, join_of(lat, sub)
                    ) != frozenset(sub):
                        bad.append(f"lattice {k}: subset {sub} of {x} not canonical")
    return bad


def check_cover_labels_give_canonical_join(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        for x in range(lat.n):
            if gamma(cl, x) != canonical_join_representation(lat, x):
                bad.append(f"lattice {k}: cover labels of {x} miss the canonical join")
    return bad


def check_atom_join_forces_all_atoms(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        ats = atoms(lat)
        if lat.n == 1:
            continue
        for r in range(len(ats) + 1):
            for sub in combinations(ats, r):
                if join_of(lat, sub) == lat.top and set(sub) != set(ats):
                    bad.append(f"lattice {k}: atoms {sub} already join to the top")
    return bad


def check_atom_join_top_iff_nonzero_mobius(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        if (join_of(lat, atoms(lat)) == lat.top) != (mu(lat) != 0):
            bad.append(f"lattice {k}: atom join disagrees with the Mobius value")
    return bad


def check_label_equality_iff_boolean_core(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        for x in range(lat.n):
            g = gamma(cl, x)
            core = bits(lat.poset.up[nucleus(lat, x)] & lat.poset.down[x])
            boolean_core = are_isomorphic(
                induced_poset(lat.poset, core), boolean_lattice(len(g)).poset
            )
            if (g == psi(cl, x)) != boolean_core:
                bad.append(f"lattice {k}: core shape test fails at {x}")
    return bad


def check_zero_defect_iff_boolean_cores(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        cores_boolean = all(gamma(cl, x) == psi(cl, x) for x in range(lat.n))
        if (boolean_defect(cl) == 0) != cores_boolean:
            bad.append(f"lattice {k}: defect disagrees with the core survey")
    return bad


def check_nexus_is_boolean(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        members, induced = boolean_nexus(cl)
        want = boolean_lattice(len(atoms(lat))).poset
        if len(members) != want.n or not are_isomorphic(induced, want):
            bad.append(f"lattice {k}: nexus is not the expected boolean lattice")
    return bad


def check_nexus_matches_label_order(labeled):
    bad = []
    for k, (lat, cl, clo) in enumerate(labeled):
        members, _ = boolean_nexus(cl)
        for x in members:
            for y in members:
                if (clo.psi_set(x) <= clo.psi_set(y)) != lat.poset.leq(x, y):
                    bad.append(f"lattice {k}: nexus pair ({x}, {y}) misordered")
    return bad


def check_doubling_bookkeeping(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        base = len(join_irreducibles(lat))
        for a in range(lat.n):
            for b in bits(lat.poset.up[a]):
                doubled = double_interval(lat, a, b)
                if not isinstance(as_lattice(doubled.poset), Lattice):
                    bad.append(f"lattice {k}: doubling [{a}, {b}] is not a lattice")
                grown = len(join_irreducibles(doubled))
                members = bits(lat.poset.up[a] & lat.poset.down[b])
                if grown != base + irreducible_count_delta(lat, members):
                    bad.append(f"lattice {k}: interval [{a}, {b}] grew by {grown - base}")
        if lat.n > 7:
            continue
        for mask in range(1 << lat.n):
            ms = list(bits(mask))
            if not lat.poset.is_order_convex(ms):
                continue
            doubled, _ = double(lat.poset, ms)
            grown = sum(
                1
                for x in range(doubled.n)
                if sum(1 for _, v in doubled.covers if v == x) == 1
            )
            if grown != base + irreducible_count_delta(lat, ms):
                bad.append(f"lattice {k}: convex set {ms} breaks the count")
    return bad


def check_cover_swap(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        ups = {
            y: [v for (u, v) in lat.poset.covers if u == y] for y in range(lat.n)
        }
        for y in range(lat.n):
            groups = [ups[y]] if ups[y] else []
            groups.extend(combinations(ups[y], 2))
            for covers in groups:
                covers = list(covers)
                x = join_of(lat, covers)
                matched = check_swap_lemma(lat, y, covers)
                downs = [u for (u, v) in lat.poset.covers if v == x]
                ok = (
                    len(set(matched)) == len(covers)
                    and all(c in downs for c in matched)
                    and meet_of(lat, matched) == y
                    and all(
                        cg(lat, y, a) == cg(lat, c, x)
                        for a, c in zip(covers, matched)
                    )
                    and lat.poset.leq(nucleus(lat, x), y)
                )
                if not ok:
                    bad.append(f"lattice {k}: swap fails for {y} with covers {covers}")
    return bad


CRITERION_CHECKS = [
    ("labels sit below their element", check_labels_sit_below),
    ("every element is the join of its labels", check_join_of_labels),
    ("full top label set iff nonzero Mobius value", check_full_labels_iff_nonzero_mobius),
    ("quotient labels biject with surviving labels", check_quotient_label_bijection),
    ("label containment refines the lattice order", check_containment_refines_order),
    ("top is maximal in the label order", check_top_labels_maximal),
    ("label order lattice forces nonzero Mobius value", check_order_lattice_implies_nonzero_mobius),
    ("label order lattice iff Mobius and intersections", check_order_lattice_iff_mobius_and_intersections),
    ("quotients keep the label order a lattice", check_quotient_order_stays_lattice),
    ("self label order iff boolean", check_self_order_iff_boolean),
    ("uniform implies semidistributive", check_uniform_implies_semidistributive),
    ("subsets of canonical joins stay canonical", check_canonical_join_subsets),
    ("cover labels give the canonical join", check_cover_labels_give_canonical_join),
    ("only the full atom set joins to the top", check_atom_join_forces_all_atoms),
    ("atoms join to the top iff nonzero Mobius value", check_atom_join_top_iff_nonzero_mobius),
    ("labels equal canonical joiners iff the core is boolean", check_label_equality_iff_boolean_core),
    ("zero defect iff every core is boolean", check_zero_defect_iff_boolean_cores),
    ("nexus is a boolean lattice on the atoms", check_nexus_is_boolean),
    ("nexus order matches label containment", check_nexus_matches_label_order),
    ("doubling grows irreducibles by the minimal count", check_doubling_bookkeeping),
    ("cover sets swap to matched lower covers", check_cover_swap),
]


def check_greatest_iff_nonzero_mobius(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        if (len(clo.poset.maximals()) == 1) != (mu(lat) != 0):
            bad.append(f"lattice {k}: greatest element disagrees with the Mobius value")
    return bad


def check_boolean_iff_nonzero_mobius_and_zero_defect(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        lhs = mu(lat) != 0 and boolean_defect(cl) == 0
        if lhs != is_boolean(lat):
            bad.append(f"lattice {k}: boolean characterization fails")
    return bad


def check_nexus_has_principal_labels(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        members, _ = boolean_nexus(cl)
        jis = {ji.j for ji in join_irreducibles(lat)}
        for x in members:
            principal = {j for j in jis if lat.poset.leq(j, x)}
            if psi(cl, x) != principal:
                bad.append(f"lattice {k}: nexus member {x} has non-principal labels")
    return bad


def _perspective(lat: Lattice, x1: int, y1: int, x2: int, y2: int) -> bool:
    return (
        lat.join[y1][x2] == y2
        and lat.meet[y1][x2] == x1
    ) or (
        lat.join[y2][x1] == y1
        and lat.meet[y2][x1] == x2
    )


def check_label_perspectivity(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        jis = join_irreducibles(lat)
        jcg = {ji.j: cg_join_irreducible(lat, ji.j) for ji in jis}
        jstar = {ji.j: ji.j_star for ji in jis}
        for u, v in lat.poset.covers:
            theta = cg(lat, u, v)
            for ji in jis:
                same = jcg[ji.j] == theta
                persp = _perspective(lat, jstar[ji.j], ji.j, u, v)
                if same != persp:
                    bad.append(
                        f"lattice {k}: irreducible {ji.j} vs cover ({u}, {v})"
                    )
    return bad


def check_shared_label_doubling_breaks_order(labeled):
    # The hosts must be incomparable; a comparable pair never witnesses
    # a meet failure and the conclusion can fail for it.
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        leq = lat.poset.leq
        for ji in join_irreducibles(lat):
            j = ji.j
            hosts = [
                x
                for x in range(lat.n)
                if x != j
                and j in psi(cl, x)
                and leq(nucleus(lat, x), j)
            ]
            if not any(
                not leq(x, y) and not leq(y, x)
                for x, y in combinations(hosts, 2)
            ):
                continue
            doubled = double_interval(lat, j, j)
            if is_clo_lattice(core_label_order(label_covers(doubled))):
                bad.append(
                    f"lattice {k}: doubling {j} left the label order a lattice"
                )
    return bad


def check_atom_doubling_counterexamples(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        ats = atoms(lat)
        if len(ats) < 3:
            continue
        doubled = double_interval(lat, ats[1], ats[1])
        if mu(doubled) != mu(lat):
            bad.append(f"lattice {k}: atom doubling changed the Mobius value")
        if is_clo_lattice(core_label_order(label_covers(doubled))):
            bad.append(f"lattice {k}: atom doubling kept the label order a lattice")
    return bad


def check_crosscut_faces_match_nexus(labeled):
    bad = []
    for k, (lat, cl, _) in enumerate(labeled):
        ats = atoms(lat)
        if not is_crosscut(lat, ats):
            continue
        faces = [f for f in crosscut_complex(lat, ats) if f]
        joins = {join_of(lat, f) for f in faces}
        members, _ = boolean_nexus(cl)
        expected = set(members) - {lat.bottom}
        if mu(lat) != 0:
            expected -= {lat.top}
        if joins != expected or len(joins) != len(faces):
            bad.append(f"lattice {k}: face joins do not match the nexus")
    return bad


def check_spherical_quotients(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        if mu(lat) == 0:
            continue
        for theta, q, _, _ in quotient_rows(lat):
            if mu(q) == 0:
                bad.append(
                    f"lattice {k}: quotient with {theta.num_classes()} classes "
                    "lost sphericity"
                )
    return bad


def check_intersection_quotients(labeled):
    bad = []
    for k, (lat, _, clo) in enumerate(labeled):
        if not has_intersection_property(clo):
            continue
        for theta, q, _, qcl in quotient_rows(lat):
            if not has_intersection_property(core_label_order(qcl)):
                bad.append(
                    f"lattice {k}: quotient with {theta.num_classes()} classes "
                    "lost the intersection property"
                )
    return bad


def check_uniform_quotients(labeled):
    bad = []
    for k, (lat, _, _) in enumerate(labeled):
        for theta, q, _, _ in quotient_rows(lat):
            if not is_congruence_uniform(q):
                bad.append(
                    f"lattice {k}: quotient with {theta.num_classes()} classes "
                    "is not uniform"
                )
    return bad


def check_irreducible_congruence_characterizations(small):
    bad = []
    for k, lat in enumerate(small):
        if lat.n > 7 or lat.n == 1:
            continue
        con = congruence_lattice(lat)
        ji_con = {
            con.congruences[ji.j].cls for ji in join_irreducibles(con.lattice)
        }
        cover_con = {cg(lat, u, v).cls for (u, v) in lat.poset.covers}
        j_con = {
            cg_join_irreducible(lat, ji.j).cls for ji in join_irreducibles(lat)
        }
        if not ji_con == cover_con == j_con:
            bad.append(f"lattice {k}: the three descriptions disagree")
    return bad


def check_mobius_range_meet_semidistributive(small):
    bad = []
    for k, lat in enumerate(small):
        if is_meet_semidistributive(lat) and mu(lat) not in (-1, 0, 1):
            bad.append(f"lattice {k}: Mobius value {mu(lat)} out of range")
    return bad


def check_atom_join_top_iff_nonzero_mobius_meet_semidistributive(small):
    bad = []
    for k, lat in enumerate(small):
        if not is_meet_semidistributive(lat):
            continue
        if (join_of(lat, atoms(lat)) == lat.top) != (mu(lat) != 0):
            bad.append(f"lattice {k}: atom join disagrees with the Mobius value")
    return bad


def all_crosscuts(lat: Lattice):
    proper = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    for r in range(1, len(proper) + 1):
        for sub in combinations(proper, r):
            if is_crosscut(lat, sub):
                yield sub


def check_crosscut_consistency(small):
    bad = []
    for k, lat in enumerate(small):
        want = mu(lat)
        for cut in all_crosscuts(lat):
            if crosscut_mobius(lat, cut) != want:
                bad.append(f"lattice {k}: crosscut {cut} gives the wrong value")
    return bad


def check_boolean_iff_semidistributive_atomic(small):
    bad = []
    for k, lat in enumerate(small):
        lhs = bool(is_semidistributive(lat)) and is_atomic(lat)
        if lhs != is_boolean(lat):
            bad.append(f"lattice {k}: atomic semidistributive test fails")
    return bad


def check_canonical_joins_iff_join_semidistributive(small):
    # Against the triple search: canonical joins and is_join_semidistributive
    # both read the cover kernel.
    bad = []
    for k, lat in enumerate(small):
        every = all(
            canonical_join_representation(lat, x) is not None
            for x in range(lat.n)
        )
        p = lat.poset
        if every != (reference_sd_witness(lat.n, p.up, p.down, False) is None):
            bad.append(f"lattice {k}: canonical join existence test fails")
    return bad


EXTRA_CHECKS = [
    ("greatest label element iff nonzero Mobius value", check_greatest_iff_nonzero_mobius),
    ("boolean iff nonzero Mobius value and zero defect", check_boolean_iff_nonzero_mobius_and_zero_defect),
    ("nexus members carry principal labels", check_nexus_has_principal_labels),
    ("labels pair with perspective covers", check_label_perspectivity),
    ("doubling a shared label breaks the label order", check_shared_label_doubling_breaks_order),
    ("doubling a flanked atom breaks the label order", check_atom_doubling_counterexamples),
    ("crosscut faces join onto the nexus", check_crosscut_faces_match_nexus),
    ("quotients of spherical lattices stay spherical", check_spherical_quotients),
    ("quotients keep the intersection property", check_intersection_quotients),
    ("quotients stay congruence-uniform", check_uniform_quotients),
]

SMALL_CHECKS = [
    ("irreducible congruences match cover generators", check_irreducible_congruence_characterizations),
    ("meet-semidistributive Mobius values stay in range", check_mobius_range_meet_semidistributive),
    ("meet-semidistributive atoms join to the top iff nonzero Mobius value",
     check_atom_join_top_iff_nonzero_mobius_meet_semidistributive),
    ("every crosscut reproduces the Mobius value", check_crosscut_consistency),
    ("boolean iff semidistributive and atomic", check_boolean_iff_semidistributive_atomic),
    ("canonical joins exist iff join-semidistributive", check_canonical_joins_iff_join_semidistributive),
]
