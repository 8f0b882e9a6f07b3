"""Cover labeling, core label sets, the core label order, defect and nexus."""

from __future__ import annotations

from itertools import combinations, permutations

from .bitsets import bits, highest, lowest, mask_of
from .congruence import _cg_classes, is_congruence_uniform
from .lattice import Lattice, Verdict, atoms, is_crosscut
from .poset import Poset, from_covers


class CoverLabeling:
    """Labels every cover (u, v) of a congruence-uniform lattice by the unique
    join-irreducible j perspective to it: j join u = v and j meet u = j_star."""

    __slots__ = ("parent", "jlist", "jpos", "label")

    def __init__(self, parent: Lattice, jlist, label):
        self.parent = parent
        self.jlist = tuple(jlist)             # sorted join-irreducible elements
        self.jpos = {j: k for k, j in enumerate(self.jlist)}
        self.label = dict(label)              # (u, v) cover -> element index j


class CoreLabelOrder:
    """The parent's elements reordered by containment of core label sets."""

    __slots__ = ("parent", "jlist", "psi_masks", "poset")

    def __init__(self, parent: Lattice, jlist, psi_masks, poset: Poset):
        self.parent = parent
        self.jlist = tuple(jlist)
        self.psi_masks = tuple(psi_masks)     # bitsets over positions in jlist
        self.poset = poset

    def psi_set(self, x: int) -> frozenset[int]:
        """Core label set of x as element indices of the parent."""
        return frozenset(self.jlist[k] for k in bits(self.psi_masks[x]))


def label_covers(lat: Lattice) -> CoverLabeling:
    """Compute the perspectivity labeling; requires congruence uniformity."""
    cu = is_congruence_uniform(lat)
    if not cu:
        raise ValueError(
            f"cover labeling needs a congruence-uniform lattice; "
            f"witness {cu.witness}"
        )
    return _label_cu(lat)


def _label_cu(lat: Lattice) -> CoverLabeling:
    # label_covers without the uniformity test, for callers that hold a
    # passing is_congruence_uniform verdict for lat.
    p = lat.poset
    got = _labels_raw(lat.n, p.up, p.down, p.upper, p.lower)
    assert got is not None, "a congruence-uniform lattice must label uniquely"
    jlist, label = got
    return CoverLabeling(lat, jlist, label)


def nucleus(lat: Lattice, x: int) -> int:
    """Meet of all lower covers of x; the bottom is its own nucleus."""
    lc = lat.poset.lower[x]
    if not lc:
        return x
    out = -1
    for y in bits(lc):
        out = y if out < 0 else lat.meet[out][y]
    return out


def psi(cl: CoverLabeling, x: int) -> frozenset[int]:
    """Core label set: labels of all covers inside [nucleus(x), x]."""
    lat = cl.parent
    core = lat.poset.up[nucleus(lat, x)] & lat.poset.down[x]
    out = set()
    for u in bits(core):
        for v in bits(lat.poset.upper[u] & core):
            out.add(cl.label[(u, v)])
    return frozenset(out)


def gamma(cl: CoverLabeling, x: int) -> frozenset[int]:
    """Canonical joinands of x read off the labels of its lower covers."""
    return frozenset(cl.label[(y, x)] for y in bits(cl.parent.poset.lower[x]))


def core_label_order(cl: CoverLabeling) -> CoreLabelOrder:
    """The core label order: elements ordered by containment of psi sets."""
    lat = cl.parent
    masks = []
    for x in range(lat.n):
        masks.append(mask_of(cl.jpos[j] for j in psi(cl, x)))
    assert len(set(masks)) == lat.n, "core label sets must be injective"
    edges = [
        (i, k)
        for i in range(lat.n)
        for k in range(lat.n)
        if i != k and masks[i] & ~masks[k] == 0
    ]
    return CoreLabelOrder(lat, cl.jlist, masks, from_covers(lat.n, edges))


def is_clo_meet_semilattice(clo: CoreLabelOrder) -> Verdict:
    """Every pair has a greatest lower bound in the core label order."""
    p = clo.poset
    for i in range(p.n):
        for k in range(i + 1, p.n):
            d = p.down[i] & p.down[k]
            if not d:
                return Verdict(False, (i, k))
            z = highest(d)
            if d & ~p.down[z]:
                return Verdict(False, (i, k))
    return Verdict(True)


def is_clo_lattice(clo: CoreLabelOrder) -> Verdict:
    """Meet-semilattice with a greatest element, hence a lattice."""
    ms = is_clo_meet_semilattice(clo)
    if not ms:
        return ms
    p = clo.poset
    if p.down[p.n - 1] != (1 << p.n) - 1:
        return Verdict(False, "no greatest element")
    return Verdict(True)


def has_intersection_property(clo: CoreLabelOrder) -> Verdict:
    """Psi-set family closed under pairwise intersection; witness pair else."""
    family = set(clo.psi_masks)
    for i in range(len(clo.psi_masks)):
        for k in range(i + 1, len(clo.psi_masks)):
            if clo.psi_masks[i] & clo.psi_masks[k] not in family:
                return Verdict(False, (i, k))
    return Verdict(True)


def boolean_defect(cl: CoverLabeling) -> int:
    """Total excess of core label sets over canonical joinands."""
    return sum(
        len(psi(cl, x) - gamma(cl, x)) for x in range(cl.parent.n)
    )


def boolean_nexus(cl: CoverLabeling) -> tuple[list[int], Poset]:
    """Elements whose canonical joinands are all atoms, with the induced order."""
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


def crosscut_complex(lat: Lattice, c) -> list[frozenset[int]]:
    """Faces of the crosscut complex: subsets of the crosscut that do not
    simultaneously meet to 0-hat and join to 1-hat."""
    cl = sorted(set(c))
    if not is_crosscut(lat, cl):
        raise ValueError(f"{cl} is not a crosscut")
    faces = []
    for sub in range(1 << len(cl)):
        m, j = lat.top, lat.bottom
        members = [cl[i] for i in bits(sub)]
        for x in members:
            m = lat.meet[m][x]
            j = lat.join[j][x]
        if not (m == lat.bottom and j == lat.top):
            faces.append(frozenset(members))
    faces.sort(key=lambda f: (len(f), sorted(f)))
    return faces


def check_swap_lemma(lat: Lattice, y: int, covers) -> list[int]:
    """Find lower covers c_i of x = join of the given upper covers a_i of y
    with meet y and matching cover congruences; failure would be a bug."""
    a_list = sorted(set(covers))
    for a in a_list:
        if not lat.poset.upper[y] >> a & 1:
            raise ValueError(f"{a} is not an upper cover of {y}")
    if not a_list:
        return []
    x = lat.bottom
    for a in a_list:
        x = lat.join[x][a]
    up, down = lat.poset.up, lat.poset.down
    acg = [_cg_classes(lat.n, up, down, ((y, a),)) for a in a_list]
    cands = list(bits(lat.poset.lower[x]))
    ccg = {c: _cg_classes(lat.n, up, down, ((c, x),)) for c in cands}
    s = len(a_list)
    for combo in combinations(cands, s):
        m = combo[0]
        for c in combo[1:]:
            m = lat.meet[m][c]
        if m != y:
            continue
        for perm in permutations(combo):
            if all(ccg[perm[i]] == acg[i] for i in range(s)):
                return list(perm)
    raise AssertionError(
        f"no swap matching for y={y}, covers={a_list}; "
        "this contradicts congruence uniformity"
    )


# Kernels shared with the enumeration stream.

def _labels_raw(n: int, up, down, upper, lower):
    # Perspectivity labels for a known-CU lattice given raw arrays.
    # Returns (jlist, label dict) or None if some cover lacks a unique label.
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


def _psi_masks_raw(n: int, up, down, upper, lower, jlist, label):
    # Core label sets as bitsets over positions in jlist.
    jpos = {j: k for k, j in enumerate(jlist)}
    masks = []
    for x in range(n):
        lc = lower[x]
        if not lc:
            masks.append(0)
            continue
        nuc = -1
        for y in bits(lc):
            nuc = y if nuc < 0 else highest(down[nuc] & down[y])
        core = up[nuc] & down[x]
        m = 0
        for u in bits(core):
            for v in bits(upper[u] & core):
                m |= 1 << jpos[label[(u, v)]]
        masks.append(m)
    return masks


def _clo_is_lattice_raw(n: int, psi_masks) -> bool:
    # Containment order on psi bitsets: unique greatest set plus pairwise
    # meets.  Distinctness of masks is assumed (guaranteed on CU input).
    full = 0
    for m in psi_masks:
        full |= m
    if full not in psi_masks:
        return False
    family = set(psi_masks)
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
