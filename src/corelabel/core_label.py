"""Cover labeling, core label sets, the core label order, defect and nexus."""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations
from operator import and_

from .bitsets import bits, highest, lowest
from .congruence import _cg_classes, is_congruence_uniform
from .lattice import (Lattice, Verdict, _cover_label, _crosscut_spans, _irreducibles,
                      _require_elements, _unbounded_pair, atoms)
from .poset import Poset, _containment_poset, _restrict


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
    jlist, label = _labels_raw(lat.n, p.up, p.down, p.upper, p.lower)
    return CoverLabeling(lat, jlist, label)


def nucleus(lat: Lattice, x: int) -> int:
    """Meet of all lower covers of x; the bottom is its own nucleus."""
    _require_elements(lat, x)
    return _nucleus(lat.poset.down, lat.poset.lower, x)


def psi(cl: CoverLabeling, x: int) -> frozenset[int]:
    """Core label set: labels of all covers inside [nucleus(x), x]."""
    _require_elements(cl.parent, x)
    p = cl.parent.poset
    m = _psi_mask(x, p.up, p.down, p.upper, p.lower, cl.jpos, cl.label)
    return frozenset(cl.jlist[k] for k in bits(m))


def gamma(cl: CoverLabeling, x: int) -> frozenset[int]:
    """Canonical joinands of x read off the labels of its lower covers."""
    _require_elements(cl.parent, x)
    return frozenset(cl.label[(y, x)] for y in bits(cl.parent.poset.lower[x]))


def core_label_order(cl: CoverLabeling) -> CoreLabelOrder:
    """The core label order: elements ordered by containment of psi sets."""
    lat = cl.parent
    p = lat.poset
    masks = _psi_masks_raw(lat.n, p.up, p.down, p.upper, p.lower, cl.jlist, cl.label)
    assert len(set(masks)) == lat.n, "core label sets must be injective"
    # L's index order is a linear extension of the containment: Psi(x) in
    # Psi(y) forces x <= y, since every label in Psi(y) lies below y and x
    # is the join of Gamma(x), a subset of Psi(x).
    return CoreLabelOrder(lat, cl.jlist, masks, _containment_poset(masks))


def is_clo_meet_semilattice(clo: CoreLabelOrder) -> Verdict:
    """Every pair has a greatest lower bound in the core label order."""
    # L's index order is a linear extension of the core label order.
    w = _unbounded_pair(clo.poset.n, clo.poset.down, clo.poset.up, highest)
    return Verdict(w is None, w and w[0])


def is_clo_lattice(clo: CoreLabelOrder) -> Verdict:
    """Meet-semilattice with a greatest element, hence a lattice."""
    v = is_clo_meet_semilattice(clo)
    if v and clo.poset.down[-1] != (1 << clo.poset.n) - 1:
        return Verdict(False, "no greatest element")
    return v


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
    # The members ascend, and L's index order is a linear extension.
    return members, Poset._from_up_masks(len(members), _restrict(lat.poset.up, members))


def crosscut_complex(lat: Lattice, c) -> list[frozenset[int]]:
    """Faces of the crosscut complex: subsets of the crosscut that do not
    simultaneously meet to 0-hat and join to 1-hat."""
    cl, spans = _crosscut_spans(lat, c)
    faces = [frozenset(cl[i] for i in bits(sub)) for sub, s in enumerate(spans) if not s]
    faces.sort(key=lambda f: (len(f), sorted(f)))
    return faces


def check_swap_lemma(lat: Lattice, y: int, covers) -> list[int]:
    """Find lower covers c_i of x = join of the given upper covers a_i of y
    with meet y and matching cover congruences; failure would be a bug."""
    a_list = sorted(set(covers))
    _require_elements(lat, y, *a_list)
    up, down = lat.poset.up, lat.poset.down
    for a in a_list:
        if not lat.poset.upper[y] >> a & 1:
            raise ValueError(f"{a} is not an upper cover of {y}")
    if not a_list:
        return []
    x = lowest(reduce(and_, (up[a] for a in a_list)))
    acg = [_cg_classes(lat.n, up, down, ((y, a),)) for a in a_list]
    cands = list(bits(lat.poset.lower[x]))
    ccg = {c: _cg_classes(lat.n, up, down, ((c, x),)) for c in cands}
    s = len(a_list)
    for combo in combinations(cands, s):
        if highest(reduce(and_, (down[c] for c in combo))) != y:
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
    # Perspectivity labels of a congruence-uniform lattice given raw arrays:
    # (jlist, label dict), the label of the cover u -< v being the least
    # element of down(v) minus down(u) (see lattice._cover_label).
    label = {
        (u, v): _cover_label(down, up, lowest, u, v)[0]
        for u in range(n) for v in bits(upper[u])
    }
    return _irreducibles(lower), label


def _nucleus(down, lower, x: int) -> int:
    # The meet of the lower covers of x, the greatest element below all of
    # them; x itself when it has none.
    lc = lower[x]
    if not lc:
        return x
    common = -1
    for y in bits(lc):
        common &= down[y]
    return highest(common)


def _psi_mask(x: int, up, down, upper, lower, jpos, label) -> int:
    # Core label set of x as a bitset over positions in jlist: the labels
    # of the covers inside [nucleus(x), x].
    core = up[_nucleus(down, lower, x)] & down[x]
    m = 0
    for u in bits(core):
        for v in bits(upper[u] & core):
            m |= 1 << jpos[label[(u, v)]]
    return m


def _psi_masks_raw(n: int, up, down, upper, lower, jlist, label):
    # Core label sets of all elements, as bitsets over positions in jlist.
    jpos = {j: k for k, j in enumerate(jlist)}
    return [_psi_mask(x, up, down, upper, lower, jpos, label) for x in range(n)]


def _clo_is_lattice_raw(n: int, psi_masks) -> bool:
    # Is the core label order a lattice?  On CU input the psi_masks are
    # distinct, and L's index order extends their containment (see
    # core_label_order).
    p = _containment_poset(psi_masks)
    return p.down[-1] == (1 << n) - 1 and _unbounded_pair(n, p.down, p.up, highest) is None
