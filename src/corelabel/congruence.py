"""Lattice congruences: cover congruences, Con(L), uniformity, quotients."""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import highest, lowest, mask_of
from .lattice import (
    Lattice,
    Verdict,
    _irreducibles,
    _require_elements,
    as_lattice,
    join_irreducibles,
)
from .poset import Poset, _containment_poset


class Congruence:
    """A partition of a lattice compatible with meet and join.

    Stored as a class-index array where each element maps to the least
    element of its class.  Construction validates that classes are
    intervals and that collapsing them respects meet and join.
    """

    __slots__ = ("parent", "cls")

    def __init__(self, parent: Lattice, cls):
        self.parent = parent
        self.cls = tuple(cls)
        if len(self.cls) != parent.n:
            raise ValueError("class array length must equal the lattice size")
        _validate_congruence(parent, self.cls)

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.cls == other.cls

    def __hash__(self):
        return hash(self.cls)

    def __repr__(self):
        return f"Congruence({self.classes()})"

    def classes(self) -> list[list[int]]:
        """The partition as a list of sorted classes, ordered by minimum."""
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(self.cls):
            groups.setdefault(c, []).append(i)
        return [groups[k] for k in sorted(groups)]

    def collapses(self, x: int, y: int) -> bool:
        """True iff x and y lie in one class."""
        return self.cls[x] == self.cls[y]

    def refines(self, other: "Congruence") -> bool:
        """True iff every class of self lies inside a class of other."""
        image: dict[int, int] = {}
        for i in range(len(self.cls)):
            c = image.setdefault(self.cls[i], other.cls[i])
            if c != other.cls[i]:
                return False
        return True

    def num_classes(self) -> int:
        return len(set(self.cls))


def _validate_congruence(lat: Lattice, cls: tuple[int, ...]) -> None:
    n = lat.n
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cls):
        groups.setdefault(c, []).append(i)
    for c, members in groups.items():
        if c != members[0]:
            raise ValueError("class ids must be the least member of each class")
        lo, hi = members[0], members[-1]
        interval = lat.poset.up[lo] & lat.poset.down[hi]
        if interval != mask_of(members):
            raise ValueError(
                f"class {members} is not the interval [{lo}, {hi}]"
            )
    # With interval classes, compatibility reduces to checking the
    # endpoints of each class against every element.
    up, down = lat.poset.up, lat.poset.down
    for members in groups.values():
        lo, hi = members[0], members[-1]
        if lo == hi:
            continue
        for u in range(n):
            if cls[highest(down[lo] & down[u])] != cls[highest(down[hi] & down[u])]:
                raise ValueError(
                    f"partition not meet-compatible at class [{lo},{hi}], u={u}"
                )
            if cls[lowest(up[lo] & up[u])] != cls[lowest(up[hi] & up[u])]:
                raise ValueError(
                    f"partition not join-compatible at class [{lo},{hi}], u={u}"
                )


def cg(lat: Lattice, x: int, y: int) -> Congruence:
    """Finest congruence collapsing the cover x covered-by y."""
    _require_elements(lat, x, y)
    if not lat.poset.upper[x] >> y & 1:
        if lat.poset.upper[y] >> x & 1:
            x, y = y, x
        else:
            raise ValueError(f"cg requires a cover pair, got ({x}, {y})")
    arr = _cg_classes(lat.n, lat.poset.up, lat.poset.down, ((x, y),))
    return Congruence(lat, arr)


def cg_join_irreducible(lat: Lattice, j: int) -> Congruence:
    """cg(j) = cg(j_star, j) for a join-irreducible j."""
    if j not in _irreducibles(lat.poset.lower):
        raise ValueError(f"{j} is not join-irreducible")
    return cg(lat, lowest(lat.poset.lower[j]), j)


def _cg_classes(n: int, up, down, seed_pairs) -> tuple[int, ...]:
    # Worklist congruence closure: each merge forces the meet and join
    # translates of the merged pair.
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    queue = list(seed_pairs)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for u in range(n):
            ma = highest(down[a] & down[u])
            mb = highest(down[b] & down[u])
            if find(ma) != find(mb):
                queue.append((ma, mb))
            ja = lowest(up[a] & up[u])
            jb = lowest(up[b] & up[u])
            if find(ja) != find(jb):
                queue.append((ja, jb))
    roots: dict[int, int] = {}
    arr = [0] * n
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = i  # first hit is the least member in index order
        arr[i] = roots[r]
    return tuple(arr)


def identity_congruence(lat: Lattice) -> Congruence:
    """The finest congruence: every class a singleton."""
    return Congruence(lat, tuple(range(lat.n)))


@dataclass(frozen=True)
class CongruenceLattice:
    """Con(L) under refinement: a Lattice whose element i is congruences[i]."""

    lattice: Lattice
    congruences: tuple[Congruence, ...]


def congruence_lattice(lat: Lattice, limit: int | None = None) -> CongruenceLattice:
    """All congruences of L, as the down-sets of the cover congruences cg(j).

    Two facts make this exact.  A cg(j) collapses a single cover, so it
    lies below a join of congruences only if it lies below one of them:
    the distinct cg(j) are the join-irreducibles of the distributive
    lattice Con(L), every congruence is the join of those below it, and by
    Birkhoff's theorem the down-sets of the cg(j) correspond one to one to
    the congruences, the covers of Con(L) being the steps D -> D + {g}.
    And Con(L) is a sublattice of the partition lattice, so the join of
    two congruences is the transitive closure of their union.

    With a limit, raises ValueError before building any partition when
    L has more than limit congruences.
    """
    n = lat.n
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    for ji in join_irreducibles(lat):
        arr = _cg_classes(n, lat.poset.up, lat.poset.down, ((ji.j_star, ji.j),))
        seen.setdefault(arr, (ji.j_star, ji.j))
    # A congruence with more classes is never above one with fewer, so
    # this order is a linear extension of Con(L) on the generators.
    gens = sorted(seen, key=lambda arr: -len(set(arr)))
    # below[i]: generators strictly below gens[i]; cg(a, b) <= theta iff
    # theta collapses a and b.
    below = [
        mask_of(h for h, g in enumerate(gens)
                if h != i and arr[seen[g][0]] == arr[seen[g][1]])
        for i, arr in enumerate(gens)
    ]
    downsets = _down_sets(below, limit)
    index = {d: k for k, d in enumerate(downsets)}
    parts = [tuple(range(n))]
    for d in downsets[1:]:
        top = d.bit_length() - 1
        parts.append(_join_partitions(parts[index[d ^ 1 << top]], gens[top]))
    rank = sorted(range(len(parts)), key=lambda k: (-len(set(parts[k])), parts[k]))
    congruences = tuple(Congruence(lat, parts[k]) for k in rank)
    # A coarser congruence has fewer classes, so rank order is a linear
    # extension of Con(L), the containment order on the down-sets; the
    # identity comes first and the total congruence last.
    conlat = Lattice(_containment_poset([downsets[k] for k in rank]))
    return CongruenceLattice(conlat, congruences)


def _down_sets(below: list[int], limit: int | None) -> list[int]:
    # Down-sets of a poset given by strict down-masks over a linear
    # extension, as bitsets in increasing order.  Element i extends every
    # down-set of 0..i-1 that holds all of below[i].
    out = [0]
    for i, need in enumerate(below):
        out += [d | 1 << i for d in out if d & need == need]
        if limit is not None and len(out) > limit:
            raise ValueError(f"more than {limit} congruences")
    return out


def _join_partitions(a, b) -> tuple[int, ...]:
    # Join in Con(L) = join in the partition lattice: union-find over the
    # classes of both.  Roots stay the least member of their class.
    parent = list(a)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in enumerate(b):
        if x != y:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return tuple(find(x) for x in range(len(parent)))


def is_congruence_uniform(lat: Lattice) -> Verdict:
    """j -> cg(j) injective on J(L) and, dually, on M(L).

    Every cover congruence cg(u, v) equals cg(j_star, j) for some
    join-irreducible j and cg(m, m_star) for some meet-irreducible m (take
    the perspective cover).  So both maps are onto the same set, and once
    the join map is injective the meet map is injective exactly when
    |M(L)| = |J(L)|; the meet-side closures run only when the counts differ.
    """
    w = _cu_witness(lat.n, lat.poset.up, lat.poset.down,
                    lat.poset.upper, lat.poset.lower)
    return Verdict(w is None, w)


def _cu_witness(n: int, up, down, upper, lower):
    # Returns ("join"|"meet", e1, e2) for two irreducibles inducing the
    # same congruence, else None.  Congruences of the dual are the same
    # partitions, so the meet side closes covers (m, unique upper cover)
    # directly in L.
    seen: dict[tuple[int, ...], int] = {}
    for j in _irreducibles(lower):
        arr = _cg_classes(n, up, down, ((lowest(lower[j]), j),))
        if arr in seen:
            return ("join", seen[arr], j)
        seen[arr] = j
    meets = _irreducibles(upper)
    if len(meets) == len(seen):
        return None
    seen = {}
    for m in meets:
        arr = _cg_classes(n, up, down, ((m, lowest(upper[m])),))
        if arr in seen:
            return ("meet", seen[arr], m)
        seen[arr] = m
    return None


def quotient(lat: Lattice, theta: Congruence) -> tuple[Lattice, list[int]]:
    """The quotient lattice and the projection x -> class index.

    Quotient elements are the classes sorted by least original member,
    which is a linear extension of the quotient order.
    """
    if theta.parent is not lat:
        raise ValueError("congruence belongs to a different lattice")
    classes = theta.classes()
    index = {c[0]: k for k, c in enumerate(classes)}
    proj = [index[theta.cls[i]] for i in range(lat.n)]
    # [x] <= [y] iff x <= max [y] (x join y stays in the interval [y]), so
    # these masks are already the quotient order, transitive and reflexive.
    up = [
        mask_of(b for b, cb in enumerate(classes) if lat.poset.leq(ca[0], cb[-1]))
        for ca in classes
    ]
    q = as_lattice(Poset._from_up_masks(len(classes), up))
    assert isinstance(q, Lattice), "quotient of a lattice must be a lattice"
    return q, proj


def kernel_irreducibles(lat: Lattice, theta: Congruence) -> list[int]:
    """Join-irreducibles j whose defining cover (j_star, j) is collapsed."""
    return [
        ji.j
        for ji in join_irreducibles(lat)
        if theta.cls[ji.j] == theta.cls[ji.j_star]
    ]
