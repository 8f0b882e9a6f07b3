"""Lattice structure over Poset: tables, irreducibles, semidistributivity, crosscuts."""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, highest, lowest
from .poset import Poset


@dataclass(frozen=True)
class NotALattice:
    """Witness that a poset is not a lattice.

    kind is "join" or "meet"; bounds holds the minimal upper (or maximal
    lower) bounds of the offending pair, never exactly one of them.
    """

    kind: str
    pair: tuple[int, int]
    bounds: tuple[int, ...]


@dataclass(frozen=True)
class JoinIrreducibleIndex:
    """A join-irreducible element j together with its unique lower cover."""

    j: int
    j_star: int


class Verdict:
    """Boolean predicate result carrying an optional counterexample witness."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(True)"
        return f"Verdict(False, witness={self.witness!r})"


class Lattice:
    """A finite lattice: a Poset plus meet/join tables and 0-hat/1-hat."""

    __slots__ = ("poset", "meet", "join", "bottom", "top")

    def __init__(self, poset: Poset, meet, join, bottom: int, top: int):
        self.poset = poset
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top

    @property
    def n(self) -> int:
        return self.poset.n

    def __repr__(self):
        return f"Lattice(n={self.n})"


def as_lattice(p: Poset):
    """Return a Lattice, or a NotALattice witness for the first failing pair."""
    n = p.n
    if n == 0:
        raise ValueError("the empty poset is not a lattice")
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
    return Lattice(p, meet, join, 0, n - 1)


def join_irreducibles(lat: Lattice) -> list[JoinIrreducibleIndex]:
    """Elements with exactly one lower cover, with that cover."""
    lower = lat.poset.lower
    return [JoinIrreducibleIndex(j, lowest(lower[j])) for j in _irreducibles(lower)]


def meet_irreducibles(lat: Lattice) -> list[JoinIrreducibleIndex]:
    """Elements with exactly one upper cover (join-irreducibles of the dual)."""
    upper = lat.poset.upper
    return [JoinIrreducibleIndex(m, lowest(upper[m])) for m in _irreducibles(upper)]


def atoms(lat: Lattice) -> list[int]:
    """Upper covers of the bottom element."""
    return list(bits(lat.poset.upper[lat.bottom]))


def coatoms(lat: Lattice) -> list[int]:
    """Lower covers of the top element."""
    return list(bits(lat.poset.lower[lat.top]))


def is_join_semidistributive(lat: Lattice) -> Verdict:
    """Brute-force join-semidistributivity; witness triple (x, y, z) on failure."""
    w = _sd_witness(lat.n, lat.poset.up, lat.poset.down, dual=False)
    return Verdict(w is None, w)


def is_meet_semidistributive(lat: Lattice) -> Verdict:
    """Brute-force meet-semidistributivity; witness triple (x, y, z) on failure."""
    w = _sd_witness(lat.n, lat.poset.up, lat.poset.down, dual=True)
    return Verdict(w is None, w)


def is_semidistributive(lat: Lattice) -> Verdict:
    """Both semidistributive laws; first failing witness returned."""
    v = is_join_semidistributive(lat)
    if not v:
        return v
    return is_meet_semidistributive(lat)


def canonical_join_representation(lat: Lattice, x: int):
    """The unique irredundant join representation of x refining all others.

    Read off the lower covers: it is the set of labels of the covers
    y -< x, each the least element of down(x) minus down(y).  Returns a
    frozenset of element indices, or None when some cover has no such
    least element; then x has no canonical representation (allowed on
    non-join-semidistributive input).
    """
    p = lat.poset
    got = frozenset(_cover_label(p.up, p.down, y, x) for y in bits(p.lower[x]))
    return None if -1 in got else got


def is_atomic(lat: Lattice) -> bool:
    """True iff every element is a join of atoms."""
    am = lat.poset.upper[lat.bottom]
    for x in range(lat.n):
        v = lat.bottom
        for a in bits(am & lat.poset.down[x]):
            v = lat.join[v][a]
        if v != x:
            return False
    return True


def is_crosscut(lat: Lattice, c) -> bool:
    """True iff c is an antichain avoiding 0-hat and 1-hat that meets every
    maximal chain exactly once."""
    cs = set(c)
    if not cs or lat.bottom in cs or lat.top in cs:
        return False
    if not lat.poset.is_antichain(cs):
        return False
    for chain in lat.poset.maximal_chains():
        if sum(1 for v in chain if v in cs) != 1:
            return False
    return True


def crosscut_mobius(lat: Lattice, c) -> int:
    """Sum of (-1)^|X| over spanning subsets X of the crosscut c."""
    cl = sorted(set(c))
    if not is_crosscut(lat, cl):
        raise ValueError(f"{cl} is not a crosscut")
    total = 0
    for sub in range(1 << len(cl)):
        m, j = lat.top, lat.bottom
        for i in bits(sub):
            m = lat.meet[m][cl[i]]
            j = lat.join[j][cl[i]]
        if m == lat.bottom and j == lat.top:
            total += 1 if sub.bit_count() % 2 == 0 else -1
    return total


def is_spherical(lat: Lattice) -> bool:
    """Sphericity, mu(0-hat, 1-hat) != 0, decided as: the atoms join to
    1-hat.  The two agree on meet-semidistributive input, the only input
    accepted (see _spherical_raw)."""
    msd = is_meet_semidistributive(lat)
    if not msd:
        raise ValueError(
            f"sphericity test needs a meet-semidistributive lattice; "
            f"witness {msd.witness}"
        )
    return _spherical_raw(lat.poset.up, lat.poset.upper)


def _require_elements(lat: Lattice, *xs: int) -> None:
    # Element arguments from outside: a negative index would wrap.
    for x in xs:
        if not 0 <= x < lat.n:
            raise ValueError(f"element {x} out of range for n={lat.n}")


# Kernels on raw bitset arrays, shared with the enumeration stream.

def _irreducibles(covers: list[int]) -> list[int]:
    # Elements with exactly one cover in the given array: join-irreducibles
    # for lower covers, meet-irreducibles for upper covers.
    return [v for v, c in enumerate(covers) if c and not c & (c - 1)]


def _cover_label(up, down, u: int, v: int) -> int:
    # The least element of down(v) minus down(u) for a cover u -< v, or -1
    # if there is none; along a linear extension only the lowest member can
    # be least.  On a join-semidistributive lattice it exists (two minimal
    # members x, y both join u to v, so x meet y does too) and it is the
    # join-irreducible j with j join u = v and j meet u = j_*: the label.
    rest = down[v] & ~down[u]
    j = lowest(rest)
    return j if rest & ~up[j] == 0 else -1


def _spherical_raw(up, upper) -> bool:
    # Do the atoms join to 1-hat (element 0 is 0-hat, the last is 1-hat)?
    # On a meet-semidistributive lattice that is mu(0-hat, 1-hat) != 0.  By
    # the crosscut theorem on the atoms, mu sums (-1)^|S| over the sets S
    # of atoms with meet 0-hat and join 1-hat.  An atom a not in S has
    # a meet s = 0-hat for each s in S, so a meet (join S) = 0-hat by
    # meet-semidistributivity, and join S is not 1-hat.  So the sum has at
    # most one term, S = all atoms, present iff they join to 1-hat.  Both
    # tests pass on lattices of one or two elements.
    n = len(up)
    common = (1 << n) - 1
    for a in bits(upper[0]):
        common &= up[a]
    return common == 1 << n - 1


def _sd_witness(n: int, up: list[int], down: list[int], dual: bool):
    # Returns (x, y, z) violating the (join; meet if dual) law, else None.
    if dual:
        outer, inner = down, up
    else:
        outer, inner = up, down
    for x in range(n):
        ox = outer[x]
        row = [_pick(ox & outer[y], dual) for y in range(n)]
        for y in range(n):
            xy = row[y]
            for z in range(y + 1, n):
                if row[z] != xy:
                    continue
                yz = _pick(inner[y] & inner[z], not dual)
                if row[yz] != xy:
                    return (x, y, z)
    return None


def _pick(mask: int, take_highest: bool) -> int:
    return highest(mask) if take_highest else lowest(mask)
