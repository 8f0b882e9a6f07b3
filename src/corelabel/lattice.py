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
    out = []
    for j in range(lat.n):
        lc = lat.poset.lower[j]
        if lc and lc & (lc - 1) == 0:
            out.append(JoinIrreducibleIndex(j, lowest(lc)))
    return out


def meet_irreducibles(lat: Lattice) -> list[JoinIrreducibleIndex]:
    """Elements with exactly one upper cover (join-irreducibles of the dual)."""
    out = []
    for m in range(lat.n):
        uc = lat.poset.upper[m]
        if uc and uc & (uc - 1) == 0:
            out.append(JoinIrreducibleIndex(m, lowest(uc)))
    return out


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

    Returns a frozenset of element indices, or None when no canonical
    representation exists (allowed on non-join-semidistributive input).
    """
    if x == lat.bottom:
        return frozenset()
    reps = _irredundant_reps(lat, x)
    for r in reps:
        if all(_refines(lat, r, s) for s in reps):
            return frozenset(r)
    return None


def _irredundant_reps(lat: Lattice, x: int) -> list[tuple[int, ...]]:
    below = [y for y in bits(lat.poset.down[x]) if y != lat.bottom]
    join = lat.join
    out = []

    def extend(start: int, chosen: tuple[int, ...], value: int) -> None:
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


def _refines(lat: Lattice, a, b) -> bool:
    return all(any(lat.poset.leq(x, y) for y in b) for x in a)


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
    """Sphericity via mu(0-hat, 1-hat) != 0; meet-semidistributive input only."""
    msd = is_meet_semidistributive(lat)
    if not msd:
        raise ValueError(
            f"sphericity test needs a meet-semidistributive lattice; "
            f"witness {msd.witness}"
        )
    return lat.poset.mobius(lat.bottom, lat.top) != 0


# Kernels on raw bitset arrays, shared with the enumeration stream.

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
