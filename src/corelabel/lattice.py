"""Lattice structure over Poset: joins and meets, irreducibles, semidistributivity, crosscuts."""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, highest, lowest
from .poset import Poset


@dataclass(frozen=True)
class NotALattice:
    """Witness that a poset is not a lattice.

    kind is "join" or "meet".  A join witness's bounds are the minimal
    upper bounds of its pair, none or at least two.  A meet witness comes
    only from a poset without a least element: its pair is (0, k) for the
    first k not above 0, which has no lower bound, so its bounds are empty.
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
    """A finite lattice: a Poset indexed along a linear extension, so 0-hat
    is element 0 and 1-hat element n - 1.  Joins and meets are read off its
    bitsets; the read-only join and meet tables are built on first access."""

    __slots__ = ("poset", "top", "_join", "_meet")

    bottom = 0

    def __init__(self, poset: Poset):
        self.poset = poset
        self.top = poset.n - 1
        self._join = self._meet = None

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def join(self) -> tuple[tuple[int, ...], ...]:
        """join[x][y], the least upper bound of x and y."""
        if self._join is None:
            up = self.poset.up
            self._join = tuple(tuple(lowest(u & v) for v in up) for u in up)
        return self._join

    @property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """meet[x][y], the greatest lower bound of x and y."""
        if self._meet is None:
            down = self.poset.down
            self._meet = tuple(tuple(highest(d & e) for e in down) for d in down)
        return self._meet

    def __repr__(self):
        return f"Lattice(n={self.n})"


def as_lattice(p: Poset):
    """Return a Lattice, or a NotALattice witness for the first failing pair."""
    n = p.n
    if n == 0:
        raise ValueError("the empty poset is not a lattice")
    up, down = p.up, p.down
    fails = []
    w = _unbounded_pair(n, up, down, lowest)
    if w:
        fails.append(NotALattice("join", *w))
    # With a least element the first failure is a join failure: if x, y
    # have maximal common lower bounds a, b, the earlier pair a, b (both
    # lie below x) has no join.  Without one, element 0 is minimal, so the
    # first meet failure is 0 and the first k not above it: no lower bound.
    not_above = ~up[0] & (1 << n) - 1
    if not_above:
        fails.append(NotALattice("meet", (0, lowest(not_above)), ()))
    return min(fails, key=lambda f: f.pair) if fails else Lattice(p)


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
    _require_elements(lat, x)
    p = lat.poset
    got = frozenset(_cover_label(p.up, p.down, y, x) for y in bits(p.lower[x]))
    return None if -1 in got else got


def is_atomic(lat: Lattice) -> bool:
    """True iff every element is a join of atoms, that is, iff every
    join-irreducible covers 0-hat."""
    lower = lat.poset.lower
    return all(lower[j] == 1 for j in _irreducibles(lower))


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
    _, spans = _crosscut_spans(lat, c)
    return sum(-1 if sub.bit_count() % 2 else 1 for sub, s in enumerate(spans) if s)


def _crosscut_spans(lat: Lattice, c) -> tuple[list[int], list[bool]]:
    # The sorted members of the crosscut c and, for each subset sub of them
    # (bit i for the i-th member), whether it meets to 0-hat and joins to
    # 1-hat.  The empty subset meets to 1-hat and joins to 0-hat.
    cl = sorted(set(c))
    if not is_crosscut(lat, cl):
        raise ValueError(f"{cl} is not a crosscut")
    up, down = lat.poset.up, lat.poset.down
    full = (1 << lat.n) - 1
    ups, downs = [full], [full]
    for x in cl:
        ups += [u & up[x] for u in ups]
        downs += [d & down[x] for d in downs]
    return cl, [u == 1 << lat.top and d == 1 for u, d in zip(ups, downs)]


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

def _unbounded_pair(n: int, masks, dual, pick):
    # The first pair i < k, row by row, whose common bounds b = masks[i] &
    # masks[k] have no least (pick = lowest, masks = up, dual = down) or
    # greatest (highest, down, up) member, as ((i, k), the minimal or
    # maximal members of b); else None.  Along a linear extension only
    # pick(b) can be least or greatest.
    for i in range(n):
        mi = masks[i]
        for k in range(i + 1, n):
            b = mi & masks[k]
            if not b or b & ~masks[pick(b)]:
                return (i, k), tuple(w for w in bits(b) if b & dual[w] == 1 << w)
    return None


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
