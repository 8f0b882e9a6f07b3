"""Finite posets as cover-relation DAGs indexed by a linear extension."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from heapq import heapify, heappop, heappush

from .bitsets import bits, mask_of


class CycleError(ValueError):
    """Input relation contains a directed cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = list(cycle)
        chain = " < ".join(str(v) for v in self.cycle)
        super().__init__(f"not a poset: cycle {chain} < {self.cycle[0]}")


class FormatError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class Poset:
    """Immutable poset on 0..n-1 where u covered by v implies u < v as ints."""

    __slots__ = ("n", "covers", "up", "down", "upper", "lower", "_mu")

    def __init__(self, n, up, down, upper, lower):
        self.n = n
        self.up = up          # up[i]: bitset of j with i <= j
        self.down = down      # down[i]: bitset of j with j <= i
        self.upper = upper    # upper[i]: bitset of upper covers of i
        self.lower = lower    # lower[i]: bitset of lower covers of i
        # sorted tuple of (u, v) cover pairs
        self.covers = tuple((u, v) for u in range(n) for v in bits(upper[u]))
        self._mu = {}

    @classmethod
    def _from_up_masks(cls, n: int, up: list[int]) -> "Poset":
        """The trusted builder: nothing is checked.

        up[i] must be the reflexive up-set of i in a partial order whose
        index order is a linear extension, so up[i] has no bit below i.
        Code that already holds such masks builds here; from_covers is the
        entry point for outside input.
        """
        return cls(n, up, *_cover_reduction(n, up))

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.n, self.covers))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={list(self.covers)})"

    def leq(self, x: int, y: int) -> bool:
        """True iff x <= y in the order."""
        return bool(self.up[x] >> y & 1)

    def dual(self) -> "Poset":
        """The order-reversed poset, relabeled by i -> n-1-i."""
        n = self.n
        rev = lambda m: mask_of(n - 1 - b for b in bits(m))
        up = [0] * n
        for i in range(n):
            up[n - 1 - i] = rev(self.down[i])
        return Poset._from_up_masks(n, up)

    def mobius(self, x: int, y: int) -> int:
        """Mobius function mu(x, y); 0 unless x <= y."""
        if x == y:
            return 1
        if not self.leq(x, y):
            return 0
        key = (x, y)
        got = self._mu.get(key)
        if got is not None:
            return got
        # Fill the interval [x, y] bottom-up; indices ascend the order.
        for z in bits(self.up[x] & self.down[y]):
            if (x, z) in self._mu or z == x:
                continue
            total = 1  # mu(x, x)
            for w in bits(self.up[x] & self.down[z] & ~(1 << z)):
                if w != x:
                    total += self._mu[(x, w)]
            self._mu[(x, z)] = -total
        return self._mu[key]

    def minimals(self) -> list[int]:
        """Elements with no lower cover."""
        return [i for i in range(self.n) if not self.lower[i]]

    def maximals(self) -> list[int]:
        """Elements with no upper cover."""
        return [i for i in range(self.n) if not self.upper[i]]

    def maximal_chains(self) -> Iterator[tuple[int, ...]]:
        """Yield every inclusion-maximal chain exactly once."""
        stack = [(i, (i,)) for i in reversed(self.minimals())]
        while stack:
            v, chain = stack.pop()
            ups = self.upper[v]
            if not ups:
                yield chain
                continue
            for w in bits(ups):
                stack.append((w, chain + (w,)))

    def is_antichain(self, xs: Iterable[int]) -> bool:
        """True iff the elements are pairwise incomparable."""
        elems = sorted(set(xs))
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                if self.leq(elems[a], elems[b]) or self.leq(elems[b], elems[a]):
                    return False
        return True

    def is_order_convex(self, xs: Iterable[int]) -> bool:
        """True iff x < y < z with x, z in the set forces y into the set."""
        m = mask_of(xs)
        for x in bits(m):
            for z in bits(self.up[x] & m & ~(1 << x)):
                between = self.up[x] & self.down[z] & ~(1 << x) & ~(1 << z)
                if between & ~m:
                    return False
        return True


def _cover_reduction(n: int, up: list[int]) -> tuple[list[int], list[int], list[int]]:
    # Down-sets, upper covers and lower covers from reflexive up-sets indexed
    # along a linear extension.  The least element of i's strict up-set that
    # lies above no cover found so far is the next upper cover of i.  When i
    # is reached its lower covers are all known, and its down-set is the
    # union of theirs.
    down = [0] * n
    upper = [0] * n
    lower = [0] * n
    for i in range(n):
        bit = 1 << i
        d = bit
        for j in bits(lower[i]):
            d |= down[j]
        down[i] = d
        rest = up[i] ^ bit
        cov = 0
        while rest:
            low = rest & -rest
            cov |= low
            j = low.bit_length() - 1
            lower[j] |= bit
            rest &= ~up[j]
        upper[i] = cov
    return down, upper, lower


def _containment_poset(masks) -> Poset:
    # The containment order on distinct bitsets listed along a linear
    # extension of it (a subset never comes after a superset).  Trusted like
    # Poset._from_up_masks: neither condition is checked.
    n = len(masks)
    return Poset._from_up_masks(n, [
        mask_of(k for k in range(i, n) if a & ~masks[k] == 0)
        for i, a in enumerate(masks)
    ])


def _restrict(up: list[int], elems: list[int]) -> list[int]:
    # The up-masks of the suborder on elems, an ascending index list, over
    # positions in elems.  Ascending indices keep a linear extension one.
    pos = {x: k for k, x in enumerate(elems)}
    sel = mask_of(elems)
    return [mask_of(pos[y] for y in bits(up[x] & sel)) for x in elems]


def from_covers(n: int, edges: Iterable[tuple[int, int]]) -> Poset:
    """Build the poset whose order is the transitive closure of the edges.

    The validating entry point, for outside input: edges are checked,
    reduced to covers, and elements are relabeled to a linear extension if
    needed (relabeling is the identity when the input already is one).
    Raises CycleError with a witness on cyclic input.
    """
    if n < 0:
        raise ValueError("element count must be nonnegative")
    succ = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError([u])
        succ[u].add(v)
    order = _toposort_min(n, succ)
    pos = [0] * n
    for rank, old in enumerate(order):
        pos[old] = rank
    up = [0] * n
    for old in reversed(order):
        m = 1 << pos[old]
        for w in succ[old]:
            m |= up[pos[w]]
        up[pos[old]] = m
    return Poset._from_up_masks(n, up)


def _toposort_min(n: int, succ: list[set[int]]) -> list[int]:
    indeg = [0] * n
    for u in range(n):
        for v in succ[u]:
            indeg[v] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapify(heap)
    order = []
    while heap:
        u = heappop(heap)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heappush(heap, v)
    if len(order) < n:
        raise CycleError(_find_cycle(n, succ, set(order)))
    return order


def _find_cycle(n: int, succ: list[set[int]], done: set[int]) -> list[int]:
    start = next(i for i in range(n) if i not in done)
    seen = {}
    walk = []
    v = start
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = min(w for w in succ[v] if w not in done)
    return walk[seen[v]:]


def read_poset_text(text: str) -> Poset:
    """Parse the text format: first line n, then one `u v` cover per line."""
    return from_covers(*_parse_poset_text(text))


def _parse_poset_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    # The declared size and the cover pairs, before anything of size n exists.
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise FormatError(lineno, "expected a single element count")
            try:
                n = int(parts[0])
            except ValueError:
                raise FormatError(lineno, f"bad element count {parts[0]!r}") from None
            if n < 0:
                raise FormatError(lineno, "element count must be nonnegative")
            continue
        if len(parts) != 2:
            raise FormatError(lineno, f"expected `u v`, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(lineno, f"bad cover pair {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(lineno, f"cover ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise FormatError(1, "empty input, expected an element count")
    return n, edges


def write_poset_text(p: Poset) -> str:
    """Serialize to the text format."""
    lines = [str(p.n)]
    lines.extend(f"{u} {v}" for u, v in p.covers)
    return "\n".join(lines) + "\n"


def read_poset_json(text: str) -> Poset:
    """Parse the JSON mirror {"n": int, "covers": [[u, v], ...]}."""
    return from_covers(*_parse_poset_json(text))


def _parse_poset_json(text: str) -> tuple[int, list[tuple[int, int]]]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.lineno, f"bad JSON: {exc.msg}") from None
    # type() is int, not isinstance: JSON true and false load as bools.
    if not isinstance(obj, dict) or type(obj.get("n")) is not int:
        raise ValueError("expected an object with an integer field 'n'")
    covers = obj.get("covers", [])
    if not isinstance(covers, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
        for e in covers
    ):
        raise ValueError("field 'covers' must be a list of [u, v] pairs")
    return obj["n"], [tuple(e) for e in covers]


def write_poset_json(p: Poset) -> str:
    """Serialize to the JSON mirror."""
    return json.dumps({"n": p.n, "covers": [list(c) for c in p.covers]})
