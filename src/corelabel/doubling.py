"""Day doubling P[I], doubling scripts, and doubling-based generation."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .bitsets import bits, mask_of
from .canon import canonical_key_poset
from .lattice import Lattice, NotALattice, _require_elements, as_lattice
from .poset import FormatError, Poset, _restrict


@dataclass
class DoublingScript:
    """A sequence of element sets, step k indexing the lattice after k-1 steps."""

    steps: list[frozenset[int]] = field(default_factory=list)


def double(p: Poset, members: Iterable[int]) -> tuple[Poset, tuple[tuple[int, int], ...]]:
    """Double p by the given element set.

    Returns the doubled poset (indexed by a linear extension) and the
    provenance map: new index -> (original element, bit).  The result need
    not be a lattice; callers check.
    """
    n = p.n
    imask = mask_of(members)
    below = 0
    for y in bits(imask):
        below |= p.down[y]
    full = (1 << n) - 1
    # The doubled poset is a suborder of P x 2, with (x, a) numbered x + a*n.
    # That numbering is the (bit, index) order, a linear extension of the
    # componentwise order.
    product = [u | u << n for u in p.up] + [u << n for u in p.up]
    elems = list(bits(below | ((full & ~below) | imask) << n))
    ground = tuple((e % n, e // n) for e in elems)
    return Poset._from_up_masks(len(elems), _restrict(product, elems)), ground


def double_interval(lat: Lattice, a: int, b: int) -> Lattice:
    """Double by the interval [a, b]; the result is always a lattice."""
    _require_elements(lat, a, b)
    if not lat.poset.leq(a, b):
        raise ValueError(f"not an interval: {a} is not below {b}")
    interval = lat.poset.up[a] & lat.poset.down[b]
    doubled, _ = double(lat.poset, bits(interval))
    res = as_lattice(doubled)
    assert not isinstance(res, NotALattice), (
        "doubling a lattice by an interval must yield a lattice"
    )
    return res


def irreducible_count_delta(lat: Lattice, members: Iterable[int]) -> int:
    """Number of minimal elements of the order-convex set; equals the growth
    of the join-irreducible count under doubling."""
    ms = list(members)
    if not lat.poset.is_order_convex(ms):
        raise ValueError(f"{sorted(ms)} is not order convex")
    imask = mask_of(ms)
    return sum(1 for x in bits(imask) if lat.poset.down[x] & imask == 1 << x)


def run_script(script: DoublingScript) -> Lattice:
    """Run interval doublings from the singleton lattice."""
    lat = singleton_lattice()
    for k, step in enumerate(script.steps):
        ab = _as_interval(lat, step)
        if ab is None:
            raise ValueError(f"step {k}: {sorted(step)} is not an interval")
        lat = double_interval(lat, *ab)
    return lat


def _as_interval(lat: Lattice, step: frozenset[int]) -> tuple[int, int] | None:
    if not step or any(not 0 <= x < lat.n for x in step):
        return None
    a, b = min(step), max(step)
    if lat.poset.up[a] & lat.poset.down[b] != mask_of(step):
        return None
    return a, b


def run_intervals(pairs: Iterable[tuple[int, int]]) -> tuple[DoublingScript, Lattice]:
    """Replay interval endpoint pairs, returning the expanded script too."""
    script = DoublingScript()
    lat = singleton_lattice()
    for k, (a, b) in enumerate(pairs):
        if not (0 <= a < lat.n and 0 <= b < lat.n and lat.poset.leq(a, b)):
            raise ValueError(f"step {k}: ({a}, {b}) is not an interval")
        script.steps.append(frozenset(bits(lat.poset.up[a] & lat.poset.down[b])))
        lat = double_interval(lat, a, b)
    return script, lat


def singleton_lattice() -> Lattice:
    """The one-element lattice."""
    return Lattice(Poset._from_up_masks(1, [1]))


def read_script(text: str) -> list[tuple[int, int]]:
    """Parse a script file: one `a b` interval per line, `#` comments."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(lineno, f"expected `a b`, got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(lineno, f"bad interval {line!r}") from None
    return pairs


def write_script(pairs: Iterable[tuple[int, int]]) -> str:
    """Serialize interval endpoint pairs to the script format."""
    return "\n".join(f"{a} {b}" for a, b in pairs) + "\n"


def generate_cu(max_n: int) -> Iterator[Lattice]:
    """Every congruence-uniform lattice with at most max_n elements, one per
    isomorphism class, generated by breadth-first interval doubling.

    A generation is the list of lattices found from the one before.  Its
    doublings are keyed through lanes.lane_map, and only a doubling with a
    new key is built as a Lattice, in the order of the generation.
    """
    if max_n < 1:
        return
    from .lanes import lane_map  # on first use, as in enumeration

    start = singleton_lattice()
    seen = {canonical_key_poset(start.poset)}
    yield start
    generation = [start]
    while generation:
        nxt = []
        keyed = lane_map(lambda lat: _doubling_keys(lat, max_n), generation)
        for lat, doublings in zip(generation, keyed):
            for a, b, key in doublings:
                if key not in seen:
                    seen.add(key)
                    doubled = double_interval(lat, a, b)
                    nxt.append(doubled)
                    yield doubled
        generation = nxt


def _doubling_keys(lat: Lattice, max_n: int) -> list[tuple[int, int, bytes]]:
    # (a, b, canonical key of the doubling by [a, b]) for every interval of
    # lat whose doubling has at most max_n elements.
    n = lat.n
    up, down = lat.poset.up, lat.poset.down
    out = []
    for a in range(n):
        for b in bits(up[a]):
            interval = up[a] & down[b]
            if n + interval.bit_count() <= max_n:
                doubled, _ = double(lat.poset, bits(interval))
                out.append((a, b, canonical_key_poset(doubled)))
    return out
