"""Day doubling P[I], doubling scripts, and doubling-based generation."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .bitsets import bits, mask_of
from .canon import canonical_key
from .lattice import Lattice, _require_elements
from .poset import FormatError, Poset, _cover_reduction, _restrict


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
    elems, up = _doubled_up(p.up, p.down, mask_of(members))
    ground = tuple((e % n, e // n) for e in elems)
    return Poset._from_up_masks(len(elems), up), ground


def _doubled_up(up, down, imask: int) -> tuple[list[int], list[int]]:
    # The elements of the doubled poset, a suborder of P x 2 with (x, a)
    # numbered x + a*n, and its up-masks over their positions.  That
    # numbering is a linear extension of the componentwise order.
    n = len(up)
    below = 0
    for y in bits(imask):
        below |= down[y]
    full = (1 << n) - 1
    product = [u | u << n for u in up] + [u << n for u in up]
    elems = list(bits(below | ((full & ~below) | imask) << n))
    return elems, _restrict(product, elems)


def double_interval(lat: Lattice, a: int, b: int) -> Lattice:
    """Double by the interval [a, b]; the result is always a lattice (Day)."""
    _require_elements(lat, a, b)
    if not lat.poset.leq(a, b):
        raise ValueError(f"not an interval: {a} is not below {b}")
    interval = lat.poset.up[a] & lat.poset.down[b]
    return Lattice(double(lat.poset, bits(interval))[0])


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

    Each generation is a list of up-mask tuples, keyed by lanes.classes;
    a new class is yielded as the Lattice of the masks it was keyed from.
    An interval doubling adds one join-irreducible, so generation g holds
    the lattices with g of them, and a class lies in one generation only.
    """
    if max_n < 1:
        return
    from .lanes import classes  # on first use, as in enumeration

    work = lambda up: _doublings(up, max_n)
    for arrays in classes((1,), work, _arrays, max_n - 1):
        yield Lattice(Poset(*arrays))


def _arrays(up) -> tuple:
    # The poset arrays of a lattice's up-masks.
    n = len(up)
    return (n, list(up), *_cover_reduction(n, up))


def _doublings(up: tuple[int, ...], max_n: int) -> list[tuple]:
    # (canonical key, up-masks, arrays) of every doubling of the lattice
    # with these up-masks by an interval, up to max_n elements.
    n = len(up)
    down = _cover_reduction(n, up)[0]
    out = []
    for a in range(n):
        for b in bits(up[a]):
            interval = up[a] & down[b]
            if n + interval.bit_count() <= max_n:
                child = tuple(_doubled_up(up, down, interval)[1])
                m, _, _, upper, lower = arrays = _arrays(child)
                out.append((canonical_key(m, upper, lower), child, arrays))
    return out
