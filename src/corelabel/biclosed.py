"""Closure operators on small ground sets, closed/biclosed families, search."""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import permutations
from math import factorial

from .bitsets import bits, mask_of
from .congruence import is_congruence_uniform
from .core_label import _clo_is_lattice_raw, _labels_raw, _psi_masks_raw
from .lattice import (
    Lattice,
    Verdict,
    _spherical_raw,
    as_lattice,
    is_meet_semidistributive,
)
from .poset import FormatError, _containment_poset

# Largest ground set a closure file may name.  Reading one builds a table
# of all 2^m subsets and validating it visits 3^m pairs, so the names are
# counted as they are read; 2^8 subsets is also the command line's cap of
# 256 poset elements.
MAX_GROUND = 8

# Largest ground size canonical_family_key accepts.  Its table holds
# 2^m * m! lanes of 2^m bits: about 10 MB at m=7, 330 MB at m=8.
MAX_KEY_GROUND = 7


class ClosureOperator:
    """A closure operator on ground set {0..m-1}, stored as a full table."""

    __slots__ = ("m", "table")

    def __init__(self, m: int, table):
        self.m = m
        self.table = tuple(table)
        if len(self.table) != 1 << m:
            raise ValueError("table must cover all subsets of the ground set")

    def cl(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other):
        return (
            isinstance(other, ClosureOperator)
            and self.m == other.m
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.m, self.table))


def validate(op: ClosureOperator) -> Verdict:
    """Check extensivity, monotonicity, idempotence; witness on failure."""
    size = 1 << op.m
    for x in range(size):
        if op.table[x] & x != x:
            return Verdict(False, ("extensive", x))
    for y in range(size):
        sub = y
        while True:
            if op.table[sub] & ~op.table[y]:
                return Verdict(False, ("monotone", sub, y))
            if sub == 0:
                break
            sub = (sub - 1) & y
    for x in range(size):
        if op.table[op.table[x]] != op.table[x]:
            return Verdict(False, ("idempotent", x))
    return Verdict(True)


def closed_family(op: ClosureOperator) -> tuple[int, ...]:
    """Closed sets as masks, sorted by (size, value): a linear extension."""
    fam = [x for x in range(1 << op.m) if op.table[x] == x]
    fam.sort(key=lambda x: (x.bit_count(), x))
    return tuple(fam)


def biclosed_family(op: ClosureOperator) -> tuple[int, ...]:
    """Sets closed along with their complements, sorted by (size, value)."""
    full = (1 << op.m) - 1
    closed = {x for x in range(1 << op.m) if op.table[x] == x}
    fam = [x for x in closed if full ^ x in closed]
    fam.sort(key=lambda x: (x.bit_count(), x))
    return tuple(fam)


def closed_sets_lattice(op: ClosureOperator) -> Lattice:
    """The lattice of closed sets; element i is closed_family(op)[i]."""
    # Sorted by (size, value), so a subset comes before its supersets.
    lat = as_lattice(_containment_poset(closed_family(op)))
    assert isinstance(lat, Lattice), "closed sets always form a lattice"
    return lat


def biclosed_poset(op: ClosureOperator):
    """The containment poset of biclosed sets and its lattice conversion.

    Returns (poset, lattice_or_witness); element i is biclosed_family(op)[i].
    The family is empty when the empty set is not closed; then there is no
    pair to name and the second value is None.
    """
    # Sorted by (size, value), so a subset comes before its supersets.
    p = _containment_poset(biclosed_family(op))
    if p.n == 0:
        return p, None
    return p, as_lattice(p)


def is_single_step(op: ClosureOperator) -> Verdict:
    """Every strict containment of biclosed sets grows one element at a time."""
    witness = _single_step_witness(biclosed_family(op))
    return Verdict(True) if witness is None else Verdict(False, witness)


def _single_step_witness(bic) -> tuple[int, int] | None:
    """First pair x < y of the family, sorted by (size, value), such that no
    x + e with e in y is a member; None if there is none."""
    members = set(bic)
    for i, x in enumerate(bic):
        for y in bic[i + 1:]:
            if x & ~y or x == y:
                continue
            if not any(x | (1 << e) in members for e in bits(y & ~x)):
                return x, y
    return None


def moore_families(m: int) -> Iterator[frozenset[int]]:
    """All intersection-closed families on {0..m-1} containing the ground set.

    A depth-first walk over the subsets x = 2^m - 2, ..., 0: x is left out
    first and taken second, unless the intersection of x with a member
    already taken forces it in.  Below x = 8 the choices depend only on
    the members' residues mod 8 and on which of 0..7 are forced, so the
    walk stops there and yields the completions of that state, kept across
    calls.  Ground sizes outside 0..MAX_GROUND are refused at the call.
    """
    if not 0 <= m <= MAX_GROUND:
        raise ValueError(f"ground size {m} outside 0..{MAX_GROUND}")

    def walk() -> Iterator[frozenset[int]]:
        full = (1 << m) - 1
        fam = [full]
        res = [1 << (full & 7)]  # res[i]: mask of the residues of fam[:i + 1]
        forced = bytearray(1 << m)
        # take[t]: the subsets in mask t, in the order the walk takes them.
        take = [[x for x in range(7, -1, -1) if t >> x & 1] for t in range(256)]
        # One entry per decided subset: (x, None) when x is left out with its
        # inclusion still to try, (x, marked) when x is in and taking it
        # forced the subsets in marked.
        stack: list[tuple[int, list[int] | None]] = []
        x = full - 1
        while True:
            if x < 8:
                forced_low = int.from_bytes(forced[:8], "little")
                for t in _moore_tails(x, res[-1], forced_low):
                    yield frozenset(fam + take[t])
                while stack:
                    x, marked = stack.pop()
                    if marked is None:
                        break
                    fam.pop()
                    res.pop()
                    for r in marked:
                        forced[r] = 0
                else:
                    return
            elif not forced[x]:
                stack.append((x, None))
                x -= 1
                continue
            # Take x: it is forced, or it was left out and now goes in.
            marked = []
            for y in fam:
                r = x & y
                if r != x and not forced[r]:
                    forced[r] = 1
                    marked.append(r)
            fam.append(x)
            res.append(res[-1] | 1 << (x & 7))
            stack.append((x, marked))
            x -= 1

    return walk()


@cache
def _moore_tails(x: int, residues: int, forced: int) -> bytes:
    # The completions of the walk's state at its cut-off x < 8 (see _tails),
    # kept across calls; residues is the mask of the members' residues.
    return bytes(_tails(x, tuple(bits(residues)), forced, 0, []))


def _tails(x: int, ys: tuple[int, ...], forced: int, t: int, out: list[int]) -> list[int]:
    # Appends to out every way on from x down to 0, as t plus the mask of
    # the subsets taken, in walk order.  ys holds the residues mod 8 of
    # the members taken so far; byte r of forced is 1 when r is forced.
    if x < 0:
        out.append(t)
        return out
    if not forced >> 8 * x & 1:
        _tails(x - 1, ys, forced, t, out)
    for y in ys:
        forced |= 1 << 8 * (x & y)
    return _tails(x - 1, ys + (x,), forced, t | 1 << x, out)


def operator_from_family(m: int, fam: Iterable[int]) -> ClosureOperator:
    """The closure operator whose closed sets are the given Moore family."""
    members = sorted(fam)
    full = (1 << m) - 1
    if members and not 0 <= members[0] <= members[-1] <= full:
        raise ValueError(f"family members must lie in 0..{full}")
    if full not in members:
        raise ValueError("a Moore family must contain the ground set")
    table = [0] * (1 << m)
    for x in range(1 << m):
        acc = full
        for f in members:
            if f & x == x:
                acc &= f
        table[x] = acc
    return ClosureOperator(m, table)


@cache
def _relabel_table(m: int) -> tuple[tuple[int, ...], int]:
    """Rows and lane width in bytes.  Row x packs the image y of subset x
    under every permutation of {0..m-1}, in permutations(range(m)) order,
    as one big-endian lane per permutation with the bit 2^m - 1 - y set."""
    size = 1 << m
    width = max(size // 8, 1)
    remaps = []
    for perm in permutations(range(m)):
        remap = [0] * size
        for x in range(1, size):
            low = x & -x
            remap[x] = remap[x ^ low] | 1 << perm[low.bit_length() - 1]
        remaps.append(remap)
    rows = tuple(
        int.from_bytes(
            b"".join((1 << (size - 1 - r[x])).to_bytes(width, "big") for r in remaps),
            "big",
        )
        for x in range(size)
    )
    return rows, width


def _check_key_ground(m: int) -> None:
    if m > MAX_KEY_GROUND:
        raise ValueError(
            f"ground size {m} above {MAX_KEY_GROUND}: the relabeling table "
            "would hold 2^m * m! lanes"
        )


def canonical_family_key(m: int, fam: Iterable[int]) -> tuple[int, ...]:
    """Least relabeling of a set family under ground-set permutations.

    The least relabeling is the least sorted image.  Images come from a
    table built once per ground size: 2^m rows of m! lanes, 2^m * m!
    entries (3,840 at m=5, 46,080 at m=6).  OR-ing the rows of the
    family's members gives, in each permutation's lane, the bitmask of
    the family's image with image y at bit 2^m - 1 - y.  All images have
    the same size, and one sorts before another exactly when the least
    image where they differ is its own, that is when its lane is the
    greater number.  So the key is read off the greatest lane, compared
    as bytes.  A member listed twice counts once.  Ground sets above
    MAX_KEY_GROUND points and members outside 0..2^m - 1 are refused.
    """
    _check_key_ground(m)
    rows, width = _relabel_table(m)
    size = 1 << m
    packed = 0
    for f in fam:
        if not 0 <= f < size:
            raise ValueError(f"family member {f} outside 0..{size - 1}")
        packed |= rows[f]
    raw = packed.to_bytes(width * factorial(m), "big")
    best = max(raw[i:i + width] for i in range(0, len(raw), width))
    top = (1 << m) - 1
    return tuple(sorted(top - b for b in bits(int.from_bytes(best, "big"))))


def search_problem_6_1(
    m: int,
    *,
    require_cu: bool = True,
    require_spherical: bool = True,
    require_single_step: bool = True,
    require_clo_not_lattice: bool = True,
    bound: int = 5,
) -> Iterator[ClosureOperator]:
    """Scan closure operators on m points (up to ground-set symmetry) for ones
    whose biclosed sets form a spherical congruence-uniform lattice under
    single-step inclusion with a non-lattice core label order.

    An exhausted stream with no hits is a verified-empty result.  Every
    filter reads only the biclosed family, so its verdict is computed once
    per distinct family; the canonical key, which deduplicates the hits,
    is computed only for Moore families that pass.  The size checks run
    when the function is called, so ground sets that canonical_family_key
    refuses are refused before a stream exists.
    """
    if m > bound:
        raise ValueError(f"ground size {m} above bound {bound}; raise bound explicitly")
    _check_key_ground(m)

    def passes(bic: list[int]) -> bool:
        if require_cu or require_spherical or require_clo_not_lattice:
            if not bic:
                return False
            # bic is sorted by (size, value): subsets before supersets.
            lat = as_lattice(_containment_poset(tuple(bic)))
            if not isinstance(lat, Lattice):
                return False
            if (require_cu or require_clo_not_lattice) and not is_congruence_uniform(lat):
                return False
            if require_spherical:
                if not is_meet_semidistributive(lat):
                    return False
                if not _spherical_raw(lat.poset.up, lat.poset.upper):
                    return False
            if require_clo_not_lattice:
                p = lat.poset
                jlist, label = _labels_raw(lat.n, p.up, p.down, p.upper, p.lower)
                masks = _psi_masks_raw(lat.n, p.up, p.down, p.upper, p.lower, jlist, label)
                if _clo_is_lattice_raw(lat.n, masks):
                    return False
        return not require_single_step or _single_step_witness(bic) is None

    def hits() -> Iterator[ClosureOperator]:
        full = (1 << m) - 1
        verdicts: dict[frozenset[int], bool] = {}
        seen: set[tuple[int, ...]] = set()
        for fam in moore_families(m):
            bic = frozenset(x for x in fam if full ^ x in fam)
            ok = verdicts.get(bic)
            if ok is None:
                ok = verdicts[bic] = passes(sorted(bic, key=lambda x: (x.bit_count(), x)))
            if not ok:
                continue
            key = canonical_family_key(m, fam)
            if key in seen:
                continue
            seen.add(key)
            yield operator_from_family(m, key)

    return hits()


def read_closure_text(text: str) -> tuple[ClosureOperator, list[str]]:
    """Parse a closure table: lines `X -> cl(X)` with comma-listed elements.

    An optional first line without `->` declares the ground set; otherwise
    the ground set is every element mentioned.  Unlisted subsets close to
    themselves.  Returns the operator and the sorted element names.  More
    than MAX_GROUND names are refused while they are read.
    """
    assignments: list[tuple[int, list[str], list[str]]] = []
    names: set[str] = set()

    def read_names(part: str) -> list[str]:
        got = []
        for name in _split_names(part):
            if name not in names:
                if len(names) == MAX_GROUND:
                    raise ValueError(
                        f"more than {MAX_GROUND} ground elements, above the "
                        f"supported maximum {MAX_GROUND}"
                    )
                names.add(name)
            got.append(name)
        return got

    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            if first:
                read_names(line)
                first = False
                continue
            raise FormatError(lineno, f"expected `X -> cl(X)`, got {line!r}")
        first = False
        left, right = line.split("->", 1)
        assignments.append((lineno, read_names(left), read_names(right)))
    ordered = sorted(names)
    index = {name: i for i, name in enumerate(ordered)}
    m = len(ordered)
    table = list(range(1 << m))
    for lineno, left, right in assignments:
        x = mask_of(index[e] for e in left)
        y = mask_of(index[e] for e in right)
        table[x] = y
    op = ClosureOperator(m, table)
    v = validate(op)
    if not v:
        raise ValueError(f"not a closure operator: violates {v.witness}")
    return op, ordered


def _split_names(part: str) -> Iterator[str]:
    part = part.strip()
    if part in ("{}", "∅"):
        return
    for tok in re.finditer("[^,]+", part):
        name = tok.group().strip()
        if name:
            yield name


def write_closure_text(op: ClosureOperator, names: list[str] | None = None) -> str:
    """Serialize the non-identity assignments of a closure operator."""
    if names is None:
        names = [chr(ord("a") + i) for i in range(op.m)]
    lines = [",".join(names)]
    for x in range(1 << op.m):
        if op.table[x] != x:
            left = ",".join(names[b] for b in bits(x))
            right = ",".join(names[b] for b in bits(op.table[x]))
            lines.append(f"{left} -> {right}")
    return "\n".join(lines) + "\n"
