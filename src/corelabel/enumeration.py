"""Isomorph-free enumeration of finite lattices and census tables."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .bitsets import bits
from .canon import canonical_key
from .congruence import _cu_witness
from .core_label import _clo_is_lattice_raw, _labels_raw, _psi_masks_raw
from .lattice import Lattice, _irreducibles, _sd_witness, _spherical_raw, as_lattice
from .poset import Poset, _cover_reduction

DEFAULT_BOUND = 12
HARD_BOUND = 14


@dataclass(frozen=True)
class CountsRow:
    """Census counts for one lattice size."""

    n: int
    lattices: int
    congruence_uniform: int
    spherical_cu: int
    spherical_clo_lattice: int

    def csv(self) -> str:
        return (
            f"{self.n},{self.lattices},{self.congruence_uniform},"
            f"{self.spherical_cu},{self.spherical_clo_lattice}"
        )


@dataclass(frozen=True)
class ScanFailure:
    """A spherical congruence-uniform lattice whose core label order is
    not a lattice, reported by canonical key and cover list."""

    n: int
    key: bytes
    covers: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ScanReport:
    max_n: int
    failures: tuple[ScanFailure, ...]

    def failures_at(self, n: int) -> tuple[ScanFailure, ...]:
        return tuple(f for f in self.failures if f.n == n)


# Internal join-semilattice states: element 0 is the top, every element's
# strict upper bounds have smaller indices, and ups[i] is the reflexive
# up-set of i as a bitset over 0..i.  A lattice of size n corresponds to
# the semilattice of its n-1 non-bottom elements.


def _children(ups: tuple[int, ...]) -> Iterator[int]:
    # Up-closed subsets U of the current state such that adding a new
    # minimal element below exactly U keeps all pairwise joins defined.
    k = len(ups)

    def valid(u: int) -> bool:
        for a in range(k):
            if u >> a & 1:
                continue
            common = u & ups[a]
            if not common:
                return False
            z = common.bit_length() - 1
            if common & ~ups[z]:
                return False
        return True

    def rec(i: int, cur: int) -> Iterator[int]:
        if i < 0:
            if valid(cur):
                yield cur
            return
        if cur >> i & 1:
            yield from rec(i - 1, cur)
            return
        yield from rec(i - 1, cur)
        yield from rec(i - 1, cur | ups[i])

    yield from rec(k - 1, 0)


def _materialize(ups: tuple[int, ...]):
    # Reindex a semilattice state as lattice arrays with a fresh bottom:
    # semilattice element i becomes lattice element m - i, bottom is 0.
    # Strict upper bounds have smaller semilattice indices, so the lattice
    # index order is a linear extension.
    m = len(ups)
    n = m + 1
    up = [0] * n
    for i, u in enumerate(ups):
        lifted = 0
        for b in bits(u):
            lifted |= 1 << (m - b)
        up[m - i] = lifted
    up[0] = (1 << n) - 1
    return (n, up, *_cover_reduction(n, up))


def _iter_lattice_arrays(max_n: int) -> Iterator[tuple]:
    # One representative per isomorphism class, sizes ascending.
    assert max_n >= 1
    yield _materialize(())
    level: list[tuple[int, ...]] = [()]
    for m in range(1, max_n):
        seen: set[bytes] = set()
        nxt: list[tuple[int, ...]] = []
        for ups in level:
            for u in _children(ups):
                child = ups + (u | 1 << m - 1,)
                arrays = _materialize(child)
                key = canonical_key(arrays[0], arrays[3], arrays[4])
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(child)
                yield arrays
        level = nxt


def _check_bound(max_n: int, bound: int) -> None:
    if max_n < 1:
        raise ValueError("size must be at least 1")
    if bound > HARD_BOUND:
        raise ValueError(f"bound above the supported maximum {HARD_BOUND}")
    if max_n > bound:
        raise ValueError(
            f"size {max_n} above bound {bound}; raise bound explicitly to proceed"
        )


def enumerate_lattices(n: int, *, bound: int = DEFAULT_BOUND) -> Iterator[Lattice]:
    """All lattices with n elements, one per isomorphism class."""
    _check_bound(n, bound)
    for size, up, down, upper, lower in _iter_lattice_arrays(n):
        if size != n:
            continue
        lat = as_lattice(Poset(size, up, down, upper, lower))
        assert isinstance(lat, Lattice)
        yield lat


def _survey(
    max_n: int,
    on_failure: Callable[[int, tuple], None] | None = None,
) -> Iterator[CountsRow]:
    # Yields each size's row once the stream has moved past that size.  The
    # stream's sizes ascend with no gap (there is a chain of every size).
    size, row = 1, [0, 0, 0, 0]
    for arrays in _iter_lattice_arrays(max_n):
        n, up, down, upper, lower = arrays
        if n != size:
            yield CountsRow(size, *row)
            size, row = n, [0, 0, 0, 0]
        row[0] += 1
        if len(_irreducibles(lower)) != len(_irreducibles(upper)):
            continue
        if _sd_witness(n, up, down, False) is not None:
            continue
        if _sd_witness(n, up, down, True) is not None:
            continue
        if _cu_witness(n, up, down, upper, lower) is not None:
            continue
        row[1] += 1
        if not _spherical_raw(up, upper):
            continue
        row[2] += 1
        jlist, label = _labels_raw(n, up, down, upper, lower)
        masks = _psi_masks_raw(n, up, down, upper, lower, jlist, label)
        if _clo_is_lattice_raw(n, masks):
            row[3] += 1
        elif on_failure is not None:
            on_failure(n, arrays)
    yield CountsRow(size, *row)


def table1(max_n: int, *, bound: int = DEFAULT_BOUND) -> list[CountsRow]:
    """Counts of lattices, congruence-uniform ones, spherical ones among
    those, and spherical ones with a lattice core label order, per size."""
    _check_bound(max_n, bound)
    return list(_survey(max_n))


def smallest_counterexample_scan(
    max_n: int, *, bound: int = DEFAULT_BOUND
) -> ScanReport:
    """Hunt for spherical congruence-uniform lattices whose core label
    order fails to be a lattice, up to the given size."""
    _check_bound(max_n, bound)
    failures: list[ScanFailure] = []

    def record(n: int, arrays: tuple) -> None:
        size, up, down, upper, lower = arrays
        covers = tuple(
            (v, w) for v in range(size) for w in bits(upper[v])
        )
        failures.append(ScanFailure(n, canonical_key(size, upper, lower), covers))

    for _ in _survey(max_n, on_failure=record):
        pass
    return ScanReport(max_n, tuple(failures))
