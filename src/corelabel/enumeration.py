"""Isomorph-free enumeration of finite lattices and census tables."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .bitsets import bits
from .canon import canonical_key
from .congruence import _cu_witness
from .core_label import _clo_is_lattice_raw, _labels_raw, _psi_masks_raw
from .lattice import Lattice, _irreducibles, _sd_witness, _spherical_raw
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


def _keyed_children(ups: tuple[int, ...]) -> list[tuple]:
    # (canonical key, child state, lattice arrays) for every child of a
    # state; the new element is the child's last.
    top = 1 << len(ups)
    out = []
    for u in _children(ups):
        child = ups + (u | top,)
        arrays = _materialize(child)
        out.append((canonical_key(arrays[0], arrays[3], arrays[4]), child, arrays))
    return out


def _iter_lattice_arrays(max_n: int) -> Iterator[tuple]:
    # One representative per isomorphism class, sizes ascending: generation
    # k holds the lattices of k + 1 elements.  The kernels are looked up in
    # this module, where the benchmark's tracer wraps them.
    assert max_n >= 1
    from .lanes import classes  # on first use: importing corelabel skips it

    yield from classes((), _keyed_children, _materialize, max_n - 1)


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
        if size == n:
            yield Lattice(Poset(size, up, down, upper, lower))


def _census_stage(n: int, up, down, upper, lower) -> int:
    # How many of Table 1's columns c, s, S count the lattice: 0 if it is
    # not congruence-uniform, 1 if it is but not spherical, 2 if its core
    # label order is not a lattice, else 3.  |J| = |M| and both
    # semidistributive laws hold in every CU lattice and cost less than
    # the CU test, so they run first.  The kernels are looked up in this
    # module's namespace, where the benchmark's tracer wraps them.
    if len(_irreducibles(lower)) != len(_irreducibles(upper)):
        return 0
    if _sd_witness(n, up, down, upper, False) is not None:
        return 0
    if _sd_witness(n, up, down, upper, True) is not None:
        return 0
    if _cu_witness(n, up, down, upper, lower) is not None:
        return 0
    if not _spherical_raw(up, upper):
        return 1
    jlist, label = _labels_raw(n, up, down, upper, lower)
    masks = _psi_masks_raw(n, up, down, upper, lower, jlist, label)
    return 3 if _clo_is_lattice_raw(n, masks) else 2


def _survey(
    max_n: int,
    on_failure: Callable[[int, tuple], None] | None = None,
) -> Iterator[CountsRow]:
    # Yields each size's row once the stream has moved past that size.  The
    # stream's sizes ascend with no gap (there is a chain of every size).
    size, row = 1, [0, 0, 0, 0]
    for arrays in _iter_lattice_arrays(max_n):
        n = arrays[0]
        if n != size:
            yield CountsRow(size, *row)
            size, row = n, [0, 0, 0, 0]
        row[0] += 1
        stage = _census_stage(*arrays)
        for col in range(1, stage + 1):
            row[col] += 1
        if stage == 2 and on_failure is not None:
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
