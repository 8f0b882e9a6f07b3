"""Bundled example posets, lattices, scripts, and closure operators."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .biclosed import (
    ClosureOperator,
    biclosed_poset,
    closed_sets_lattice,
    is_single_step,
    read_closure_text,
)
from .canon import are_isomorphic
from .congruence import cg_join_irreducible, congruence_lattice, is_congruence_uniform
from .core_label import boolean_defect, core_label_order, is_clo_lattice, label_covers
from .doubling import double, double_interval, read_script, run_intervals
from .lattice import (
    Lattice,
    as_lattice,
    is_meet_semidistributive,
    is_semidistributive,
    is_spherical,
)
from .poset import Poset, read_poset_text

POSET_NAMES = (
    "fig1a",
    "fig2a",
    "fig3_left",
    "fig3_right",
    "fig5",
    "fig7a",
    "fig8a",
    "fig9",
    "fig10a",
)

# The four closure operators on five points that `lattice search61 --m 5`
# reports, in its order, with the size of their biclosed-set lattices.
PROBLEM_61_HITS = (("p61a", 16), ("p61b", 16), ("p61c", 16), ("p61d", 22))


def _read(filename: str) -> str:
    return (resources.files("corelabel") / "data" / filename).read_text()


def load_poset(name: str) -> Poset:
    """Load a bundled poset by fixture name."""
    if name not in POSET_NAMES:
        raise ValueError(f"unknown poset fixture {name!r}")
    return read_poset_text(_read(name + ".lat"))


def load_lattice(name: str) -> Lattice:
    """Load a bundled poset and require it to be a lattice."""
    got = as_lattice(load_poset(name))
    if not isinstance(got, Lattice):
        raise ValueError(f"fixture {name!r} is not a lattice: {got}")
    return got


def load_script(name: str = "fig4") -> list[tuple[int, int]]:
    """Load a bundled interval doubling script as endpoint pairs."""
    return read_script(_read(name + ".steps"))


def load_closure(name: str = "ex61") -> tuple[ClosureOperator, list[str]]:
    """Load a bundled closure operator and its element names."""
    return read_closure_text(_read(name + ".clo"))


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    ok: bool
    detail: str


def verify() -> list[FixtureCheck]:
    """Re-derive every documented property of the bundled fixtures."""
    out: list[FixtureCheck] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(FixtureCheck(name, bool(ok), detail))

    fig1a = load_lattice("fig1a")
    check(
        "fig1a",
        not is_semidistributive(fig1a)
        and len(congruence_lattice(fig1a).congruences) == 2,
        "not semidistributive, two congruences",
    )

    fig2a = load_lattice("fig2a")
    check(
        "fig2a",
        bool(is_congruence_uniform(fig2a))
        and len(congruence_lattice(fig2a).congruences) == 5,
        "congruence-uniform, five congruences",
    )

    left = load_lattice("fig3_left")
    right = load_poset("fig3_right")
    doubled, _ = double(left.poset, [1, 2, 4, 5])
    check(
        "fig3_right",
        are_isomorphic(doubled, right)
        and not isinstance(as_lattice(right), Lattice),
        "doubling fig3_left by a non-convex set, and not a lattice",
    )

    _, replayed = run_intervals(load_script("fig4"))
    check(
        "fig4",
        are_isomorphic(replayed.poset, fig2a.poset),
        "script replays to the fig2a shape",
    )

    fig5 = load_lattice("fig5")
    check(
        "fig5",
        bool(is_semidistributive(fig5))
        and not is_congruence_uniform(fig5)
        and cg_join_irreducible(fig5, 3) == cg_join_irreducible(fig5, 5),
        "semidistributive, not congruence-uniform, elements 3 and 5 collide",
    )

    fig7a = load_lattice("fig7a")
    check(
        "fig7a",
        bool(is_congruence_uniform(fig7a))
        and fig7a.poset.mobius(fig7a.bottom, fig7a.top) == 0,
        "congruence-uniform with vanishing Mobius value",
    )

    fig8a = load_lattice("fig8a")
    cl8 = label_covers(fig8a)
    check(
        "fig8a",
        is_spherical(fig8a)
        and boolean_defect(cl8) == 3
        and not is_clo_lattice(core_label_order(cl8)),
        "spherical, boolean defect three, core label order not a lattice",
    )

    op, _ = load_closure("ex61")
    fig9 = load_lattice("fig9")
    check(
        "fig9",
        are_isomorphic(closed_sets_lattice(op).poset, fig9.poset)
        and not is_meet_semidistributive(fig9),
        "closed sets of ex61, not meet-semidistributive",
    )

    fig10a = load_lattice("fig10a")
    bic_poset, bic_lat = biclosed_poset(op)
    redoubled = double_interval(fig8a, 6, 6)
    ss = is_single_step(op)
    check(
        "fig10a",
        isinstance(bic_lat, Lattice)
        and are_isomorphic(bic_poset, fig10a.poset)
        and are_isomorphic(fig10a.poset, redoubled.poset)
        and bool(is_congruence_uniform(fig10a))
        and is_spherical(fig10a)
        and not is_clo_lattice(core_label_order(label_covers(fig10a)))
        and not ss
        and ss.witness == (4, 7),
        "biclosed sets of ex61, a doubling of fig8a by its middle coatom",
    )

    for name, size in PROBLEM_61_HITS:
        op, _ = load_closure(name)
        _, lat = biclosed_poset(op)
        check(
            name,
            isinstance(lat, Lattice)
            and lat.n == size
            and bool(is_congruence_uniform(lat))
            and is_spherical(lat)
            and bool(is_single_step(op))
            and not is_clo_lattice(core_label_order(label_covers(lat))),
            f"{size} biclosed sets: congruence-uniform, spherical, single-step, "
            "core label order not a lattice",
        )

    return out
