"""Command-line front end: analysis, construction, enumeration, search."""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .biclosed import (
    biclosed_family,
    biclosed_poset,
    closed_family,
    is_single_step,
    read_closure_text,
    search_problem_6_1,
    write_closure_text,
)
from .bitsets import bits
from .congruence import cg, congruence_lattice, is_congruence_uniform, quotient
from .core_label import (
    _label_cu,
    boolean_defect,
    boolean_nexus,
    core_label_order,
    has_intersection_property,
    is_clo_lattice,
    is_clo_meet_semilattice,
    label_covers,
)
from .doubling import double_interval, generate_cu
from .enumeration import DEFAULT_BOUND, HARD_BOUND, table1
from .fixtures import verify as verify_fixtures
from .lattice import (
    Lattice,
    _spherical_raw,
    as_lattice,
    atoms,
    coatoms,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_spherical,
)
from .poset import (
    _parse_poset_json,
    _parse_poset_text,
    from_covers,
    write_poset_json,
    write_poset_text,
)

# Largest element count a poset file may declare.  The kernels are built
# for small lattices (as_lattice tests all n^2 / 2 pairs, and `check` on a
# 256-element chain takes seconds), so the declared size is checked before
# anything of that size is allocated.  Every bundled or generated input
# (gen-cu stops at 14 elements) is far below it.
MAX_ELEMENTS = 256

# Most congruences `con` lists.  Con(L) can have 2^(n-1) members (a chain
# on n elements), and ordering them compares all |Con L|^2 pairs of their
# down-set bitsets, so the count is taken from the cover congruences before
# any partition is built.
MAX_CONGRUENCES = 1024


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        # Fall back to a bundled fixture of the same name.
        name = path.rsplit("/", 1)[-1]
        res = resources.files("corelabel") / "data" / name
        if res.is_file():
            return res.read_text()
        raise


def _load_poset(path: str):
    text = _read_input(path)
    parse = _parse_poset_json if path.endswith(".json") else _parse_poset_text
    n, edges = parse(text)
    if n > MAX_ELEMENTS:
        raise ValueError(
            f"{path}: {n} elements, above the supported maximum {MAX_ELEMENTS}"
        )
    return from_covers(n, edges)


def _require_lattice(path: str) -> Lattice:
    got = as_lattice(_load_poset(path))
    if not isinstance(got, Lattice):
        raise ValueError(f"{path}: not a lattice ({_not_lattice_detail(got)})")
    return got


def _not_lattice_detail(w) -> str:
    x, y = w.pair
    if not w.bounds:
        side = "upper" if w.kind == "join" else "lower"
        return f"elements {x} and {y} have no common {side} bound"
    listed = ", ".join(str(b) for b in w.bounds)
    return f"elements {x} and {y} have no join: minimal upper bounds {listed}"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _spherical_text(spherical) -> str:
    # None: sphericity is defined only on meet-semidistributive lattices.
    return "n/a (not meet-semidistributive)" if spherical is None else _yn(spherical)


def _fmt_set(xs) -> str:
    return "{" + ",".join(str(x) for x in sorted(xs)) + "}"


def _fmt_names(mask: int, names: list[str]) -> str:
    return "{" + ",".join(names[b] for b in bits(mask)) + "}"


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated elements, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {text!r}") from None


def _dot(name: str, p, labels=None) -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for v in range(p.n):
        if labels is None:
            lines.append(f'  "{v}";')
        else:
            lines.append(f'  "{v}" [label="{labels[v]}"];')
    for u, v in p.covers:
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_check(args) -> int:
    p = _load_poset(args.file)
    if p.n == 0:
        raise ValueError("empty poset")
    got = as_lattice(p)
    if isinstance(got, Lattice):
        lat = got
        jsd = is_join_semidistributive(lat)
        msd = is_meet_semidistributive(lat)
        sd = jsd and msd
        cu = is_congruence_uniform(lat)
        mu = p.mobius(lat.bottom, lat.top)
        spherical = _spherical_raw(p.up, p.upper) if msd else None
        if args.json:
            print(
                json.dumps(
                    {
                        "lattice": True,
                        "semidistributive": bool(sd),
                        "congruence_uniform": bool(cu),
                        "mu": mu,
                        "spherical": spherical,
                        "atoms": len(atoms(lat)),
                        "coatoms": len(coatoms(lat)),
                    }
                )
            )
            return 0
        print(
            f"lattice: yes; semidistributive: {_yn(bool(sd))}; "
            f"congruence-uniform: {_yn(bool(cu))}; mu: {mu}"
        )
        print(
            f"spherical: {_spherical_text(spherical)}; atoms: {len(atoms(lat))}; "
            f"coatoms: {len(coatoms(lat))}"
        )
        return 0
    mins, maxs = p.minimals(), p.maximals()
    mu = p.mobius(mins[0], maxs[0]) if len(mins) == 1 and len(maxs) == 1 else None
    if args.json:
        print(
            json.dumps(
                {"lattice": False, "mu": mu, "witness": _not_lattice_detail(got)}
            )
        )
        return 0
    mu_txt = "n/a" if mu is None else str(mu)
    print(
        f"lattice: no; semidistributive: n/a; congruence-uniform: n/a; "
        f"mu: {mu_txt}"
    )
    print(f"not a lattice: {_not_lattice_detail(got)}")
    return 0


def _cmd_con(args) -> int:
    lat = _require_lattice(args.file)
    con = congruence_lattice(lat, limit=MAX_CONGRUENCES)
    if args.json:
        rows = [[list(c) for c in t.classes()] for t in con.congruences]
        print(json.dumps({"count": len(con.congruences), "partitions": rows}))
        return 0
    print(f"congruences: {len(con.congruences)}")
    for k, theta in enumerate(con.congruences):
        blocks = [" ".join(str(x) for x in c) for c in theta.classes()]
        print(f"{k}: " + " | ".join(blocks))
    return 0


def _cmd_quotient(args) -> int:
    lat = _require_lattice(args.file)
    u, v = _parse_pair(args.collapse, "--collapse")
    theta = cg(lat, u, v)
    q, proj = quotient(lat, theta)
    if args.json:
        print(
            json.dumps(
                {
                    "n": q.n,
                    "covers": [list(c) for c in q.poset.covers],
                    "projection": proj,
                }
            )
        )
        return 0
    print(f"# quotient by cg({u}, {v}): {q.n} classes")
    sys.stdout.write(write_poset_text(q.poset))
    print("# projection: " + " ".join(str(c) for c in proj))
    return 0


def _cmd_double(args) -> int:
    lat = _require_lattice(args.file)
    a, b = _parse_pair(args.interval, "--interval")
    res = double_interval(lat, a, b)
    if args.json:
        print(write_poset_json(res.poset))
        return 0
    print(f"# doubling by the interval [{a}, {b}]")
    sys.stdout.write(write_poset_text(res.poset))
    return 0


def _cmd_gen_cu(args) -> int:
    if args.max_n > HARD_BOUND:
        raise ValueError(f"--max-n above the supported maximum {HARD_BOUND}")
    if args.max_n >= DEFAULT_BOUND and not args.extended:
        raise ValueError(f"--max-n {args.max_n} needs --extended")
    counts: dict[int, int] = {}
    k = 0
    for lat in generate_cu(args.max_n):
        counts[lat.n] = counts.get(lat.n, 0) + 1
        if args.count_only:
            continue
        if args.json:
            print(write_poset_json(lat.poset))
        else:
            if k:
                print()
            print(f"# congruence-uniform lattice {k} (n={lat.n})")
            sys.stdout.write(write_poset_text(lat.poset))
        k += 1
    if args.count_only:
        for n in sorted(counts):
            print(f"n={n}: {counts[n]}")
    return 0


def _cmd_clo(args) -> int:
    lat = _require_lattice(args.file)
    cl = label_covers(lat)
    clo = core_label_order(cl)
    pos = {j: k + 1 for k, j in enumerate(clo.jlist)}
    msl = is_clo_meet_semilattice(clo)
    latv = is_clo_lattice(clo)
    inter = has_intersection_property(clo)
    if args.json:
        nexus_members, _ = boolean_nexus(cl)
        print(
            json.dumps(
                {
                    "join_irreducibles": list(clo.jlist),
                    "psi": {
                        str(x): sorted(pos[j] for j in clo.psi_set(x))
                        for x in range(lat.n)
                    },
                    "covers": [list(c) for c in clo.poset.covers],
                    "spherical": bool(is_spherical(lat)),
                    "meet_semilattice": bool(msl),
                    "lattice": bool(latv),
                    "maximal_elements": len(clo.poset.maximals()),
                    "intersection_property": bool(inter),
                    "boolean_defect": boolean_defect(cl),
                    "nexus_size": len(nexus_members),
                }
            )
        )
    else:
        print(
            f"join-irreducibles: {len(clo.jlist)} "
            f"({', '.join(str(j) for j in clo.jlist)})"
        )
        for x in range(lat.n):
            print(f"Psi({x}) = " + _fmt_set(pos[j] for j in clo.psi_set(x)))
        print(f"meet-semilattice: {_yn(bool(msl))}")
        if latv:
            print("lattice: yes")
        else:
            print(f"lattice: no ({_clo_witness(latv.witness)})")
        print(f"maximal elements: {len(clo.poset.maximals())}")
        print(f"intersection property: {_yn(bool(inter))}")
        print(f"boolean defect: {boolean_defect(cl)}")
    if args.dot:
        print(_dot("lattice", lat.poset))
        labels = [
            _fmt_set(pos[j] for j in clo.psi_set(x)) for x in range(lat.n)
        ]
        print(_dot("core_label_order", clo.poset, labels))
    return 0


def _clo_witness(w) -> str:
    if isinstance(w, str):
        return w
    x, y = w
    return f"elements {x} and {y} have no meet"


def _cmd_biclosed(args) -> int:
    op, names = read_closure_text(_read_input(args.file))
    closed = closed_family(op)
    bic = biclosed_family(op)
    p, got = biclosed_poset(op)
    info = {
        "ground": names,
        "closed": len(closed),
        "biclosed": len(bic),
        "lattice": isinstance(got, Lattice),
    }
    if not args.json:
        print(f"ground: {','.join(names)} ({op.m} elements)")
        print(f"closed sets: {len(closed)}")
        print(f"biclosed sets: {len(bic)}")
        print("biclosed family: " + ", ".join(_fmt_names(x, names) for x in bic))
    if not isinstance(got, Lattice):
        if args.json:
            print(json.dumps(info))
        elif got is None:
            print("lattice: no (no biclosed sets)")
        else:
            print(f"lattice: no ({_not_lattice_detail(got)})")
        return 0
    lat = got
    cu = is_congruence_uniform(lat)
    msd = is_meet_semidistributive(lat)
    spherical = _spherical_raw(lat.poset.up, lat.poset.upper) if msd else None
    ss = is_single_step(op)
    info.update(
        {
            "congruence_uniform": bool(cu),
            "spherical": spherical,
            "single_step": bool(ss),
        }
    )
    latv = None
    if cu:
        latv = is_clo_lattice(core_label_order(_label_cu(lat)))
        info["clo_lattice"] = bool(latv)
    if args.json:
        print(json.dumps(info))
    else:
        print("lattice: yes")
        print(f"congruence-uniform: {_yn(bool(cu))}")
        print(f"spherical: {_spherical_text(spherical)}")
        if ss:
            print("single-step: yes")
        else:
            x, y = ss.witness
            print(
                f"single-step: no (witness {_fmt_names(x, names)} < "
                f"{_fmt_names(y, names)})"
            )
        if latv is not None:
            print(f"core label order lattice: {_yn(bool(latv))}")
    if args.dot:
        labels = [_fmt_names(x, names) for x in bic]
        print(_dot("biclosed", p, labels))
    return 0


def _cmd_search61(args) -> int:
    # The search refuses sizes when it is called, before the header.
    found = search_problem_6_1(args.m, require_single_step=not args.skip_single_step)
    if not args.json:
        step = "" if args.skip_single_step else "single-step, "
        print(
            f"searching closure operators on {args.m} points (filters: "
            f"congruence-uniform, spherical, {step}core-label-order-not-lattice)"
        )
    hits = 0
    for op in found:
        hits += 1
        if args.json:
            print(json.dumps({"m": op.m, "table": list(op.table)}))
        else:
            print(f"candidate {hits}:")
            sys.stdout.write(write_closure_text(op))
            print()
    if args.json:
        print(json.dumps({"candidates": hits}))
    elif hits == 0:
        print("no candidates found (verified empty)")
    else:
        print(f"candidates: {hits}")
    return 0


def _cmd_table1(args) -> int:
    if args.max_n >= DEFAULT_BOUND and not args.extended:
        raise ValueError(
            f"--max-n {args.max_n} needs --extended (sizes 12 to {HARD_BOUND} "
            "are long-running)"
        )
    bound = HARD_BOUND if args.extended else DEFAULT_BOUND - 1
    rows = table1(args.max_n, bound=bound)
    if args.json:
        for row in rows:
            print(
                json.dumps(
                    {
                        "n": row.n,
                        "l": row.lattices,
                        "c": row.congruence_uniform,
                        "s": row.spherical_cu,
                        "S": row.spherical_clo_lattice,
                    }
                )
            )
        return 0
    header = f"{'n':>3} {'l':>9} {'c':>7} {'s':>6} {'S':>6}"
    print(header)
    for row in rows:
        print(
            f"{row.n:>3} {row.lattices:>9} {row.congruence_uniform:>7} "
            f"{row.spherical_cu:>6} {row.spherical_clo_lattice:>6}"
        )
    print()
    print("n,l,c,s,S")
    for row in rows:
        print(row.csv())
    return 0


def _cmd_fixtures(args) -> int:
    if args.action != "verify":
        raise ValueError(f"unknown fixtures action {args.action!r}")
    checks = verify_fixtures()
    if args.json:
        print(
            json.dumps(
                [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in checks
                ]
            )
        )
    else:
        for chk in checks:
            print(f"{'ok' if chk.ok else 'FAIL':4} {chk.name}: {chk.detail}")
    return 0 if all(c.ok for c in checks) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice",
        description="Analyze finite lattices, their congruences, doublings, "
        "core label orders, and biclosed-set lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("check", _cmd_check, "basic verdicts for a poset file")
    sp.add_argument("file")

    sp = add("con", _cmd_con, "list all lattice congruences")
    sp.add_argument("file")

    sp = add("quotient", _cmd_quotient, "quotient by a cover's congruence")
    sp.add_argument("file")
    sp.add_argument("--collapse", required=True, metavar="U,V")

    sp = add("double", _cmd_double, "double a lattice by an interval")
    sp.add_argument("file")
    sp.add_argument("--interval", required=True, metavar="A,B")

    sp = add("gen-cu", _cmd_gen_cu, "generate congruence-uniform lattices")
    sp.add_argument("--max-n", type=_positive_int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--extended", action="store_true")

    sp = add("clo", _cmd_clo, "core label sets and core label order")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true", help="emit DOT digraphs")

    sp = add("biclosed", _cmd_biclosed, "analyze a closure operator file")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true", help="emit DOT digraphs")

    sp = add("search61", _cmd_search61, "scan closure operators for candidates")
    sp.add_argument("--m", type=_positive_int, required=True)
    sp.add_argument("--skip-single-step", action="store_true")

    sp = add("table1", _cmd_table1, "census of lattices by size")
    sp.add_argument("--max-n", type=_positive_int, required=True)
    sp.add_argument("--extended", action="store_true")

    sp = add("fixtures", _cmd_fixtures, "bundled fixture maintenance")
    sp.add_argument("action", choices=["verify"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`lattice table1 ... | head`): stop
        # quietly, and point stdout at devnull so the exit-time flush of
        # what is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
