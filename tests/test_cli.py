"""End-to-end checks of the command line interface."""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import corelabel
from corelabel import biclosed, cli, congruence, lattice
from corelabel.biclosed import MAX_GROUND
from corelabel.cli import MAX_CONGRUENCES, MAX_ELEMENTS, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


CHECK_GOLDENS = {
    "fig1a.lat": [
        "lattice: yes; semidistributive: no; congruence-uniform: no; mu: 2",
        "spherical: n/a (not meet-semidistributive); atoms: 3; coatoms: 3",
    ],
    "fig2a.lat": [
        "lattice: yes; semidistributive: yes; congruence-uniform: yes; mu: 1",
        "spherical: yes; atoms: 2; coatoms: 2",
    ],
    "fig3_right.lat": [
        "lattice: no; semidistributive: n/a; congruence-uniform: n/a; mu: 0",
        "not a lattice: elements 1 and 5 have no join: minimal upper bounds 8, 9",
    ],
    "fig8a.lat": [
        "lattice: yes; semidistributive: yes; congruence-uniform: yes; mu: -1",
        "spherical: yes; atoms: 3; coatoms: 3",
    ],
}


@pytest.mark.parametrize("name", sorted(CHECK_GOLDENS))
def test_check_goldens(capsys, name):
    rc, out, err = run(capsys, "check", name)
    assert rc == 0 and err == ""
    assert out.splitlines() == CHECK_GOLDENS[name]


def test_check_json(capsys):
    rc, out, _ = run(capsys, "check", "--json", "fig2a.lat")
    assert rc == 0
    assert json.loads(out) == {
        "lattice": True,
        "semidistributive": True,
        "congruence_uniform": True,
        "mu": 1,
        "spherical": True,
        "atoms": 2,
        "coatoms": 2,
    }
    rc, out, _ = run(capsys, "check", "--json", "fig3_right.lat")
    assert rc == 0
    assert json.loads(out) == {
        "lattice": False,
        "mu": 0,
        "witness": "elements 1 and 5 have no join: minimal upper bounds 8, 9",
    }


def test_check_tests_each_semidistributive_law_once(capsys, monkeypatch):
    calls = []
    kernel = lattice._sd_witness

    def counted(n, up, down, upper, dual):
        calls.append(dual)
        return kernel(n, up, down, upper, dual)

    monkeypatch.setattr(lattice, "_sd_witness", counted)
    for name in sorted(CHECK_GOLDENS):
        calls.clear()
        rc, out, _ = run(capsys, "check", name)
        assert rc == 0 and out.splitlines() == CHECK_GOLDENS[name]
        lat = not out.startswith("lattice: no")
        assert sorted(calls) == ([False, True] if lat else [])


def test_con_golden(capsys):
    rc, out, _ = run(capsys, "con", "fig2a.lat")
    assert rc == 0
    assert out.splitlines() == [
        "congruences: 5",
        "0: 0 | 1 | 2 | 3 | 4",
        "1: 0 | 1 3 | 2 | 4",
        "2: 0 1 3 | 2 4",
        "3: 0 2 | 1 3 4",
        "4: 0 1 2 3 4",
    ]
    rc, out, _ = run(capsys, "con", "--json", "fig2a.lat")
    assert rc == 0
    assert json.loads(out) == {
        "count": 5,
        "partitions": [
            [[0], [1], [2], [3], [4]],
            [[0], [1, 3], [2], [4]],
            [[0, 1, 3], [2, 4]],
            [[0, 2], [1, 3, 4]],
            [[0, 1, 2, 3, 4]],
        ],
    }


def chain_file(tmp_path, n):
    path = tmp_path / f"chain{n}.lat"
    path.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    return str(path)


def test_con_lists_congruences_up_to_the_cap(capsys, tmp_path):
    rc, out, err = run(capsys, "con", chain_file(tmp_path, 11))
    lines = out.splitlines()
    assert rc == 0 and err == ""
    assert lines[0] == f"congruences: {MAX_CONGRUENCES}"
    assert len(lines) == MAX_CONGRUENCES + 1
    assert lines[-1] == "1023: " + " ".join(str(i) for i in range(11))


def test_con_above_the_cap_exits_1(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a partition join was built")

    monkeypatch.setattr(congruence, "_join_partitions", refuse)
    rc, out, err = run(capsys, "con", chain_file(tmp_path, 12))
    assert rc == 1 and out == ""
    assert err == f"error: more than {MAX_CONGRUENCES} congruences\n"


def test_quotient_golden(capsys):
    rc, out, _ = run(capsys, "quotient", "fig2a.lat", "--collapse", "1,3")
    assert rc == 0
    assert out.splitlines() == [
        "# quotient by cg(1, 3): 4 classes",
        "4",
        "0 1",
        "0 2",
        "1 3",
        "2 3",
        "# projection: 0 1 2 1 3",
    ]


def test_double_golden(capsys):
    rc, out, _ = run(capsys, "double", "fig2a.lat", "--interval", "0,2")
    assert rc == 0
    assert out.splitlines() == [
        "# doubling by the interval [0, 2]",
        "7",
        "0 1",
        "0 2",
        "1 4",
        "2 3",
        "2 4",
        "3 5",
        "4 6",
        "5 6",
    ]


CLO_FIG8A = [
    "join-irreducibles: 4 (1, 2, 3, 4)",
    "Psi(0) = {}",
    "Psi(1) = {1}",
    "Psi(2) = {2}",
    "Psi(3) = {3}",
    "Psi(4) = {4}",
    "Psi(5) = {1,2,4}",
    "Psi(6) = {1,3}",
    "Psi(7) = {2,3,4}",
    "Psi(8) = {1,2,3,4}",
    "meet-semilattice: no",
    "lattice: no (elements 5 and 7 have no meet)",
    "maximal elements: 1",
    "intersection property: no",
    "boolean defect: 3",
]

CLO_FIG7A = [
    "join-irreducibles: 7 (1, 2, 3, 5, 6, 7, 8)",
    "Psi(0) = {}",
    "Psi(1) = {1}",
    "Psi(2) = {2}",
    "Psi(3) = {3}",
    "Psi(4) = {1,2}",
    "Psi(5) = {4}",
    "Psi(6) = {5}",
    "Psi(7) = {6}",
    "Psi(8) = {7}",
    "Psi(9) = {2,3,5,6}",
    "Psi(10) = {1,4,6,7}",
    "Psi(11) = {3,4}",
    "meet-semilattice: yes",
    "lattice: no (no greatest element)",
    "maximal elements: 4",
    "intersection property: yes",
    "boolean defect: 4",
]


@pytest.mark.parametrize(
    "argv, element",
    [
        (["quotient", "fig2a.lat", "--collapse", "0,99"], 99),
        (["quotient", "fig2a.lat", "--collapse=-1,0"], -1),
        (["double", "fig2a.lat", "--interval=-7,-6"], -7),
        # A negative index would wrap to the top and double everything.
        (["double", "fig2a.lat", "--interval=-5,4"], -5),
    ],
)
def test_elements_out_of_range_exit_1(capsys, argv, element):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: element {element} out of range for n=5\n"


def test_clo_goldens(capsys):
    rc, out, _ = run(capsys, "clo", "fig8a.lat")
    assert rc == 0
    assert out.splitlines() == CLO_FIG8A
    rc, out, _ = run(capsys, "clo", "fig7a.lat")
    assert rc == 0
    assert out.splitlines() == CLO_FIG7A


def test_clo_json(capsys):
    rc, out, _ = run(capsys, "clo", "--json", "fig8a.lat")
    assert rc == 0
    got = json.loads(out)
    assert got["join_irreducibles"] == [1, 2, 3, 4]
    assert got["psi"]["5"] == [1, 2, 4]
    assert got["meet_semilattice"] is False
    assert got["lattice"] is False
    assert got["maximal_elements"] == 1
    assert got["intersection_property"] is False
    assert got["boolean_defect"] == 3


def test_clo_dot_is_deterministic(capsys):
    rc, first, _ = run(capsys, "clo", "--dot", "fig8a.lat")
    assert rc == 0
    rc, second, _ = run(capsys, "clo", "--dot", "fig8a.lat")
    assert first == second
    assert first.splitlines()[: len(CLO_FIG8A)] == CLO_FIG8A
    assert "digraph lattice {" in first
    assert "digraph core_label_order {" in first
    assert '  "5" [label="{1,2,4}"];' in first
    assert '  "7" -> "8";' in first


def test_biclosed_golden(capsys):
    rc, out, _ = run(capsys, "biclosed", "ex61.clo")
    assert rc == 0
    assert out.splitlines() == [
        "ground: a,b,c,d (4 elements)",
        "closed sets: 13",
        "biclosed sets: 10",
        "biclosed family: {}, {a}, {c}, {d}, {a,b}, {c,d}, {a,b,c}, "
        "{a,b,d}, {b,c,d}, {a,b,c,d}",
        "lattice: yes",
        "congruence-uniform: yes",
        "spherical: yes",
        "single-step: no (witness {c} < {a,b,c})",
        "core label order lattice: no",
    ]
    rc, out, _ = run(capsys, "biclosed", "--json", "ex61.clo")
    assert rc == 0
    assert json.loads(out) == {
        "ground": ["a", "b", "c", "d"],
        "closed": 13,
        "biclosed": 10,
        "lattice": True,
        "congruence_uniform": True,
        "spherical": True,
        "single_step": False,
        "clo_lattice": False,
    }


def test_biclosed_tests_uniformity_once(capsys, monkeypatch):
    calls = []
    kernel = congruence._cu_witness

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(congruence, "_cu_witness", counted)
    test_biclosed_golden(capsys)  # one human and one --json run
    assert len(calls) == 2


def test_biclosed_empty_family_names_no_pair(capsys, tmp_path):
    # cl({}) = {a}, so the empty set is not closed and no set is biclosed.
    path = tmp_path / "empty.clo"
    path.write_text("a,b\n{} -> a\nb -> a,b\n")
    rc, out, err = run(capsys, "biclosed", str(path))
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "ground: a,b (2 elements)",
        "closed sets: 2",
        "biclosed sets: 0",
        "biclosed family: ",
        "lattice: no (no biclosed sets)",
    ]
    rc, out, _ = run(capsys, "biclosed", "--json", str(path))
    assert rc == 0
    assert json.loads(out) == {
        "ground": ["a", "b"], "closed": 2, "biclosed": 0, "lattice": False,
    }


def test_table1_golden(capsys):
    rc, out, _ = run(capsys, "table1", "--max-n", "5")
    assert rc == 0
    assert out.splitlines() == [
        "  n         l       c      s      S",
        "  1         1       1      1      1",
        "  2         1       1      1      1",
        "  3         1       1      0      0",
        "  4         2       2      1      1",
        "  5         5       4      1      1",
        "",
        "n,l,c,s,S",
        "1,1,1,1,1",
        "2,1,1,1,1",
        "3,1,1,0,0",
        "4,2,2,1,1",
        "5,5,4,1,1",
    ]


# Table 1's column c: congruence-uniform lattices per size.
CU_COUNTS = [1, 1, 1, 2, 4, 9, 22, 60, 174, 534, 1720, 5767]


def gen_cu_counts(capsys, max_n, *flags):
    rc, out, _ = run(capsys, "gen-cu", "--max-n", str(max_n), *flags, "--count-only")
    assert rc == 0
    assert out.splitlines() == [
        f"n={n}: {c}" for n, c in enumerate(CU_COUNTS[:max_n], start=1)]


def test_gen_cu_count_only(capsys):
    gen_cu_counts(capsys, 5)


@pytest.mark.parametrize("max_n, flags", [
    pytest.param(11, (), id="11"),
    pytest.param(12, ("--extended",), id="12", marks=pytest.mark.skipif(
        not os.environ.get("CORELABEL_EXTENDED"),
        reason="set CORELABEL_EXTENDED=1 for gen-cu through n=12")),
])
def test_gen_cu_count_only_matches_table1(capsys, max_n, flags):
    gen_cu_counts(capsys, max_n, *flags)


def test_gen_cu_blocks(capsys):
    rc, out, _ = run(capsys, "gen-cu", "--max-n", "4")
    assert rc == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 5
    assert blocks[0].splitlines() == ["# congruence-uniform lattice 0 (n=1)", "1"]
    assert blocks[4].splitlines() == [
        "# congruence-uniform lattice 4 (n=4)",
        "4",
        "0 1",
        "1 2",
        "2 3",
    ]


def test_fixtures_verify(capsys):
    rc, out, _ = run(capsys, "fixtures", "verify")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("ok   ") for line in lines)
    assert lines[0] == "ok   fig1a: not semidistributive, two congruences"
    assert lines[6] == (
        "ok   fig8a: spherical, boolean defect three, core label order not a lattice"
    )
    rc, out, _ = run(capsys, "fixtures", "--json", "verify")
    assert rc == 0
    got = json.loads(out)
    assert [row["name"] for row in got] == [
        "fig1a", "fig2a", "fig3_right", "fig4", "fig5",
        "fig7a", "fig8a", "fig9", "fig10a", "p61a", "p61b", "p61c", "p61d",
    ]
    assert all(row["ok"] for row in got)


def test_search61_empty(capsys):
    rc, out, _ = run(capsys, "search61", "--m", "3")
    assert rc == 0
    assert out.splitlines() == [
        "searching closure operators on 3 points (filters: congruence-uniform, "
        "spherical, single-step, core-label-order-not-lattice)",
        "no candidates found (verified empty)",
    ]
    rc, out, _ = run(capsys, "search61", "--m", "3", "--json")
    assert rc == 0
    assert json.loads(out) == {"candidates": 0}


def test_search61_rediscovers_the_fixture(capsys):
    rc, out, _ = run(capsys, "search61", "--m", "4", "--skip-single-step", "--json")
    assert rc == 0
    lines = out.splitlines()
    assert json.loads(lines[-1]) == {"candidates": 1}
    assert json.loads(lines[0]) == {
        "m": 4,
        "table": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 11, 13, 13, 15, 15],
    }


def test_error_diagnostics(capsys, tmp_path):
    bad = tmp_path / "badcover.lat"
    bad.write_text("3\n0 1\nbogus line\n")
    rc, out, err = run(capsys, "check", str(bad))
    assert rc == 1 and out == ""
    assert err == "error: line 3: bad cover pair 'bogus line'\n"

    rc, _, err = run(capsys, "check", str(tmp_path / "nope.lat"))
    assert rc == 1
    assert err.startswith("error: ") and "No such file or directory" in err

    rc, _, err = run(capsys, "clo", "fig1a.lat")
    assert rc == 1
    assert err == (
        "error: cover labeling needs a congruence-uniform lattice; "
        "witness ('join', 1, 2)\n"
    )

    rc, _, err = run(capsys, "clo", "fig3_right.lat")
    assert rc == 1
    assert err == (
        "error: fig3_right.lat: not a lattice "
        "(elements 1 and 5 have no join: minimal upper bounds 8, 9)\n"
    )


@pytest.mark.parametrize("text, message", [
    ('{"n": true, "covers": []}', "expected an object with an integer field 'n'"),
    ('{"n": 2, "covers": [[false, true]]}',
     "field 'covers' must be a list of [u, v] pairs"),
], ids=["n", "cover"])
def test_json_booleans_are_not_integers(capsys, tmp_path, text, message):
    path = tmp_path / "bool.json"
    path.write_text(text)
    rc, out, err = run(capsys, "check", str(path))
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(ValueError, match=re.escape(message)):
        corelabel.read_poset_json(text)


@pytest.mark.parametrize(
    "name, declared",
    [
        ("header.lat", MAX_ELEMENTS + 1),
        ("header.json", MAX_ELEMENTS + 1),
        ("huge.json", 10**12),
    ],
)
def test_declared_size_above_the_cap_exits_1(
    capsys, tmp_path, monkeypatch, name, declared
):
    # A header with no covers: only the declared size could cost memory.
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps({"n": declared}))
    else:
        path.write_text(f"{declared}\n")

    def refuse(n, edges):
        raise AssertionError(f"from_covers reached with n={n}")

    monkeypatch.setattr(cli, "from_covers", refuse)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "check", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and out == ""
    assert err == (
        f"error: {path}: {declared} elements, above the supported maximum "
        f"{MAX_ELEMENTS}\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize("names", [MAX_GROUND + 1, 10**6])
def test_closure_ground_set_above_the_cap_exits_1(capsys, tmp_path, monkeypatch, names):
    # An identity operator: only the ground set's size could cost time or
    # memory (a 2^m table, 3^m pairs in validate).
    path = tmp_path / "identity.clo"
    text = ",".join(f"x{i}" for i in range(names)) + "\n"
    path.write_text(text)

    def refuse(*args):
        raise AssertionError("a closure table was built")

    monkeypatch.setattr(biclosed, "ClosureOperator", refuse)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "biclosed", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and out == ""
    assert err == (
        f"error: more than {MAX_GROUND} ground elements, above the supported "
        f"maximum {MAX_GROUND}\n"
    )
    # The file is read and split into lines; the names are not all kept.
    assert peak < 4 * len(text) + (1 << 20)


def test_search61_refuses_to_key_above_seven_points(capsys):
    # Keying a hit on 8 points would build a 330 MB relabeling table; that
    # refusal comes before the search's own size cap.
    rc, out, err = run(capsys, "search61", "--m", "8", "--json", "--skip-single-step")
    assert rc == 1 and out == ""
    assert err == (
        f"error: ground size 8 above {biclosed.MAX_KEY_GROUND}: the relabeling "
        "table would hold 2^m * m! lanes\n"
    )


def test_search61_refuses_ground_sets_too_large_to_key(capsys):
    # No hit on 40 or 64 points could be keyed, so the Moore walk, which
    # would allocate a 2^m table, never starts, and a refused run prints
    # no header.
    for m in ("40", "64"):
        for extra in ((), ("--json",)):
            rc, out, err = run(capsys, "search61", "--m", m, *extra)
            assert (rc, out) == (1, ""), (m, extra)
            assert err == (
                f"error: ground size {m} above {biclosed.MAX_KEY_GROUND}: the "
                "relabeling table would hold 2^m * m! lanes\n"
            )


def test_search61_refuses_ground_sets_too_large_to_walk(capsys):
    # 6 and 7 points can be keyed, but the walk would visit every Moore
    # family: 75,973,751,474 on 6 points.  A refused run prints no header.
    for m in ("6", "7"):
        for extra in ((), ("--json",)):
            rc, out, err = run(capsys, "search61", "--m", m, *extra)
            assert (rc, out) == (1, ""), (m, extra)
            assert err == (
                f"error: ground size {m} above {biclosed.MAX_SEARCH_GROUND}: the "
                "search walks every Moore family, 75,973,751,474 of them on 6 "
                "points\n"
            )


def test_every_option_is_read_by_its_handler():
    # An option that parses but that no handler reads would be accepted and
    # then ignored.
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.dest)


def test_closure_ground_set_at_the_cap_is_read(capsys, tmp_path):
    path = tmp_path / "identity.clo"
    path.write_text(",".join("abcdefgh") + "\n")
    rc, out, _ = run(capsys, "biclosed", "--json", str(path))
    assert rc == 0
    assert json.loads(out)["biclosed"] == 1 << MAX_GROUND


def test_declared_size_at_the_cap_is_read(capsys, tmp_path):
    path = tmp_path / "antichain.lat"
    path.write_text(f"{MAX_ELEMENTS}\n")
    rc, out, _ = run(capsys, "check", str(path))
    assert rc == 0
    assert out.splitlines()[1].startswith("not a lattice: ")


def test_closed_stdout_ends_quietly():
    src = str(Path(corelabel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "corelabel.cli", "table1", "--max-n", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def test_usage_errors_exit_with_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["quotient", "fig2a.lat"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    for argv in (
        ["table1", "--max-n", "3"],
        ["gen-cu", "--max-n", "3"],
        ["search61", "--m", "2"],
    ):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--threads", "2"])
        assert err.value.code == 2


def test_reads_explicit_paths(capsys, tmp_path):
    target = tmp_path / "pentagon.lat"
    target.write_text("5\n0 1\n0 2\n1 3\n2 4\n3 4\n")
    rc, out, _ = run(capsys, "check", str(target))
    assert rc == 0
    assert out.splitlines() == CHECK_GOLDENS["fig2a.lat"]
    rc, out, _ = run(capsys, "check", "src/corelabel/data/fig2a.lat")
    assert rc == 0
    assert out.splitlines() == CHECK_GOLDENS["fig2a.lat"]
