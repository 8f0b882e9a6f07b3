"""Interval doubling, doubling scripts, generation of uniform lattices."""

import pytest

from corelabel import (
    DoublingScript,
    FormatError,
    Lattice,
    are_isomorphic,
    as_lattice,
    double,
    double_interval,
    from_covers,
    generate_cu,
    irreducible_count_delta,
    is_congruence_uniform,
    join_irreducibles,
    read_script,
    run_intervals,
    run_script,
    singleton_lattice,
    write_script,
)
from corelabel.fixtures import load_lattice, load_poset, load_script


def test_script_replays_to_the_pentagon():
    pairs = load_script("fig4")
    assert pairs == [(0, 0), (0, 1), (1, 1)]
    script, lat = run_intervals(pairs)
    assert are_isomorphic(lat.poset, load_lattice("fig2a").poset)
    assert run_script(script).poset == lat.poset


def test_irreducible_count_grows_by_minimals():
    counts = [0]
    lat = singleton_lattice()
    for a, b in load_script("fig4"):
        members = lat.poset.up[a] & lat.poset.down[b]
        delta = irreducible_count_delta(lat, [x for x in range(lat.n) if members >> x & 1])
        lat = double_interval(lat, a, b)
        counts.append(counts[-1] + delta)
        assert len(join_irreducibles(lat)) == counts[-1]
    assert counts == [0, 1, 2, 3]


def test_double_interval_rejects_non_intervals():
    n5 = load_lattice("fig2a")
    with pytest.raises(ValueError):
        double_interval(n5, 4, 0)
    with pytest.raises(ValueError):
        double_interval(n5, 1, 2)


def test_double_reports_provenance():
    n5 = load_lattice("fig2a")
    doubled, ground = double(n5.poset, [0, 2])
    assert doubled.n == 7
    assert len(ground) == 7
    assert ground[0] == (0, 0)
    assert {g for g in ground if g[1] == 0} == {(0, 0), (2, 0)}
    assert sorted(g[0] for g in ground if g[1] == 1) == [0, 1, 2, 3, 4]


def test_doubling_a_non_convex_set_is_rejected():
    left = load_poset("fig3_left")
    assert not left.is_order_convex([1, 2, 4, 5])
    from corelabel import as_lattice

    lat = as_lattice(left)
    with pytest.raises(ValueError):
        irreducible_count_delta(lat, [1, 2, 4, 5])


def test_script_round_trip_and_errors():
    pairs = [(0, 0), (0, 1), (1, 1)]
    assert read_script(write_script(pairs)) == pairs
    assert read_script("# only a comment\n") == []
    with pytest.raises(FormatError) as err:
        read_script("0 0\n0 1 2\n")
    assert err.value.lineno == 2
    with pytest.raises(FormatError) as err:
        read_script("0 0\n\nx y\n")
    assert err.value.lineno == 3


def test_run_script_rejects_bad_steps():
    with pytest.raises(ValueError, match="step 0"):
        run_script(DoublingScript([frozenset({5})]))
    with pytest.raises(ValueError, match="step 1"):
        run_intervals([(0, 0), (1, 3)])
    n5 = load_lattice("fig2a")
    script = DoublingScript([frozenset({0}), frozenset({0}), frozenset({0, 2})])
    with pytest.raises(ValueError, match="step 2"):
        run_script(script)


def test_full_interval_doublings_give_boolean_lattices():
    lat = singleton_lattice()
    for k in range(3):
        lat = double_interval(lat, 0, lat.n - 1)
    cube = from_covers(
        8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7)]
    )
    assert are_isomorphic(lat.poset, cube)


def test_generated_lattices_are_uniform_and_distinct():
    seen = []
    per_size = {}
    for lat in generate_cu(6):
        assert is_congruence_uniform(lat)
        assert all(not are_isomorphic(lat.poset, q.poset) for q in seen)
        seen.append(lat)
        per_size[lat.n] = per_size.get(lat.n, 0) + 1
    assert per_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 9}


def test_generations_are_join_irreducible_counts(cu_corpus):
    # Each interval doubling adds one join-irreducible, so generation g of
    # generate_cu holds the lattices with g of them, in stream order, and
    # lanes.classes needs only one generation's keys to dedupe it.
    counts = [len(join_irreducibles(lat)) for lat in cu_corpus]
    assert counts == sorted(counts)
    assert (counts[0], counts[-1]) == (0, 8)


def test_corpus_counts_by_size(cu_corpus):
    # generate_cu builds each kept doubling from its masks unchecked.
    per_size = {}
    for lat in cu_corpus:
        assert isinstance(as_lattice(lat.poset), Lattice)
        assert is_congruence_uniform(lat)
        per_size[lat.n] = per_size.get(lat.n, 0) + 1
    assert [per_size[n] for n in range(1, 10)] == [1, 1, 1, 2, 4, 9, 22, 60, 174]
