"""Cover labeling, core label sets, core label order, nexus, swaps."""

import pytest

from corelabel import (
    are_isomorphic,
    boolean_defect,
    boolean_nexus,
    canonical_join_representation,
    check_swap_lemma,
    core_label_order,
    crosscut_complex,
    from_covers,
    gamma,
    has_intersection_property,
    is_clo_lattice,
    is_clo_meet_semilattice,
    label_covers,
    nucleus,
    psi,
)
from corelabel.fixtures import load_lattice

B3_COVERS = [
    (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6),
    (3, 5), (3, 6), (4, 7), (5, 7), (6, 7),
]


def b3():
    from corelabel import as_lattice

    return as_lattice(from_covers(8, B3_COVERS))


def test_labeling_requires_uniformity():
    with pytest.raises(ValueError, match="congruence-uniform"):
        label_covers(load_lattice("fig1a"))


def test_twelve_element_fixture_label_data():
    lat = load_lattice("fig7a")
    cl = label_covers(lat)
    assert cl.jlist == (1, 2, 3, 5, 6, 7, 8)
    assert cl.label[(4, 7)] == 7
    expected_psi = {
        0: set(), 1: {1}, 2: {2}, 3: {3}, 4: {1, 2}, 5: {5},
        6: {6}, 7: {7}, 8: {8}, 9: {2, 3, 6, 7}, 10: {1, 5, 7, 8}, 11: {3, 5},
    }
    for x, want in expected_psi.items():
        assert psi(cl, x) == frozenset(want)
    for x in range(lat.n):
        want = expected_psi[x] if x not in (9, 10) else ({2, 3}, {1, 5})[x - 9]
        assert gamma(cl, x) == frozenset(want)
    assert [nucleus(lat, x) for x in range(lat.n)] == [0, 0, 0, 1, 0, 2, 3, 4, 5, 1, 2, 7]
    assert boolean_defect(cl) == 4


def test_twelve_element_fixture_core_label_order():
    lat = load_lattice("fig7a")
    clo = core_label_order(label_covers(lat))
    assert clo.poset.maximals() == [4, 9, 10, 11]
    assert is_clo_meet_semilattice(clo)
    latv = is_clo_lattice(clo)
    assert not latv and latv.witness == "no greatest element"
    assert has_intersection_property(clo)
    assert clo.psi_set(9) == frozenset({2, 3, 6, 7})


def test_nine_element_fixture_label_data():
    lat = load_lattice("fig8a")
    cl = label_covers(lat)
    assert cl.jlist == (1, 2, 3, 4)
    assert cl.label[(5, 8)] == 3
    assert cl.label[(6, 8)] == 2
    assert cl.label[(7, 8)] == 1
    assert nucleus(lat, 8) == 0
    expected_psi = {
        0: set(), 1: {1}, 2: {2}, 3: {3}, 4: {4},
        5: {1, 2, 4}, 6: {1, 3}, 7: {2, 3, 4}, 8: {1, 2, 3, 4},
    }
    for x, want in expected_psi.items():
        assert psi(cl, x) == frozenset(want)
    assert boolean_defect(cl) == 3


def test_nine_element_fixture_core_label_order():
    lat = load_lattice("fig8a")
    clo = core_label_order(label_covers(lat))
    assert clo.poset.maximals() == [8]
    ms = is_clo_meet_semilattice(clo)
    assert not ms and ms.witness == (5, 7)
    assert not is_clo_lattice(clo)
    ip = has_intersection_property(clo)
    assert not ip and ip.witness == (5, 7)


def test_nexus():
    lat = load_lattice("fig7a")
    members, order = boolean_nexus(label_covers(lat))
    assert members == [0, 1, 2, 4]
    assert are_isomorphic(order, from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    lat = load_lattice("fig8a")
    members, order = boolean_nexus(label_covers(lat))
    assert members == [0, 1, 2, 3, 5, 6, 7, 8]
    assert are_isomorphic(order, from_covers(8, B3_COVERS))


def test_boolean_lattice_is_its_own_core_label_order():
    lat = b3()
    cl = label_covers(lat)
    assert boolean_defect(cl) == 0
    clo = core_label_order(cl)
    assert is_clo_lattice(clo)
    assert are_isomorphic(clo.poset, lat.poset)
    members, _ = boolean_nexus(cl)
    assert members == list(range(8))
    faces = crosscut_complex(lat, [1, 2, 3])
    assert len(faces) == 7
    assert frozenset({1, 2, 3}) not in faces


def test_crosscut_complex_goldens():
    lat = load_lattice("fig7a")
    faces = crosscut_complex(lat, [1, 2])
    assert faces == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    with pytest.raises(ValueError):
        crosscut_complex(lat, [1])


def test_swap_matchings():
    lat = load_lattice("fig7a")
    assert check_swap_lemma(lat, 0, [1, 2]) == [2, 1]
    lat = load_lattice("fig8a")
    assert check_swap_lemma(lat, 0, [1, 2]) == [4, 1]
    assert check_swap_lemma(lat, 0, []) == []
    with pytest.raises(ValueError):
        check_swap_lemma(lat, 0, [5])
    assert check_swap_lemma(b3(), 0, [1, 2, 3]) == [6, 5, 4]


@pytest.mark.parametrize("call", [
    lambda lat, cl, x: nucleus(lat, x),
    lambda lat, cl, x: psi(cl, x),
    lambda lat, cl, x: gamma(cl, x),
    lambda lat, cl, x: canonical_join_representation(lat, x),
    lambda lat, cl, x: check_swap_lemma(lat, x, []),
    lambda lat, cl, x: check_swap_lemma(lat, 0, [x]),
], ids=["nucleus", "psi", "gamma", "canonical_join_representation",
        "check_swap_lemma_y", "check_swap_lemma_covers"])
@pytest.mark.parametrize("x", [-1, 5])
def test_element_arguments_out_of_range_are_refused(call, x):
    # A negative index would wrap round and answer for 1-hat.
    lat = load_lattice("fig2a")
    cl = label_covers(lat)
    with pytest.raises(ValueError, match=f"element {x} out of range for n=5"):
        call(lat, cl, x)
