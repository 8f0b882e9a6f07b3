"""Lattices of regions: the weak orders of S_4 and S_5.

The weak order is the poset of regions of the braid arrangement, a
simplicial arrangement, so it is congruence-uniform and spherical and its
core label order is a lattice: the paper's positive theorem, on lattices
past the census's sizes.
"""

import pytest

from corelabel import (
    Lattice,
    as_lattice,
    core_label_order,
    is_clo_lattice,
    is_congruence_uniform,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    is_spherical,
    label_covers,
)
from suites import reference_sd_witness, weak_order


@pytest.mark.parametrize("k, size", [(4, 24), (5, 120)])
def test_weak_order_satisfies_the_positive_theorem(k, size):
    lat = weak_order(k)
    assert lat.n == size
    p = lat.poset
    assert is_semidistributive(lat)
    for dual, law in ((False, is_join_semidistributive), (True, is_meet_semidistributive)):
        assert law(lat) and reference_sd_witness(lat.n, p.up, p.down, dual) is None
    assert is_congruence_uniform(lat)
    assert is_spherical(lat)
    clo = core_label_order(label_covers(lat))
    assert clo.poset.n == size
    assert is_clo_lattice(clo)
    assert isinstance(as_lattice(clo.poset), Lattice)
