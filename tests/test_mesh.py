"""Grids, node orderings, and subdomain masks."""

import numpy as np
import pytest

from elcomp.errors import BadGridSpec, EmptySubdomain
from elcomp.mesh import build_grid, sub_rectangle_mask


def test_1d_counts_and_spacing():
    g = build_grid(1, (0.0,), (1.0,), (8,))
    assert g.h == (0.125,)
    assert g.shape == (9,)
    assert g.n_nodes == 9
    assert g.n_interior == 7
    assert g.n_boundary == 2
    assert list(g.interior_ids) == [1, 2, 3, 4, 5, 6, 7]
    assert list(g.boundary_ids) == [0, 8]


def test_2d_canonical_order_x_fastest():
    g = build_grid(2, (0.0, 0.0), (1.0, 2.0), (4, 4))
    assert g.shape == (5, 5)
    assert g.n_nodes == 25
    assert g.n_interior == 9
    # node 7 = (x index 2, y index 1)
    assert g.node_multi(7) == (2, 1)
    assert g.node_coord(7) == (0.5, 0.5)
    # interior ids are full rows of the inner 3x3 block
    assert list(g.interior_ids) == [6, 7, 8, 11, 12, 13, 16, 17, 18]


def test_interior_pos_inverts_interior_ids():
    g = build_grid(2, 0.0, 1.0, 5)
    ids = g.interior_ids
    assert np.array_equal(g.interior_pos[ids], np.arange(g.n_interior))
    assert (g.interior_pos[g.boundary_ids] == -1).all()


def test_scalar_arguments_broadcast():
    g = build_grid(2, 0.0, 2.0, 4)
    assert g.lo == (0.0, 0.0)
    assert g.hi == (2.0, 2.0)
    assert g.n == (4, 4)


def test_bad_grids_rejected():
    with pytest.raises(BadGridSpec):
        build_grid(3, 0.0, 1.0, 4)
    with pytest.raises(BadGridSpec):
        build_grid(1, (0.0,), (0.0,), (4,))
    with pytest.raises(BadGridSpec):
        build_grid(1, (0.0,), (1.0,), (2,))
    with pytest.raises(BadGridSpec):
        build_grid(2, (0.0,), (1.0, 1.0), (4, 4))


@pytest.mark.parametrize(
    "lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0)]
)
def test_non_finite_bounds_rejected(lo, hi):
    with pytest.raises(BadGridSpec):
        build_grid(1, (lo,), (hi,), (4,))
    with pytest.raises(BadGridSpec):
        build_grid(2, (0.0, lo), (1.0, hi), (4, 4))


def test_sub_rectangle_strict_interior():
    g = build_grid(1, (0.0,), (1.0,), (8,))
    m = sub_rectangle_mask(g, (0.25,), (0.75,))
    # nodes strictly inside (0.25, 0.75): x = 0.375, 0.5, 0.625
    picked = g.coords[g.interior_ids[m.inside], 0]
    assert list(picked) == [0.375, 0.5, 0.625]
    assert int(m.inside.sum()) == 3


def test_sub_rectangle_errors():
    g = build_grid(1, (0.0,), (1.0,), (8,))
    with pytest.raises(BadGridSpec):
        sub_rectangle_mask(g, (-0.1,), (0.5,))
    with pytest.raises(EmptySubdomain):
        sub_rectangle_mask(g, (0.26,), (0.37,))

