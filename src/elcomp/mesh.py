"""Uniform tensor grids on axis-aligned boxes with Dirichlet boundaries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadGridSpec, EmptySubdomain


def _as_tuple(v, dim, kind):
    if np.isscalar(v):
        v = (v,) * dim
    v = tuple(kind(x) for x in v)
    if len(v) != dim:
        raise BadGridSpec(f"expected {dim} axis value(s), got {len(v)}")
    return v


@dataclass(frozen=True)
class Grid:
    """dim axes, n[d] cells per axis, nodes at lo[d] + i*h[d].

    Node ids enumerate all nodes in canonical order: x fastest, then y.
    Interior and boundary nodes are enumerated in the same canonical order.
    """

    dim: int
    lo: tuple
    hi: tuple
    n: tuple

    @cached_property
    def h(self) -> tuple:
        return tuple((self.hi[d] - self.lo[d]) / self.n[d] for d in range(self.dim))

    @cached_property
    def shape(self) -> tuple:
        return tuple(nd + 1 for nd in self.n)

    @cached_property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def n_interior(self) -> int:
        return int(np.prod([nd - 1 for nd in self.n]))

    @cached_property
    def n_boundary(self) -> int:
        return self.n_nodes - self.n_interior

    def node_multi(self, node: int) -> tuple:
        if self.dim == 1:
            return (node,)
        return (node % self.shape[0], node // self.shape[0])

    def node_coord(self, node: int) -> tuple:
        idx = self.node_multi(node)
        return tuple(self.lo[d] + idx[d] * self.h[d] for d in range(self.dim))

    @cached_property
    def coords(self) -> np.ndarray:
        """(n_nodes, dim) coordinates in canonical node order."""
        idx = np.indices(self.shape[::-1]).reshape(self.dim, -1)[::-1]
        return np.stack(
            [self.lo[d] + idx[d] * self.h[d] for d in range(self.dim)], axis=1
        )

    @cached_property
    def is_interior(self) -> np.ndarray:
        mask = np.zeros(self.shape[::-1], dtype=bool)  # numpy index order: y, x
        mask[(slice(1, -1),) * self.dim] = True
        return mask.reshape(-1)  # canonical order: x fastest

    @cached_property
    def interior_ids(self) -> np.ndarray:
        return np.flatnonzero(self.is_interior)

    @cached_property
    def boundary_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.is_interior)

    @cached_property
    def interior_pos(self) -> np.ndarray:
        """node id -> position among interior nodes, -1 elsewhere."""
        pos = np.full(self.n_nodes, -1, dtype=np.int64)
        pos[self.interior_ids] = np.arange(self.n_interior)
        return pos

    @cached_property
    def boundary_pos(self) -> np.ndarray:
        pos = np.full(self.n_nodes, -1, dtype=np.int64)
        pos[self.boundary_ids] = np.arange(self.n_boundary)
        return pos


def build_grid(dim: int, lo, hi, n) -> Grid:
    if dim not in (1, 2):
        raise BadGridSpec(f"dim must be 1 or 2, got {dim}")
    lo = _as_tuple(lo, dim, float)
    hi = _as_tuple(hi, dim, float)
    n = _as_tuple(n, dim, int)
    for d in range(dim):
        if not (np.isfinite(lo[d]) and np.isfinite(hi[d])):
            raise BadGridSpec(f"axis {d}: bounds must be finite ({lo[d]} .. {hi[d]})")
        if not hi[d] > lo[d]:
            raise BadGridSpec(f"axis {d}: hi must exceed lo ({lo[d]} .. {hi[d]})")
        if n[d] < 3:
            raise BadGridSpec(f"axis {d}: need at least 3 cells, got {n[d]}")
    return Grid(dim, lo, hi, n)


@dataclass(frozen=True)
class SubdomainMask:
    """Boolean flag per interior node (canonical interior order)."""

    grid: Grid
    inside: np.ndarray


def sub_rectangle_mask(grid: Grid, lo0, hi0) -> SubdomainMask:
    """Mask of interior nodes strictly inside the sub-rectangle."""
    lo0 = _as_tuple(lo0, grid.dim, float)
    hi0 = _as_tuple(hi0, grid.dim, float)
    for d in range(grid.dim):
        if lo0[d] < grid.lo[d] or hi0[d] > grid.hi[d] or not hi0[d] > lo0[d]:
            raise BadGridSpec(
                f"axis {d}: sub-rectangle [{lo0[d]}, {hi0[d]}] not inside "
                f"[{grid.lo[d]}, {grid.hi[d]}]"
            )
    pts = grid.coords[grid.interior_ids]
    inside = np.ones(grid.n_interior, dtype=bool)
    for d in range(grid.dim):
        inside &= (pts[:, d] > lo0[d]) & (pts[:, d] < hi0[d])
    if not inside.any():
        raise EmptySubdomain(f"no interior node strictly inside {lo0} x {hi0}")
    return SubdomainMask(grid, inside)

