"""Principal eigenpairs of discretized operators via Noda iteration.

The principal eigenvalue lambda of an irreducible Z-matrix A is its
eigenvalue of smallest real part, with a positive eigenvector.  Noda's
shifted inverse iteration (linalg.noda_iteration) runs on A itself and
carries a Collatz-Wielandt enclosure of lambda along.  It keeps a shift's
factorization while the solves with it halve the enclosure width, and its
factorization count does not grow with the mesh.

A block on the whole grid first offers Noda the grid's discrete sine,
prod_d sin(pi i_d / n_d) on every species of the block (grid_sine).  On a
box it is the exact principal eigenvector of the Dirichlet difference
Laplacian (R. J. LeVeque, Finite Difference Methods for Ordinary and
Partial Differential Equations, SIAM 2007, sec. 2.10), and so of every
block with constant coefficients, no convection or cross diffusion, and
species that the coupling treats alike.  Noda checks it before its first
LU: when its Collatz-Wielandt ratios, widened by their rounding bound,
meet the width target, the run ends with no LU and no solve; otherwise it
runs as it would without the sine.  Subdomain blocks take no sine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .assembly import KNOWN_Z, as_discrete, check_z_matrix
from .errors import NotIrreducible, NotZMatrix, ValidationError
from .graphs import csr_strongly_connected
from .mesh import SubdomainMask
from .settings import DEFAULT, Settings


@dataclass
class EigenPair:
    """Principal eigenvalue with positive right/left eigenvectors.

    value lies in the closed interval cw; right and left are normalized to
    unit max and strictly positive on the unknowns.  iterations counts the
    LU factorizations of the run, each kept for as long as its solves halve
    the enclosure width and shared by both vectors; solves counts the
    solves with them, right and left together.  Both are 0 when the start
    vector closed the run, and right and left are then that vector.  A
    symmetric matrix has no left iterate and reuses the right vector.
    """

    value: float
    right: np.ndarray
    left: np.ndarray
    cw: tuple
    iterations: int
    residual: float
    solves: int

    def to_json_dict(self) -> dict:
        """The run's record in a report; the vectors stay out."""
        return {
            "value": self.value,
            "cw": list(self.cw),
            "iterations": self.iterations,
            "solves": self.solves,
            "residual": self.residual,
        }


def grid_sine(grid, copies: int) -> np.ndarray:
    """prod_d sin(pi i_d / n_d) at grid's interior nodes in canonical order,
    scaled to unit max, once per species of a block of copies species.

    Each factor is taken as sin(pi min(i, n - i) / n), so that the nodes
    near the far end do not carry the rounding of an argument near pi.
    """
    factors = []
    for n in grid.n:
        i = np.arange(1, n)
        factors.append(np.sin(np.pi * np.minimum(i, n - i) / n))
    x = factors[0] if grid.dim == 1 else np.outer(factors[1], factors[0]).ravel()
    return np.tile(x / x.max(), copies)


def principal_eigenpair(
    a: sp.spmatrix,
    settings: Settings = DEFAULT,
    z_scan: tuple | None = None,
    start: np.ndarray | None = None,
) -> EigenPair:
    """Eigenvalue of smallest real part of an irreducible Z-matrix.

    The Z-matrix and irreducibility gates are what keep the Noda iterates
    strictly positive.  z_scan is check_z_matrix(a)'s result when a's
    content has been scanned already; without it, a is scanned here.
    start, a positive candidate eigenvector, is checked before the first
    LU (linalg.noda_iteration).  settings gives tol_eig and max_iter.
    """
    is_z, pos, worst, _ = check_z_matrix(a) if z_scan is None else z_scan
    if not is_z:
        raise NotZMatrix(
            f"off-diagonal entry {worst:.6g} at {pos}", position=pos, value=worst
        )
    if not csr_strongly_connected(a):
        raise NotIrreducible("matrix digraph is not strongly connected")

    at = a.T.tocsr()
    symmetric = linalg.same_nonzeros(a, at)
    run = linalg.noda_iteration(a, settings, None if symmetric else at, start)
    x = run.vector
    left = x if symmetric else run.left.vector
    solves = run.solves if symmetric else run.solves + run.left.solves
    # the two-sided Rayleigh quotient errs by the product of the two vectors'
    # errors, where the one-sided one (run.rho, the same for symmetric A)
    # errs by the right vector's
    ax = a @ x
    lam = min(max(float(left @ ax) / float(left @ x), run.cw[0]), run.cw[1])
    residual = float(np.abs(ax - lam * x).max())
    return EigenPair(lam, x, left, run.cw, run.iterations, residual, solves)


def _memo_eigenpair(
    ds, a, content: str, settings: Settings = DEFAULT, z_scan=None, whole_grid: bool = True
) -> EigenPair:
    """principal_eigenpair(a), solved once per operator content on ds.

    content is a's content key, kept with the operator (block_eigen).  A
    block on the whole grid (whole_grid) starts from grid_sine; a subdomain
    block takes no start.  The memo lives on the system, so nothing outlives
    the run; cached vectors are read-only.  It keys on the two settings a
    solve reads, so runs that differ in any other share it.
    """
    key = (content, settings.tol_eig, settings.max_iter, whole_grid)
    if key not in ds._eigen_cache:
        n_int = ds.grid.n_interior
        start = grid_sine(ds.grid, a.shape[0] // n_int) if whole_grid else None
        pair = principal_eigenpair(a, settings, z_scan, start)
        pair.right.setflags(write=False)
        pair.left.setflags(write=False)
        ds._eigen_cache[key] = pair
    return ds._eigen_cache[key]


def block_eigen(
    spec, species, settings: Settings = DEFAULT, mask: SubdomainMask | None = None
) -> EigenPair:
    """Principal eigenpair of the cooperative part restricted to a species
    block (0-based species) and a subdomain: a principal submatrix of the
    full-domain cooperative operator (DiscreteSystem.block).

    Every species on the whole domain is the cooperative operator itself,
    which assemble has scanned and keyed: one that is not Z raises
    NotZMatrix with the entry the cooperative gate reports, and a Z one is
    passed on as KNOWN_Z with its key, neither taken again.  Any other
    block is built and hashed once, and kept
    (DiscreteSystem.cooperative_block).  A cooperative operator with no
    positive off-diagonal entry has none in any principal submatrix
    either, so its blocks are passed on as KNOWN_Z unscanned.  Otherwise
    the block's one Z gate is principal_eigenpair's scan, and its (row,
    col) is reported as ((species, interior_pos), (species, interior_pos))
    of the whole system (DiscreteSystem.species_position of the block's
    block_ids).  A block on the whole grid, with no mask or one that keeps
    every node, starts from grid_sine; a block on a subdomain takes no
    start.
    """
    ds = as_discrete(spec)
    coop = ds.assembled("cooperative")
    mask = None if mask is None or mask.inside.all() else mask
    whole = mask is None and list(species) == list(range(ds.n_species))
    value, pos = coop.offdiag_max, coop.worst_offdiag
    if coop.z_matrix or not whole:
        a, content = (coop.A, coop.key) if whole else ds.cooperative_block(species, mask)
        z_scan = KNOWN_Z if whole or coop.offdiag_max == 0.0 else None
        try:
            return _memo_eigenpair(ds, a, content, settings, z_scan, mask is None)
        except NotZMatrix as err:
            rows = ds.block_ids(species, mask)[list(err.position)]
            value, pos = err.value, ds.species_position(rows)
    raise NotZMatrix(
        f"cooperative part has positive off-diagonal {value:.6g} at {pos}",
        position=pos,
        value=value,
    )


def cooperative_eigen(
    spec, settings: Settings = DEFAULT, mask: SubdomainMask | None = None
) -> EigenPair:
    """Principal eigenpair of the cooperative part L + M_minus."""
    ds = as_discrete(spec)
    return block_eigen(ds, range(ds.n_species), settings, mask)


def component_eigen(
    spec, j: int, settings: Settings = DEFAULT, mask: SubdomainMask | None = None
) -> EigenPair:
    """Principal eigenpair of the scalar block L_j + m_jj_minus (j 1-based)."""
    ds = as_discrete(spec)
    if not 1 <= j <= ds.n_species:
        raise ValidationError(f"species index {j} outside 1..{ds.n_species}")
    return block_eigen(ds, [j - 1], settings, mask)
