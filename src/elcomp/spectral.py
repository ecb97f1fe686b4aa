"""Principal eigenpairs of discretized operators via Noda iteration.

The principal eigenvalue lambda of an irreducible Z-matrix A is its
eigenvalue of smallest real part, with a positive eigenvector.  Noda's
shifted inverse iteration (linalg.noda_iteration) runs on A itself and
carries a Collatz-Wielandt enclosure of lambda along.  It keeps a shift's
factorization while the solves with it halve the enclosure width, and its
factorization count does not grow with the mesh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .assembly import as_discrete, check_z_matrix
from .errors import EmptySubdomain, NotIrreducible, NotZMatrix, ValidationError
from .graphs import csr_strongly_connected
from .mesh import SubdomainMask, full_mask, sub_rectangle_mask

TOL_EIG = 1e-9
MAX_ITER = 100  # LU factorizations per Noda run; a run needs 1-3


@dataclass
class EigenPair:
    """Principal eigenvalue with positive right/left eigenvectors.

    value lies in the closed interval cw; right and left are normalized to
    unit max and strictly positive on the unknowns.  iterations counts the
    LU factorizations of the run, each kept for as long as its solves halve
    the enclosure width and shared by both vectors; solves counts the
    solves with them, right and left together.  A symmetric matrix has no
    left iterate and reuses the right vector.
    """

    value: float
    right: np.ndarray
    left: np.ndarray
    cw: tuple
    iterations: int
    residual: float
    solves: int


def _species_index(j: int, n: int) -> int:
    """1-based species index (as in reports) -> 0-based array index."""
    if not 1 <= j <= n:
        raise ValidationError(f"species index {j} outside 1..{n}")
    return j - 1


def principal_eigenpair(
    a: sp.spmatrix, tol_eig: float = TOL_EIG, max_iter: int = MAX_ITER
) -> EigenPair:
    """Eigenvalue of smallest real part of an irreducible Z-matrix.

    The Z-matrix and irreducibility gates are what keep the Noda iterates
    strictly positive.
    """
    is_z, pos, worst, _ = check_z_matrix(a)
    if not is_z:
        raise NotZMatrix(
            f"off-diagonal entry {worst:.6g} at {pos}", position=pos, value=worst
        )
    if not csr_strongly_connected(a):
        raise NotIrreducible("matrix digraph is not strongly connected")

    def width(lam):
        return tol_eig * (1.0 + abs(lam))

    at = a.T.tocsr()
    symmetric = linalg.same_nonzeros(a, at)
    run = linalg.noda_iteration(a, width, max_iter, left=None if symmetric else at)
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


def _memo_eigenpair(ds, a, tol_eig: float, max_iter: int) -> EigenPair:
    """principal_eigenpair(a), solved once per operator content on ds.

    The memo lives on the system, so nothing outlives the run; cached
    vectors are read-only.
    """
    key = (linalg.content_key(a), tol_eig, max_iter)
    if key not in ds._eigen_cache:
        pair = principal_eigenpair(a, tol_eig, max_iter)
        pair.right.setflags(write=False)
        pair.left.setflags(write=False)
        ds._eigen_cache[key] = pair
    return ds._eigen_cache[key]


def block_eigen(
    spec,
    species,
    tol_eig: float = TOL_EIG,
    max_iter: int = MAX_ITER,
    mask: SubdomainMask | None = None,
) -> EigenPair:
    """Principal eigenpair of the cooperative part restricted to a species
    block (0-based species) and a subdomain: a principal submatrix of the
    full-domain cooperative operator (DiscreteSystem.block)."""
    ds = as_discrete(spec)
    a = ds.block("cooperative", species, mask)
    is_z, pos, worst, _ = check_z_matrix(a, a.shape[0] // len(species))
    if not is_z:
        raise NotZMatrix(
            f"cooperative part has positive off-diagonal {worst:.6g} at {pos}",
            position=pos,
            value=worst,
        )
    return _memo_eigenpair(ds, a, tol_eig, max_iter)


def cooperative_eigen(
    spec,
    tol_eig: float = TOL_EIG,
    max_iter: int = MAX_ITER,
    mask: SubdomainMask | None = None,
) -> EigenPair:
    """Principal eigenpair of the cooperative part L + M_minus."""
    ds = as_discrete(spec)
    return block_eigen(ds, range(ds.n_species), tol_eig, max_iter, mask)


def component_eigen(
    spec,
    j: int,
    tol_eig: float = TOL_EIG,
    max_iter: int = MAX_ITER,
    mask: SubdomainMask | None = None,
) -> EigenPair:
    """Principal eigenpair of the scalar block L_j + m_jj_minus (j 1-based)."""
    ds = as_discrete(spec)
    return block_eigen(ds, [_species_index(j, ds.n_species)], tol_eig, max_iter, mask)


@dataclass
class ScanResult:
    """Subdomain eigenvalues: entries are (mask, value), full domain first."""

    entries: list
    min_value: float
    full_value: float
    monotone_ok: bool


def _dyadic_masks(grid, depth: int) -> list:
    """Deduplicated sub-rectangle masks with dyadic endpoints, full domain first."""
    masks = [full_mask(grid)]
    seen = {masks[0].inside.tobytes()}
    if depth <= 0:
        return masks
    steps = 2**depth
    axis_pairs = []
    for d in range(grid.dim):
        length = grid.hi[d] - grid.lo[d]
        pairs = []
        for i in range(steps):
            for k in range(i + 1, steps + 1):
                pairs.append(
                    (grid.lo[d] + i * length / steps, grid.lo[d] + k * length / steps)
                )
        axis_pairs.append(pairs)
    for box in itertools.product(*axis_pairs):  # one (lo, hi) pair per axis
        lo0, hi0 = zip(*box)
        try:
            mask = sub_rectangle_mask(grid, lo0, hi0)
        except EmptySubdomain:
            continue
        key = mask.inside.tobytes()
        if key not in seen:
            seen.add(key)
            masks.append(mask)
    return masks


def subdomain_scan(
    spec, depth: int, tol_eig: float = TOL_EIG, max_iter: int = MAX_ITER
) -> ScanResult:
    """Cooperative eigenvalues over dyadic sub-rectangles.

    Checks the domain-monotonicity expectation: the minimum over the scan
    should be attained on the full domain (up to the enclosure tolerance).
    """
    ds = as_discrete(spec)
    masks = _dyadic_masks(ds.grid, depth)

    values = [cooperative_eigen(ds, tol_eig, max_iter, m).value for m in masks]
    entries = list(zip(masks, values))
    full_value = values[0]
    min_value = min(values)
    monotone_ok = min_value >= full_value - tol_eig * (1.0 + abs(full_value))
    return ScanResult(entries, min_value, full_value, monotone_ok)
