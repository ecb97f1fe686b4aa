"""Principal eigenpairs of discretized operators via Noda iteration.

The principal eigenvalue lambda of an irreducible Z-matrix A is its
eigenvalue of smallest real part, with a positive eigenvector.  Noda's
shifted inverse iteration (linalg.noda_steps) runs on A itself and
carries a Collatz-Wielandt enclosure of lambda along.  It keeps a shift's
factorization while the solves with it halve the enclosure width, and its
factorization count does not grow with the mesh.  Each of its states is an
EigenPair (linalg's, importable from here too).

A block on the whole grid first offers Noda the grid's discrete sine,
prod_d sin(pi i_d / n_d) on every species of the block (grid_sine).  On a
box it is the exact principal eigenvector of the Dirichlet difference
Laplacian (R. J. LeVeque, Finite Difference Methods for Ordinary and
Partial Differential Equations, SIAM 2007, sec. 2.10), and so of every
block with constant coefficients, no convection or cross diffusion, and
species that the coupling treats alike.  Noda encloses it before its
first LU: when that enclosure closes, at the width target or at the
rounding floor, the run ends with no LU and no solve; otherwise it runs
as it would without the sine.  Subdomain blocks take no sine.

Each operator's run is kept on its system (EigenRun, _memo_eigenpair),
and a caller reads it at its end, unless it reads within open_runs: there
it gets the run as far as it has gone, a rigorous enclosure wider than the
target, and goes on with the run only where that does not decide what it
asks (certify).  A later read within open_runs continues the run where an
earlier one left it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse as sp

from . import linalg
from .assembly import KNOWN_Z, as_discrete, check_z_matrix
from .errors import NoConvergence, NotIrreducible, NotZMatrix, ValidationError
from .graphs import csr_strongly_connected
from .linalg import EigenPair
from .mesh import SubdomainMask
from .settings import DEFAULT, Settings


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


class EigenRun:
    """The Noda run of an irreducible Z-matrix, taken one enclosure at a
    time (linalg.noda_steps); pair is its EigenPair so far.

    The Z-matrix and irreducibility gates are what keep the Noda iterates
    strictly positive, and they are checked when the run is made.  z_scan
    is check_z_matrix(a)'s result when a's content has been scanned
    already; without it, a is scanned here.  A nonsymmetric a runs a left
    iterate on A^T alongside; a symmetric one reuses the right vector.
    start, a positive candidate eigenvector, is checked before the first LU.
    settings gives tol_eig and max_iter.
    """

    def __init__(
        self,
        a: sp.spmatrix,
        settings: Settings = DEFAULT,
        z_scan: tuple | None = None,
        start: np.ndarray | None = None,
    ):
        is_z, pos, worst, _ = check_z_matrix(a) if z_scan is None else z_scan
        if not is_z:
            raise NotZMatrix(
                f"off-diagonal entry {worst:.6g} at {pos}", position=pos, value=worst
            )
        if not csr_strongly_connected(a):
            raise NotIrreducible("matrix digraph is not strongly connected")
        at = a.T.tocsr()
        left = None if linalg.same_nonzeros(a, at) else at
        self._steps = linalg.noda_steps(a, settings, left, start)
        self.pair = next(self._steps)

    def advance(self) -> None:
        """Go on to the run's next enclosure; an open run only."""
        self.pair = next(self._steps)

    def finish(self) -> EigenPair:
        """The pair at the run's end."""
        while self.pair.open:
            self.advance()
        return self.pair


def principal_eigenpair(
    a: sp.spmatrix,
    settings: Settings = DEFAULT,
    z_scan: tuple | None = None,
    start: np.ndarray | None = None,
) -> EigenPair:
    """Eigenvalue of smallest real part of an irreducible Z-matrix: its
    EigenRun's pair at the run's end."""
    return EigenRun(a, settings, z_scan, start).finish()


@contextlib.contextmanager
def open_runs(ds):
    """Within it, _memo_eigenpair on ds hands out each run's pair as far as
    the run has gone, and the dict it yields collects those runs by memo
    key, for the caller to advance the open ones (certify).  On the way
    out the runs left open leave the memo, and with them the factorization
    each keeps for its next solve, so that it is not held beside the
    oracle's; a later read starts such a run again, and the run repeats
    itself bit for bit."""
    ds._eigen_reads = {}
    try:
        yield ds._eigen_reads
    finally:
        ds._eigen_reads = None
        for key in [key for key, run in ds._eigen_cache.items() if run.pair.open]:
            del ds._eigen_cache[key]


def _memo_eigenpair(
    ds, a, content: str, settings: Settings = DEFAULT, z_scan=None, whole_grid: bool = True
) -> EigenPair:
    """The EigenPair of a's run, kept open on ds: made once per operator
    content, read at its end, or, within open_runs, as far as it has gone.

    content is a's content key, kept with the operator (block_eigen).  A
    block on the whole grid (whole_grid) starts from grid_sine; a subdomain
    block takes no start.  The memo lives on the system, so nothing outlives
    the run; a later read continues the run where an earlier one left it
    (open_runs drops the runs it leaves open), and cached vectors are
    read-only.  It keys on the two settings a solve
    reads, so runs that differ in any other share it.
    """
    key = (content, settings.tol_eig, settings.max_iter, whole_grid)
    if key not in ds._eigen_cache:
        n_int = ds.grid.n_interior
        start = grid_sine(ds.grid, a.shape[0] // n_int) if whole_grid else None
        ds._eigen_cache[key] = EigenRun(a, settings, z_scan, start)
    run = ds._eigen_cache[key]
    if ds._eigen_reads is not None:
        ds._eigen_reads[key] = run
    else:
        try:
            run.finish()
        except NoConvergence:
            del ds._eigen_cache[key]  # a run that failed is made again, and fails again
            raise
    pair = run.pair
    pair.right.setflags(write=False)
    pair.left.setflags(write=False)
    return pair


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
