"""Independent discrete ground truth for the comparison principle.

The discrete comparison principle is defined as: A nonsingular, inverse of
A entrywise nonnegative, and -A^{-1} G entrywise nonnegative.  Equivalently
A u <= 0 in the interior plus boundary data <= 0 force u <= 0.

decide answers it in one species order sigma, D = diag(sigma), on one
ladder, which certify climbs for each order it reports and elcomp oracle
for its one order.  The first rung that decides gives the report, and its
method names the rung:
1. m_matrix ("m-matrix"): where D A D is a Z-matrix and G <= 0, an x with
   (D A D) x > 0 proven in every row decides inverse positivity both ways
   by Fiedler-Ptak (M. Fiedler, V. Ptak, Czechoslovak Math. J. 12 (1962)
   382-400), and a gauge order it proves positive on an irreducible A
   decides the plain order.  On a 2D grid x is first a cheap candidate, the
   solution of D A D's mean stencil in the grid's sine basis
   (_sine_candidate), which needs no LU; where its bound proves nothing,
   and on a 1D grid, x = (D A D)^{-1} 1.
2. The column search ("columns"): the column of A^{-1} at the middle
   interior node of each species.  A negative entry of block (k, l) can
   show in a column of species l, where a random f >= 0 would add the
   positive diagonal blocks in.  A proven field refutes; a column with no
   negative entry certifies nothing.
3. Within settings.oracle_max_dof unknowns only, the scan of A^{-1}
   ("scan"), with refute's field where a decision fails.
4. Otherwise inverse_positive is None, and boundary_reason says why
   ("columns").
Every rung that solves does so on one LU of A, which the system keeps by
content beside the scan (_lu), so that a system that reaches the scan is
factorized once.  Rungs 1 and 2 need no budget; the budget bounds the
scan alone, which is the only rung that reports min_entry.

The inverse is streamed, never held.  A scan leaves only the min and max
of every species block (k, l) of A^{-1}: values, no positions.
inverse_positivity keeps the scan on the system by content, and every
gauge reads it.

The boundary half, -A^{-1} G >= 0, follows from the first and from G's
signs (A. Berman, R. J. Plemmons, Nonnegative Matrices in the Mathematical
Sciences, SIAM 1994, ch. 6).  -A^{-1} G = A^{-1} (-G), and G is species-
block diagonal (the coupling joins interior nodes only), so D G D_b = G
under any gauge.  Where no stored value of G is positive, A^{-1} >= 0
gives -A^{-1} G >= 0 exactly; entries of A^{-1} >= -TOL_OP max|A^{-1}|
give entries >= -TOL_OP max|A^{-1}| max_b |g_b|_1, g_b column b of G.
Where A^{-1} has a negative entry, comparison fails already, and
boundary_monotone is None.  Otherwise the columns b whose g_b holds a value
that is not <= 0, which cross diffusion's corner terms give, are solved
against -G on the LU of A (N. J. Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 14), and their extremes
decide.  boundary_reason names the case, and so does one DEBUG record on
the elcomp.oracle logger.

The scan (_scan_inverse) solves against the identity on the LU of A,
BLOCK columns at a time.  The right-hand sides are scattered
from CSC arrays, with no sparse matrix per block, and each solved block is
reduced to its extremes and dropped.  Memory is the LU factors and one n x
BLOCK block: O(n * BLOCK).

A gauge sigma flips signs in that same scan.  With D = diag(sigma),
(D A D)^{-1} = D A^{-1} D holds bit for bit in floating point: the LU's
fill-reducing column ordering depends only on the sparsity pattern, which
D A D shares with A, and partial pivoting picks pivots by magnitude, so
D A D gets A's ordering and pivots, and a +-1 factor commutes with every
rounding.  Block (k, l) of the gauged inverse is sigma_k sigma_l times
that of A^{-1}, so where the signs differ its minimum is -max.  The
column search solves D A D the same way, as D A^{-1} D.

A scan keeps no positions: a broken comparison is refuted by a field
(refute), from one column of A^{-1}, or of -A^{-1} G, solved again by the
column search, and shifted by a multiple of (D A D)^{-1} 1 so that its
image is < 0 in every row.  A field counts only where an outward-rounded
bound on its image proves that image <= 0 (prove_field), with no
tolerance; the m_matrix check, certify's Theorem 6 and 7 witnesses and the
column search all use that one rule.  A solved column can differ in the
last bit from the scan's: the BLAS kernels behind the sparse triangular
solves are chosen by the number of right-hand sides.

solve_system, which no scan calls, solves A u = f - G g.  On a 2D grid
with two or more species it factorizes the species blocks, not A: the
species meet only at single nodes, through M(x) u, so sweeps over the
blocks reach the rounding floor in a few solves, and a singular block or
a stalling sweep hands off to the coupled LU.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .errors import DimMismatch, SingularMatrix, TooLarge, ValidationError
from .fields import Counterexample, block_from_solution
from .graphs import csr_strongly_connected
from .linalg import (
    LuFactor,
    gamma,
    lu_order,
    lu_solve,
    principal_submatrix,
    row_ids,
)
from .settings import DEFAULT, Settings

logger = logging.getLogger(__name__)

TOL_OP = 1e-9
BLOCK = 64  # columns of A^{-1} per solve in the streamed scan
# solve_system's species sweeps hand off to the coupled LU once a sweep leaves
# the scaled residual above this fraction of the one before: at 96^2 a sweep
# costs 1/25 to 1/45 of the coupled LU, so from 1e10 times the floor, where
# the first sweep leaves solve-2d-setup's pairs, sweeps that cut by 0.25 or
# better (17 or fewer) still cost less than a hand-off
SWEEP_CUT = 0.25


@dataclass
class OracleReport:
    inverse_positive: bool | None  # None: undecided, above the budget
    min_entry: float | None  # the scan's only
    boundary_monotone: bool | None
    min_boundary_entry: float | None  # over the solved columns of -G only
    boundary_reason: str | None  # how boundary_monotone was decided
    dof: int
    gauge: tuple | None = None
    method: str = "scan"  # the rung that decided (decide): or "m-matrix", or "columns"
    counterexample: Counterexample | None = None  # the field that refutes

    def to_json_dict(self) -> dict:
        cex = self.counterexample.to_json_dict() if self.counterexample else None
        gauge = list(self.gauge) if self.gauge is not None else None
        return dict(vars(self), gauge=gauge, counterexample=cex)


def _signs(asys: AssembledSystem, gauge):
    """(sigma, per-species signs) of a validated gauge; (None, all +1) without."""
    if gauge is None:
        return None, np.ones(asys.n_species)
    sigma = tuple(int(s) for s in gauge)
    if len(sigma) != asys.n_species or any(s not in (-1, 1) for s in sigma):
        raise ValidationError(
            f"gauge must be {asys.n_species} entries of +-1, got {gauge!r}"
        )
    return sigma, np.asarray(sigma, dtype=float)


def _right_hand_sides(asys: AssembledSystem, boundary: bool):
    """(rhs, cols, width): the CSC arrays of the identity, or of -G when
    boundary; the columns the oracle solves for, all of the identity's and
    those of -G where G holds a value that is not <= 0; and the columns of
    each species."""
    if boundary:
        g = asys.G.tocsc()
        cols = np.unique(row_ids(g)[~(g.data <= 0.0)])  # NaN included
        return (g.indptr, g.indices, -g.data), cols, asys.grid.n_boundary
    n = asys.A.shape[0]
    return (np.arange(n + 1), np.arange(n), np.ones(n)), np.arange(n), asys.grid.n_interior


def _solves(lu: LuFactor, rhs, cols: np.ndarray):
    """(c0, A^{-1} r) for the BLOCK columns cols[c0 : c0 + BLOCK] of the
    right-hand sides r held in the CSC arrays rhs, each block scattered
    into a dense right-hand side."""
    indptr, indices, data = rhs
    sizes = np.diff(indptr)
    for c0 in range(0, cols.size, BLOCK):
        block = cols[c0 : c0 + BLOCK]
        counts = sizes[block]
        first = np.repeat(indptr[block] - np.cumsum(counts) + counts, counts)
        at = first + np.arange(first.size)  # the entries of the block's columns
        r = np.zeros((lu.n, block.size))
        r[indices[at], np.repeat(np.arange(block.size), counts)] = data[at]
        x = lu.solve(r)
        del r
        yield c0, x
        del x  # so that the next solve does not hold two blocks


def _block_minima(lu: LuFactor, asys: AssembledSystem, rhs, cols, width: int) -> dict:
    """{(k, l, s): min of s * block (k, l) of A^{-1} r} for both signs s,
    over the columns cols (increasing) of the right-hand sides r in rhs;
    block (k, l) holds the rows of species k and the columns c of species
    l = c // width."""
    n_int, out = asys.grid.n_interior, {}
    for c0, x in _solves(lu, rhs, cols):
        species = cols[c0 : c0 + x.shape[1]] // width
        ends = [0, *(np.flatnonzero(np.diff(species)) + 1), species.size]
        for j0, j1 in zip(ends, ends[1:]):
            l = int(species[j0])
            for k in range(asys.n_species):
                part = x[k * n_int : (k + 1) * n_int, j0:j1]
                for s, v in ((1, part.min()), (-1, -part.max())):
                    out[k, l, s] = min(out.get((k, l, s), np.inf), float(v))
        del x, part
    return out


def _lu(asys: AssembledSystem) -> LuFactor:
    """The one LU of A, in minimum degree order, that every rung solves
    with, kept on asys beside the scan, by content (asys.key); m_matrix
    asks for it only where its sine-basis candidate proves nothing or the
    grid is 1D.  m_matrix solves only a Z-matrix D A D, which no 9-point
    stencil is (cross diffusion puts both signs on a species' diagonal
    neighbours, and no gauge flips them), so lu_order gives its systems no
    order either."""
    key = (asys.key, "LU")
    if key not in asys._oracle_cache:
        asys._oracle_cache[key] = LuFactor(asys.A)
    return asys._oracle_cache[key]


def _scan_inverse(asys: AssembledSystem) -> dict:
    """Gauge-free extremes of A^{-1} per species block, from the LU of A
    (_lu) solved against the identity BLOCK columns at a time, kept on asys
    by the content of A and G (asys.key): inv[k, l, s] is the min of s *
    block (k, l) of A^{-1} for s = 1 and -1."""
    if asys.key not in asys._oracle_cache:
        rhs = _right_hand_sides(asys, False)
        asys._oracle_cache[asys.key] = _block_minima(_lu(asys), asys, *rhs)
    return asys._oracle_cache[asys.key]


def _boundary_columns(asys: AssembledSystem):
    """(n_cols, bnd): the number of columns of -G solved, those where G holds
    a value that is not <= 0, and bnd[k, l, s], the min of s * block (k, l)
    of -(A^{-1} G) over them, from the LU of A (_lu); kept on asys beside
    the scan, by content."""
    key = (asys.key, "-G")
    if key not in asys._oracle_cache:
        rhs, cols, width = _right_hand_sides(asys, True)
        bnd = _block_minima(_lu(asys), asys, rhs, cols, width)
        asys._oracle_cache[key] = cols.size, bnd
    return asys._oracle_cache[key]


def inverse_positivity(
    asys: AssembledSystem,
    gauge=None,
    settings: Settings = DEFAULT,
) -> OracleReport:
    """Decide inverse-positivity of (D A D) from the streamed scan of A^{-1}.

    With a gauge sigma, D flips the sign of whole species blocks, realizing
    the cone order that turns constant-sign competitive coupling cooperative.
    The scan is kept on asys by the content of A and G (asys.key), so all
    gauges share one factorization and one pass over A^{-1}.  Above
    settings.oracle_max_dof unknowns a system is TooLarge, and is not
    scanned.  boundary_monotone follows from inverse_positive and G's signs,
    or from the columns of -G that the signs leave open (module docstring),
    and boundary_reason says which.  The report carries no counterexample;
    refute makes one.
    """
    ns = asys.n_species
    sigma, signs = _signs(asys, gauge)
    dof = asys.A.shape[0]
    if dof > settings.oracle_max_dof:
        raise TooLarge(f"oracle scan of {dof} dof exceeds budget {settings.oracle_max_dof}")
    inv = _scan_inverse(asys)
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    min_entry = min(inv[p] for p in pairs)
    # the unflipped and the flipped minima together hold -max |entry|
    threshold = TOL_OP * -min(inv.values())
    inverse_positive = min_entry >= -threshold
    monotone, least, reason = None, None, "A^-1 has a negative entry"
    if inverse_positive and (asys.G.data <= 0.0).all():
        monotone, reason = True, "G <= 0 and A^-1 >= 0"
    elif inverse_positive:
        n_cols, bnd = _boundary_columns(asys)
        least = min(bnd[p] for p in pairs if p in bnd)
        monotone, reason = least >= -threshold, f"{n_cols} columns of -G solved"
    logger.debug("gauge %s: boundary_monotone %s (%s)", sigma, monotone, reason)
    return OracleReport(inverse_positive, min_entry, monotone, least, reason, dof, sigma)


def _image_upper(asys: AssembledSystem, d: np.ndarray, v: np.ndarray, g=None) -> np.ndarray:
    """An upper bound on each row of D A D v + D G D_b g, D = diag(d), g
    None for zero boundary data: fl(.) + gamma_(k+1) (|A| |v| + |G| |g|) +
    eta, rounded outward, k a row's terms; v and g may hold a field per
    column, d shaped (n, 1).  fl(.) errs by at most gamma_k (|A| |v| + |G|
    |g|) (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., SIAM 2002, sec. 3.5; D G D_b = G, G being species-block diagonal),
    one more rounding in gamma covers the computed magnitudes' own, and eta
    = (k + 1) 2^-1074 what gradual underflow adds, at most 2^-1075 a
    product (ibid., sec. 2.1).  A row whose terms are all exactly 0 is
    bounded by 0."""
    a, abs_a = asys.A, abs(asys.A)
    k = int(np.diff(a.indptr).max(initial=0))
    s, t = d * (a @ (d * v)), abs_a @ np.abs(v)
    if g is not None:
        k += int(np.diff(asys.G.indptr).max(initial=0))
        s, t = s + asys.G @ g, t + abs(asys.G) @ np.abs(g)
    eta = (k + 1) * np.finfo(float).smallest_subnormal
    upper = np.nextafter(s + (gamma(k + 1) * t + eta), np.inf)
    if (t == 0.0).any():  # a row of products that are all 0, or underflow to 0
        terms = abs_a @ (v != 0.0) + (0.0 if g is None else abs(asys.G) @ (g != 0.0))
        upper[terms == 0.0] = 0.0
    return upper


def _sine_candidate(asys: AssembledSystem, d: np.ndarray) -> np.ndarray | None:
    """x with P x = 1, P the operator of D A D's mean stencil, D = diag(d),
    on a 2D grid; None on a 1D one.  P is read from A's stored entries and
    the grid alone: one bincount gives each species block's mean centre
    entry, mean x and y neighbour entries (the +- sides averaged together,
    so P is symmetric in space) and mean pointwise coupling, times sigma_k
    sigma_l.  Each species block of P is then a Kronecker sum of tridiagonal
    Toeplitz matrices, which the orthonormal sine basis Q_d = sqrt(2 / (m +
    1)) sin(pi i j / (m + 1)), m = n_d - 1, diagonalizes; Q_d is dense,
    symmetric and orthogonal, applied by matmul, and each sine mode couples
    the species in one N x N solve.  x is only a candidate: m_matrix's
    bound decides whether it proves anything."""
    grid, a, ns = asys.grid, asys.A, asys.n_species
    if grid.dim != 2:
        return None
    n, (m1, m2) = grid.n_interior, (nd - 1 for nd in grid.n)
    rows, cols = row_ids(a), a.indices
    k, l, step = rows // n, cols // n, np.abs(cols.astype(np.int64) - rows)
    # the slots of block (k, l): 0 centre, 1 x neighbour, 2 y neighbour, 3 coupling, 4 the rest
    bins = (k * ns + l) * 5 + np.select([k != l, step == 0, step == 1, step == m1], [3, 0, 1, 2], 4)
    sums = np.bincount(bins, d[rows] * d[cols] * a.data, ns * ns * 5).reshape(ns, ns, 5)
    counts = np.bincount(bins, None, ns * ns * 5).reshape(ns, ns, 5)
    own = np.arange(ns)
    centre, sx, sy = (sums[own, own, s] / np.maximum(counts[own, own, s], 1) for s in range(3))
    q, cos = [], []  # per axis, Q_d and the eigenvalues of tridiag(1, 0, 1) halved
    for m in (m1, m2):
        i = np.arange(1, m + 1)
        q.append(np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(i, i) / (m + 1)))
        cos.append(np.cos(np.pi * i / (m + 1)))
    modes = np.broadcast_to(sums[..., 3] / n, (m2, m1, ns, ns)).copy()  # y mode, x mode
    modes[..., own, own] = centre + 2.0 * (sx * cos[0][:, None] + sy * cos[1][:, None, None])
    ones = np.outer(q[1].sum(axis=1), q[0].sum(axis=0))  # Q_2 1 1^T Q_1
    try:
        xhat = np.linalg.solve(modes, np.broadcast_to(ones[..., None, None], (m2, m1, ns, 1)))
    except np.linalg.LinAlgError:  # a singular mode: P has no candidate to offer
        return None
    return np.concatenate([(q[1] @ xhat[..., k, 0] @ q[0]).ravel() for k in range(ns)])


def _hand_on(sigma, reason: str, *args) -> None:
    """Log at DEBUG why m_matrix hands the order sigma to the column search."""
    logger.debug("gauge %s: M-matrix check handed to the columns: " + reason, sigma, *args)


def m_matrix(
    asys: AssembledSystem, gauge=None, flipped: OracleReport | None = None
) -> OracleReport | None:
    """The ladder's first rung: inverse_positivity's decision for D A D from
    one vector x, or None where a later rung must decide.  One DEBUG record
    says that the check decided, or why it did not; on a 2D grid one more
    says that the sine-basis candidate decided, or gives its max|1 - B x|.

    By Fiedler-Ptak, a Z-matrix B is a nonsingular M-matrix, so B^{-1} >= 0,
    iff some x > 0 has B x > 0 (Berman-Plemmons, ch. 6).  Where B = D A D is
    a Z-matrix and G <= 0, both on stored values, B x > 0 is proven in
    every row as B (-x) < 0 (_image_upper) for x the sine-basis candidate
    (_sine_candidate) on a 2D grid, and where that bound proves nothing, or
    on a 1D grid, for x = B^{-1} 1 = D A^{-1} D 1 solved on the LU of A
    (_lu).  Neither decision needs x = B^{-1} 1 exactly: the bound decides.
    Then x > 0 gives inverse_positive and, with G <= 0, boundary_monotone.
    Otherwise some x_i < 0: a row with x_i = 0 and x >= 0 elsewhere has (B
    x)_i <= 0.  That refutes, as B^{-1} >= 0 would map B x > 0 to x >= 0,
    and v = -x, with zero boundary data and that same bound, is the
    report's proven counterexample.  method reads "m-matrix" and min_entry None.  The check
    reads neither the DiscreteSystem's coefficients nor the Perron vector,
    so it stays independent of Theorem 1's certificate.

    flipped, this check's report in an order sigma that flips some species
    and not all, decides the plain order (gauge None): where it proved (D A
    D)^{-1} >= 0 and A's digraph, D A D's, is strongly connected, (D A
    D)^{-1} > 0 entrywise, so every block (k, l) of A^{-1} with sigma_k
    sigma_l = -1 is < 0, with no solve.

    None where the order is not Z, G holds a value that is not <= 0, the
    LU's solve calls A singular, B x > 0 is not proven for x = B^{-1} 1, or
    flipped proved positivity on a reducible A.
    """
    sigma, signs = _signs(asys, gauge)
    dof, a = asys.A.shape[0], asys.A
    proved = flipped is not None and flipped.method == "m-matrix" and flipped.inverse_positive
    if proved and set(flipped.gauge) == {1, -1}:
        if not csr_strongly_connected(a):
            reason = "A is reducible, so no report follows from gauge %s"
            return _hand_on(sigma, reason, flipped.gauge)
        logger.debug(
            "gauge %s: decided by the M-matrix check in gauge %s, A irreducible",
            sigma, flipped.gauge,
        )
        reason = "A^-1 has a negative entry"
        return OracleReport(False, None, None, None, reason, dof, sigma, "m-matrix")
    d = np.repeat(signs, asys.grid.n_interior)
    rows, cols = row_ids(a), a.indices
    off = rows != cols
    if not (d[rows[off]] * d[cols[off]] * a.data[off] <= 0.0).all():  # NaN included
        return _hand_on(sigma, "D A D is not a Z-matrix")
    if not (asys.G.data <= 0.0).all():
        return _hand_on(sigma, "G has a value that is not <= 0")
    x = _sine_candidate(asys, d)
    bound = None if x is None else _image_upper(asys, d, -x)
    if x is not None and (bound < 0.0).all():
        logger.debug("gauge %s: the sine-basis candidate x decides", sigma)
    else:
        if x is not None:
            residual = float(np.abs(1.0 - d * (a @ (d * x))).max())
            logger.debug(
                "gauge %s: the sine-basis candidate x leaves max|1 - (D A D) x| = %.3g,"
                " so x = (D A D)^-1 1 is solved on the LU of A", sigma, residual,
            )
        try:
            x = d * _lu(asys).solve(d)
        except SingularMatrix as err:
            return _hand_on(sigma, "the solve calls A singular (%s)", err)
        bound = _image_upper(asys, d, -x)
        if not (bound < 0.0).all():
            return _hand_on(sigma, "(D A D) x > 0 is not proven")
    logger.debug("gauge %s: decided by the M-matrix check", sigma)
    if (x > 0.0).all():
        reason = "G <= 0 and A^-1 >= 0"
        return OracleReport(True, None, True, None, reason, dof, sigma, "m-matrix")
    cex = prove_field(asys, d, -x, None, None, "m-matrix", bound)
    reason = "A^-1 has a negative entry"
    return OracleReport(False, None, None, None, reason, dof, sigma, "m-matrix", cex)


def prove_field(asys, d, v, g, j, which: str, bound=None) -> Counterexample:
    """The Counterexample of interior values v and boundary data g (zeros
    when None) on D A D, D = diag(d), from source j, which: verified exactly
    when every row of its _image_upper bound (or bound) is <= 0, g <= 0 and
    max v > 0, with no tolerance; residual_max is the bound's largest row."""
    bound = _image_upper(asys, d, v, g) if bound is None else bound
    residual = float(bound.max())
    verified = residual <= 0.0 and float(v.max()) > 0.0 and (g is None or bool((g <= 0.0).all()))
    fld = block_from_solution(asys.grid, asys.n_species, v, g)
    return Counterexample(fld, verified, residual, j, which)


def refute(asys: AssembledSystem, report: OracleReport) -> Counterexample | None:
    """A proven field that breaks comparison for D A D where report,
    inverse_positivity's on asys, has a decision fail (inverse_positive
    first); None when both hold or no field is proven.  The column search
    runs over the right-hand sides of species l that the scan solved for,
    the identity's or -G's (_right_hand_sides), in the first block (k, l)
    whose scanned minimum is the report's."""
    if report.inverse_positive and report.boundary_monotone:
        return None
    _, signs = _signs(asys, report.gauge)
    ns = asys.n_species
    boundary = bool(report.inverse_positive)
    extremes = _boundary_columns(asys)[1] if boundary else _scan_inverse(asys)
    least = report.min_boundary_entry if boundary else report.min_entry
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    _, l, _ = next(p for p in pairs if extremes.get(p) == least)
    _, cols, width = _right_hand_sides(asys, boundary)
    return _column_search(asys, signs, boundary, cols[cols // width == l])


def _column_search(asys, signs, boundary: bool, cols) -> Counterexample | None:
    """The proven field of the first column j among cols that has one, from
    the LU of A (_lu); None when none has.  x = D A^{-1} D r_j, r_j column
    j of the identity, or of -G when boundary.  With y = (D A D)^{-1} 1 and
    eps = |min x| / (4 max|y|), v = -(x + eps y) has D A D v = -(e_j + eps 1)
    with zero boundary data, or D A D v + D G D_b g = -eps 1 with g = -e_j,
    and v >= 3/4 |min x| > 0 where x is least, if min x < 0.  y is solved
    only once some column has a negative entry."""
    rhs, _, width = _right_hand_sides(asys, boundary)
    which = "oracle-boundary" if boundary else "oracle"
    d = np.repeat(signs, asys.grid.n_interior)[:, None]
    lu, y = _lu(asys), None
    for c0, x in _solves(lu, rhs, cols):
        block = cols[c0 : c0 + x.shape[1]]
        x *= d * signs[block // width]  # now D A^{-1} D r
        if not (x < 0.0).any():
            continue
        y = d * lu.solve(d) if y is None else y
        v = -(x + np.abs(x.min(axis=0)) / (4.0 * np.abs(y).max()) * y)
        g = -np.eye(asys.G.shape[1])[:, block] if boundary else None
        bound = _image_upper(asys, d, v, g)
        for c in np.flatnonzero(x.min(axis=0) < 0.0):
            g_c = None if g is None else g[:, c]
            cex = prove_field(asys, d[:, 0], v[:, c], g_c, int(block[c]), which, bound[:, c])
            if cex.verified:
                return cex
    return None


def decide(
    asys: AssembledSystem,
    gauge=None,
    settings: Settings = DEFAULT,
    flipped: OracleReport | None = None,
) -> OracleReport:
    """The report on D A D of the first rung of the ladder that decides
    (module docstring): m_matrix, with flipped as it reads it; the column
    search (_column_search), which solves, on the LU of A, the columns of
    A^{-1} at the middle interior node of each species, ns <= BLOCK of them,
    and refutes where one's field is proven; within settings.oracle_max_dof
    unknowns, inverse_positivity's scan with refute's field; else a report
    with inverse_positive None and the reason.  Each rung after the first
    logs at DEBUG that it decided, or that none did.
    """
    report = m_matrix(asys, gauge, flipped)
    if report is not None:
        return report
    sigma, signs = _signs(asys, gauge)
    dof = asys.A.shape[0]
    dims = [nd - 1 for nd in asys.grid.n[::-1]]  # interior nodes per axis, x fastest
    middle = np.ravel_multi_index([m // 2 for m in dims], dims)
    cols = asys.grid.n_interior * np.arange(asys.n_species) + middle
    cex = _column_search(asys, signs, False, cols)
    if cex is not None:
        logger.debug("gauge %s: refuted by the middle column %d", sigma, cex.j)
        reason = "A^-1 has a negative entry"
        return OracleReport(False, None, None, None, reason, dof, sigma, "columns", cex)
    if dof <= settings.oracle_max_dof:
        logger.debug("gauge %s: decided by the scan", sigma)
        report = inverse_positivity(asys, gauge, settings)
        report.counterexample = refute(asys, report)
        return report
    reason = f"A^-1 not scanned: {dof} dof above the budget {settings.oracle_max_dof}"
    logger.debug("gauge %s: undecided, %s", sigma, reason)
    return OracleReport(None, None, None, None, reason, dof, sigma, "columns")


def _species_sweeps(asys: AssembledSystem, b: np.ndarray) -> np.ndarray | None:
    """u with A u = b at the rounding floor, by block Gauss-Seidel over the
    species (solve_system); None, with the reason logged, to hand off."""
    a, grid, n = asys.A, asys.grid, asys.grid.n_interior
    blocks = [slice(k * n, (k + 1) * n) for k in range(asys.n_species)]
    rows = [a[s] for s in blocks]  # the rows of each species
    abs_a, abs_b = abs(a), np.abs(b)
    g = gamma(int(np.diff(a.indptr).max()) + 1)
    u = np.zeros(a.shape[0])
    last, sweeps = np.finfo(float).max, 0  # u = 0 passes any finite ratio
    try:
        lus = []
        for s in blocks:
            block = principal_submatrix(a, np.arange(s.start, s.stop))
            lus.append(LuFactor(block, lu_order(grid, block)))
        while True:
            r = np.abs(b - a @ u)
            floor = g * (abs_a @ np.abs(u) + abs_b)
            ratio = float(np.divide(r, floor, out=np.zeros_like(r), where=r != 0.0).max())
            if ratio <= 1.0:
                logger.debug("solve reached the rounding floor in %d species sweep(s)", sweeps)
                return u
            if not ratio <= SWEEP_CUT * last:
                logger.debug(
                    "solve handed to the coupled LU: sweep %d took the residual from %.3g"
                    " to %.3g times its floor, a cut above SWEEP_CUT %g",
                    sweeps, last, ratio, SWEEP_CUT,
                )
                return None
            last, sweeps = ratio, sweeps + 1
            for k, s in enumerate(blocks):
                u[s] += lus[k].solve(b[s] - rows[k] @ u)
    except SingularMatrix as err:
        logger.debug("solve handed to the coupled LU: a species block is singular: %s", err)
        return None


def solve_system(asys: AssembledSystem, rhs=None) -> np.ndarray:
    """Interior solution of A u = f - G g.

    A 2D system of two or more species is solved over its species
    (_species_sweeps): each species block A_kk is factorized once, on its
    own lu_order, and sweeps of u_k += A_kk^{-1} (b - A u)_k, species after
    species, run until |b - A u| <= gamma_{k+1} (|A| |u| + |b|) in every
    row, k being A's largest row nnz.  That is block Gauss-Seidel (R. S.
    Varga, Matrix Iterative Analysis, ch. 3) written as a correction, which,
    like fixed-precision iterative refinement (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12), also
    corrects the rounding of the solves before it: u_k <- A_kk^{-1} (b_k -
    sum_{l != k} A_kl u_l) stalled at 1.3 times the floor in one row of a
    128^2 5-point pair.  A singular species block, or a sweep that leaves
    max_i |b - A u|_i / (gamma_{k+1} (|A| |u| + |b|))_i above SWEEP_CUT of
    its value before, hands off to the coupled LU, which solves every other
    system: one LU of A on lu_order, nested dissection for a 9-point 2D
    operator, minimum degree otherwise.  The sweep count, or the hand-off
    and its reason, is logged at DEBUG on the elcomp.oracle logger.
    """
    f = asys.f_vec if rhs is None else np.asarray(rhs, dtype=float)
    if f.shape != (asys.A.shape[0],):
        raise DimMismatch(f"rhs has {f.shape}, system has {asys.A.shape[0]} unknowns")
    b = f - asys.G @ asys.g_vec
    if asys.grid.dim == 2 and asys.n_species > 1:
        u = _species_sweeps(asys, b)
        if u is not None:
            return u
    return lu_solve(asys.A, b, lu_order(asys.grid, asys.A))
