"""Independent discrete ground truth for the comparison principle.

The discrete comparison principle is defined as: A nonsingular, inverse of
A entrywise nonnegative, and -A^{-1} G entrywise nonnegative.  Equivalently
A u <= 0 in the interior plus boundary data <= 0 force u <= 0.  The oracle
decides this from a scan of the inverse within a dof budget.  Above it,
decide only refutes, with a proven field from the column of A^{-1} at the
middle interior node of each species: a negative entry of block (k, l) can
show in a column of species l, where a random f >= 0 would add the positive
diagonal blocks in.

certify cross-checks a claim first with one solve (m_matrix): where D A D
is a Z-matrix and G <= 0, x = (D A D)^{-1} 1 with (D A D) x > 0 proven in
every row decides inverse positivity both ways by Fiedler-Ptak (M.
Fiedler, V. Ptak, Czechoslovak Math. J. 12 (1962) 382-400), and a gauge
order it proves positive on an irreducible A decides the plain order.
Everywhere else the scan decides, and elcomp oracle always scans.

The inverse is streamed, never held.  A scan leaves only the min and max
of every species block (k, l) of A^{-1}: values, no positions.
inverse_positivity keeps the scan on the system by content, and every
gauge reads it.  A 2D grid whose lines hold SLAB_MIN_WIDTH unknowns or
more takes the slab scan; a 1D grid, a narrower 2D one, and a 2D grid
whose guard trips, the LU scan.

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
against -G on one LU of A (N. J. Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 14), and their extremes
decide.  boundary_reason names the case, and so does one DEBUG record on
the elcomp.oracle logger.

The LU scan (_scan_inverse) factorizes A once with SuperLU and solves
against the identity BLOCK columns at a time.  The right-hand sides are
scattered from CSC arrays, with no sparse matrix per block, and each solved
block is reduced to its extremes and dropped.  Memory is the LU factors and
one n x BLOCK block: O(n * BLOCK).  1D grids keep the LU scan: one line of
a 1D grid is a dense inverse, and lines of one node make the recursion
scalar work.  So do 2D grids with narrow lines: the slab scan makes about
lines^2 / 2 small products and folds each line's row in Python, and below
about 12 unknowns per line that costs more than the LU scan's solves (up to
10x more on 2 nodes per line); from 16 it cost less on every grid measured.

The slab scan (_scan_slabs) numbers the dofs by grid line, lines cutting
across the longer axis and the species of a line together, so that A is
block tridiagonal with m x m blocks, m = species x nodes per line.  The
line Schur complements S_p = A_pp - A_{p,p-1} S_{p-1}^{-1} A_{p-1,p} are
inverted by LAPACK's LU with partial pivoting, once each, in the pass that
also takes the guard's norms.  With Q_q = -A_{q+1,q} S_q^{-1} and R_p =
-S_p^{-1} A_{p,p+1}, the block rows of A^{-1} follow from the last line up
(G. Meurant, SIAM J. Matrix Anal. Appl. 13 (1992) 707-728): G_pp =
S_p^{-1} + R_p G_{p+1,p+1} Q_p, right of the diagonal row p is R_p times
row p+1, and left of it G_{p,q} = G_{p,q+1} Q_q.  That is about 2 m n^2
flops in dense m x m products, against SuperLU's triangular solves at
scalar speed.  Besides those and one pass over each row, every step costs
O(m^2) per line or per row.  On a 5-point operator every entry of A
outside the lines' own blocks joins a node to the same position on the
next line, so A_{p+1,p} and A_{p,p+1} are diagonal: they are kept as
vectors, and Q_p, S_{p+1} and R_p scale rows or columns where dense
products would add only exact zeros, which leaves every value as it was;
9-point operators (cross diffusion) keep dense blocks.  Each finished row
is reduced over its lines to elementwise extremes and folded into running
ones, m^2 each, which are reduced per species block once.  Memory is the
Q and S^{-1} stacks, the inter-line blocks A_{p,p+1} kept from the Schur
pass (n doubles, n m when dense) and two rows (this one and the one
below): O(n m).  The blocks are read off one line-numbered CSC copy of A,
with no sparse matrix per line.

Half of those rows are redundant when A W is symmetric for constant
species weights, W = diag(w_k I): self-adjoint species operators whose
couplings m_kl and m_lk keep one ratio, the class of D. G. de Figueiredo
and E. Mitidieri (SIAM J. Math. Anal. 17 (1986) 836-849).  Then A^{-1}_ij
= A^{-1}_ji w_i / w_j, and the scan builds only each row's right part, at
and right of its diagonal block: the left chain goes but for G_{p+1,p} =
G_{p+1,p+1} Q_p, one m x m product per row, which row p needs.  Each right
part is folded twice, for its own entries and, transposed, for those of
the lower half, whose extremes are scaled by w_j / w_i once, at the end.
_mirror_weights decides once per scan, from A's stored values: every
species block exactly symmetric, each coupling pair zero together or in
one computed ratio fl(m_lk / m_kl) at every stored entry, and weights that
agree around cycles of species; 9-point operators included.  Every other
system keeps the full rows.  The mirror stays within the scan's error
bound: one computed ratio at every entry puts A within u |A| of a matrix
A' with A' W exactly symmetric (weights that agree to ns eps add a few u
more), and to first order |A'^{-1} - A^{-1}| <= u kappa(A) max|A^{-1}|,
within the c u kappa(A) max|A^{-1}| that the recursion's own rounding
carries; the scaling adds one rounding.  The mirror adds no O(n m)
buffer: the right parts live in the same two rows, and what it keeps is
the row's extremes over its lines right of line p and their running
extremes (4 m^2 doubles).

The guard follows J. W. Demmel, N. J. Higham and R. S. Schreiber (Numer.
Linear Algebra Appl. 2 (1995) 173-190): with the diagonal blocks inverted
explicitly, the block LU factors L U = A + dA have, to first order,
|dA| <= c u kappa (|A| + |L||U|), kappa = max_p kappa(S_p) (inf-norms, u the
unit roundoff), so the rows of A^{-1} carry at most phi = kappa (1 + |L||U|
/ |A|) times the relative error c u kappa(A) of a stable LU.  Both read
against TOL_OP, which leaves log10(TOL_OP / u) = 6.6 decimal digits above
the rounding; phi may take half of them, so the scan is used only while
phi <= SLAB_PHI_MAX = sqrt(TOL_OP / u) = 3.0e3, and kappa(A), which the LU
scan pays too, keeps the other half.  A singular S_p also sends the scan
to the LU path.  |A| max|A^{-1}| above 1 / SINGULAR_RTOL, where LuFactor's
solves call A singular, raises SingularMatrix from the slab scan itself.
Each hand-off to the LU scan, a 2D grid's narrow lines included, is
logged at DEBUG on the elcomp.oracle logger with its reason.

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
column search that decide runs above the budget, and shifted by a multiple
of (D A D)^{-1} 1 so that its image is < 0 in every row.  A field counts
only where an outward-rounded bound on its image proves that image <= 0
(prove_field), with no tolerance; the m_matrix check, certify's Theorem 6
and 7 witnesses and the column search all use that one rule.  A solved
column can differ in the last bit from the scan's: the BLAS kernels behind
the sparse triangular solves are chosen by the number of right-hand sides.

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
from scipy.linalg import lapack

from .assembly import AssembledSystem
from .errors import DimMismatch, SingularMatrix, TooLarge, ValidationError
from .fields import Counterexample, block_from_solution
from .graphs import csr_strongly_connected, potentials
from .linalg import (
    SINGULAR_RTOL,
    LuFactor,
    canonical,
    gamma,
    inf_norm,
    lu_order,
    lu_solve,
    permuted_csc,
    principal_submatrix,
    row_ids,
)
from .settings import DEFAULT, Settings

logger = logging.getLogger(__name__)

TOL_OP = 1e-9
BLOCK = 64  # columns of A^{-1} per solve in the streamed scan
# unknowns per grid line from which a 2D grid takes the slab scan; on
# narrower lines its per-line Python work outweighs the dense products
SLAB_MIN_WIDTH = 16
# the slab scan's guard on phi = max_p kappa(S_p) (1 + |L||U| / |A|): half of
# the decimal digits between the unit roundoff and TOL_OP (module docstring)
SLAB_PHI_MAX = float(np.sqrt(TOL_OP / (np.finfo(float).eps / 2)))
# solve_system's species sweeps hand off to the coupled LU once a sweep leaves
# the scaled residual above this fraction of the one before: at 96^2 a sweep
# costs 1/25 to 1/45 of the coupled LU, so from 1e10 times the floor, where
# the first sweep leaves solve-2d-setup's pairs, sweeps that cut by 0.25 or
# better (17 or fewer) still cost less than a hand-off
SWEEP_CUT = 0.25


@dataclass
class OracleReport:
    inverse_positive: bool | None  # None: undecided, by the columns alone
    min_entry: float | None
    boundary_monotone: bool | None
    min_boundary_entry: float | None  # over the solved columns of -G only
    boundary_reason: str | None  # how boundary_monotone was decided
    dof: int
    gauge: tuple | None = None
    method: str = "scan"  # or "m-matrix" (m_matrix), or "columns" above the budget (decide)
    counterexample: Counterexample | None = None  # refute's, or decide's

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


def _scan_inverse(asys: AssembledSystem) -> dict:
    """Gauge-free extremes of A^{-1} per species block, from one LU of A
    solved against the identity BLOCK columns at a time: inv[k, l, s] is
    the min of s * block (k, l) of A^{-1} for s = 1 and -1."""
    return _block_minima(LuFactor(asys.A), asys, *_right_hand_sides(asys, False))


def _boundary_columns(asys: AssembledSystem):
    """(n_cols, bnd): the number of columns of -G solved, those where G holds
    a value that is not <= 0, and bnd[k, l, s], the min of s * block (k, l)
    of -(A^{-1} G) over them, from one LU of A; kept on asys beside the
    scan, by content."""
    key = (asys.key, "-G")
    if key not in asys._oracle_cache:
        rhs, cols, width = _right_hand_sides(asys, True)
        bnd = _block_minima(LuFactor(asys.A), asys, rhs, cols, width)
        asys._oracle_cache[key] = cols.size, bnd
    return asys._oracle_cache[key]


def _line_order(grid, n_species: int):
    """(perm, lines, per_line) of a 2D grid: perm[t] is the dof at position
    t when dofs are numbered by grid line, lines cutting across the longer
    axis, the species of one line together and each species' nodes in
    increasing node order."""
    mx, my = grid.n[0] - 1, grid.n[1] - 1
    node = np.arange(mx * my).reshape(my, mx)
    lines = node.T if mx >= my else node  # one grid line per row
    offsets = grid.n_interior * np.arange(n_species)[:, None]
    return (lines[:, None, :] + offsets).ravel(), lines.shape[0], lines.shape[1]


def _line_blocks(csc, m: int):
    """(read, diagonal) for the line-numbered A held in csc, or None when A
    is not block tridiagonal over lines of m unknowns.  read(p) gives line
    p's column blocks (A_{p-1,p}, A_pp, A_{p+1,p}), A_pp dense.  diagonal
    says that every stored entry outside the lines' own blocks joins a node
    to the same position on the next line, as on every 5-point operator,
    whose coupling is pointwise.  Then the inter-line blocks are read as
    their diagonals, shaped so that np.multiply broadcasts them where
    np.matmul would multiply by them: A_{p-1,p}, a right factor, as a row
    of m, and A_{p+1,p}, a left factor, as a column of m.  Otherwise they
    are dense.  Each stored entry's place among its line's three blocks is
    found once, so a read scatters the CSC arrays of line p's m columns."""
    cols = row_ids(csc)  # the column of each entry
    offset = csc.indices // m - cols // m + 1  # 0, 1, 2: above, on, below
    if offset.size and not 0 <= offset.min() <= offset.max() <= 2:
        return None
    i, j = csc.indices % m, cols % m
    diagonal = bool(((offset == 1) | (i == j)).all())
    size = m if diagonal else m * m  # of an inter-line block
    within = j if diagonal else i * m + j
    at = np.where(offset == 1, size + i * m + j, offset // 2 * (size + m * m) + within)
    ends = csc.indptr[::m]
    shapes = ((m,), (m, 1)) if diagonal else ((m, m), (m, m))  # above, below

    def read(p: int):
        out = np.zeros(2 * size + m * m)
        out[at[ends[p] : ends[p + 1]]] = csc.data[ends[p] : ends[p + 1]]
        above, on, below = np.split(out, [size, size + m * m])
        return above.reshape(shapes[0]), on.reshape(m, m), below.reshape(shapes[1])

    return read, diagonal


def _inverse(s: np.ndarray) -> np.ndarray | None:
    """s^{-1} by LAPACK's LU with partial pivoting; None when a pivot is 0."""
    lu, piv, info = lapack.dgetrf(s)
    if info == 0:
        x, info = lapack.dgetri(lu, piv)
    return x if info == 0 else None


def _row_sums(x: np.ndarray) -> np.ndarray:
    return np.abs(x).sum(axis=1)


def _hand_off(reason: str, *args) -> None:
    """Log at DEBUG why the slab scan hands the scan to _scan_inverse."""
    logger.debug("slab scan handed to the LU scan: " + reason, *args)


def _line_schur(read, times, n_lines: int, m: int, a_norm: float):
    """(q, x, right): the stacks Q_q = -A_{q+1,q} S_q^{-1}, q < n_lines - 1,
    x_p = S_p^{-1} of the line Schur complements S_p = A_pp + Q_{p-1}
    A_{p-1,p}, each S_p inverted once, and right_p = A_{p,p+1} as read(p +
    1) gives it (_line_blocks); None when some S_p is singular or phi =
    max_p kappa(S_p) (1 + |L||U| / |A|) exceeds SLAB_PHI_MAX (inf-norms; L
    and U the block LU factors).  times is the product with an inter-line
    block: np.matmul, or np.multiply for diagonal ones, where Q_p scales
    the rows of S_p^{-1} and Q_p A_{p,p+1} the columns of Q_p.  A product
    with a diagonal factor adds only exact zeros, so every value is the
    dense products' own."""
    above, s, below = read(0)
    q = np.empty((n_lines - 1, m, m))
    right = np.empty((n_lines - 1, *above.shape))
    x = []
    kappa, l_norm, u_norm = 0.0, 1.0, 0.0
    for p in range(n_lines):
        s_inv = _inverse(s)
        if s_inv is None:
            return _hand_off("S_%d is singular", p)
        x.append(s_inv)
        s_rows = _row_sums(s)
        kappa = max(kappa, float(s_rows.max() * _row_sums(s_inv).max()))
        if p + 1 == n_lines:
            u_norm = max(u_norm, float(s_rows.max()))
            break
        q[p] = -times(below, s_inv)
        right[p], on, below = read(p + 1)
        l_norm = max(l_norm, 1.0 + float(_row_sums(q[p]).max()))
        # a diagonal's row sums are its magnitudes
        u_norm = max(u_norm, float((s_rows + _row_sums(right[p].reshape(m, -1))).max()))
        s = on + times(q[p], right[p])
    phi = kappa * (1.0 + l_norm * u_norm / a_norm)
    if phi <= SLAB_PHI_MAX:
        return q, x, right
    # a NaN phi fails too
    return _hand_off("phi %.3g exceeds SLAB_PHI_MAX %.3g", phi, SLAB_PHI_MAX)


def _mirror_weights(a, ns: int, n_int: int):
    """(w, note): species weights w, one per species, with A W symmetric
    for W = diag(w_k I), read off A's stored values, or None when the lower
    half of A^{-1} is not to be mirrored.  note, for the scan's DEBUG
    record, gives the weights or the first reason: a species block that is
    not exactly symmetric, a coupling m_kl whose m_lk is missing or not in
    one ratio to it at every stored entry, or weights that disagree around
    a cycle of species.

    An entry (i, j) of coupling block (k, l) needs A_ji = rho_kl A_ij, with
    rho_kl = w_l / w_k the same fl(A_ji / A_ij) at every entry; explicit
    zeros are no entries, as in linalg.same_nonzeros.  The weights follow
    from the ratios along the coupling graph (graphs.potentials), w = 1 on
    the first species of each component.  They are products of at most
    ns - 1 ratios, so around a cycle they must agree to ns eps.
    """
    n = a.shape[0]

    def entries(b):  # (rows, columns, values) of b's nonzeros, row-major
        b = canonical(b)
        keep = b.data != 0.0
        return row_ids(b)[keep], b.indices[keep], b.data[keep]

    rows, cols, vals = entries(a)
    t_rows, t_cols, t_vals = entries(a.T)  # t_vals at (i, j) is A_ji
    key = rows.astype(np.int64) * n + cols
    t_key = t_rows.astype(np.int64) * n + t_cols
    if np.array_equal(key, t_key):  # A's nonzeros are symmetric
        found, vals_t = np.ones(key.size, dtype=bool), t_vals
    else:
        at = np.minimum(np.searchsorted(t_key, key), t_key.size - 1)
        found = t_key[at] == key
        vals_t = np.where(found, t_vals[at], 0.0)  # A_ji, or 0.0 where none is stored
    sk, sl = rows // n_int, cols // n_int

    def full_rows(reason):
        return None, "full rows, lower half not mirrored: " + reason

    diag = sk == sl
    bad = diag & (vals_t != vals)
    if bad.any():
        return full_rows(f"species block {int(sk[bad].min()) + 1} is not symmetric")
    off = np.flatnonzero(~diag)  # the coupling entries
    sk, sl, found = sk[off], sl[off], found[off]
    if not found.all():  # the first pair k < l, m_kl before m_lk
        missing = np.flatnonzero(~found)
        order = (np.minimum(sk, sl) * ns + np.maximum(sk, sl)) * 2 + (sk > sl)
        e = missing[np.argmin(order[missing])]
        i, j = int(sk[e]) + 1, int(sl[e]) + 1
        return full_rows(f"m_{i}{j} is present without m_{j}{i}")
    upper = np.flatnonzero(sk < sl)
    pair = sk[upper] * ns + sl[upper]
    ratios = vals_t[off[upper]] / vals[off[upper]]  # m_lk / m_kl
    first = np.zeros(ns * ns)
    first[pair[::-1]] = ratios[::-1]  # each pair's first ratio
    varies = ratios != first[pair]
    if varies.any():
        k, l = divmod(int(pair[varies].min()), ns)
        return full_rows(f"m_{l + 1}{k + 1}/m_{k + 1}{l + 1} varies")
    present = np.flatnonzero(np.bincount(pair, minlength=ns * ns))
    rho = {divmod(int(q), ns): float(first[q]) for q in present}  # (k, l): w_l / w_k
    w = potentials(ns, rho, ns * np.finfo(float).eps)
    if w is None:
        return full_rows("the weights are inconsistent around a cycle")
    weights = ", ".join("%.6g" % v for v in w)
    return w, f"lower half mirrored, species weights ({weights})"


def _scan_slabs(asys: AssembledSystem):
    """The extremes of _scan_inverse for a 2D grid, one block row
    of A^{-1} per grid line, or None when the guard sends the scan to
    _scan_inverse: a line Schur complement that is singular or too far
    from a stable LU (_line_schur), or a row that is not finite.  Each
    hand-off is logged at DEBUG with its reason.  |A| max|A^{-1}| above
    1 / SINGULAR_RTOL, where LuFactor's solves would call A singular,
    raises SingularMatrix.

    Rows are built from the last line up.  With R_p = -S_p^{-1} A_{p,p+1},
    row p at and right of its diagonal block is R_p times row p+1 there,
    plus S_p^{-1} on the diagonal block; left of it, G_{p,q} = G_{p,q+1} Q_q.
    S_p^{-1} and A_{p,p+1} are read off the stacks _line_schur kept, and a
    diagonal A_{p,p+1} makes R_p a column scaling.  When A W is symmetric
    (_mirror_weights), only the right part of each row is built, G_{p+1,p}
    = G_{p+1,p+1} Q_p being the one block left of a diagonal that it needs,
    and _Extremes folds each right part for both halves of A^{-1}.
    """
    a, ns, n = asys.A, asys.n_species, asys.A.shape[0]
    perm, n_lines, per_line = _line_order(asys.grid, ns)
    m = ns * per_line
    blocks = _line_blocks(permuted_csc(a, perm), m)
    if blocks is None:
        return _hand_off("A is not block tridiagonal")
    read, diagonal = blocks
    times = np.multiply if diagonal else np.matmul  # by an inter-line block
    # decided before the stacks are built, so that its arrays are gone
    w, note = _mirror_weights(a, ns, asys.grid.n_interior)
    ratio = None if w is None else w[:, None] / w  # [l, k] = w_l / w_k
    a_norm = inf_norm(a)
    stacks = _line_schur(read, times, n_lines, m, a_norm)
    if stacks is None:
        return None
    logger.debug("%s; inter-line blocks %s", note, "diagonal" if diagonal else "dense")
    q, s_inv, right = stacks
    row, below = np.empty((m, n), order="F"), np.empty((m, n), order="F")
    extremes = _Extremes(ns, per_line, ratio)
    for p in range(n_lines - 1, -1, -1):
        x = s_inv.pop()  # S_p^{-1}, dropped after this row
        c0 = p * m
        if p == n_lines - 1:
            row[:, c0:] = x
        else:
            if ratio is not None:  # G_{p+1,p} = G_{p+1,p+1} Q_p
                np.matmul(below[:, c0 + m : c0 + 2 * m], q[p], out=below[:, c0 : c0 + m])
            r = -times(x, right[p])  # R_p
            np.matmul(r, below[:, c0:], out=row[:, c0:])
            row[:, c0 : c0 + m] += x
        if ratio is None:
            for c in range(p - 1, -1, -1):  # G_{p,c} = G_{p,c+1} Q_c
                left = row[:, (c + 1) * m : (c + 2) * m]
                np.matmul(left, q[c], out=row[:, c * m : (c + 1) * m])
        t = (row[:, c0:] if ratio is not None else row).T
        if not extremes.fold(t):
            return _hand_off("row %d is not finite", p)
        row, below = below, row
    inv = extremes.result()
    size = a_norm * -min(inv.values())
    if size > 1.0 / SINGULAR_RTOL:
        raise SingularMatrix(
            f"slab scan: |A| max|A^-1| = {size:.3e} above 1 / {SINGULAR_RTOL:.0e}"
        )
    return inv


class _Extremes:
    """The min and max of every species block (k, l) of A^{-1}, keyed in
    result() as _scan_inverse keys them, folded from the slab scan's block
    rows.

    fold(t) takes block row p of the line-numbered A^{-1}, held transposed
    in t from its first column line on: all of them, or line p when ratio
    is given.  With ratio[l, k] = w_l / w_k, the entries of t right of line
    p are folded a second time, transposed: A^{-1}_ji = A^{-1}_ij w_j / w_i.

    A row is reduced over its column lines to elementwise extremes, one per
    (column node, row node) pair, and folded into running elementwise (min,
    max) arrays of m^2 entries: one pair for the direct entries and, with
    ratio, one for the entries right of each row's diagonal line, which the
    direct pair then leaves out.  result() reduces them to species blocks
    once and scales the mirrored ones once: x -> x w_l / w_k is monotone in
    floating point, so the scaled extremes are those of the scaled entries.
    """

    def __init__(self, ns: int, per_line: int, ratio):
        self.ns, self.per_line, self.ratio = ns, per_line, ratio
        size = (ns * per_line) ** 2
        self.direct = (np.full(size, np.inf), np.full(size, -np.inf))
        # right of the diagonal lines; None until a row has entries there
        self.right = None

    def fold(self, t: np.ndarray) -> bool:
        """Fold a block row, held transposed in t; False when an entry is
        not finite."""
        m = self.ns * self.per_line
        flat = t.reshape(-1, m * m)
        if self.ratio is not None and flat.shape[0] > 1:  # entries right of line p
            rest = (np.minimum.reduce(flat[1:]), np.maximum.reduce(flat[1:]))
            self.right = self.right or (np.full(m * m, np.inf), np.full(m * m, -np.inf))
            pairs = [(self.direct, (flat[0], flat[0])), (self.right, rest)]
        else:
            pairs = [(self.direct, (np.minimum.reduce(flat), np.maximum.reduce(flat)))]
        if not all(np.isfinite(x).all() for _, row in pairs for x in row):
            return False
        for (lo, hi), (row_lo, row_hi) in pairs:
            np.minimum(lo, row_lo, out=lo)
            np.maximum(hi, row_hi, out=hi)
        return True

    def result(self) -> dict:
        """{(k, l, s): min of s * block (k, l) of A^{-1}}."""
        shape = (self.ns, self.per_line, self.ns, self.per_line)  # [l, column node, k, row node]

        def blocks(pair):  # (min, max) [l, k]: over the nodes along the line, then each species
            lo, hi = (x.reshape(shape) for x in pair)
            return lo.min(axis=1).min(axis=2), hi.max(axis=1).max(axis=2)

        lo, hi = blocks(self.direct)
        mirrored = []
        if self.right is not None:
            right_lo, right_hi = blocks(self.right)
            lo, hi = np.minimum(right_lo, lo), np.maximum(right_hi, hi)
            ends = (right_lo * self.ratio, right_hi * self.ratio)
            mirrored.append(np.stack((np.minimum(*ends), -np.maximum(*ends)), -1))
        # s * extreme [k, l, s], direct and mirrored
        bound = np.minimum.reduce([np.stack((lo.T, -hi.T), -1)] + mirrored)
        return {(k, l, 1 - 2 * s): float(v) for (k, l, s), v in np.ndenumerate(bound)}


def _scan(asys: AssembledSystem) -> dict:
    """The extremes of A^{-1} per species block, kept on asys by the content
    of A and G (asys.key): the slab scan's, or the LU scan's."""
    if asys.key not in asys._oracle_cache:
        grid = asys.grid
        width = asys.n_species * (min(grid.n) - 1)  # unknowns per line on a 2D grid
        wide = grid.dim == 2 and width >= SLAB_MIN_WIDTH
        if grid.dim == 2 and not wide:
            _hand_off("lines hold %d unknowns, below SLAB_MIN_WIDTH %d", width, SLAB_MIN_WIDTH)
        scan = _scan_slabs(asys) if wide else None
        asys._oracle_cache[asys.key] = scan if scan is not None else _scan_inverse(asys)
    return asys._oracle_cache[asys.key]


def _within_budget(asys: AssembledSystem, settings: Settings) -> int:
    """A's dof; TooLarge above settings.oracle_max_dof."""
    dof = asys.A.shape[0]
    if dof > settings.oracle_max_dof:
        limit = f"{dof} dof exceeds budget {settings.oracle_max_dof}"
        raise TooLarge(f"oracle scan or M-matrix check of {limit}")
    return dof


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
    scanned; decide searches columns there.  boundary_monotone follows from
    inverse_positive and G's signs, or from the columns of -G that the
    signs leave open (module docstring), and boundary_reason says which.
    The report carries no counterexample; refute makes one.
    """
    ns = asys.n_species
    sigma, signs = _signs(asys, gauge)
    dof = _within_budget(asys, settings)
    inv = _scan(asys)
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


def _to_scan(sigma, reason: str, *args) -> None:
    """Log at DEBUG why m_matrix hands the order sigma to the scan."""
    logger.debug("gauge %s: M-matrix check handed to the scan: " + reason, sigma, *args)


def m_matrix(
    asys: AssembledSystem,
    gauge=None,
    settings: Settings = DEFAULT,
    flipped: OracleReport | None = None,
) -> OracleReport | None:
    """inverse_positivity's decision for D A D from one solve, or None where
    the scan must decide.  One DEBUG record names the method that decided,
    or why the scan must.

    By Fiedler-Ptak, a Z-matrix B is a nonsingular M-matrix, so B^{-1} >= 0,
    iff some x > 0 has B x > 0 (Berman-Plemmons, ch. 6).  Where B = D A D is
    a Z-matrix and G <= 0, both on stored values, x = B^{-1} 1 = D A^{-1} D 1
    is solved on one LU of A (lu_order), and B x > 0 is proven in every row
    as B (-x) < 0 (_image_upper).  Then x > 0 gives inverse_positive and,
    with G <= 0, boundary_monotone.  Otherwise some x_i < 0: a row with x_i
    = 0 and x >= 0 elsewhere has (B x)_i <= 0.  That refutes, as B^{-1} >=
    0 would map B x > 0 to x >= 0, and v = -x, with zero boundary data and
    that same bound, is the report's proven counterexample.  method reads
    "m-matrix" and min_entry None.  The check does not read the Perron
    vector, so it stays independent of Theorem 1's certificate.

    flipped, this check's report in an order sigma that flips some species
    and not all, decides the plain order (gauge None): where it proved (D A
    D)^{-1} >= 0 and A's digraph, D A D's, is strongly connected, (D A
    D)^{-1} > 0 entrywise, so every block (k, l) of A^{-1} with sigma_k
    sigma_l = -1 is < 0, with no solve.

    None where the order is not Z, G holds a value that is not <= 0, the
    solve calls A singular, B x > 0 is not proven, or flipped proved
    positivity on a reducible A.  Above settings.oracle_max_dof a system is
    TooLarge, as for the scan.
    """
    sigma, signs = _signs(asys, gauge)
    dof, a = _within_budget(asys, settings), asys.A
    proved = flipped is not None and flipped.method == "m-matrix" and flipped.inverse_positive
    if proved and set(flipped.gauge) == {1, -1}:
        if not csr_strongly_connected(a):
            reason = "A is reducible, so no report follows from gauge %s"
            return _to_scan(sigma, reason, flipped.gauge)
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
        return _to_scan(sigma, "D A D is not a Z-matrix")
    if not (asys.G.data <= 0.0).all():
        return _to_scan(sigma, "G has a value that is not <= 0")
    try:
        x = d * LuFactor(a, lu_order(asys.grid, a)).solve(d)
    except SingularMatrix as err:
        return _to_scan(sigma, "the solve calls A singular (%s)", err)
    bound = _image_upper(asys, d, -x)
    if not (bound < 0.0).all():
        return _to_scan(sigma, "(D A D) x > 0 is not proven")
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
    extremes = _boundary_columns(asys)[1] if boundary else _scan(asys)
    least = report.min_boundary_entry if boundary else report.min_entry
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    _, l, _ = next(p for p in pairs if extremes.get(p) == least)
    _, cols, width = _right_hand_sides(asys, boundary)
    return _column_search(asys, signs, boundary, cols[cols // width == l])


def _column_search(asys, signs, boundary: bool, cols) -> Counterexample | None:
    """The proven field of the first column j among cols that has one, from
    one LU of A; None when none has.  x = D A^{-1} D r_j, r_j column j of
    the identity, or of -G when boundary.  With y = (D A D)^{-1} 1 and eps
    = |min x| / (4 max|y|), v = -(x + eps y) has D A D v = -(e_j + eps 1)
    with zero boundary data, or D A D v + D G D_b g = -eps 1 with g = -e_j,
    and v >= 3/4 |min x| > 0 where x is least, if min x < 0."""
    rhs, _, width = _right_hand_sides(asys, boundary)
    which = "oracle-boundary" if boundary else "oracle"
    d = np.repeat(signs, asys.grid.n_interior)[:, None]
    lu = LuFactor(asys.A)
    y = d * lu.solve(d)
    for c0, x in _solves(lu, rhs, cols):
        block = cols[c0 : c0 + x.shape[1]]
        x *= d * signs[block // width]  # now D A^{-1} D r
        v = -(x + np.abs(x.min(axis=0)) / (4.0 * np.abs(y).max()) * y)
        g = -np.eye(asys.G.shape[1])[:, block] if boundary else None
        bound = _image_upper(asys, d, v, g)
        for c in np.flatnonzero(x.min(axis=0) < 0.0):
            g_c = None if g is None else g[:, c]
            cex = prove_field(asys, d[:, 0], v[:, c], g_c, int(block[c]), which, bound[:, c])
            if cex.verified:
                return cex
    return None


def decide(asys: AssembledSystem, gauge=None, settings: Settings = DEFAULT) -> OracleReport:
    """elcomp oracle's report: inverse_positivity's, with refute's field.

    Above settings.oracle_max_dof unknowns nothing is scanned.  The column
    search (_column_search) solves, on one LU of A, the columns of A^{-1}
    at the middle interior node of each species, ns <= BLOCK of them.
    inverse_positive is False where one's field is proven, and None
    (undecided) otherwise: a column with no negative entry certifies
    nothing.  min_entry and the boundary half stay None, and method reads
    "columns".
    """
    dof = asys.A.shape[0]
    if dof <= settings.oracle_max_dof:
        report = inverse_positivity(asys, gauge, settings)
        report.counterexample = refute(asys, report)
        return report
    sigma, signs = _signs(asys, gauge)
    dims = [nd - 1 for nd in asys.grid.n[::-1]]  # interior nodes per axis, x fastest
    middle = np.ravel_multi_index([m // 2 for m in dims], dims)
    cols = asys.grid.n_interior * np.arange(asys.n_species) + middle
    cex = _column_search(asys, signs, False, cols)
    reason = f"A^-1 not scanned: {dof} dof above the budget {settings.oracle_max_dof}"
    decision = False if cex else None
    return OracleReport(decision, None, None, None, reason, dof, sigma, "columns", cex)


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
