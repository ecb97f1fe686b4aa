"""Independent discrete ground truth for the comparison principle.

The discrete comparison principle is defined as: A nonsingular, inverse of
A entrywise nonnegative, and -A^{-1} G entrywise nonnegative.  Equivalently
A u <= 0 in the interior plus boundary data <= 0 force u <= 0.  The oracle
decides this from the explicit inverse (decisive, size-capped) or by seeded
random probing (falsification only).

The inverse is streamed, never held.  A scan leaves only the min and max
of every species block (k, l) of A^{-1}, and the same extremes of
-(A^{-1} G): values, no positions.  inverse_positivity keeps
the scan on the system by content, and every gauge reads it.  A 2D grid
whose lines hold SLAB_MIN_WIDTH unknowns or more takes the slab scan; a 1D
grid, a narrower 2D one, and a 2D grid whose guard trips, the LU scan.

The LU scan (_scan_inverse) factorizes A once with SuperLU and solves
against the identity, then against -G, BLOCK columns at a time.  The
right-hand sides are scattered from CSC arrays, the identity's and those
of one copy of G, with no sparse matrix per block, and each solved block
is reduced to its extremes and dropped.  Memory is the LU factors and one n x BLOCK block: O(n * BLOCK).
A column of -A^{-1} G solved against -G is as backward stable as one of
A^{-1} solved against the identity (N. J. Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 14).  1D grids keep the
LU scan: one line of a 1D grid is a dense inverse, and lines of one node
make the recursion scalar work.  So do 2D grids with narrow lines: the
slab scan makes about lines^2 / 2 small products and folds each line's row
in Python, and below about 12 unknowns per line that costs more than the
LU scan's solves (up to 10x more on 2 nodes per line); from 16 it cost
less on every grid measured.

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
scalar speed.  Each finished row is reduced over its lines to its
extremes.  Its product with G updates running extremes of -(A^{-1} G)
per boundary value, reduced per species once.  Memory is the Q and S^{-1}
stacks, two rows (this one and the one below) and one row's boundary
product: O(n m + m n_boundary).  The blocks are read off one line-numbered
CSC copy of A, with no sparse matrix per line.

Half of those rows are redundant when A W is symmetric for constant
species weights, W = diag(w_k I): self-adjoint species operators whose
couplings m_kl and m_lk keep one ratio, the class of D. G. de Figueiredo
and E. Mitidieri (SIAM J. Math. Anal. 17 (1986) 836-849).  Then A^{-1}_ij
= A^{-1}_ji w_i / w_j, and the scan builds only each row's right part, at
and right of its diagonal block: the left chain goes but for G_{p+1,p} =
G_{p+1,p+1} Q_p, one m x m product per row, which row p needs.  Each right
part is folded twice, for its own entries and, transposed and scaled by
w_j / w_i, for those of the lower half; -A^{-1} G takes its extremes from
the right part's boundary-adjacent columns and, mirrored, from line p's
boundary-adjacent rows.  _mirror_weights decides once per scan, from A's
stored values and G: every species block exactly symmetric, each coupling
pair zero together or in one computed ratio fl(m_lk / m_kl) at every
stored entry, weights that agree around cycles of species, and no
boundary value in more than one equation (else column b of A^{-1} G would
need columns of A^{-1} from several lines).  Every other system keeps the
full rows.  The mirror stays within the scan's error bound: one computed
ratio at every entry puts A within u |A| of a matrix A' with A' W exactly
symmetric (weights that agree to ns eps add a few u more), and to first
order |A'^{-1} - A^{-1}| <= u kappa(A) max|A^{-1}|, within the c u kappa(A)
max|A^{-1}| that the recursion's own rounding carries; the scaling adds one
rounding.  The mirror adds no O(n m) buffer: the
right parts live in the same two rows, and what it keeps is the row's
extremes over its lines right of line p (2 m^2 doubles) and the boundary
extremes per boundary value and position along a line (O(m n_boundary)).

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
that of A^{-1}, so where the signs differ its minimum is -max.
random_probe solves (D A D) u = f the same way, as u = D A^{-1} (D f).

A scan keeps no positions: a broken comparison is refuted by a field
(refute), from one column of the inverse solved again.  That column can
differ in the last bit from the scan's: the BLAS kernels behind the sparse
triangular solves are chosen by the number of right-hand sides.

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
from .fields import TOL_RES, Counterexample, block_from_solution
from .graphs import potentials
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
    inverse_positive: bool
    min_entry: float | None
    boundary_monotone: bool | None
    min_boundary_entry: float | None
    dof: int
    gauge: tuple | None = None
    sampled: bool = False
    trials: int = 0
    counterexample: Counterexample | None = None  # refute's, or the probe's

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


def _solves(lu: LuFactor, asys: AssembledSystem, boundary: bool, species=None):
    """(c0, A^{-1} r) for BLOCK columns from c0 of the right-hand sides r,
    the identity or -G (boundary), all or those of one species, each block
    scattered from CSC arrays into a dense right-hand side."""
    if boundary:
        g = asys.G.tocsc()
        indptr, indices, data = g.indptr, g.indices, -g.data
    else:
        n = asys.A.shape[0]
        indptr, indices, data = np.arange(n + 1), np.arange(n), np.ones(n)
    n_cols = indptr.size - 1
    cols = np.repeat(np.arange(n_cols), np.diff(indptr))  # the column of each entry
    width = n_cols // asys.n_species
    start, stop = (0, n_cols) if species is None else (species * width, (species + 1) * width)
    for c0 in range(start, stop, BLOCK):
        c1 = min(c0 + BLOCK, stop)
        rhs = np.zeros((lu.n, c1 - c0))
        lo, hi = indptr[c0], indptr[c1]
        rhs[indices[lo:hi], cols[lo:hi] - c0] = data[lo:hi]
        x = lu.solve(rhs)
        del rhs
        yield c0, x
        del x  # so that the next solve does not hold two blocks


def _block_minima(lu: LuFactor, asys: AssembledSystem, boundary: bool) -> dict:
    """{(k, l, s): min of s * block (k, l) of A^{-1} r} for both signs s, r
    the identity, or -G when boundary; block (k, l) holds the rows of
    species k and the columns of species l."""
    n_int, out = asys.grid.n_interior, {}
    width = asys.grid.n_boundary if boundary else n_int
    for c0, x in _solves(lu, asys, boundary):
        c1 = c0 + x.shape[1]
        for l in range(c0 // width, (c1 - 1) // width + 1):
            j0, j1 = max(c0, l * width), min(c1, (l + 1) * width)
            for k in range(asys.n_species):
                part = x[k * n_int : (k + 1) * n_int, j0 - c0 : j1 - c0]
                for s, v in ((1, part.min()), (-1, -part.max())):
                    out[k, l, s] = min(out.get((k, l, s), np.inf), float(v))
        del x, part
    return out


def _scan_inverse(asys: AssembledSystem):
    """Gauge-free extremes (inv, bnd) of A^{-1} and -(A^{-1} G), per species
    block, from one LU of A solved against the identity, then -G, BLOCK
    columns at a time: inv[k, l, s] is the min of s * block (k, l) of A^{-1}
    for s = 1 and -1, bnd[k, l, s] that of -(A^{-1} G), whose column blocks
    are the species' boundary values; bnd is empty when G is."""
    lu = LuFactor(asys.A)
    inv = _block_minima(lu, asys, False)
    return inv, _block_minima(lu, asys, True) if asys.G.nnz else {}


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
    """The reader p -> dense (A_{p-1,p}, A_pp, A_{p+1,p}) of the
    line-numbered A held in csc, or None when A is not block tridiagonal
    over lines of m unknowns.  Each stored entry's place among its line's
    three blocks is found once, so a read scatters the CSC arrays of line
    p's m columns."""
    cols = row_ids(csc)  # the column of each entry
    offset = csc.indices // m - cols // m + 1  # 0, 1, 2: above, on, below
    if offset.size and not 0 <= offset.min() <= offset.max() <= 2:
        return None
    at = (offset * m + csc.indices % m) * m + cols % m
    ends = csc.indptr[::m]

    def read(p: int) -> np.ndarray:
        out = np.zeros(3 * m * m)
        out[at[ends[p] : ends[p + 1]]] = csc.data[ends[p] : ends[p + 1]]
        return out.reshape(3, m, m)

    return read


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


def _line_schur(line_blocks, n_lines: int, m: int, a_norm: float):
    """(q, x): the stacks Q_q = -A_{q+1,q} S_q^{-1}, q < n_lines - 1, and
    x_p = S_p^{-1} of the line Schur complements S_p = A_pp + Q_{p-1}
    A_{p-1,p}, each S_p inverted once; None when some S_p is singular or
    phi = max_p kappa(S_p) (1 + |L||U| / |A|) exceeds SLAB_PHI_MAX
    (inf-norms; L and U the block LU factors)."""
    q = np.empty((n_lines - 1, m, m))
    x = []
    kappa, l_norm, u_norm = 0.0, 1.0, 0.0
    blocks = line_blocks(0)
    s = blocks[1]
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
        below = line_blocks(p + 1)
        np.matmul(blocks[2], s_inv, out=q[p])
        np.negative(q[p], out=q[p])
        l_norm = max(l_norm, 1.0 + float(_row_sums(q[p]).max()))
        u_norm = max(u_norm, float((s_rows + _row_sums(below[0])).max()))
        s = below[1] + q[p] @ below[0]
        blocks = below
    phi = kappa * (1.0 + l_norm * u_norm / a_norm)
    if phi <= SLAB_PHI_MAX:
        return q, x
    # a NaN phi fails too
    return _hand_off("phi %.3g exceeds SLAB_PHI_MAX %.3g", phi, SLAB_PHI_MAX)


def _mirror_weights(a, g, ns: int, n_int: int):
    """(w, note): species weights w, one per species, with A W symmetric
    for W = diag(w_k I), read off A's stored values, or None when the lower
    half of A^{-1} is not to be mirrored.  note, for the scan's DEBUG
    record, gives the weights or the first reason: a species block that is
    not exactly symmetric, a coupling m_kl whose m_lk is missing or not in
    one ratio to it at every stored entry, weights that disagree around a
    cycle of species, or a boundary value that enters more than one
    equation.

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
    entered = np.bincount(g.indices[g.data != 0.0], minlength=g.shape[1])
    if entered.size and entered.max() > 1:
        return full_rows("a boundary value enters more than one equation")
    weights = ", ".join("%.6g" % v for v in w)
    return w, f"lower half mirrored, species weights ({weights})"


def _scan_slabs(asys: AssembledSystem):
    """The extremes (inv, bnd) of _scan_inverse for a 2D grid, one block row
    of A^{-1} per grid line, or None when the guard sends the scan to
    _scan_inverse: a line Schur complement that is singular or too far
    from a stable LU (_line_schur), or a row that is not finite.  Each
    hand-off is logged at DEBUG with its reason.  |A| max|A^{-1}| above
    1 / SINGULAR_RTOL, where LuFactor's solves would call A singular,
    raises SingularMatrix.

    Rows are built from the last line up.  With R_p = -S_p^{-1} A_{p,p+1},
    row p at and right of its diagonal block is R_p times row p+1 there,
    plus S_p^{-1} on the diagonal block; left of it, G_{p,q} = G_{p,q+1} Q_q.
    S_p^{-1} is read off the stack _line_schur kept.  When A W is symmetric
    (_mirror_weights), only the right part of each row is built, G_{p+1,p}
    = G_{p+1,p+1} Q_p being the one block left of a diagonal that it needs,
    and _Extremes folds each right part for both halves of A^{-1}.  The
    boundary extremes are kept as running maxima and minima of each row's
    product with G (_Boundary), and written to bnd once.
    """
    a, g = asys.A, asys.G
    ns, n = asys.n_species, a.shape[0]
    perm, n_lines, per_line = _line_order(asys.grid, ns)
    m = ns * per_line
    line_blocks = _line_blocks(permuted_csc(a, perm), m)
    if line_blocks is None:
        return _hand_off("A is not block tridiagonal")
    # decided before the stacks are built, so that its arrays are gone
    w, note = _mirror_weights(a, g, ns, asys.grid.n_interior)
    ratio = None if w is None else w[:, None] / w  # [l, k] = w_l / w_k
    a_norm = inf_norm(a)
    stacks = _line_schur(line_blocks, n_lines, m, a_norm)
    if stacks is None:
        return None
    logger.debug(note)
    q, s_inv = stacks
    boundary = _Boundary(asys, perm, per_line, ratio) if g.nnz else None
    row, below = np.empty((m, n), order="F"), np.empty((m, n), order="F")
    extremes = _Extremes(ns, per_line, ratio)
    for p in range(n_lines - 1, -1, -1):
        x = s_inv.pop()  # S_p^{-1}, dropped after this row
        c0 = p * m
        if p == n_lines - 1:
            row[:, c0:] = x
        else:
            if ratio is not None:  # G_{p+1,p} = G_{p+1,p+1} Q_p
                diagonal = below[:, c0 + m : c0 + 2 * m]
                np.matmul(diagonal, q[p], out=below[:, c0 : c0 + m])
            r = x @ right  # right = A_{p,p+1}
            np.negative(r, out=r)
            np.matmul(r, below[:, c0:], out=row[:, c0:])
            row[:, c0 : c0 + m] += x
        if ratio is None:
            for c in range(p - 1, -1, -1):  # G_{p,c} = G_{p,c+1} Q_c
                left = row[:, (c + 1) * m : (c + 2) * m]
                np.matmul(left, q[c], out=row[:, c * m : (c + 1) * m])
        right = line_blocks(p)[0]
        t = (row[:, c0:] if ratio is not None else row).T
        if not extremes.fold(t):
            return _hand_off("row %d is not finite", p)
        if boundary is not None:
            boundary.fold(t, p, extremes.rest)
        row, below = below, row
    inv = extremes.result()
    size = a_norm * -min(inv.values())
    if size > 1.0 / SINGULAR_RTOL:
        raise SingularMatrix(
            f"slab scan: |A| max|A^-1| = {size:.3e} above 1 / {SINGULAR_RTOL:.0e}"
        )
    bnd = {}
    if boundary is not None:
        top, bottom = boundary.extremes()
        for l in range(ns):
            for k in range(ns):
                bnd[k, l, 1] = -float(top[l, k])
                bnd[k, l, -1] = float(bottom[l, k])
    return inv, bnd


class _Boundary:
    """Running extremes of A^{-1} G over the block rows of the slab scan,
    kept in one store in either mode: max and min per boundary value b and
    per position of row i along its line.  On full rows, a row's product
    with G gives them for every b.  On right parts (ratio given), every
    boundary value b enters one equation r_b with one coefficient c_b, so
    column b of A^{-1} G is c_b A^{-1}[:, r_b], and only the b that enter
    an equation are kept.  Row p's right part gives the rows of line p at
    every r_b of lines p and on.  Mirrored, the rows right of line p at the
    r_b of line p are A^{-1}_{i r} = A^{-1}_{r i} w_i / w_r, read off the
    row's extremes over the lines right of line p (_Extremes.rest), and
    kept apart.  Only right parts take factors, w_i / w_r and c_b, applied
    once at the end: x -> c x is monotone in floating point.  Then one
    reduction per species of the boundary values serves both modes.  A
    boundary value that enters no equation adds 0.0 to its species'
    extremes, as its zero column of A^{-1} G does.
    """

    def __init__(self, asys, perm, per_line: int, ratio):
        g, ns, n_bnd = asys.G, asys.n_species, asys.grid.n_boundary
        m = ns * per_line
        self.ns, self.per_line, self.ratio = ns, per_line, ratio
        keep = g.data != 0.0
        unentered = np.bincount(g.indices[keep], minlength=g.shape[1]) == 0
        self.empty = np.unique(np.flatnonzero(unentered) // n_bnd)  # their species
        if ratio is None:
            self.gp_t = g[perm].T  # a block row of A^{-1} G is (gp_t @ row.T).T
            self.species = np.arange(g.shape[1]) // n_bnd  # of the boundary value
        else:
            at = np.empty_like(perm)
            at[perm] = np.arange(perm.size)  # line-numbered row of each dof
            rows = at[row_ids(g)[keep]]
            order = np.argsort(rows, kind="stable")
            self.rows, self.coeffs = rows[order], g.data[keep][order]
            self.species = g.indices[keep][order] // n_bnd
            # the b whose r_b lies in each line start at lines[p]
            self.lines = np.searchsorted(self.rows, np.arange(0, perm.size + 1, m)).tolist()
            # mirrored for the r_b left of the last line, which have rows right of them
            mirrored = (self.lines[-2], m)
            self.mirrored_hi, self.mirrored_lo = np.empty(mirrored), np.empty(mirrored)
        # [b, position of i along its line]
        shape = (self.species.size, m)
        self.hi, self.lo = np.full(shape, -np.inf), np.full(shape, np.inf)

    def fold(self, t, p: int, rest) -> None:
        """Fold block row p, held transposed in t as _Extremes folds it;
        rest is _Extremes.rest after that fold."""
        hi, lo, m = self.hi, self.lo, self.ns * self.per_line
        if self.ratio is None:
            prod = self.gp_t @ t  # [boundary value, row]
            np.maximum(hi, prod, out=hi)
            np.minimum(lo, prod, out=lo)
            return
        s, e = self.lines[p], self.lines[p + 1]
        x = t[self.rows[s:] - p * m]  # rows of line p at every r_b of lines p and on
        np.maximum(hi[s:], x, out=hi[s:])
        np.minimum(lo[s:], x, out=lo[s:])
        if e > s and rest is not None:  # mirrored: rows right of line p
            at = self.rows[s:e] - p * m
            self.mirrored_hi[s:e] = rest[1].reshape(m, m)[:, at].T
            self.mirrored_lo[s:e] = rest[0].reshape(m, m)[:, at].T

    def extremes(self):
        """(top, bottom) [l, k]: the max and min of A^{-1} G over its rows
        of species k and its columns of species l."""
        ns, per_line, hi, lo = self.ns, self.per_line, self.hi, self.lo
        if self.ratio is not None:
            m, coeffs = ns * per_line, self.coeffs[:, None]
            ends = (hi * coeffs, lo * coeffs)
            hi, lo = np.maximum(*ends), np.minimum(*ends)
            # [b, k * per_line + node] = c_b w_k / w_r for r = r_b
            factor = np.repeat(self.ratio[:, self.rows % m // per_line].T, per_line, axis=1)
            n = self.mirrored_hi.shape[0]
            factor = factor[:n] * coeffs[:n]
            ends = (self.mirrored_hi * factor, self.mirrored_lo * factor)
            np.maximum(hi[:n], np.maximum(*ends), out=hi[:n])
            np.minimum(lo[:n], np.minimum(*ends), out=lo[:n])
        top, bottom = np.full((ns, ns), -np.inf), np.full((ns, ns), np.inf)
        for f, out, x in ((np.maximum, top, hi), (np.minimum, bottom, lo)):
            # over the nodes of each species k, then the b of each species l
            f.at(out, self.species, f.reduce(x.reshape(-1, ns, per_line), axis=2))
            f.at(out, self.empty, 0.0)
        # + 0.0 turns -0.0 into 0.0, as the sums of the product with G do
        return top + 0.0, bottom + 0.0


class _Extremes:
    """The min and max of every species block (k, l) of A^{-1}, keyed in
    result() as _scan_inverse keys them, folded from the slab scan's block
    rows.

    fold(t) takes block row p of the line-numbered A^{-1}, held transposed
    in t from its first column line on: all of them, or line p when ratio
    is given.  With ratio[l, k] = w_l / w_k, the entries of t right of line
    p are folded a second time, transposed: A^{-1}_ji = A^{-1}_ij w_j / w_i.

    A row is reduced over its column lines to elementwise extremes, one per
    (column node, row node) pair, and those give each block's extremes;
    x -> x w_l / w_k is monotone in floating point, so the scaled extremes
    are those of the scaled entries.
    """

    def __init__(self, ns: int, per_line: int, ratio):
        self.ns, self.per_line, self.ratio = ns, per_line, ratio
        # the least s * entry so far per key [k, l, 0 for s = 1, 1 for s = -1]
        self.bound = np.full((ns, ns, 2), np.inf)
        # the last row's elementwise (min, max) over its lines right of line
        # p, [l, column node, k, row node]; None without a mirror
        self.rest = None

    def fold(self, t: np.ndarray) -> bool:
        """Fold a block row, held transposed in t; False when an entry is
        not finite."""
        ns, per_line = self.ns, self.per_line
        m = ns * per_line
        flat = t.reshape(-1, m * m)
        shape = (ns, per_line, ns, per_line)  # [l, column node, k, row node]
        rest = self.rest = None
        if self.ratio is not None and flat.shape[0] > 1:  # right of line p
            rest = self.rest = tuple(
                f.reduce(flat[1:]).reshape(shape) for f in (np.minimum, np.maximum)
            )
            lo = np.minimum(rest[0], flat[0].reshape(shape))
            hi = np.maximum(rest[1], flat[0].reshape(shape))
        else:
            lo, hi = (f.reduce(flat).reshape(shape) for f in (np.minimum, np.maximum))
        # s * extreme [k, l, s], direct and mirrored: over the nodes along
        # the line, then within each species (faster than one reduction)
        sv = [np.stack((lo.min(axis=1).min(axis=2).T, -hi.max(axis=1).max(axis=2).T), -1)]
        if rest is not None:
            ends = (
                rest[0].min(axis=1).min(axis=2) * self.ratio,
                rest[1].max(axis=1).max(axis=2) * self.ratio,
            )
            sv.append(np.stack((np.minimum(*ends), -np.maximum(*ends)), -1))
        if not all(np.isfinite(x).all() for x in sv):
            return False
        self.bound = np.minimum(self.bound, np.minimum.reduce(sv))
        return True

    def result(self) -> dict:
        """{(k, l, s): min of s * block (k, l) of A^{-1}}."""
        return {(k, l, 1 - 2 * s): float(v) for (k, l, s), v in np.ndenumerate(self.bound)}


def _scan(asys: AssembledSystem):
    """The extremes (inv, bnd) of A^{-1} and -(A^{-1} G), kept on asys by
    the content of A and G (asys.key): the slab scan's, or the LU scan's."""
    if asys.key not in asys._oracle_cache:
        grid = asys.grid
        width = asys.n_species * (min(grid.n) - 1)  # unknowns per line on a 2D grid
        wide = grid.dim == 2 and width >= SLAB_MIN_WIDTH
        if grid.dim == 2 and not wide:
            _hand_off("lines hold %d unknowns, below SLAB_MIN_WIDTH %d", width, SLAB_MIN_WIDTH)
        scan = _scan_slabs(asys) if wide else None
        asys._oracle_cache[asys.key] = scan if scan is not None else _scan_inverse(asys)
    return asys._oracle_cache[asys.key]


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
    scanned.  The report carries no counterexample; refute makes one.
    """
    dof, ns = asys.A.shape[0], asys.n_species
    sigma, signs = _signs(asys, gauge)
    if dof > settings.oracle_max_dof:
        raise TooLarge(f"dense inverse of {dof} dof exceeds budget {settings.oracle_max_dof}")
    inv, bnd = _scan(asys)
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    min_entry = min(inv[p] for p in pairs)
    # the unflipped and the flipped minima together hold -max |entry|
    scale = -min(inv.values())
    inverse_positive = min_entry >= -TOL_OP * scale
    min_boundary = min(bnd[p] for p in pairs) if bnd else 0.0
    boundary_monotone = min_boundary >= -TOL_OP * scale
    return OracleReport(inverse_positive, min_entry, boundary_monotone, min_boundary, dof, sigma)


def _field(asys, signs, v, g, floor: float, j: int, which: str, rows=slice(None)):
    """The Counterexample of interior values v and boundary data g (zeros
    when None) on the system gauged by signs: verified when its image under
    D A D and D G D_b is <= TOL_RES |A| max|v|, and v[rows] > floor."""
    d = np.repeat(signs, asys.grid.n_interior)
    g = np.zeros(asys.G.shape[1]) if g is None else g
    image = asys.A @ (d * v) + asys.G @ (np.repeat(signs, asys.grid.n_boundary) * g)
    residual = float((d * image).max())
    verified = residual <= TOL_RES * inf_norm(asys.A) * float(np.abs(v).max())
    verified &= float(v[rows].max()) > floor
    fld = block_from_solution(asys.grid, asys.n_species, v, g)
    return Counterexample(fld, bool(verified), residual, j, which)


def refute(asys: AssembledSystem, report: OracleReport) -> Counterexample | None:
    """A field that breaks comparison for D A D where report, inverse_positivity's
    on asys, has a decision fail (inverse_positive first); None when both hold.

    In the first block (k, l) whose scanned minimum is the report's, one LU of
    A is solved against the scan's right-hand sides r_j of species l, and j is
    the first column whose gauged x = D A^{-1} D r_j has an entry of species k
    below -TOL_OP max|A^{-1}|, the decision's threshold.  v = -x: D A D v =
    -e_j with zero boundary data, or D A D v + D G D_b g = 0 for g = -e_j.  If
    no column reaches the threshold (a decision within rounding of it), the
    least entry's column is taken, and the field is not verified.
    """
    if report.inverse_positive and report.boundary_monotone:
        return None
    _, signs = _signs(asys, report.gauge)
    ns, n_int = asys.n_species, asys.grid.n_interior
    inv, bnd = _scan(asys)
    boundary = bool(report.inverse_positive)
    extremes, least = (bnd, report.min_boundary_entry) if boundary else (inv, report.min_entry)
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    k, l, _ = next(p for p in pairs if extremes[p] == least)
    threshold = TOL_OP * -min(inv.values())
    d = np.repeat(signs, n_int) * signs[l]  # D, times the sign of species l
    rows = slice(k * n_int, (k + 1) * n_int)
    best = np.inf  # the least entry of the columns taken so far
    for c0, x in _solves(LuFactor(asys.A), asys, boundary, l):
        col_min = (x[rows] * d[rows, None]).min(axis=0)
        below = col_min < -threshold
        c = int(np.argmax(below) if below.any() else np.argmin(col_min))
        if col_min[c] < best:
            best, j, v = col_min[c], c0 + c, -d * x[:, c]
        if below.any():
            break
    g = -np.eye(asys.G.shape[1])[j] if boundary else None
    which = "oracle-boundary" if boundary else "oracle"
    return _field(asys, signs, v, g, threshold, j, which, rows)


def random_probe(
    asys: AssembledSystem,
    trials: int,
    seed: int = 0,
    gauge=None,
) -> OracleReport:
    """Falsification-only probe: solve against random nonnegative sparse RHS.

    A clean pass never upgrades to a definitive inverse-positivity claim;
    the report is marked sampled.  With a gauge the probe runs on D A D,
    through the factorization of A.  At least one trial is required: no
    trials would be no evidence.  The first trial whose u = (D A D)^{-1} f
    dips below -TOL_OP (1 + max|u|) gives the field v = -u, D A D v = -f.
    """
    dof = asys.A.shape[0]
    sigma, signs = _signs(asys, gauge)
    if trials < 1:
        raise ValidationError(f"random probe needs at least 1 trial, got {trials}")
    d = np.repeat(signs, asys.grid.n_interior)
    report = OracleReport(True, 0.0, None, None, dof, sigma, sampled=True, trials=int(trials))
    lu = LuFactor(asys.A)
    rng = np.random.default_rng(seed)
    nnz = max(1, dof // 20)
    for trial in range(int(trials)):
        f = np.zeros(dof)
        pos = rng.choice(dof, size=nnz, replace=False)
        f[pos] = 1.0 - rng.random(nnz)  # values in (0, 1]
        u = d * lu.solve(d * f)  # (D A D)^{-1} f
        floor = -TOL_OP * (1.0 + float(np.abs(u).max()))
        report.min_entry = min(report.min_entry, float(u.min()))
        if u.min() < floor and report.inverse_positive:
            report.inverse_positive = False
            report.counterexample = _field(asys, signs, -u, None, -floor, trial, "probe")
    return report


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
