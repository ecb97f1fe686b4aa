"""Sparse kernels: CSR utilities, LU solves, dense inversion, Noda iteration.

Storage and factorization lean on scipy (CSR + SuperLU).  The bookkeeping
between them (row norms, the stored-entry scan, principal submatrices,
diagonal shifts, entrywise equality) reads and writes the CSR arrays
indptr, indices and data directly, without building intermediate sparse
matrices (T. A. Davis, Direct Methods for Sparse Linear Systems, SIAM
2006, ch. 2).  An LU orders its columns by minimum degree on A + A^T
unless it is given an order; that ordering depends only on the sparsity
pattern, so a sign-flipped D A D shares A's ordering and pivots.  The one
given order, from lu_order, is nested dissection of a 2D grid's interior
nodes, for the 9-point stencils of cross diffusion (Davis, ch. 7).
The certified eigenvalue machinery is implemented here: Noda's shifted
inverse iteration for irreducible Z-matrices, which keeps a shift's
factorization while its solves keep halving the enclosure, serves both
eigenvectors from it, and carries a Collatz-Wielandt enclosure.  Given a
start vector, a run first checks that vector's enclosure, widened by its
rounding bound, and ends there, with no LU, when it is narrow enough.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimMismatch, NoConvergence, SingularMatrix, TooLarge, ValidationError
from .settings import DEFAULT, Settings

# LuFactor.solve: A is singular when |A| max|x| > max|b| / SINGULAR_RTOL
SINGULAR_RTOL = 1e-14
# Noda iteration: widths within this factor of the ratios' rounding level
# count as the roundoff floor
FLOOR_FACTOR = 100.0
# Noda iteration: a shift's LU is kept while each solve with it cuts the lead
# iterate's enclosure width to at most this fraction
REUSE_FACTOR = 0.5


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the bound on the
    relative rounding error of a k-term sum of products (N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    sec. 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1.0 - k * u)


def from_coo(n_rows: int, n_cols: int, rows, cols, vals) -> sp.csr_matrix:
    """Canonical CSR from triplets: duplicates summed, indices sorted."""
    a = sp.csr_matrix(
        (np.asarray(vals, dtype=float), (rows, cols)), shape=(n_rows, n_cols)
    )
    a.sum_duplicates()
    a.sort_indices()
    return a


def content_key(*mats) -> str:
    """Digest of sparse matrices' CSR content: shape, indptr, indices, data."""
    digest = hashlib.blake2b(digest_size=16)
    for a in mats:
        for part in (repr(a.shape).encode(), a.indptr, a.indices, a.data):
            digest.update(part)
    return digest.hexdigest()


def row_ids(a: sp.csr_matrix) -> np.ndarray:
    """Row of every stored entry of a CSR matrix (column, for CSC), in
    storage order."""
    ids = np.arange(len(a.indptr) - 1, dtype=a.indices.dtype)
    return np.repeat(ids, np.diff(a.indptr))


def stored_entries(a: sp.spmatrix):
    """(rows, cols, values) of a's stored entries in storage order, as
    a.tocoo() lists them; CSR and CSC are read off their arrays."""
    if a.format == "csr":
        return row_ids(a), a.indices, a.data
    if a.format == "csc":
        return a.indices, row_ids(a), a.data
    coo = a.tocoo()
    return coo.row, coo.col, coo.data


def inf_norm(a: sp.spmatrix) -> float:
    """max_i sum_j |a_ij| over the stored entries, without building |A|.

    Rows are summed as np.abs(a).sum(axis=1) sums them, so the result is
    that formula's bit for bit: np.add.reduceat over each CSR row, and one
    pass in storage order (scipy's matvec with ones) for other formats.
    """
    if a.nnz == 0:
        return 0.0
    if a.format == "csr":
        nonempty = np.flatnonzero(np.diff(a.indptr))
        sums = np.add.reduceat(np.abs(a.data), a.indptr[nonempty])
    else:
        rows, _, vals = stored_entries(a)
        sums = np.bincount(rows, weights=np.abs(vals), minlength=a.shape[0])
    return float(sums.max())


def principal_submatrix(a: sp.csr_matrix, ix) -> sp.csr_matrix:
    """a[ix][:, ix] for a CSR matrix and distinct indices ix.

    One gather over the kept rows: each keeps its entries in stored order
    (sorted ones stay sorted for increasing ix), explicit zeros included.
    """
    ix = np.asarray(ix, dtype=np.intp)
    new = np.full(a.shape[0], -1, dtype=np.intp)
    new[ix] = np.arange(ix.size)
    starts = a.indptr[ix]
    lens = a.indptr[ix + 1] - starts
    # positions in a of the kept rows' entries, row after row
    src = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    src += np.arange(src.size)
    cols = new[a.indices[src]]
    keep = cols >= 0
    indptr = np.zeros(ix.size + 1, dtype=np.intp)
    rows = np.repeat(np.arange(ix.size), lens)[keep]
    np.cumsum(np.bincount(rows, minlength=ix.size), out=indptr[1:])
    return sp.csr_matrix(
        (a.data[src[keep]], cols[keep], indptr), shape=(ix.size, ix.size)
    )


def shifted(a: sp.spmatrix, s: float) -> sp.spmatrix:
    """A - s*I: a canonical copy of a, CSC for a CSC a and CSR otherwise,
    with s taken off its stored diagonal.

    Assembled operators store every diagonal entry (DiscreteSystem.assemble),
    so for them this only subtracts; a row of another matrix that stores
    none first gets an explicit zero there.
    """
    fmt = sp.csc_matrix if a.format == "csc" else sp.csr_matrix
    out = fmt(a, dtype=float, copy=True)
    out.sum_duplicates()
    n = out.shape[0]
    ids = row_ids(out)
    on_diag = out.indices == ids
    if np.count_nonzero(on_diag) < n:
        missing = np.setdiff1d(np.arange(n), ids[on_diag])
        rows, cols, vals = stored_entries(out)
        out = fmt(
            from_coo(
                n,
                n,
                np.concatenate([rows, missing]),
                np.concatenate([cols, missing]),
                np.concatenate([vals, np.zeros(missing.size)]),
            )
        )
        ids = row_ids(out)
        on_diag = out.indices == ids
    out.data[on_diag] -= s
    return out


def canonical(a: sp.spmatrix) -> sp.csr_matrix:
    """a as CSR with sorted, summed indices; a copy only when a is not."""
    a = a.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    return a


def same_nonzeros(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    """Whether a and b, of one shape, agree entrywise: (a != b).nnz == 0.

    Explicit zeros are no entries, and NaN equals nothing.  Read off the
    canonical CSR arrays, where equal matrices list their nonzero entries in
    the same order.
    """
    a, b = canonical(a), canonical(b)
    keep_a, keep_b = a.data != 0.0, b.data != 0.0
    counts_a = np.cumsum(np.concatenate([[0], keep_a]))[a.indptr]
    counts_b = np.cumsum(np.concatenate([[0], keep_b]))[b.indptr]
    return (
        np.array_equal(counts_a, counts_b)
        and np.array_equal(a.indices[keep_a], b.indices[keep_b])
        and np.array_equal(a.data[keep_a], b.data[keep_b])
    )


def nested_dissection(shape) -> np.ndarray:
    """The nodes of an mx x my box, numbered x fastest, in nested dissection
    order (A. George, SIAM J. Numer. Anal. 10 (1973) 345-363).

    A box whose longer side has 3 nodes or more is split by the line of
    nodes across the middle of that side (a column when the box is at
    least as wide as it is tall): the nodes left of it, then those right
    of it, then the line.  No stencil reaching only the 8 neighbours of a
    node couples the two halves, so eliminating them first confines their
    fill to themselves and the line.  Smaller boxes, and the nodes of each
    line, keep the canonical order.  Every box of one depth is split at
    once, with array operations: a box is (x0, y0, w, h, start), start
    being its first position in the order.
    """
    mx, my = shape
    pos = np.empty(mx * my, dtype=np.intp)  # each node's position in the order
    x0, y0, w, h, start = (np.array([v], dtype=np.intp) for v in (0, 0, mx, my, 0))
    while x0.size:
        leaf = np.maximum(w, h) < 3
        cut = ~leaf
        x0c, y0c, wc, hc, sc = x0[cut], y0[cut], w[cut], h[cut], start[cut]
        across_x = wc >= hc  # the separator is a column
        half = np.where(across_x, wc // 2, hc // 2)
        w1, h1 = np.where(across_x, half, wc), np.where(across_x, hc, half)
        w2 = np.where(across_x, wc - half - 1, wc)
        h2 = np.where(across_x, hc, hc - half - 1)
        sep_x = np.where(across_x, x0c + half, x0c)
        sep_y = np.where(across_x, y0c, y0c + half)
        a1, a2 = w1 * h1, w2 * h2
        _place(
            pos,
            mx,
            np.concatenate([x0[leaf], sep_x]),
            np.concatenate([y0[leaf], sep_y]),
            np.concatenate([w[leaf], np.where(across_x, 1, wc)]),
            np.concatenate([h[leaf], np.where(across_x, hc, 1)]),
            np.concatenate([start[leaf], sc + a1 + a2]),
        )
        x0 = np.concatenate([x0c, np.where(across_x, sep_x + 1, x0c)])
        y0 = np.concatenate([y0c, np.where(across_x, y0c, sep_y + 1)])
        w, h = np.concatenate([w1, w2]), np.concatenate([h1, h2])
        start = np.concatenate([sc, sc + a1])
    order = np.empty_like(pos)
    order[pos] = np.arange(pos.size)
    return order


def _place(pos, mx: int, x0, y0, w, h, start) -> None:
    """Give the nodes of each rectangle (x0, y0, w, h) the positions
    start, start + 1, ... in canonical order."""
    area = w * h
    box = np.repeat(np.arange(area.size), area)
    r = np.arange(int(area.sum())) - np.repeat(np.cumsum(area) - area, area)
    wb = w[box]
    pos[(y0[box] + r // wb) * mx + x0[box] + r % wb] = start[box] + r


def lu_order(grid, a: sp.spmatrix) -> np.ndarray | None:
    """The column order LuFactor(a, order=) takes for an operator a on the
    interior nodes of grid, or None for minimum degree.

    Nested dissection of the interior nodes, each node's species kept
    adjacent, when grid is 2D and a stores an entry between diagonal
    neighbours: cross diffusion makes the stencil 9-point, which minimum
    degree orders poorly.  On a 5-point stencil nested dissection fills
    more than minimum degree and is no faster, so 1D operators, 5-point
    ones and those whose cross terms cancel get None.
    """
    if grid.dim != 2:
        return None
    mx, my = grid.n[0] - 1, grid.n[1] - 1
    n_int = mx * my
    if n_int == 0 or a.shape[0] % n_int:
        return None
    a = a.tocsr()
    node = np.arange(a.shape[0], dtype=a.indices.dtype) % n_int
    x, y = node % mx, node // mx
    per_row = np.diff(a.indptr)
    dx = x[a.indices] - np.repeat(x, per_row)
    dy = y[a.indices] - np.repeat(y, per_row)
    if not ((dx * dx == 1) & (dy * dy == 1)).any():
        return None
    order = nested_dissection((mx, my))
    return (order[:, None] + n_int * np.arange(a.shape[0] // n_int)).ravel()


def permuted_csc(a: sp.spmatrix, order) -> sp.csc_matrix:
    """a[order][:, order] as a canonical CSC, for a permutation order.

    a's columns are renumbered on its CSR arrays, sharing its data, and
    the CSR to CSC conversion then writes the one copy, whose row indices
    are renumbered and sorted in place.
    """
    a = a.tocsr()
    n = a.shape[0]
    if np.shape(order) != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValidationError(f"column order is not a permutation of {n} columns")
    new = np.empty(n, dtype=a.indices.dtype)
    new[order] = np.arange(n, dtype=new.dtype)
    out = sp.csr_matrix((a.data, new[a.indices], a.indptr), shape=a.shape).tocsc()
    np.take(new, out.indices, out=out.indices)
    out.has_sorted_indices = False
    out.sort_indices()
    return out


class LuFactor:
    """LU with partial pivoting by magnitude; an exactly zero pivot or a
    solve that shows A singular to working precision raises SingularMatrix.

    L and U are never read: that makes scipy build and keep CSC copies of
    both.  A solve shows singularity instead, through |A| max|x| / max|b|
    (inf-norms), a computed lower bound on cond(A) (N. J. Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 15).

    Without an order, columns are ordered by minimum degree on the pattern
    of A + A^T, which suits the structurally symmetric stencils and fills
    far less than the default COLAMD ordering on A^T A.  The ordering
    depends only on the sparsity pattern and the pivots only on
    magnitudes, so D A D, for D a diagonal of +-1, gets A's ordering and
    pivots, and its factors are A's with signs flipped.

    With an order (lu_order), the factorized matrix is A[order][:, order],
    in its natural column order, and right-hand sides and solutions are
    mapped through the order.  SuperLU gets the one copy of a made here:
    the permuted CSC of a CSR a, or, without an order, the CSC of a CSR a,
    or a CSC a itself.
    """

    def __init__(self, a: sp.spmatrix, order=None):
        if a.shape[0] != a.shape[1]:
            raise DimMismatch(f"LU needs a square matrix, got {a.shape}")
        self.n = a.shape[0]
        self.norm = inf_norm(a)
        self.order = None if order is None else np.asarray(order, dtype=np.intp)
        if self.order is None:
            a, spec = a.tocsc(), "MMD_AT_PLUS_A"
        else:
            a, spec = permuted_csc(a, self.order), "NATURAL"
        try:
            self._lu = spla.splu(a, permc_spec=spec)
        except RuntimeError as err:
            raise SingularMatrix(f"factorization failed: {err}") from None

    def solve(self, b: np.ndarray, transposed: bool = False) -> np.ndarray:
        """x with A x = b, or A^T x = b when transposed; SingularMatrix when
        x is not finite or |A| max|x| > max|b| / SINGULAR_RTOL.  The maxima
        run over all columns of b, so a block of unit vectors raises exactly
        when one of them would.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimMismatch(f"solve: matrix is {self.n}x{self.n}, rhs is {b.shape}")
        trans = "T" if transposed else "N"
        if self.order is None:
            x = self._lu.solve(b, trans=trans)
        else:
            x = np.empty_like(b)
            x[self.order] = self._lu.solve(b[self.order], trans=trans)
        # max and min make no temporary, as abs would, and carry a NaN along
        size = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0))) * self.norm
        bound = max(float(b.max(initial=0.0)), -float(b.min(initial=0.0))) / SINGULAR_RTOL
        if not size <= bound or size == np.inf:  # the second catches inf x for inf b
            raise SingularMatrix(
                f"solve: |A| max|x| = {size:.3e} above max|b| / {SINGULAR_RTOL:.0e}"
                f" = {bound:.3e}"
            )
        return x


def lu_solve(a: sp.spmatrix, b: np.ndarray, order=None) -> np.ndarray:
    return LuFactor(a, order).solve(b)


def dense_inverse(a: sp.spmatrix, settings: Settings = DEFAULT) -> np.ndarray:
    """Full inverse by LU solves against unit vectors; TooLarge above
    settings.oracle_max_dof unknowns."""
    n, budget = a.shape[0], settings.oracle_max_dof
    if n > budget:
        raise TooLarge(f"dense inverse of {n} dof exceeds budget {budget}")
    return LuFactor(a).solve(np.eye(n))


@dataclass
class NodaResult:
    """A Noda run: rho in the enclosure cw, its positive vector (unit max),
    the run's LU factorizations and this iterate's solves, and the left
    iterate's result when one ran alongside."""

    rho: float
    vector: np.ndarray
    cw: tuple
    iterations: int
    solves: int
    left: NodaResult | None = None


class _NodaIterate:
    """One Noda iterate x of b (A, or A^T for the left vector) with its
    Collatz-Wielandt enclosure [lo, hi] and the widths it went through."""

    def __init__(self, b: sp.csr_matrix, transposed: bool, tol_eig: float):
        self.b, self.transposed, self.tol_eig = b, transposed, tol_eig
        self.abs_b = None  # |b|, built when the rounding level is first needed
        self.nnz = int(b.getnnz(axis=1).max(initial=0))  # largest row nnz
        self.rounding = np.finfo(float).eps * max(self.nnz, 1)
        self.x = np.ones(b.shape[0])
        self.lo, self.hi, self.lam = -np.inf, np.inf, 0.0
        self.widths = []
        self.solves = 0
        self.result = None

    def target(self, lam: float) -> float:
        """The enclosure width at which the iterate closes near lam."""
        return self.tol_eig * (1.0 + abs(lam))

    def closed_at(self, start: np.ndarray) -> NodaResult | None:
        """The iterate's result at start, with no factorization and no
        solve, when the ratios (b x)/x of x = start, widened by their
        rounding bound delta, meet the width target; else None.

        fl(b x) errs by at most gamma_k (|b| |x|) for k terms a row and the
        division by u |ratio|, u the unit roundoff (N. J. Higham, Accuracy
        and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.5),
        so delta = max_i [gamma_(k+1) (|b| |x|)_i / x_i + u |ratio_i|], one
        more rounding in gamma covering that of |b| |x| itself, and the
        enclosure's ends are rounded outward.
        """
        bx = self.b @ start
        ratios = bx / start
        u = np.finfo(float).eps / 2
        g = gamma(self.nnz + 1)
        delta = float((g * (abs(self.b) @ start) / start + u * np.abs(ratios)).max())
        lo = float(np.nextafter(float(ratios.min()) - delta, -np.inf))
        hi = float(np.nextafter(float(ratios.max()) + delta, np.inf))
        lam = min(max(float(start @ bx) / float(start @ start), lo), hi)
        if not hi - lo <= self.target(lam):  # a NaN width fails too
            return None
        return NodaResult(lam, start, (lo, hi), 0, 0)

    def enclose(self, factorizations: int) -> bool:
        """Intersect the ratios (b x)/x into [lo, hi]; True while still open.
        A closed iterate's result counts the run's factorizations so far
        and its own solves."""
        bx = self.b @ self.x
        ratios = bx / self.x
        self.lo = max(self.lo, float(ratios.min()))
        self.hi = min(self.hi, float(ratios.max()))
        self.lam = min(max(float(self.x @ bx) / float(self.x @ self.x), self.lo), self.hi)
        width = self.hi - self.lo
        if width <= self.target(self.lam):
            self.result = NodaResult(
                self.lam, self.x, (self.lo, self.hi), factorizations, self.solves
            )
            return False
        self.widths.append(width)
        return True

    def halved(self) -> bool:
        """Whether the last solve cut the width to REUSE_FACTOR of the one
        before it."""
        w = self.widths
        return len(w) >= 2 and w[-1] <= REUSE_FACTOR * w[-2]

    def stalled(self) -> float | None:
        """The rounding level of the ratios when the width has stopped
        shrinking near it, else None."""
        w = self.widths
        if len(w) < 3 or w[-1] <= 0.5 * w[-3]:
            return None  # still shrinking: the level, a matvec, is not needed
        if self.abs_b is None:
            self.abs_b = abs(self.b)
        floor = self.rounding * float((self.abs_b @ self.x / self.x).max())
        return floor if w[-1] <= FLOOR_FACTOR * floor else None

    def fail(self, reason: str, factorizations: int) -> NoConvergence:
        side = "left " if self.transposed else ""
        width = self.widths[-1]
        return NoConvergence(
            f"{side}enclosure width {width:.3e} {reason}",
            iterations=factorizations,
            width=width,
        )


def noda_iteration(
    a: sp.spmatrix,
    settings: Settings,
    left: sp.csr_matrix | None = None,
    start: np.ndarray | None = None,
) -> NodaResult:
    """Principal eigenpair of an irreducible Z-matrix by Noda iteration.

    From x = 1, each step intersects the Collatz-Wielandt ratios (Ax)/x into
    the running enclosure [lo, hi] of the principal eigenvalue lambda, then
    solves (A - mu*I) y = x and sets x = y / max y.  mu < lambda keeps the
    shifted matrix a nonsingular M-matrix, so y stays positive, and Noda's
    shifts mu = lo converge to lambda superlinearly (T. Noda, Numer. Math. 17
    (1971) 382-386).  The result's rho is lambda, the Rayleigh quotient
    clamped into the enclosure.

    A shift's LU is kept, and solved with again, as long as the last solve
    with it cut the lead iterate's width to at most REUSE_FACTOR of the
    width before; when a step falls short, A - mu*I is factorized again at
    the current Noda shift (in the spirit of Jia, Lin and Liu's inexact Noda
    iteration, Numer. Math. 130 (2015) 645-679).  At a fixed mu the width
    contracts like (lambda - mu) / (lambda_2 - mu), a ratio of eigenvalue
    gaps that does not grow with the mesh, so the factorization count does
    not either.  iterations counts the LU factorizations and is capped by
    settings.max_iter; solves counts the solves with them.  The solves stay
    bounded too: each solve on a kept LU follows one that halved the lead's
    width, widths never grow, and an iterate is open only above the target,
    so beyond one step per factorization there are at most
    log2(first width / target) such steps per leading iterate.

    Noda's own shift mu = lo often reaches lambda to the last bits one step
    before hi closes in, making A - mu*I singular to working precision, so
    mu is held one target width below lo; (lambda - mu) / gap stays tiny.

    Each shift's A - mu*I is a CSC copy of A with mu taken off its stored
    diagonal (shifted), which LuFactor factorizes as it is.  It is made
    from A's CSC arrays, taken once per run: those of left, when given,
    and otherwise a CSC copy of A.

    Given left = A^T as CSR, a left iterate runs on it alongside and is
    returned as the result's left: a NodaResult counting its own solves
    and the run's factorizations when it closed.  It is solved through the
    transposed factor of whichever LU is current, so mu < lambda keeps it
    positive as well, and keeps its own enclosure, stopping when that meets
    the width target.  The lead iterate, the right one while it is open, alone
    decides when to factorize and at which shift; once the right iterate is
    done an open left one leads itself.  The right iterate's shifts,
    enclosure and vector are therefore those of a run without it, and the
    result's iterations and solves count the whole run's factorizations
    and the right iterate's solves.

    The ratios carry a rounding error of about k*eps*(|A|x)/x (k = largest
    row nnz).  Within FLOOR_FACTOR of that level the width stops shrinking,
    so the loop gives up as soon as an iterate's width has not halved over
    two steps there; far above it, early steps may shrink more slowly and
    go on.  It also gives up when a solve loses positivity or the shift is
    numerically singular.

    Given a positive start, a candidate eigenvector, every iterate first
    checks it before any factorization: its ratios widened by their
    rounding bound (_NodaIterate.closed_at) are a Collatz-Wielandt enclosure
    of lambda as rigorous as the matvec's error bound.  When that enclosure
    meets the width target for every iterate, the run returns start with
    it, iterations = solves = 0.  Otherwise the run goes on from x = 1
    exactly as without start.  Only this check is widened: the iterated
    enclosures are not, since the widening alone would keep the n = 2048
    1D Laplacian above its target.

    The width target is settings.tol_eig (1 + |lambda estimate|), as Settings documents.
    """
    if a.shape[0] != a.shape[1]:
        raise DimMismatch(f"Noda iteration needs a square matrix, got {a.shape}")
    iterates = [_NodaIterate(a, False, settings.tol_eig)]
    if left is not None:
        iterates.append(_NodaIterate(left, True, settings.tol_eig))
    if start is not None:
        closed = []
        for it in iterates:
            closed.append(it.closed_at(start))
            if closed[-1] is None:
                break
        else:
            closed[0].left = closed[1] if left is not None else None
            return closed[0]
    csc = left.T if left is not None else a.tocsc()
    factorizations = 0
    lu = None
    while True:
        active = [
            it
            for it in iterates
            if it.result is None and it.enclose(factorizations)
        ]
        if not active:
            right = iterates[0].result
            right.iterations = factorizations
            right.left = iterates[1].result if left is not None else None
            return right
        lead = active[0]
        refactor = lu is None or not lead.halved()
        if refactor and factorizations >= settings.max_iter:
            raise lead.fail(f"after {settings.max_iter} factorizations", factorizations)
        for it in active:
            floor = it.stalled()
            if floor is not None:
                raise it.fail(f"stalled near the rounding level {floor:.3e}", factorizations)
        if refactor:
            lu = None  # so that the next shift's factorization does not hold two
            factorizations += 1
            mu = lead.lo - lead.target(lead.lam)
            try:
                lu = LuFactor(shifted(csc, mu))
            except SingularMatrix:
                raise lead.fail(f"singular shift {mu!r}", factorizations) from None
        for it in active:
            try:
                y = lu.solve(it.x, transposed=it.transposed)
            except SingularMatrix:
                raise it.fail(f"singular shift {mu!r}", factorizations) from None
            if not float(y.min()) > 0.0:
                raise it.fail("shifted solve left the positive cone", factorizations)
            it.x = y / float(y.max())
            it.solves += 1
