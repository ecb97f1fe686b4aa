"""Independent discrete ground truth for the comparison principle.

The discrete comparison principle is defined as: A nonsingular, inverse of
A entrywise nonnegative, and -A^{-1} G entrywise nonnegative.  Equivalently
A u <= 0 in the interior plus boundary data <= 0 force u <= 0.  The oracle
decides this from the explicit inverse (decisive, size-capped) or by seeded
random probing (falsification only).

The inverse is streamed, never held.  inverse_positivity factorizes A once
and solves against the identity BLOCK columns at a time.  Each block leaves
only the min and max of every species block (k, l) of A^{-1}, each with its
first row-major position, and its share of the product A^{-1} G.  That
share is taken from G's CSR arrays and folded into the columns of A^{-1} G
whose rows are still being solved, with array operations and no sparse
matrix per block.  Memory is the LU factors, one n x BLOCK block, and those
open columns: O(n * BLOCK + n * n_boundary) at most.

A gauge sigma flips signs in that same scan.  With D = diag(sigma),
(D A D)^{-1} = D A^{-1} D holds bit for bit in floating point: the LU's
fill-reducing column ordering depends only on the sparsity pattern, which
D A D shares with A, and partial pivoting picks pivots by magnitude, so
D A D gets A's ordering and pivots, and a +-1 factor commutes with every
rounding.  Block (k, l) of the gauged inverse is sigma_k sigma_l times
that of A^{-1}, so where the signs differ its minimum is -max.
random_probe solves (D A D) u = f the same way, as u = D A^{-1} (D f).

A column solved within a block can differ in the last bit from the same
column of one solve against the whole identity: the BLAS kernels behind
the sparse triangular solves are chosen by the number of right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledSystem
from .errors import DimMismatch, TooLarge, ValidationError
from .fields import BlockField
from .linalg import LuFactor, content_key, lu_solve, row_ids

TOL_OP = 1e-9
TOL_RES = 1e-8
ORACLE_MAX_DOF = 2500
BLOCK = 64  # columns of A^{-1} per solve in the streamed scan


@dataclass
class OracleReport:
    inverse_positive: bool
    min_entry: float | None
    witness: tuple | None
    boundary_monotone: bool | None
    min_boundary_entry: float | None
    dof: int
    gauge: tuple | None = None
    sampled: bool = False
    trials: int = 0

    def to_json_dict(self) -> dict:
        return {
            "inverse_positive": self.inverse_positive,
            "min_entry": self.min_entry,
            "witness": list(self.witness) if self.witness is not None else None,
            "boundary_monotone": self.boundary_monotone,
            "min_boundary_entry": self.min_boundary_entry,
            "dof": self.dof,
            "gauge": list(self.gauge) if self.gauge is not None else None,
            "sampled": self.sampled,
            "trials": self.trials,
        }


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


def _inverse_columns(lu: LuFactor, c0: int, c1: int) -> np.ndarray:
    """Columns c0..c1-1 of A^{-1}: one solve against that slice of the identity."""
    rhs = np.zeros((lu.n, c1 - c0))
    rhs[np.arange(c0, c1), np.arange(c1 - c0)] = 1.0
    return lu.solve(rhs)


def _block_minima(x: np.ndarray, c0: int, n_int: int, n_species: int):
    """((k, l, s), (min, first (i, j))) of s * block (k, l) within columns
    c0.. of A^{-1} held in x, for both signs s."""
    c1 = c0 + x.shape[1]
    for l in range(c0 // n_int, (c1 - 1) // n_int + 1):
        j0, j1 = max(c0, l * n_int), min(c1, (l + 1) * n_int)
        for k in range(n_species):
            part = x[k * n_int : (k + 1) * n_int, j0 - c0 : j1 - c0]
            for s, pos in ((1, np.argmin(part)), (-1, np.argmax(part))):
                r, c = divmod(int(pos), part.shape[1])
                yield (k, l, s), (s * float(part[r, c]), (k * n_int + r, j0 + c))


def _scan_inverse(asys: AssembledSystem):
    """Gauge-free extremes (inv, bnd) of A^{-1} and -(A^{-1} G), per species
    block, from one LU of A and BLOCK columns of A^{-1} at a time.

    inv[k, l, s] is (min of s * block (k, l) of A^{-1}, its first row-major
    position (i, j)) for s = 1 and -1.  bnd[k, l, s] is the min of s * block
    (k, l) of -(A^{-1} G), whose column blocks are the species' boundary
    values; it is empty when G is.

    Column j of A^{-1} G sums G[r, j] A^{-1}[:, r] over the few rows r that
    boundary value j enters.  Each block's entries of G are read off G's
    CSR arrays.  A column's terms in the block are summed in increasing r
    onto 0.0, as the sparse product G[c0:c1].T @ x.T sums them, and that
    share is added to the column's running sum.  The sum is kept from the
    first block that holds such an r to the last, then folded into bnd and
    dropped, so only those open columns are held.
    """
    a, g = asys.A, asys.G
    n, n_int, ns = a.shape[0], asys.grid.n_interior, asys.n_species
    n_bnd = asys.grid.n_boundary
    lu = LuFactor(a)
    inv, bnd = {}, {}
    rows = row_ids(g)
    last_row = np.full(g.shape[1], -1)
    np.maximum.at(last_row, g.indices, rows)
    # open boundary columns, ascending, and their running sums; a boundary
    # value that enters no equation has a zero column from the start
    open_ids = np.flatnonzero(last_row < 0) if g.nnz else np.empty(0, dtype=np.intp)
    sums = np.zeros((n, open_ids.size))
    for c0 in range(0, n, BLOCK):
        c1 = min(c0 + BLOCK, n)
        x = _inverse_columns(lu, c0, c1)
        for key, cand in _block_minima(x, c0, n_int, ns):
            inv[key] = min(inv.get(key, cand), cand)
        lo, hi = g.indptr[c0], g.indptr[c1]
        if hi > lo:
            open_ids, sums = _fold_block(
                open_ids, sums, x, rows[lo:hi] - c0, g.indices[lo:hi], g.data[lo:hi]
            )
        del x  # so that the next solve does not hold two blocks
        done = last_row[open_ids] < c1
        if done.any():
            _fold_boundary(bnd, sums[:, done], open_ids[done], ns, n_int, n_bnd)
            open_ids, sums = open_ids[~done], sums[:, ~done]
    return inv, bnd


def _fold_block(open_ids, sums, x, rows, cols, vals):
    """The open columns of A^{-1} G, ascending, and their running sums, with
    the terms vals * x[:, rows] of G's entries (rows, cols) in one block
    added.  The entries come in CSR order, so a column's terms are met in
    increasing row.  They are summed onto 0.0, the k-th term of every
    column in one step, and that share is added to the running sum."""
    ids, at = np.unique(np.concatenate([open_ids, cols]), return_inverse=True)
    at_open, at = at[: open_ids.size], at[open_ids.size :]
    # earlier entries of the same column; a stable sort keeps CSR order
    order = np.argsort(cols, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(cols.size) - np.searchsorted(cols[order], cols[order])
    share = np.zeros((x.shape[0], ids.size))
    terms = x[:, rows] * vals
    for k in range(int(rank.max()) + 1):
        kth = rank == k  # at most one term per column
        share[:, at[kth]] += terms[:, kth]
    share[:, at_open] += sums
    return ids, share


def _fold_boundary(bnd, sums, ids, ns: int, n_int: int, n_bnd: int) -> None:
    """Fold the finished columns ids (ascending) of A^{-1} G, held in sums,
    into bnd: the min of s * -(A^{-1} G) per species block (k, l) and sign
    s.  Ascending ids list each species' boundary columns together."""
    parts = sums.reshape(ns, n_int, ids.size)
    species = ids // n_bnd
    first = np.flatnonzero(np.diff(species, prepend=-1))
    top = np.maximum.reduceat(parts.max(axis=1), first, axis=1)
    bottom = np.minimum.reduceat(parts.min(axis=1), first, axis=1)
    for i, l in enumerate(species[first].tolist()):
        for k in range(ns):
            for s, m in ((1, -float(top[k, i])), (-1, float(bottom[k, i]))):
                bnd[k, l, s] = min(bnd.get((k, l, s), m), m)


def inverse_positivity(
    asys: AssembledSystem,
    gauge=None,
    max_dof: int = ORACLE_MAX_DOF,
    tol_op: float = TOL_OP,
) -> OracleReport:
    """Decide inverse-positivity of (D A D) from the streamed scan of A^{-1}.

    With a gauge sigma, D flips the sign of whole species blocks, realizing
    the cone order that turns constant-sign competitive coupling cooperative.
    The scan is kept on asys by the content of A and G, so all gauges share
    one factorization and one pass over A^{-1}.  The witness is the first
    minimal entry in row-major order.
    """
    dof, ns = asys.A.shape[0], asys.n_species
    sigma, signs = _signs(asys, gauge)
    if dof > max_dof:
        raise TooLarge(f"dense inverse of {dof} dof exceeds budget {max_dof}")
    key = content_key(asys.A, asys.G)
    if key not in asys._oracle_cache:
        asys._oracle_cache[key] = _scan_inverse(asys)
    inv, bnd = asys._oracle_cache[key]
    pairs = [(k, l, int(signs[k] * signs[l])) for k in range(ns) for l in range(ns)]
    min_entry, witness = min(inv[p] for p in pairs)
    # the unflipped and the flipped minima together hold -max |entry|
    scale = -min(v for v, _ in inv.values())
    inverse_positive = min_entry >= -tol_op * scale
    min_boundary = min(bnd[p] for p in pairs) if bnd else 0.0
    boundary_monotone = min_boundary >= -tol_op * scale
    return OracleReport(
        inverse_positive,
        min_entry,
        witness,
        boundary_monotone,
        min_boundary,
        dof,
        gauge=sigma,
    )


def verify_subsolution(asys: AssembledSystem, u, g_data=None, tol_res: float = TOL_RES):
    """Check A u + G g <= f componentwise.

    u is a BlockField or the flat interior unknown vector; g defaults to the
    field's boundary values (or the assembled data).  Returns the decision
    and the largest signed residual component.
    """
    if isinstance(u, BlockField):
        if u.grid != asys.grid or u.n_species != asys.n_species:
            raise DimMismatch("field does not match the assembled system")
        u_int = u.interior.reshape(-1)
        if g_data is None:
            g_data = u.boundary.reshape(-1)
    else:
        u_int = np.asarray(u, dtype=float)
    if g_data is None:
        g_data = asys.g_vec
    g_data = np.asarray(g_data, dtype=float)
    if u_int.shape != (asys.A.shape[0],):
        raise DimMismatch(
            f"u has {u_int.shape}, system has {asys.A.shape[0]} unknowns"
        )
    if g_data.shape != (asys.G.shape[1],):
        raise DimMismatch(
            f"g has {g_data.shape}, system has {asys.G.shape[1]} boundary values"
        )
    r = asys.A @ u_int + asys.G @ g_data - asys.f_vec
    max_residual = float(r.max())
    f_norm = float(np.abs(asys.f_vec).max()) if asys.f_vec.size else 0.0
    return max_residual <= tol_res * (1.0 + f_norm), max_residual


def random_probe(
    asys: AssembledSystem,
    trials: int,
    seed: int = 0,
    tol_op: float = TOL_OP,
    gauge=None,
) -> OracleReport:
    """Falsification-only probe: solve against random nonnegative sparse RHS.

    A clean pass never upgrades to a definitive inverse-positivity claim;
    the report is marked sampled.  With a gauge the probe runs on D A D,
    through the factorization of A.  At least one trial is required: no
    trials would be no evidence.
    """
    dof = asys.A.shape[0]
    sigma, signs = _signs(asys, gauge)
    if trials < 1:
        raise ValidationError(f"random probe needs at least 1 trial, got {trials}")
    d = np.repeat(signs, asys.grid.n_interior)
    report = OracleReport(
        True, None, None, None, None, dof, sigma, sampled=True, trials=int(trials)
    )
    lu = LuFactor(asys.A)
    rng = np.random.default_rng(seed)
    nnz = max(1, dof // 20)
    worst = 0.0
    witness = None
    for trial in range(int(trials)):
        f = np.zeros(dof)
        pos = rng.choice(dof, size=nnz, replace=False)
        f[pos] = 1.0 - rng.random(nnz)  # values in (0, 1]
        u = d * lu.solve(d * f)  # (D A D)^{-1} f
        floor = -tol_op * (1.0 + float(np.abs(u).max()))
        m = float(u.min())
        if m < worst:
            worst = m
            witness = (int(np.argmin(u)), trial)
        if m < floor:
            report.inverse_positive = False
    report.min_entry = worst if witness is not None else 0.0
    report.witness = witness
    return report


def solve_system(asys: AssembledSystem, rhs=None, g_data=None) -> np.ndarray:
    """Interior solution of A u = f - G g."""
    f = asys.f_vec if rhs is None else np.asarray(rhs, dtype=float)
    g = asys.g_vec if g_data is None else np.asarray(g_data, dtype=float)
    if f.shape != (asys.A.shape[0],):
        raise DimMismatch(f"rhs has {f.shape}, system has {asys.A.shape[0]} unknowns")
    return lu_solve(asys.A, f - asys.G @ g)
