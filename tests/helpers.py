"""Small builders shared by the test modules."""

import numpy as np
import scipy.sparse as sp

from elcomp import oracle
from elcomp.assembly import ScalarOperatorSpec, SystemSpec, as_discrete
from elcomp.expressions import const, parse_expr
from elcomp.linalg import LuFactor, from_coo, row_ids


def _expr(v):
    if v is None:
        return None
    if isinstance(v, str):
        return parse_expr(v)
    if isinstance(v, (int, float)):
        return const(float(v))
    if isinstance(v, (list, tuple)):
        return tuple(_expr(x) for x in v)
    return v


def op_of(dim, a=None, b=None, c=None):
    """ScalarOperatorSpec from expression strings / numbers."""
    return ScalarOperatorSpec.make(dim, a=_expr(a), b=_expr(b), c=_expr(c))


def system_of(grid, ops, m=None, f=None, g=None):
    """SystemSpec from already-built ops and string/number tables."""
    n = len(ops)
    if m is None:
        m = [[0.0] * n for _ in range(n)]
    m = tuple(tuple(_expr(v) for v in row) for row in m)
    f = tuple(_expr(v) for v in (f if f is not None else [0.0] * n))
    g = tuple(_expr(v) for v in (g if g is not None else [0.0] * n))
    return SystemSpec(grid, tuple(ops), m, f, g)


def laplace_system(grid, c=0.0, m=None, n_species=1, f=None, g=None):
    """n_species uncoupled copies of -Laplace + c, plus optional coupling."""
    ops = tuple(op_of(grid.dim, c=c) for _ in range(n_species))
    return system_of(grid, ops, m=m, f=f, g=g)


def scalar_parts_of(op, grid):
    """(A, G) of one scalar operator, sampled and assembled as a system."""
    return as_discrete(system_of(grid, (op,))).scalar_parts(0)


def convection_pair_text(n):
    """Problem text of a 2D cooperative pair on n^2 cells whose convection
    and unequal coupling make its operator nonsymmetric."""
    return (
        f"[domain]\ndim = 2\nlo = 0 0\nhi = 1 1\nn = {n} {n}\n"
        "[species 1]\na11 = 1 + x\nb1 = 3\nc = 1\n"
        "[species 2]\nb2 = -2\nc = 1\n"
        "[coupling]\nm12 = -1\nm21 = -0.5\n"
    )


def coop_pair_text(n, m=-1.0):
    """Problem text of a 2D cooperative pair on n^2 cells, species 1 with
    a11 = 1 + x and both coupled by m."""
    return (
        f"[domain]\ndim = 2\nlo = 0 0\nhi = 1 1\nn = {n} {n}\n"
        "[species 1]\na11 = 1 + x\nf = 1\n"
        "[species 2]\nf = 1\n"
        f"[coupling]\nm12 = {m!r}\nm21 = {m!r}\n"
    )


def reference_assembly(ds, coupling):
    """(A, G) of ds by the block route: one sparse diagonal per coupling
    m_kl, added to A_k on the diagonal blocks, then sp.bmat.  The CSR sum
    drops every entry that comes out 0.0, a diagonal one included."""
    n = ds.n_species
    target = ds.grid.interior_ids
    m_sel = ds.coupling_values(coupling)
    blocks_a = [[None] * n for _ in range(n)]
    blocks_g = [[None] * n for _ in range(n)]
    for k in range(n):
        A_k, G_k = ds.scalar_parts(k)
        for l in range(n):
            coupl = sp.diags(m_sel[k, l][target], format="csr")
            blocks_a[k][l] = A_k + coupl if l == k else coupl
        blocks_g[k][k] = G_k
    A = sp.bmat(blocks_a, format="csr")
    A.sort_indices()
    G = sp.bmat(blocks_g, format="csr")
    G.sort_indices()
    return A, G


def reference_scalar_parts(a_vals, b_vals, c_vals, grid):
    """(A, G) of one scalar operator by the COO route: every stencil slot
    as a (row, column, value) triplet in a fixed per-row order, exact zeros
    dropped, duplicates summed by the CSR conversion.  A then drops the
    off-diagonal sums that cancel to 0.0 and keeps every diagonal entry;
    G keeps its explicit zeros."""
    h = grid.h
    target = grid.interior_ids
    n_rows = len(target)
    stride = (1, grid.shape[0])
    nodes, coeffs = [], []  # one column per stencil entry, in row order
    diag = c_vals[target]
    for d in range(grid.dim):
        up = target + stride[d]
        dn = target - stride[d]
        app = a_vals[d, d, target]
        f_up = 0.5 * (app + a_vals[d, d, up])
        f_dn = 0.5 * (app + a_vals[d, d, dn])
        inv_h2 = 1.0 / (h[d] * h[d])
        diag = diag + (f_up + f_dn) * inv_h2
        bv = b_vals[d, target]
        bp = np.maximum(bv, 0.0)
        bm = np.minimum(bv, 0.0)
        diag = diag + (bp - bm) / h[d]
        nodes += [up, dn, dn, up]
        coeffs += [-f_up * inv_h2, -f_dn * inv_h2, -bp / h[d], bm / h[d]]
    if grid.dim == 2:
        scale = 1.0 / (4.0 * h[0] * h[1])
        for d1, d2 in ((0, 1), (1, 0)):
            for s2 in (1, -1):
                nbr2 = target + s2 * stride[d2]
                a_here = a_vals[d1, d2, nbr2]
                for s1 in (1, -1):
                    nodes.append(nbr2 + s1 * stride[d1])
                    coeffs.append(-s1 * s2 * a_here * scale)
    nodes.append(target)
    coeffs.append(diag)
    node = np.stack(nodes, axis=1)
    coeff = np.stack(coeffs, axis=1)
    col = grid.interior_pos[node]
    row = np.broadcast_to(np.arange(n_rows)[:, None], node.shape)
    nonzero = coeff != 0.0
    nonzero[:, -1] = True
    in_a = nonzero & (col >= 0)
    A = from_coo(n_rows, n_rows, row[in_a], col[in_a], coeff[in_a])
    zero = A.data == 0.0
    if zero.any():
        rows = row_ids(A)
        keep = ~zero | (A.indices == rows)
        A = from_coo(n_rows, n_rows, rows[keep], A.indices[keep], A.data[keep])
    in_g = nonzero & (col < 0)
    G = from_coo(
        n_rows, grid.n_boundary, row[in_g], grid.boundary_pos[node[in_g]], coeff[in_g]
    )
    return A, G


def reference_boundary_scan(asys, block):
    """The bnd extremes of oracle._scan_inverse by the sparse-product route:
    each column block's rows of G are sliced as a matrix, and the product
    G[c0:c1][:, cols].T @ x.T is added to each column's running sum."""
    a, g = asys.A, asys.G
    n, n_int, ns = a.shape[0], asys.grid.n_interior, asys.n_species
    n_bnd = asys.grid.n_boundary
    lu = LuFactor(a)
    bnd = {}
    last_row = np.full(g.shape[1], -1)
    np.maximum.at(last_row, g.indices, np.repeat(np.arange(n), np.diff(g.indptr)))
    open_cols = {j: np.zeros(n) for j in np.flatnonzero(last_row < 0)}
    for c0 in range(0, n, block):
        c1 = min(c0 + block, n)
        x = oracle._inverse_columns(lu, c0, c1)
        g_rows = g[c0:c1]
        cols = np.unique(g_rows.indices)
        for j, v in zip(cols, g_rows[:, cols].T @ x.T):
            open_cols[j] = open_cols.get(j, 0.0) + v
        for j in [j for j in open_cols if last_row[j] < c1]:
            col = -open_cols.pop(j).reshape(ns, n_int)
            l = int(j // n_bnd)
            for k in range(ns):
                for s, m in ((1, float(col[k].min())), (-1, -float(col[k].max()))):
                    bnd[k, l, s] = min(bnd.get((k, l, s), m), m)
    return bnd
