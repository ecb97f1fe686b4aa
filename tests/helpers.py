"""Small builders shared by the test modules."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from elcomp.assembly import ScalarOperatorSpec, SystemSpec, as_discrete
from elcomp.errors import DimMismatch, NoConvergence
from elcomp.expressions import const, parse_expr
from elcomp.linalg import from_coo, inf_norm, row_ids, shifted


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


def system_text(shape, species, coupling=None):
    """Problem text on the unit box with shape cells per axis (1D for one
    entry); species and coupling map coefficient keys (a11, a12, b1, c, f,
    m12, ...) to expression strings."""
    dim = len(shape)
    lines = [
        "[domain]",
        f"dim = {dim}",
        "lo = " + " ".join(["0"] * dim),
        "hi = " + " ".join(["1"] * dim),
        "n = " + " ".join(str(n) for n in shape),
    ]
    for k, keys in enumerate(species, 1):
        lines += [f"[species {k}]"] + [f"{key} = {val}" for key, val in keys.items()]
    if coupling:
        lines += ["[coupling]"] + [f"{key} = {val}" for key, val in coupling.items()]
    return "\n".join(lines) + "\n"


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


@dataclass
class PowerResult:
    rho: float
    vector: np.ndarray
    cw: tuple
    iterations: int
    history: list | None = None

    def __iter__(self):
        # unpacks as (rho, vector, cw)
        return iter((self.rho, self.vector, self.cw))


def _collatz_power(b, width_target, max_iter, collect_history=False):
    """Perron-root loop with certified Collatz-Wielandt enclosures.

    Iterates with b + t*I (t = max row sum) so the iteration is primitive and
    the negative tail of the shifted spectrum cannot stall convergence; the
    ratio bounds for b itself are recovered exactly by subtracting t.
    Enclosures are intersected across iterates, so widths never increase.
    A negative entry, or an iterate that leaves the positive cone, is a
    ValueError.

    width_target(rho_estimate) -> admissible enclosure width.
    """
    n = b.shape[0]
    if b.shape[0] != b.shape[1]:
        raise DimMismatch(f"power iteration needs a square matrix, got {b.shape}")
    if b.nnz and float(b.data.min()) < 0.0:
        raise ValueError("matrix has a negative entry")
    t = max(inf_norm(b), 1.0)
    bt = shifted(b, -t)
    v = np.ones(n)
    lo, hi = -np.inf, np.inf
    history = [] if collect_history else None
    last_width = np.inf
    for it in range(1, max_iter + 1):
        w = bt @ v
        ratios = w / v - t
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        bv = w - t * v
        rho = float(v @ bv) / float(v @ v)
        rho = min(max(rho, lo), hi)
        width = hi - lo
        if history is not None:
            history.append((lo, hi))
        if width <= width_target(rho):
            return PowerResult(rho, v.copy(), (lo, hi), it, history)
        mx = float(w.max())
        if mx <= 0.0:
            raise ValueError("iteration left the positive cone")
        v = w / mx
        last_width = width
    raise NoConvergence(
        f"enclosure width {last_width:.3e} after {max_iter} iterations",
        iterations=max_iter,
        width=last_width,
    )


def power_iteration(b, tol=1e-9, max_iter=200000, collect_history=False):
    """Perron root of a nonnegative irreducible matrix with enclosure: the
    reference that the Noda iteration is checked against.

    Deterministic all-ones start.  Converged when the Collatz-Wielandt
    enclosure width drops to tol * (1 + rho).
    """
    return _collatz_power(b, lambda rho: tol * (1.0 + abs(rho)), max_iter, collect_history)


def rounding_bound(a, x):
    """delta of a Noda enclosure at x: the ratios' rounding bound
    max_i [gamma_(k+1) (|A| x)_i / x_i + u |ratio_i|], k the largest row nnz,
    with (|A| x)_i / x_i bounded from the ratios as
    linalg._NodaIterate.enclose does."""
    u = np.finfo(float).eps / 2
    k = int(a.getnnz(axis=1).max())
    ratios = (a @ x) / x
    g = ((k + 1) * u / (1 - (k + 1) * u)) / (1 - k * u / (1 - k * u) - 3 * u / (1 - 3 * u))
    twice_diag = 2.0 * np.maximum(a.diagonal(), 0.0)
    return float((g * (twice_diag - ratios) + u * np.abs(ratios)).max())


def assert_proven(asys, cex, gauge=None):
    """cex proves that comparison fails on D A D, D = diag(sigma) for the
    gauge sigma (all +1 when None): verified, boundary data <= 0, w > 0
    somewhere, and every row of D A D v + D G D_b g, recomputed in exact
    rational arithmetic from the stored floats, at most residual_max, which
    is <= 0."""
    signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
    d = np.repeat(signs, asys.grid.n_interior)
    d_bnd = np.repeat(signs, asys.grid.n_boundary)
    v, g = cex.w.interior.ravel(), cex.w.boundary.ravel()
    assert cex.verified and cex.residual_max <= 0.0
    assert v.max() > 0.0 and (g <= 0.0).all()
    rows = [Fraction(0)] * v.size
    for m, x, dx in ((asys.A, v, d), (asys.G, g, d_bnd)):
        m = m.tocoo()
        for i, j, a in zip(m.row, m.col, m.data):
            rows[i] += Fraction(float(d[i] * a)) * Fraction(float(dx[j] * x[j]))
    assert max(rows) <= Fraction(cex.residual_max)


def assert_report_views(report):
    """lambda, lambdas and cw of a verdict report are views of its eigen
    record: each solve's value, and the headline solve's value and
    enclosure ("system", else the failing species j, else the least
    value); the per-key enclosures are eigen's alone."""
    eigen = report["eigen"]
    assert "cws" not in report
    assert report["lambdas"] == {key: e["value"] for key, e in eigen.items()}
    if not eigen:
        assert report["lambda"] is None and report["cw"] is None
        return
    if "system" in eigen:
        headline = "system"
    elif f"j={report['j']}" in eigen:
        headline = f"j={report['j']}"
    else:
        headline = min(eigen, key=lambda key: eigen[key]["value"])
    assert report["lambda"] == eigen[headline]["value"]
    assert report["cw"] == eigen[headline]["cw"]
    lo, hi = report["cw"]
    assert lo <= report["lambda"] <= hi
