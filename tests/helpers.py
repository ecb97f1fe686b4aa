"""Small builders shared by the test modules."""

import scipy.sparse as sp

from elcomp.assembly import ScalarOperatorSpec, SystemSpec, as_discrete
from elcomp.expressions import const, parse_expr


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
