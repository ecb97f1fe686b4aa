"""Small builders shared by the test modules."""

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
