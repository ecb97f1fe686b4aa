"""Segment-averaged linearization of divergence-form quasilinear systems."""

import math

import numpy as np
import pytest

from elcomp.errors import (
    EvalDomainError,
    NonEllipticLinearization,
    ValidationError,
)
from elcomp.expressions import parse_expr
from elcomp.fields import block_from_exprs
from elcomp.mesh import build_grid
from elcomp.quasilinear import (
    QuasiSpec,
    _node_divergence,
    _node_gradient,
    check_thm8,
    from_linear_system,
    linearize,
)
from elcomp.settings import Settings

from helpers import laplace_system, op_of, system_of


def qspec(grid, flux, F, f=None, g=None):
    n = len(F)
    zero = ["0"] * n
    return QuasiSpec(
        grid,
        tuple(tuple(parse_expr(c) for c in row) for row in flux),
        tuple(parse_expr(e) for e in F),
        tuple(parse_expr(e) for e in (f or zero)),
        tuple(parse_expr(e) for e in (g or zero)),
    )


def const_fields(grid, values):
    return np.array([[v] * grid.n_nodes for v in values], dtype=float)


def grid1(n, length=1.0):
    return build_grid(1, (0.0,), (length,), (n,))


# ----------------------------------------------------------- node calculus


def test_node_gradient_exact_on_quadratics():
    grid = grid1(10)
    x = grid.coords[:, 0]
    g = _node_gradient(grid, x * x)
    assert np.allclose(g[0], 2.0 * x, atol=1e-12)


def test_node_gradient_2d():
    grid = build_grid(2, 0.0, 1.0, 6)
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    g = _node_gradient(grid, x * y)
    assert np.allclose(g[0], y, atol=1e-12)
    assert np.allclose(g[1], x, atol=1e-12)


def test_node_divergence_2d():
    grid = build_grid(2, 0.0, 1.0, 6)
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    div = _node_divergence(grid, np.stack([x * x, x * y]))
    assert np.allclose(div, 3.0 * x, atol=1e-12)


# ------------------------------------------------------- linear round trip


def test_linear_embedding_reproduces_coefficients():
    """A linear system embedded as a quasilinear one linearizes back to
    exactly its own sampled coefficients, for any pair of fields."""
    grid = grid1(16)
    ops = (op_of(1, a="1 + x", b=("x",), c="2"), op_of(1, c="-1"))
    spec = system_of(grid, ops, m=[["0", "-x"], ["0.5", "0"]])
    qs = from_linear_system(spec)
    u = block_from_exprs(grid, [parse_expr("sin(3 * x)"), parse_expr("x ^ 2")])
    v = block_from_exprs(grid, [parse_expr("0"), parse_expr("1 - x")])
    lin = linearize(qs, u, v)
    ds = lin.to_discrete()
    ds0 = spec.discretize()
    assert np.allclose(ds.a_vals, ds0.a_vals, atol=1e-12)
    assert np.allclose(ds.b_vals, ds0.b_vals, atol=1e-12)
    # reaction c folds into the diagonal coupling of the difference system
    m_expected = ds0.m_vals.copy()
    for l in range(2):
        m_expected[l, l] += ds0.c_vals[l]
    assert np.allclose(ds.m_vals, m_expected, atol=1e-12)
    assert np.allclose(ds.c_vals, 0.0)
    assert np.allclose(ds.f_vals, 0.0) and np.allclose(ds.g_vals, 0.0)


def test_linear_embedding_2d_cross_terms():
    grid = build_grid(2, 0.0, 1.0, 5)
    ops = (op_of(2, a=(("2", "0.3"), ("0.3", "1")), b=("y", "-x")),)
    spec = system_of(grid, ops)
    qs = from_linear_system(spec)
    zero = const_fields(grid, [0.0])
    lin = linearize(qs, zero, zero)
    ds0 = spec.discretize()
    assert np.allclose(lin.to_discrete().a_vals, ds0.a_vals, atol=1e-12)
    assert np.allclose(lin.to_discrete().b_vals, ds0.b_vals, atol=1e-12)


# -------------------------------------------------------------- jacobians


def test_segment_average_of_state_dependent_diffusion():
    """flux = (1 + u^2) p with u running 0 -> 1 averages to 4/3."""
    grid = grid1(8)
    qs = qspec(grid, [["(1 + u ^ 2) * p1"]], ["0"])
    lin = linearize(qs, const_fields(grid, [1.0]), const_fields(grid, [0.0]))
    assert np.allclose(lin.B[0, 0, 0], 4.0 / 3.0, rtol=1e-8)
    assert np.allclose(lin.B0[0, 0], 0.0, atol=1e-6)  # p = 0 on constants


def test_gradient_dependent_diffusion():
    """flux = p + p^3/3 linearizes to 1 + p^2; at slope 2 that is 5."""
    grid = grid1(10)
    qs = qspec(grid, [["p1 + p1 ^ 3 / 3"]], ["0"])
    u = block_from_exprs(grid, [parse_expr("2 * x")])
    lin = linearize(qs, u, u)
    assert np.allclose(lin.B[0, 0, 0], 5.0, rtol=1e-8)


def test_reaction_jacobian_segment_average():
    """F1 = u1 u2 with u = (1, 2), v = 0: dF1/du1 averages int 2s ds = 1,
    dF1/du2 averages int s ds = 1/2."""
    grid = grid1(8)
    qs = qspec(grid, [["p1"], ["p1"]], ["u1 * u2", "0.5 * u2 - 0.2 * u1"])
    lin = linearize(qs, const_fields(grid, [1.0, 2.0]), const_fields(grid, [0.0, 0.0]))
    assert np.allclose(lin.E[0, 0], 1.0, rtol=1e-8)
    assert np.allclose(lin.E[0, 1], 0.5, rtol=1e-8)
    assert np.allclose(lin.E[1, 0], -0.2, rtol=1e-8)
    assert np.allclose(lin.E[1, 1], 0.5, rtol=1e-8)


def test_gradient_reaction_enters_convection():
    """F depending on the own gradient contributes first-order terms."""
    grid = grid1(8)
    qs = qspec(grid, [["p1"]], ["3 * p1"])
    zero = const_fields(grid, [0.0])
    lin = linearize(qs, zero, zero)
    assert np.allclose(lin.H[0, 0], 3.0, rtol=1e-8)
    ds = lin.to_discrete()
    assert np.allclose(ds.b_vals[0, 0], 3.0, rtol=1e-8)


def test_non_elliptic_linearization_raises():
    grid = grid1(8)
    qs = qspec(grid, [["(1 - u ^ 2) * p1"]], ["0"])
    with pytest.raises(NonEllipticLinearization) as info:
        linearize(qs, const_fields(grid, [2.0]), const_fields(grid, [0.0]))
    assert "species 1" in str(info.value)


def test_eval_domain_guard():
    grid = grid1(8)
    qs = qspec(grid, [["sqrt(u) * p1"]], ["0"])
    zero = const_fields(grid, [0.0])
    with pytest.raises(EvalDomainError):
        linearize(qs, zero, zero)


def test_slopes_are_exact_where_central_differences_left_the_domain():
    """F1 = sqrt(u1) with u1 running 1e-8 -> 2e-8: dF1/du1 averages
    int 0.5 / sqrt(1e-8 (1 + s)) ds = 1e4 (sqrt 2 - 1), about 4.14e3, and
    the 5-point Gauss rule of that integral to rounding.  A central
    difference with step 1e-6 stepped below 0 there."""
    grid = grid1(8)
    qs = qspec(grid, [["p1"]], ["sqrt(u1)"])
    lin = linearize(qs, const_fields(grid, [2e-8]), const_fields(grid, [1e-8]))
    assert np.all(np.isfinite(lin.E))
    xs, ws = np.polynomial.legendre.leggauss(5)
    rule = sum(0.25 * w / math.sqrt(1e-8 * (1.5 + 0.5 * x)) for x, w in zip(xs, ws))
    assert np.allclose(lin.E[0, 0], rule, rtol=1e-13, atol=0)
    assert rule == pytest.approx(1e4 * (math.sqrt(2.0) - 1.0), rel=1e-8)
    # the flux p1 has slope exactly 1 at each Gauss point, so B is the sum
    # of the weights to the last bit
    weights = 0.0
    for w in 0.5 * ws:
        weights += w
    assert np.all(lin.B[0, 0, 0] == weights)


def test_eval_domain_error_names_the_node_and_gauss_point():
    """sqrt(u1) has an infinite slope where u1 = 0; the error carries
    that node's coordinates and the Gauss point it was met at."""
    grid = grid1(8)
    qs = qspec(grid, [["p1"]], ["sqrt(u1)"])
    u = block_from_exprs(grid, [parse_expr("abs(x - 0.5)")])
    with pytest.raises(EvalDomainError) as info:
        linearize(qs, u, u)
    assert info.value.point == (0.5,)
    assert "F1 at s=0.046910" in str(info.value)


# ------------------------------------------------------------- validation


def test_validate_variable_scopes():
    grid = grid1(8)
    with pytest.raises(ValidationError):
        qspec(grid, [["u2 * p1"]], ["0"]).validate()  # flux sees only own u
    with pytest.raises(ValidationError):
        qspec(grid, [["p2"]], ["0"]).validate()  # no p2 in 1d
    with pytest.raises(ValidationError):
        qspec(grid, [["p1"]], ["u1"], f=["u1"]).validate()  # data is x only
    qs = qspec(grid, [["p1"], ["p1"]], ["u1 * u2", "0"])
    qs.validate()


def test_field_shape_checks():
    grid = grid1(8)
    qs = qspec(grid, [["p1"]], ["0"])
    with pytest.raises(ValidationError):
        linearize(qs, np.zeros((2, grid.n_nodes)), np.zeros((2, grid.n_nodes)))
    other = block_from_exprs(grid1(9), [parse_expr("0")])
    with pytest.raises(ValidationError):
        linearize(qs, other, other)


# ---------------------------------------------------------------- theorem 8


def test_thm8_transfers_positive_certificate():
    grid = grid1(32)
    qs = qspec(
        grid,
        [["(1 + u ^ 2) * p1"], ["p1"]],
        ["u1 * u2", "0.5 * u2 - 0.2 * u1"],
    )
    pi = math.pi
    sub = block_from_exprs(
        grid, [parse_expr(f"0.05 * sin({pi} * x)"), parse_expr("0.05 * x * (1 - x)")]
    )
    sup = block_from_exprs(
        grid,
        [
            parse_expr("0.1 + 0.2 * x * (1 - x)"),
            parse_expr(f"0.15 + 0.05 * sin({pi} * x)"),
        ],
    )
    v = check_thm8(qs, sub, sup)
    assert v.kind == "HoldsThm5"
    assert v.theorem == "Theorem 8 (via Theorem 5)"
    assert any("segment-averaged linearization" in note for note in v.notes)
    assert v.structure.kind == "TriangularMinus"
    assert v.oracle is not None


def test_thm8_failure_downgrades_to_inconclusive():
    """A refuted frozen-coefficient system says nothing about the pair."""
    grid = grid1(48, math.pi)
    spec = laplace_system(grid, n_species=2, m=[["-2", "0"], ["-1", "0"]])
    qs = from_linear_system(spec)
    zero = const_fields(grid, [0.0, 0.0])
    one = const_fields(grid, [1.0, 1.0])
    v = check_thm8(qs, one, zero)
    assert v.kind == "Inconclusive"
    assert v.theorem == "Theorem 8"
    assert v.counterexample is None
    (note,) = [note for note in v.notes if "FailsThm6" in note]
    # the linear Fails agreed with its oracle, but claims nothing on the pair
    assert v.oracle is not None and not v.oracle.inverse_positive
    assert v.order is None
    assert v.cross_check == {"result": "skipped", "reason": note}


def test_thm8_inconclusive_linear_system_stays_inconclusive():
    grid = grid1(16)
    m = [["0", "-1", "0"], ["-1", "0", "0.5"], ["-1", "0", "0"]]
    spec = laplace_system(grid, n_species=3, m=m)
    qs = from_linear_system(spec)
    zero = const_fields(grid, [0.0, 0.0, 0.0])
    v = check_thm8(qs, zero, zero, Settings(with_oracle=False))
    assert v.kind == "Inconclusive"
    assert v.theorem == "Theorem 8"


def test_thm8_certificate_matches_linear_route():
    """Embedding a certifiable linear system keeps the verdict and the
    eigenvalues within the enclosure tolerance."""
    grid = grid1(24)
    spec = laplace_system(grid, n_species=2, m=[["0", "0.5"], ["-0.5", "0"]])
    from elcomp.certify import certify

    direct = certify(spec, Settings(with_oracle=False))
    qs = from_linear_system(spec)
    zero = const_fields(grid, [0.0, 0.0])
    via = check_thm8(qs, zero, zero, Settings(with_oracle=False))
    assert direct.kind == via.kind == "HoldsThm5"
    for key, pair in direct.eigen.items():
        assert via.eigen[key].value == pytest.approx(pair.value, abs=1e-8)
    assert via.epsilon == pytest.approx(direct.epsilon, abs=1e-8)
