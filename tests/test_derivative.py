"""Forward-mode slopes of coefficient expressions against mpmath.

expressions.derivative is compared with mpmath.diff at 40 significant
digits on random expression trees over every function and operator.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from elcomp.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    derivative,
    evaluate,
    parse_expr,
)

mpmath = pytest.importorskip("mpmath")

VARS = ("u", "p1")
TOL = 1e-10  # of max(1, |reference|)
KINK = 1e-6  # draws this close to a point where e is not smooth are skipped

_MP_FUNCS = {
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "exp": mpmath.exp,
    "log": mpmath.log,
    "sqrt": mpmath.sqrt,
    "abs": mpmath.fabs,
    "tanh": mpmath.tanh,
    "min": min,
    "max": max,
}
_MP_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a**b,
}


def _mp_eval(e, env, edges):
    """e in mpmath over env; appends to edges the distance of each
    argument from the nearest point where e is not smooth: the kinks of
    abs, min and max, and the poles and branch points of /, log, sqrt and
    a power's base."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_mp_eval(e.arg, env, edges)
    if isinstance(e, Call):
        args = [_mp_eval(a, env, edges) for a in e.args]
        if len(args) == 2:
            edges.append(abs(args[0] - args[1]))
        elif e.name in ("abs", "log", "sqrt"):
            edges.append(abs(args[0]))
        return _MP_FUNCS[e.name](*args)
    a, b = _mp_eval(e.left, env, edges), _mp_eval(e.right, env, edges)
    if e.op == "/":
        edges.append(abs(b))
    elif e.op == "^":
        edges.append(abs(a))
    return _MP_OPS[e.op](a, b)


_leaves = st.one_of(
    st.sampled_from([Var(v) for v in VARS]),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(Num),
)


def _extend(children):
    unary = sorted(name for name, arity in FUNCTIONS.items() if arity == 1)
    binary = sorted(name for name, arity in FUNCTIONS.items() if arity == 2)
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(unary), children),
        st.builds(
            lambda name, a, b: Call(name, (a, b)),
            st.sampled_from(binary),
            children,
            children,
        ),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=8)
_points = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


# central differences with step 1e-6 (1 + |u|) are off here by 6.8e-10 of
# max(1, |reference|), seven times the tolerance
@example(parse_expr("sin(u)*exp(p1) - log(2 + u)/sqrt(3 + p1^2)"), 1.5, 4.5, "u")
@given(_trees, _points, _points, st.sampled_from(VARS))
@seed(20070)
@settings(max_examples=400, deadline=None, database=None)
def test_derivative_matches_mpmath(e, u, p1, var):
    mpmath.mp.dps = 40
    point = {"u": mpmath.mpf(u), "p1": mpmath.mpf(p1)}
    edges = []
    try:
        _mp_eval(e, point, edges)

        def along(t):
            return _mp_eval(e, {**point, var: t}, [])

        ref = mpmath.diff(along, point[var])
    except (ZeroDivisionError, ValueError, OverflowError, TypeError):
        return  # undefined, or complex where min or max compares
    if not isinstance(ref, mpmath.mpf) or not mpmath.isfinite(ref):
        return  # complex or infinite: outside the real domain
    if edges and min(edges) < KINK:
        return
    ref = float(ref)
    env = {"u": np.array([u]), "p1": np.array([p1])}
    _, value_bad = evaluate(e, env, 1)
    if value_bad[0] or not math.isfinite(ref):
        return  # a value overflows float64 where mpmath's exponent does not
    slope, bad = derivative(e, env, var, 1)
    assert not bad[0]
    assert abs(slope[0] - ref) <= TOL * max(1.0, abs(ref))


def test_slopes_are_exact_on_linear_and_polynomial_terms():
    env = {"u": np.array([0.0, 1.5, -2.0]), "p1": np.array([3.0, 0.1, -7.0])}
    slope, bad = derivative(parse_expr("(1 + u^2) * p1"), env, "p1", 3)
    assert not bad.any() and slope.tolist() == [1.0, 3.25, 5.0]
    slope, _ = derivative(parse_expr("(1 + u^2) * p1"), env, "u", 3)
    assert slope.tolist() == [0.0, 0.30000000000000004, 28.0]
    slope, _ = derivative(parse_expr("p1"), env, "p1", 3)
    assert slope.tolist() == [1.0, 1.0, 1.0]
    slope, _ = derivative(parse_expr("sin(u)"), env, "p1", 3)
    assert slope.tolist() == [0.0, 0.0, 0.0]


def test_kinks_take_the_stated_one_sided_slope():
    env = {"u": np.array([-1.0, 0.0, 1.0])}
    slope, bad = derivative(parse_expr("abs(u)"), env, "u", 3)
    assert not bad.any() and slope.tolist() == [-1.0, 0.0, 1.0]
    # at a tie min and max take their first argument's slope
    slope, _ = derivative(parse_expr("min(2 * u, 0)"), env, "u", 3)
    assert slope.tolist() == [2.0, 2.0, 0.0]
    slope, _ = derivative(parse_expr("max(0, 2 * u)"), env, "u", 3)
    assert slope.tolist() == [0.0, 0.0, 2.0]


def test_power_takes_the_log_only_where_the_exponent_moves():
    env = {"u": np.array([-2.0, 0.0, 3.0])}
    # a constant exponent never takes the log of a negative or zero base
    slope, bad = derivative(parse_expr("u^3"), env, "u", 3)
    assert not bad.any() and slope.tolist() == [12.0, 0.0, 27.0]
    slope, bad = derivative(parse_expr("2^u"), env, "u", 3)
    assert not bad.any()
    assert np.allclose(slope, np.log(2.0) * 2.0 ** env["u"], rtol=1e-15)


def test_bad_nodes_include_slopes():
    env = {"u": np.array([0.0, 1e-8, 4.0]), "p1": np.array([1.0, 1.0, 1.0])}
    slope, bad = derivative(parse_expr("sqrt(u)"), env, "u", 3)
    # the value sqrt(0) is finite; its slope is not
    assert bad.tolist() == [True, False, False]
    assert slope[1] == pytest.approx(5000.0, rel=1e-12) and slope[2] == 0.25
    # a slope that does not depend on var stays finite
    slope, bad = derivative(parse_expr("sqrt(u) * p1"), env, "p1", 3)
    assert not bad.any() and slope[0] == 0.0
