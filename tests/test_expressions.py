"""Expression parser, evaluator, and grid sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elcomp.errors import EvalDomainError, ParseError, ValidationError
from elcomp.expressions import (
    FUNCTIONS,
    eval_expr,
    expr_to_str,
    parse_expr,
    sample_field,
    validate_variables,
    variables_of,
)
from elcomp.mesh import build_grid


def test_precedence_and_power():
    e = parse_expr("2 + 3 * 4 ^ 2")
    assert eval_expr(e, {}) == 2 + 3 * 16
    # power binds right: 2^3^2 = 2^9
    assert eval_expr(parse_expr("2 ^ 3 ^ 2"), {}) == 512.0


def test_unary_minus_and_parens():
    assert eval_expr(parse_expr("-(x + 1) * 2"), {"x": 3.0}) == -8.0
    assert eval_expr(parse_expr("--4"), {}) == 4.0


def test_functions():
    env = {"x": 0.5}
    assert eval_expr(parse_expr("sin(x)"), env) == pytest.approx(math.sin(0.5))
    assert eval_expr(parse_expr("max(x, 1 - x)"), env) == 0.5
    assert eval_expr(parse_expr("min(2, exp(x))"), env) == pytest.approx(
        math.exp(0.5)
    )


def test_arities_come_from_the_function_table():
    """The parser's arity table is read off the numpy functions that
    evaluate each name."""
    unary = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")
    assert FUNCTIONS == {**dict.fromkeys(unary, 1), "min": 2, "max": 2}
    with pytest.raises(ParseError, match="min takes 2 argument"):
        parse_expr("min(x)")
    with pytest.raises(ParseError, match="sqrt takes 1 argument"):
        parse_expr("sqrt(x, 1)")


def test_tuple_point_binds_x_then_y():
    e = parse_expr("x + 10 * y")
    assert eval_expr(e, (2.0, 3.0)) == 32.0
    assert eval_expr(parse_expr("x"), (7.0,)) == 7.0


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + * 2")
    assert info.value.offset is not None
    with pytest.raises(ParseError):
        parse_expr("sin(x")
    with pytest.raises(ParseError):
        parse_expr("foo(x)")
    with pytest.raises(ParseError):
        parse_expr("min(x)")  # arity


def test_non_decimal_digits_are_parse_errors():
    # str.isdigit() is true for superscripts, which float() rejects
    with pytest.raises(ParseError) as info:
        parse_expr("2 + \u00b3")
    assert info.value.offset == 4
    assert info.value.message == "unexpected '\u00b3'"
    with pytest.raises(ParseError) as info:
        parse_expr("2\u00b2")
    assert info.value.offset == 1
    assert parse_expr("1.5e-3 + .5") == parse_expr("0.0015 + 0.5")


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("log(x)"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("sqrt(x - 2)"), {"x": 1.0})
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("1 / x"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("(-1) ^ 0.5"), {})


def test_unknown_variable_rejected():
    e = parse_expr("x + z")
    assert variables_of(e) == {"x", "z"}
    with pytest.raises(ValidationError):
        validate_variables(e, {"x", "y"}, "coefficient a11")


def test_sample_field_matches_pointwise_eval():
    grid = build_grid(2, (0.0, -1.0), (2.0, 1.0), (5, 4))
    e = parse_expr("sin(x) * y + x ^ 2")
    vals = sample_field(e, grid)
    for node in range(grid.n_nodes):
        x, y = grid.node_coord(node)
        assert vals[node] == eval_expr(e, (x, y))


def test_sample_field_reports_bad_node():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    with pytest.raises(EvalDomainError) as info:
        sample_field(parse_expr("log(x - 0.5)"), grid)
    assert info.value.point == (0.0,)
    # the result is finite everywhere; only the intermediate 1 / x is not
    with pytest.raises(EvalDomainError) as info:
        sample_field(parse_expr("min(1, 1 / x)"), grid)
    assert info.value.point == (0.0,)
    grid2 = build_grid(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    with pytest.raises(EvalDomainError) as info:
        sample_field(parse_expr("max(0, 1 / (x - 0.5)) + y"), grid2)
    assert info.value.point == (0.5, 0.0)


_atoms = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["x", "y"]),
)


@st.composite
def _expr_text(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_atoms)
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(_expr_text(depth + 1))
    right = draw(_expr_text(depth + 1))
    if draw(st.booleans()):
        return f"({left}) {op} {right}"
    return f"{left} {op} ({right})"


@given(_expr_text())
@settings(max_examples=150, deadline=None)
def test_round_trip_through_printer(text):
    """parse -> print -> parse preserves values at a probe point."""
    e = parse_expr(text)
    e2 = parse_expr(expr_to_str(e))
    env = {"x": 0.73, "y": -1.21}
    assert eval_expr(e2, env) == pytest.approx(eval_expr(e, env), rel=0, abs=0)
