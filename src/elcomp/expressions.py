"""Closed arithmetic expression language for coefficient fields.

Grammar (precedence low to high, ^ binds tightest and is right associative):

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' sum (',' sum)* ')' | '(' sum ')'

Variables are bare identifiers; which names are legal is decided by the
caller at validation time, not by the parser.  The function set is closed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ParseError, ValidationError

# name -> (numpy function, slope); slope(value, *args, *arg_slopes) is the
# chain rule's slope of the value from its arguments' values and slopes
_FUNCS = {
    "sin": (np.sin, lambda v, a, da: np.cos(a) * da),
    "cos": (np.cos, lambda v, a, da: -np.sin(a) * da),
    "exp": (np.exp, lambda v, a, da: v * da),
    "log": (np.log, lambda v, a, da: da / a),
    "sqrt": (np.sqrt, lambda v, a, da: 0.5 * da / v),
    "abs": (np.abs, lambda v, a, da: np.sign(a) * da),
    "tanh": (np.tanh, lambda v, a, da: (1.0 - v * v) * da),
    "min": (np.minimum, lambda v, a, b, da, db: np.where(a <= b, da, db)),
    "max": (np.maximum, lambda v, a, b, da, db: np.where(a >= b, da, db)),
}

FUNCTIONS = {name: fn.nin for name, (fn, _) in _FUNCS.items()}  # name -> arity


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------- tokenizer

_TOKEN_CHARS = set("+-*/^(),")


def _tokenize(src: str):
    """Return a list of (kind, text, offset) plus a trailing ('end', '', len)."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and src[i + 1].isdecimal()):
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdecimal():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdecimal():
                    j = k
                    while j < n and src[j].isdecimal():
                        j += 1
            tokens.append(("number", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        tokens.append(("error", ch, i))
        i += 1
    tokens.append(("end", "", n))
    return tokens


_ATOM_START = ("'('", "'-'", "identifier", "number")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        what = repr(text) if text else "end of input"
        raise ParseError(f"unexpected {what}", offset=offset, expected=expected)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail((f"'{kind}'",))
        return self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        if self.peek()[0] != "end":
            self.fail(("'end of input'",))
        return e

    def sum(self) -> Expr:
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            left = BinOp(op, left, self.unary())
        return left

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent re-enters at unary so x^-2 and x^2^3 work
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "number":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[0] != "(":
                return Var(text)
            if text not in FUNCTIONS:
                raise ParseError(
                    f"unknown function {text!r}",
                    offset=offset,
                    expected=tuple(sorted(FUNCTIONS)),
                )
            self.advance()
            args = [self.sum()]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.sum())
            close_kind, _, close_off = self.peek()
            if close_kind != ")":
                self.fail(("')'", "','"))
            self.advance()
            if len(args) != FUNCTIONS[text]:
                raise ParseError(
                    f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                    offset=close_off,
                    expected=(),
                )
            return Call(text, tuple(args))
        if kind == "(":
            self.advance()
            e = self.sum()
            self.expect(")")
            return e
        self.fail(_ATOM_START)


def parse_expr(src: str) -> Expr:
    """Parse a coefficient expression, raising ParseError with byte offset."""
    return _Parser(src).parse()


# ------------------------------------------------------------ pretty printer

_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_SUM
        if e.op in "*/":
            return _LEVEL_TERM
        return _LEVEL_POWER
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    s = expr_to_str(e)
    return f"({s})" if _level(e) < minimum else s


def expr_to_str(e: Expr) -> str:
    """Print with minimal parentheses; parse(expr_to_str(t)) == t structurally."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_UNARY)
    if isinstance(e, Call):
        return f"{e.name}({', '.join(expr_to_str(a) for a in e.args)})"
    if e.op in "+-":
        # left associative: right child at same level needs parentheses
        left = _wrap(e.left, _LEVEL_SUM)
        right = _wrap(e.right, _LEVEL_SUM + 1)
        return f"{left} {e.op} {right}"
    if e.op in "*/":
        left = _wrap(e.left, _LEVEL_TERM)
        right = _wrap(e.right, _LEVEL_TERM + 1)
        return f"{left} {e.op} {right}"
    # ^ is right associative and binds above unary minus
    left = _wrap(e.left, _LEVEL_ATOM)
    right = _wrap(e.right, _LEVEL_UNARY)
    return f"{left}^{right}"


# ----------------------------------------------------------------- evaluator

def _power_slope(v, a, b, da, db):
    """Slope of a^b; the log term enters only where b's slope is nonzero,
    so a constant exponent never takes the log of its base."""
    return b * a ** (b - 1.0) * da + np.where(db != 0, v * np.log(a) * db, 0.0)


_BINOPS = {
    "+": (np.add, lambda v, a, b, da, db: da + db),
    "-": (np.subtract, lambda v, a, b, da, db: da - db),
    "*": (np.multiply, lambda v, a, b, da, db: da * b + a * db),
    "/": (np.divide, lambda v, a, b, da, db: (da - v * db) / b),
    "^": (np.power, _power_slope),
}

COORDS = ("x", "y")  # coordinate names; a dim-D grid uses the first dim


def _walk(e: Expr, env: dict, var, bad: np.ndarray):
    """(value, slope in var) of e over the node arrays in env, by forward
    mode; the slope is None where e does not depend on var.  Sets bad
    wherever this value or slope, or any computed on the way, is not finite."""
    if isinstance(e, Num):
        out, slope = e.value, None
    elif isinstance(e, Var):
        try:
            out = env[e.name]
        except KeyError:
            raise EvalDomainError(f"unbound variable {e.name!r}") from None
        slope = 1.0 if e.name == var else None
    elif isinstance(e, Neg):
        arg, d = _walk(e.arg, env, var, bad)
        out, slope = -arg, None if d is None else -d
    else:
        if isinstance(e, Call):
            (fn, rule), children = _FUNCS[e.name], e.args
        else:
            (fn, rule), children = _BINOPS[e.op], (e.left, e.right)
        args, ds = zip(*[_walk(c, env, var, bad) for c in children])
        out = fn(*args)
        slope = None
        if any(d is not None for d in ds):
            slope = rule(out, *args, *(0.0 if d is None else d for d in ds))
            bad |= ~np.isfinite(slope)
    bad |= ~np.isfinite(out)
    return out, slope


def evaluate(e: Expr, env: dict, n: int):
    """(values, bad) of e at n nodes whose variables are the arrays in env.

    bad flags every node where a value anywhere in the evaluation is
    non-finite, so min(1, 1 / x) is flagged where x = 0.
    """
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        out, _ = _walk(e, env, None, bad)
    vals = np.empty(n)
    vals[...] = out
    return vals, bad


def derivative(e: Expr, env: dict, var: str, n: int):
    """(slope, bad) of e in the variable var at n nodes, exact up to rounding.

    Forward mode over the same walk as evaluate: sum, product, quotient and
    chain rules, and for a^b the log term only where b depends on var.
    abs has slope sign(a), 0 at 0; min and max take the slope of the
    argument whose value they return, the first one at a tie.  bad flags
    every node where a value or a slope anywhere on the way is non-finite,
    so sqrt(u) is flagged in u where u = 0.
    """
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        _, d = _walk(e, env, var, bad)
    slope = np.zeros(n)
    if d is not None:
        slope[...] = d
    return slope, bad


def eval_expr(e: Expr, point) -> float:
    """Evaluate at a point (tuple of coordinates, or a name->value mapping)."""
    if not isinstance(point, dict):
        point = dict(zip(COORDS, point))
    env = {name: np.array([float(v)]) for name, v in point.items()}
    vals, bad = evaluate(e, env, 1)
    if bad[0]:
        raise EvalDomainError(
            f"non-finite value in {expr_to_str(e)}", point=tuple(point.values())
        )
    return float(vals[0])


def variables_of(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables_of(e.arg)
    if isinstance(e, BinOp):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Call):
        out = frozenset()
        for a in e.args:
            out |= variables_of(a)
        return out
    return frozenset()


def validate_variables(e: Expr, allowed, context="expression") -> None:
    extra = variables_of(e) - frozenset(allowed)
    if extra:
        raise ValidationError(
            f"{context} uses variables {sorted(extra)}; allowed: {sorted(allowed)}"
        )


def sample_field(e: Expr, grid):
    """Evaluate at every grid node in canonical order; returns a float array.

    Raises EvalDomainError at the first node, in canonical order, where the
    value or an intermediate value is non-finite.
    """
    env = {name: grid.coords[:, d] for d, name in enumerate(COORDS[: grid.dim])}
    vals, bad = evaluate(e, env, grid.n_nodes)
    if bad.any():
        node = int(np.argmax(bad))
        raise EvalDomainError(
            f"non-finite value in {expr_to_str(e)}", point=grid.node_coord(node)
        )
    return vals


def const(v: float) -> Expr:
    return Num(float(v))
