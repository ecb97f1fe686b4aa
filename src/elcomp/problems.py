"""Line-oriented problem files.

Sections in square brackets, `key = value` lines, `#` comments to the end
of a line:

    [domain]            dim, lo, hi, n (one value per axis)
    [species k]         a11..a22, b1, b2, c, f, g (expressions, defaults:
                        identity diffusion, everything else 0)
    [coupling]          mKL = expression (default 0)
    [quasilinear]       fluxK_I, FK (expressions; their Jacobians are
                        derived from them, and no other key is accepted)

With a [quasilinear] section the species sections may only carry data
(f, g) and [coupling] is not allowed; the result is a QuasiSpec.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .assembly import ScalarOperatorSpec, SystemSpec
from .errors import ParseError, ValidationError
from .expressions import const, parse_expr
from .fields import read_text
from .mesh import build_grid
from .quasilinear import QuasiSpec

_SECTION_RE = re.compile(r"^\[\s*([a-z]+)(?:\s+(\d+))?\s*\]$")
_COUPLING_RE = re.compile(r"^m(\d)(\d)$|^m(\d+)_(\d+)$")
_FLUX_RE = re.compile(r"^flux(\d+)_(\d+)$")
_REACTION_RE = re.compile(r"^F(\d+)$")


class _Value(NamedTuple):
    """A key's value text, its file line and the column where it starts."""

    text: str
    line: int
    column: int


def _split_sections(lines):
    """[(name, index, lineno, {key: _Value})] in file order."""
    sections = []
    current = None
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ParseError(f"malformed section header {line!r}", line=lineno)
            name = m.group(1)
            index = int(m.group(2)) if m.group(2) else None
            if name == "species" and index is None:
                raise ParseError("species section needs an index", line=lineno)
            if name != "species" and index is not None:
                raise ParseError(f"section [{name}] takes no index", line=lineno)
            for prev_name, prev_index, _, _ in sections:
                if (prev_name, prev_index) == (name, index):
                    raise ParseError(f"duplicate section {line!r}", line=lineno)
            current = (name, index, lineno, {})
            sections.append(current)
            continue
        if current is None:
            raise ParseError("key line before any section header", line=lineno)
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        key, _, rest = code.partition("=")
        key = key.strip()
        value = rest.strip()
        if not key or not value:
            raise ParseError(f"expected key = value, got {line!r}", line=lineno)
        if key in current[3]:
            raise ParseError(f"duplicate key {key!r} in section", line=lineno)
        column = len(code) - len(rest.lstrip())
        current[3][key] = _Value(value, lineno, column)
    return sections


def _expr(value: _Value, key: str):
    """The expression of a value; a syntax error's offset is its column in
    the file line."""
    try:
        return parse_expr(value.text)
    except ParseError as err:
        offset = None if err.offset is None else value.column + err.offset
        raise ParseError(
            f"{key}: {err.message}", offset=offset, expected=err.expected,
            line=value.line,
        ) from err


def _numbers(value: _Value, key: str, count: int, kind):
    """count values of kind (int or float), split on commas and blanks."""
    parts = value.text.replace(",", " ").split()
    try:
        out = tuple(kind(p) for p in parts)
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        text = f"{key}: expected {noun}, got {value.text!r}"
        raise ParseError(text, line=value.line) from None
    if len(out) != count:
        raise ParseError(f"{key}: expected {count} value(s)", line=value.line)
    return out


def _build_domain(keys):
    for required in ("dim", "lo", "hi", "n"):
        if required not in keys:
            raise ValidationError(f"[domain] is missing {required!r}")
    dim = _numbers(keys["dim"], "dim", 1, int)[0]
    if dim not in (1, 2):
        raise ValidationError(f"dim must be 1 or 2, got {dim}")
    lo = _numbers(keys["lo"], "lo", dim, float)
    hi = _numbers(keys["hi"], "hi", dim, float)
    n = _numbers(keys["n"], "n", dim, int)
    unknown = set(keys) - {"dim", "lo", "hi", "n"}
    if unknown:
        raise ValidationError(f"[domain] has unknown key(s) {sorted(unknown)}")
    return build_grid(dim, lo, hi, n)


def _species_operator(keys, dim: int, k: int):
    axes = range(1, dim + 1)
    allowed = {f"a{i}{j}" for i in axes for j in axes} | {f"b{i}" for i in axes}
    unknown = set(keys) - (allowed | {"c", "f", "g"})
    if unknown:
        raise ValidationError(
            f"[species {k}] has unknown key(s) {sorted(unknown)} for dim {dim}"
        )

    def read(key, default=0.0):  # in the format's key order, which picks the first error
        return _expr(keys[key], key) if key in keys else const(default)

    a = tuple(tuple(read(f"a{i}{j}", float(i == j)) for j in axes) for i in axes)
    op = ScalarOperatorSpec(a, tuple(read(f"b{i}") for i in axes), read("c"))
    return op, read("f"), read("g")


def _parse_coupling(keys, n: int):
    m = [[const(0.0)] * n for _ in range(n)]
    for key, value in keys.items():
        match = _COUPLING_RE.match(key)
        if not match:
            raise ValidationError(f"[coupling] has unknown key {key!r}")
        groups = [g for g in match.groups() if g is not None]
        k, l = int(groups[0]), int(groups[1])
        if not (1 <= k <= n and 1 <= l <= n):
            raise ValidationError(
                f"coupling {key} references species outside 1..{n}"
            )
        m[k - 1][l - 1] = _expr(value, key)
    return tuple(tuple(row) for row in m)


def _parse_quasilinear(keys, n: int, dim: int):
    flux = [[None] * dim for _ in range(n)]
    reactions = [None] * n
    for key, value in keys.items():
        match = _FLUX_RE.match(key)
        if match:
            k, i = int(match.group(1)), int(match.group(2))
            if not (1 <= k <= n and 1 <= i <= dim):
                raise ValidationError(f"{key} outside species 1..{n}, dim {dim}")
            flux[k - 1][i - 1] = _expr(value, key)
            continue
        match = _REACTION_RE.match(key)
        if match:
            k = int(match.group(1))
            if not 1 <= k <= n:
                raise ValidationError(f"{key} references species outside 1..{n}")
            reactions[k - 1] = _expr(value, key)
            continue
        raise ValidationError(f"[quasilinear] has unknown key {key!r}")
    for k in range(n):
        for i in range(dim):
            if flux[k][i] is None:
                raise ValidationError(f"[quasilinear] is missing flux{k + 1}_{i + 1}")
        if reactions[k] is None:
            raise ValidationError(f"[quasilinear] is missing F{k + 1}")
    return tuple(tuple(row) for row in flux), tuple(reactions)


def parse_problem(text: str):
    """SystemSpec or QuasiSpec from problem-file text."""
    sections = _split_sections(text.splitlines())
    by_name = {}
    species = {}
    for name, index, lineno, keys in sections:
        if name == "species":
            species[index] = (lineno, keys)
        elif name in ("domain", "coupling", "quasilinear"):
            by_name[name] = keys
        else:
            raise ParseError(f"unknown section [{name}]", line=lineno)
    if "domain" not in by_name:
        raise ValidationError("problem file needs a [domain] section")
    grid = _build_domain(by_name["domain"])
    if not species:
        raise ValidationError("problem file needs at least [species 1]")
    n = len(species)
    missing = sorted(set(range(1, n + 1)) - set(species))
    if missing:
        raise ValidationError(
            f"species sections must be numbered 1..{n}; missing {missing}"
        )
    quasi = "quasilinear" in by_name
    ops, fs, gs = [], [], []
    for k in range(1, n + 1):
        _, keys = species[k]
        if quasi:
            extra = set(keys) - {"f", "g"}
            if extra:
                raise ValidationError(
                    f"[species {k}] may only set f, g in a quasilinear problem "
                    f"(got {sorted(extra)})"
                )
        op, f, g = _species_operator(keys, grid.dim, k)
        ops.append(op)
        fs.append(f)
        gs.append(g)
    if quasi:
        if "coupling" in by_name:
            raise ValidationError(
                "[coupling] is not allowed in a quasilinear problem; put the "
                "state dependence into the reactions"
            )
        flux, reactions = _parse_quasilinear(by_name["quasilinear"], n, grid.dim)
        qs = QuasiSpec(grid, flux, reactions, tuple(fs), tuple(gs))
        qs.validate()
        return qs
    m = _parse_coupling(by_name.get("coupling", {}), n)
    spec = SystemSpec(grid, tuple(ops), m, tuple(fs), tuple(gs))
    spec.validate()
    return spec


def load_problem(path):
    """Parse a problem file from disk."""
    return parse_problem(read_text(path))
