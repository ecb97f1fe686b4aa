"""Problem-file parsing: defaults, diagnostics, and both system kinds."""

import re
import textwrap
from pathlib import Path

import pytest

from elcomp.assembly import SystemSpec
from elcomp.errors import ParseError, ValidationError
from elcomp.expressions import eval_expr
from elcomp.problems import load_problem, parse_problem
from elcomp.quasilinear import QuasiSpec


def prob(text):
    return parse_problem(textwrap.dedent(text))


MINIMAL = """
    [domain]
    dim = 1
    lo = 0
    hi = 1
    n = 8

    [species 1]
"""


def test_minimal_problem_defaults():
    spec = prob(MINIMAL)
    assert isinstance(spec, SystemSpec)
    assert spec.n_species == 1
    assert spec.grid.n == (8,)
    op = spec.ops[0]
    # identity diffusion, zero convection/reaction/data
    assert eval_expr(op.a[0][0], (0.3,)) == 1.0
    assert eval_expr(op.b[0], (0.3,)) == 0.0
    assert eval_expr(op.c, (0.3,)) == 0.0
    assert eval_expr(spec.f[0], (0.3,)) == 0.0
    assert eval_expr(spec.m[0][0], (0.3,)) == 0.0


def test_full_two_species_problem():
    spec = prob(
        """
        # a competitive pair on a square
        [domain]
        dim = 2
        lo = 0, 0
        hi = 1, 2
        n = 8 8

        [species 1]
        a11 = 1 + x
        a12 = 0.1
        a21 = 0.1
        b1 = y
        c = 2
        f = 1
        g = x * y

        [species 2]
        c = -1

        [coupling]
        m12 = 0.5
        m2_1 = -x
        """
    )
    assert spec.grid.hi == (1.0, 2.0)
    assert eval_expr(spec.ops[0].a[0][0], (0.5, 0.0)) == 1.5
    assert eval_expr(spec.ops[0].a[0][1], (0.5, 0.0)) == 0.1
    assert eval_expr(spec.ops[0].b[0], (0.0, 2.0)) == 2.0
    assert eval_expr(spec.ops[1].c, (0.0, 0.0)) == -1.0
    assert eval_expr(spec.m[0][1], (0.0, 0.0)) == 0.5
    assert eval_expr(spec.m[1][0], (0.25, 0.0)) == -0.25
    assert eval_expr(spec.g[0], (0.5, 2.0)) == 1.0


def test_comments_and_blank_lines_ignored():
    spec = prob(
        """
        # leading comment

        [domain]
        # comment between keys
        dim = 1
        lo = 0
        hi = 1
        n = 4

        [species 1]  # header comment
        c = 1        # trailing comment
        """
    )
    assert eval_expr(spec.ops[0].c, (0.0,)) == 1.0


def test_duplicate_section_and_key_errors():
    with pytest.raises(ParseError) as info:
        prob(
            """
            [domain]
            dim = 1
            lo = 0
            hi = 1
            n = 4
            [domain]
            """
        )
    assert "duplicate section" in str(info.value)
    with pytest.raises(ParseError) as info:
        prob(
            """
            [domain]
            dim = 1
            dim = 1
            lo = 0
            hi = 1
            n = 4
            """
        )
    assert "duplicate key" in str(info.value)
    assert info.value.line == 4


def test_syntax_diagnostics():
    with pytest.raises(ParseError):
        prob("[domain\ndim = 1\n")
    with pytest.raises(ParseError):
        prob("dim = 1\n")  # key before any section
    with pytest.raises(ParseError):
        prob("[domain]\ndim: 1\n")
    with pytest.raises(ParseError) as info:
        prob(MINIMAL.replace("[species 1]", "[species 1]\nc = 1 +"))
    assert "c:" in str(info.value)
    assert info.value.line is not None


def test_section_index_rules():
    with pytest.raises(ParseError):
        prob("[species]\n")
    with pytest.raises(ParseError):
        prob("[domain 2]\n")
    with pytest.raises(ParseError):
        prob("[weird]\nx = 1\n")


def test_domain_validation():
    with pytest.raises(ValidationError):
        prob("[domain]\ndim = 1\nlo = 0\nhi = 1\n")  # n missing
    with pytest.raises(ValidationError):
        prob("[domain]\ndim = 3\nlo = 0\nhi = 1\nn = 4\n")
    with pytest.raises(ParseError):
        prob("[domain]\ndim = 2\nlo = 0\nhi = 1, 1\nn = 4, 4\n")
    with pytest.raises(ValidationError):
        prob(MINIMAL.replace("n = 8", "n = 8\nshift = 1"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dim = 1", "dim = x", "dim: expected integers, got 'x'"),
        ("lo = 0", "lo = 0 a", "lo: expected numbers, got '0 a'"),
        ("n = 8", "n = 4 4", "n: expected 1 value(s)"),
    ],
)
def test_domain_value_messages(old, new, message):
    with pytest.raises(ParseError) as info:
        prob(MINIMAL.replace(old, new))
    assert info.value.message == message


def test_first_bad_species_key_is_reported():
    """Keys are read in the format's order (a11..a22, b1, b2, c, f, g), so
    the first syntax error names a12 even when c is bad too."""
    text = (
        "[domain]\ndim = 2\nlo = 0 0\nhi = 1 1\nn = 4 4\n"
        "[species 1]\nc = 1 +\na12 = (x\n"
    )
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.message.startswith("a12: ")
    assert info.value.line == 8


def test_species_contiguity_and_keys():
    with pytest.raises(ValidationError) as info:
        prob(MINIMAL.replace("[species 1]", "[species 2]"))
    assert "missing [1]" in str(info.value) or "missing" in str(info.value)
    with pytest.raises(ValidationError):
        prob(MINIMAL.replace("[species 1]", "[species 1]\nb2 = 1"))  # dim 1
    with pytest.raises(ValidationError):
        prob(MINIMAL.replace("[species 1]", "[species 1]\nq = 1"))


def test_species_indices_are_not_enumerated():
    # a gap check that walks 1..max(index) would loop a billion times here
    with pytest.raises(ValidationError) as info:
        prob(MINIMAL.replace("[species 1]", "[species 1000000000]"))
    assert "missing [1]" in str(info.value)
    with pytest.raises(ValidationError) as info:
        prob(MINIMAL + "[species 0]\n")
    assert "missing [2]" in str(info.value)


def test_coupling_index_validation():
    base = MINIMAL + "\n[coupling]\n"
    with pytest.raises(ValidationError):
        prob(base + "m13 = 1\n")
    with pytest.raises(ValidationError):
        prob(base + "mx = 1\n")
    spec = prob(base + "m11 = -1\n")
    assert eval_expr(spec.m[0][0], (0.0,)) == -1.0


def test_coupling_underscore_form_matches_compact():
    text = MINIMAL + "[species 2]\n\n[coupling]\n{}\n"
    a = prob(text.format("m12 = 0.5"))
    b = prob(text.format("m1_2 = 0.5"))
    assert eval_expr(a.m[0][1], (0.0,)) == eval_expr(b.m[0][1], (0.0,)) == 0.5


def test_quasilinear_problem():
    text = """
        [domain]
        dim = 1
        lo = 0
        hi = 1
        n = 16

        [species 1]
        f = 1

        [species 2]

        [quasilinear]
        flux1_1 = (1 + u ^ 2) * p1
        flux2_1 = p1
        F1 = u1 * u2
        F2 = 0.5 * u2 - 0.2 * u1
        """
    qs = prob(text)
    assert isinstance(qs, QuasiSpec)
    assert qs.n_species == 2
    assert eval_expr(qs.F[1], {"u1": 1.0, "u2": 2.0}) == 0.8
    assert eval_expr(qs.f[0], (0.0,)) == 1.0
    # Jacobians come from the fluxes and reactions themselves, so a
    # hand-written partial is an unknown key, not an override
    with pytest.raises(ValidationError) as info:
        prob(text + "        dF2_du1 = -0.2\n")
    assert "unknown key 'dF2_du1'" in str(info.value)


def test_quasilinear_rules():
    base = """
        [domain]
        dim = 1
        lo = 0
        hi = 1
        n = 8

        [species 1]
        {species_extra}

        [quasilinear]
        {quasi}
    """
    with pytest.raises(ValidationError) as info:
        prob(base.format(species_extra="c = 1", quasi="flux1_1 = p1\nF1 = 0"))
    assert "may only set f, g" in str(info.value)
    with pytest.raises(ValidationError):
        prob(base.format(species_extra="", quasi="F1 = 0"))  # flux missing
    with pytest.raises(ValidationError):
        prob(base.format(species_extra="", quasi="flux1_1 = p1"))  # F missing
    with pytest.raises(ValidationError):
        prob(
            base.format(species_extra="", quasi="flux1_1 = p1\nF1 = 0\nwat = 1")
        )
    with pytest.raises(ValidationError) as info:
        prob(
            base.format(species_extra="", quasi="flux1_1 = p1\nF1 = 0")
            + "\n[coupling]\nm11 = 1\n"
        )
    assert "not allowed in a quasilinear problem" in str(info.value)
    with pytest.raises(ValidationError):
        prob(base.format(species_extra="", quasi="flux1_2 = p1\nF1 = 0"))


def test_load_problem_bundled_files():
    from importlib import resources

    names = [
        "cooperative_pair.prob",
        "competitive17.prob",
        "predator_prey.prob",
        "thm6_failure.prob",
        "lap1d.prob",
    ]
    for name in names:
        ref = resources.files("elcomp.data") / name
        spec = parse_problem(ref.read_text())
        assert isinstance(spec, SystemSpec)
    qref = resources.files("elcomp.data") / "quasilinear_demo.prob"
    assert isinstance(parse_problem(qref.read_text()), QuasiSpec)


def test_load_problem_from_path(tmp_path):
    p = tmp_path / "x.prob"
    p.write_text(textwrap.dedent(MINIMAL))
    spec = load_problem(p)
    assert spec.n_species == 1


def test_load_problem_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.prob"
    p.write_bytes(textwrap.dedent(MINIMAL).encode() + "c = \xb3\n".encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load_problem(p)
    assert info.value.offset == len(textwrap.dedent(MINIMAL)) + 4
    assert info.value.line == 9
    assert "not UTF-8" in str(info.value)


@pytest.mark.parametrize("line, offset", [("c = ³", 4), ("  c=1 + ³  # cube", 8)])
def test_expression_error_offset_is_the_column_in_the_line(line, offset):
    text = "[domain]\ndim = 1\nlo = 0\nhi = 1\nn = 8\n[species 1]\n" + line + "\n"
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert (info.value.line, info.value.offset) == (7, offset)
    assert f"(line 7, offset {offset})" in str(info.value)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_problem_examples_parse():
    """Both ini blocks of the README, trailing comments included."""
    full, quasi = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    spec = parse_problem(full)
    assert isinstance(spec, SystemSpec)
    assert spec.grid.n == (24, 24)
    assert eval_expr(spec.ops[0].a[0][0], (2.0, 0.0)) == 3.0
    assert eval_expr(spec.m[1][0], (0.0, 0.0)) == 0.5
    head = "[domain]\ndim = 1\nlo = 0\nhi = 1\nn = 8\n[species 1]\n[species 2]\n"
    assert isinstance(parse_problem(head + quasi), QuasiSpec)
