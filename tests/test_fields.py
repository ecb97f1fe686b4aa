"""Field file round trips and block embedding."""

import numpy as np
import pytest

from elcomp.errors import ParseError, ValidationError
from elcomp.expressions import parse_expr
from elcomp.fields import (
    BlockField,
    SampledField,
    _header_line,
    block_from_exprs,
    block_from_solution,
    load_block,
    load_fields,
    save_fields,
)
from elcomp.mesh import build_grid
from elcomp.oracle import solve_system
from elcomp.problems import parse_problem

from helpers import system_text


def test_save_load_round_trip_bit_exact(tmp_path):
    grid = build_grid(2, (0.0, -1.0), (1.0, 1.0), (5, 4))
    rng = np.random.default_rng(5)
    vals = rng.normal(size=grid.n_nodes) * 1e3
    vals[0] = 1.0 / 3.0  # not representable in short decimal
    path = tmp_path / "one.field"
    save_fields(path, [SampledField(grid, "u1", vals)])
    back = load_fields(path)
    assert len(back) == 1
    assert back[0].name == "u1"
    assert back[0].grid == grid
    assert np.array_equal(back[0].values, vals)


def test_saved_bytes_match_repr_of_each_float(tmp_path):
    """The file holds repr(float(v)) of each value, the format a load reads
    back bit exactly: signed zeros, subnormals, the largest magnitudes and a
    96^2 two-species solve with cross diffusion."""
    grid = build_grid(1, (0.0,), (1.0,), (6,))
    edge = np.array([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0, 0.0])
    keys = {"a11": "1 + x", "a12": "0.1", "a21": "0.1", "b1": "cos(y)", "c": "2"}
    text = system_text(
        (96, 96),
        [{**keys, "f": "1 + x*y"}, {**keys, "g": "x - y"}],
        {"m12": "0.5*sin(x)", "m21": "-0.5*cos(y)"},
    )
    asys = parse_problem(text).discretize().assembled("full")
    solved = block_from_solution(asys.grid, 2, solve_system(asys), asys.g_vec)
    named = [SampledField(asys.grid, f"u{k + 1}", v) for k, v in enumerate(solved.values)]
    for given, blocks in (([SampledField(grid, "edge", edge)],) * 2, (solved, named)):
        path = tmp_path / "f.field"
        save_fields(path, given)
        lines = []
        for fld in blocks:
            lines.append(_header_line(fld.name, fld.grid))
            lines.extend(repr(float(v)) for v in fld.values)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = load_fields(path)
        assert all(np.array_equal(b.values, f.values) for b, f in zip(back, blocks))


def test_block_save_load(tmp_path):
    grid = build_grid(1, (0.0,), (2.0,), (6,))
    block = block_from_exprs(grid, [parse_expr("sin(x)"), parse_expr("x ^ 2")])
    path = tmp_path / "two.field"
    save_fields(path, block)
    back = load_block(path, grid, 2)
    assert np.array_equal(back.values, block.values)
    with pytest.raises(ValidationError):
        load_block(path, grid, 3)


def test_grid_mismatch_rejected(tmp_path):
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    other = build_grid(1, (0.0,), (1.0,), (5,))
    path = tmp_path / "f.field"
    save_fields(path, [SampledField(grid, "u1", np.zeros(grid.n_nodes))])
    with pytest.raises(ValidationError):
        load_fields(path, other)


def test_value_count_checked(tmp_path):
    path = tmp_path / "short.field"
    path.write_text("# field u1 grid 1 4 0.0 1.0\n1.0\n2.0\n")
    with pytest.raises(ParseError):
        load_fields(path)


def test_malformed_inputs(tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("1.0\n")
    with pytest.raises(ParseError):
        load_fields(path)
    path.write_text("# field u1 grid 9\n")
    with pytest.raises(ParseError):
        load_fields(path)
    path.write_text("# field u1 grid 1 4 0.0 1.0\nnope\n")
    with pytest.raises(ParseError):
        load_fields(path)
    path.write_text("\n")
    with pytest.raises(ParseError):
        load_fields(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_values_are_parse_errors_at_their_line(tmp_path, value):
    path = tmp_path / "nan.field"
    path.write_text(f"# field u1 grid 1 4 0.0 1.0\n0.0\n1.0\n{value}\n0.0\n0.0\n")
    with pytest.raises(ParseError) as info:
        load_fields(path)
    assert info.value.line == 4
    assert repr(value) in str(info.value)


def test_load_fields_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.field"
    header = b"# field u1 grid 1 4 0.0 1.0\n"
    path.write_bytes(header + b"0.0\n\xff\n")
    with pytest.raises(ParseError) as info:
        load_fields(path)
    assert info.value.offset == len(header) + 4
    assert info.value.line == 3


def test_comments_between_blocks_ignored(tmp_path):
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    path = tmp_path / "c.field"
    lines = ["# produced by a test", "# field a grid 1 4 0.0 1.0"]
    lines += [repr(float(i)) for i in range(grid.n_nodes)]
    lines += ["# a stray comment", "# field b grid 1 4 0.0 1.0"]
    lines += ["0.0"] * grid.n_nodes
    path.write_text("\n".join(lines) + "\n")
    fields = load_fields(path, grid)
    assert [f.name for f in fields] == ["a", "b"]
    assert fields[0].values[3] == 3.0


def test_block_from_solution_full():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    u_int = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    g_vec = np.array([-1.0, -2.0, -10.0, -20.0])
    block = block_from_solution(grid, 2, u_int, g_vec)
    assert np.array_equal(block.values[0], [-1.0, 1.0, 2.0, 3.0, -2.0])
    assert np.array_equal(block.values[1], [-10.0, 10.0, 20.0, 30.0, -20.0])
    assert np.array_equal(block.interior[0], [1.0, 2.0, 3.0])
    assert np.array_equal(block.boundary[1], [-10.0, -20.0])
    assert block.values[0][1] == 1.0
    # without boundary data the boundary nodes are zero
    block = block_from_solution(grid, 2, u_int, None)
    assert np.array_equal(block.interior, u_int.reshape(2, 3))
    assert np.array_equal(block.boundary, np.zeros((2, 2)))


def test_save_rejects_wrong_length(tmp_path):
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    with pytest.raises(ValidationError):
        save_fields(tmp_path / "x.field", [SampledField(grid, "u1", np.zeros(3))])


def test_block_field_species_count():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    block = BlockField(grid, np.zeros((3, grid.n_nodes)))
    assert block.n_species == 3
