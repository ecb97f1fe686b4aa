"""Inverse-positivity ground truth on small assembled systems."""

import contextlib
import inspect
import logging
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._base as sparse_base
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elcomp import linalg, oracle
from elcomp.assembly import DiscreteSystem, assemble_system
from elcomp.errors import ElcompError, SingularMatrix, TooLarge, ValidationError
from elcomp.cli import main
from elcomp.fields import block_from_solution, load_block, save_fields
from elcomp.graphs import csr_strongly_connected
from elcomp.linalg import LuFactor, dense_inverse, inf_norm, lu_order, lu_solve
from elcomp.mesh import build_grid
from elcomp.oracle import (
    TOL_OP,
    decide,
    inverse_positivity,
    refute,
    solve_system,
)
from elcomp.settings import Settings
from elcomp.problems import load_problem, parse_problem

from helpers import assert_proven, laplace_system, system_text


def _pair(grid, m):
    return assemble_system(laplace_system(grid, n_species=2, m=m))


def test_m_matrix_is_inverse_positive():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = _pair(grid, [["0", "-1"], ["-0.5", "0"]])
    rep = inverse_positivity(asys)
    assert rep.inverse_positive
    assert rep.boundary_monotone is True
    assert rep.boundary_reason == "G <= 0 and A^-1 >= 0"
    assert rep.min_entry >= 0.0
    assert rep.min_boundary_entry is None
    assert rep.dof == 30
    assert rep.gauge is None and rep.method == "scan"


def test_strong_negative_diagonal_breaks_positivity():
    # c = -30 drops the principal eigenvalue below zero on this grid,
    # so the inverse picks up negative entries
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = assemble_system(laplace_system(grid, c=-30.0))
    rep = inverse_positivity(asys)
    assert not rep.inverse_positive
    assert rep.min_entry < 0.0
    cex = refute(asys, rep)
    assert cex.verified and cex.which == "oracle"
    assert_proven(asys, cex)
    assert 0 <= cex.j < 15


def test_gauge_flips_competitive_pair():
    """Constant-sign positive coupling becomes cooperative after flipping
    one species, so the gauged inverse is nonnegative while the plain
    problem keeps mixed comparison directions."""
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = _pair(grid, [["0", "0.5"], ["0.5", "0"]])
    plain = inverse_positivity(asys)
    gauged = inverse_positivity(asys, gauge=(1, -1))
    assert gauged.inverse_positive
    assert gauged.gauge == (1, -1)
    assert not plain.inverse_positive
    assert plain.min_entry < -1e-6


def test_gauge_validation():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    asys = _pair(grid, [["0", "0.5"], ["0.5", "0"]])
    with pytest.raises(ValidationError):
        inverse_positivity(asys, gauge=(1,))
    with pytest.raises(ValidationError):
        inverse_positivity(asys, gauge=(1, 2))


def test_dof_budget_enforced():
    """Above the budget the scan raises TooLarge, whose message names it,
    and builds no dense inverse; the budget bounds the scan alone, so the
    M-matrix check takes none, and the ladder decides there with it."""
    grid = build_grid(1, (0.0,), (1.0,), (64,))
    asys = assemble_system(laplace_system(grid))
    budget = Settings(oracle_max_dof=32)
    with pytest.raises(TooLarge, match="^oracle scan of 63 dof exceeds budget 32$"):
        inverse_positivity(asys, settings=budget)
    assert "settings" not in inspect.signature(oracle.m_matrix).parameters
    rep = decide(asys, None, budget)
    assert rep.method == "m-matrix" and rep.inverse_positive and rep.boundary_monotone


def test_negative_budget_cannot_reach_the_oracle():
    """The dof budget comes only from Settings, which refuses one below 0,
    so no budget verdict is given on an invalid budget."""
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = assemble_system(laplace_system(grid))
    for routine in (inverse_positivity, dense_inverse):
        assert "max_dof" not in inspect.signature(routine).parameters
    with pytest.raises(ValidationError, match="oracle_max_dof"):
        inverse_positivity(asys, settings=Settings(oracle_max_dof=-5))
    with pytest.raises(ValidationError, match="oracle_max_dof"):
        dense_inverse(asys.A, Settings(oracle_max_dof=-5))
    # a budget of exactly the dof runs
    budget = Settings(oracle_max_dof=asys.A.shape[0])
    assert inverse_positivity(asys, settings=budget).inverse_positive
    assert dense_inverse(asys.A, budget).min() > 0.0


@st.composite
def nine_point_systems(draw):
    """Problem text of a 2D system of 1-3 species on up to 14 x 14 cells
    with cross diffusion that does not cancel, convection, and couplings
    of either sign."""

    def num(lo, hi):
        return repr(round(draw(st.floats(lo, hi)), 3))

    n_species = draw(st.integers(1, 3))
    shape = (draw(st.integers(3, 14)), draw(st.integers(3, 14)))
    species = []
    for _ in range(n_species):
        a12 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 0.3))
        a21 = a12 * draw(st.floats(0.2, 1.0))  # same sign: the terms do not cancel
        species.append(
            {
                "a11": f"1 + {num(0.0, 0.5)}*x",
                "a22": f"1 + {num(0.0, 0.5)}*y",
                "a12": repr(round(a12, 3)),
                "a21": repr(round(a21, 3)),
                "b1": num(-3.0, 3.0),
                "b2": f"{num(-3.0, 3.0)}*x",
                "c": num(1.0, 3.0),
                "f": f"1 + {num(0.0, 1.0)}*x*y",
                "g": f"{num(0.0, 0.5)}*(x - y)",
            }
        )
    coupling = {
        f"m{k}{l}": num(-0.5, 0.5)
        for k in range(1, n_species + 1)
        for l in range(1, n_species + 1)
        if k != l
    }
    return system_text(shape, species, coupling)


@given(nine_point_systems())
@settings(max_examples=25, deadline=None)
def test_solve_nested_dissection_matches_minimum_degree(text):
    """A 9-point system is solved on the nested dissection order; the
    solution meets the benchmark's residual bound and agrees with a
    minimum-degree solve to 1e-12 relative."""
    asys = parse_problem(text).discretize().assembled("full")
    assert lu_order(asys.grid, asys.A) is not None
    u = solve_system(asys)
    f, g = asys.f_vec, asys.g_vec
    residual = float(np.abs(asys.A @ u + asys.G @ g - f).max())
    scale = (
        inf_norm(asys.A) * float(np.abs(u).max())
        + inf_norm(asys.G) * float(np.abs(g).max())
        + float(np.abs(f).max())
    )
    assert residual <= 1e-9 * scale
    reference = lu_solve(asys.A, f - asys.G @ g)
    assert float(np.abs(u - reference).max()) <= 1e-12 * float(np.abs(reference).max())


def _floor_met(asys, u, b) -> bool:
    """|b - A u| <= gamma_{k+1} (|A| |u| + |b|) in every row, k the largest
    row nnz of A: the rounding floor at which solve_system's sweeps stop."""
    k = int(np.diff(asys.A.indptr).max())
    floor = linalg.gamma(k + 1) * (abs(asys.A) @ np.abs(u) + np.abs(b))
    return bool((np.abs(b - asys.A @ u) <= floor).all())


@pytest.mark.parametrize(
    "shape, keys, coupling, swept",
    [
        ((40,), {}, {"m12": "-0.5", "m21": "0.3"}, False),
        ((24, 20), {"b1": "2"}, {"m12": "-0.5", "m21": "0.3"}, True),
        # cross terms cancel: 5-point
        ((24, 20), {"a12": "0.2", "a21": "-0.2"}, {"m12": "-0.5", "m21": "0.3"}, True),
        # an indefinite cooperative pair, whose sweeps diverge
        ((24, 20), {"b1": "2", "c": "-30"}, {"m12": "-40", "m21": "-40"}, False),
    ],
    ids=["1d", "5-point", "cancelling", "hand-off"],
)
def test_solve_keeps_minimum_degree_off_nine_point_stencils(tmp_path, caplog, shape, keys, coupling, swept):
    """1D, 5-point and cancelling-cross-term systems, and their species
    blocks, get no order.  `solve` writes the field of a plain minimum-degree
    SuperLU solve, byte for byte, where it takes the coupled LU: on the 1D
    pair, and on the 2D pair whose species sweeps hand off.  The weakly
    coupled 2D pairs are swept: their field meets the rounding floor and
    agrees with the plain solve to 1e-12 relative."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    species = [
        {"a11": "1 + x", "c": "1", "f": "1 + x", "g": "x", **keys},
        {"c": "2", "f": "1", **keys},
    ]
    path = tmp_path / "p.prob"
    path.write_text(system_text(shape, species, coupling))
    ds = load_problem(path).discretize()
    asys = ds.assembled("full")
    assert lu_order(asys.grid, asys.A) is None
    assert all(lu_order(asys.grid, ds.block("full", [k])) is None for k in range(2))
    out = tmp_path / "u.field"
    assert main(["solve", str(path), "--builtin", "--out", str(out), "--json", str(tmp_path / "r.json")]) == 0
    b = asys.f_vec - asys.G @ asys.g_vec
    u = spla.splu(asys.A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.oracle"]
    if len(shape) == 1:
        assert messages == []
    else:
        (message,) = messages
        verb = "reached the rounding floor" if swept else "handed to the coupled LU"
        assert message.startswith(f"solve {verb}")
    if not swept:
        expect = tmp_path / "expect.field"
        save_fields(expect, block_from_solution(asys.grid, asys.n_species, u, asys.g_vec))
        assert out.read_bytes() == expect.read_bytes()
        return
    swept_u = load_block(out.read_bytes(), asys.grid, asys.n_species).interior.reshape(-1)
    assert _floor_met(asys, swept_u, b)
    assert float(np.abs(swept_u - u).max()) <= 1e-12 * float(np.abs(u).max())


@st.composite
def coupled_systems(draw):
    """Problem text of 1-3 species on a 1D or 2D grid, with a 5- or 9-point
    stencil, couplings from |m| << lambda_1 up to a few lambda_1, and
    indefinite Thm 7-like systems: cooperative m = -nu with c = nu -
    lambda_1 - delta, lambda_1 = dim pi^2 that of the Laplacian."""

    def num(lo, hi):
        return repr(round(draw(st.floats(lo, hi)), 3))

    dim = draw(st.sampled_from([1, 2]))
    shape = (draw(st.integers(4, 40)),) if dim == 1 else (draw(st.integers(3, 12)), draw(st.integers(3, 12)))
    n_species = draw(st.integers(1, 3))
    nine_point = dim == 2 and draw(st.booleans())
    lam = dim * float(np.pi) ** 2
    nu = lam * draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 2.0]))
    thm7 = n_species > 1 and draw(st.booleans())
    species = []
    for _ in range(n_species):
        keys = {"a11": f"1 + {num(0.0, 0.5)}*x", "b1": num(-2.0, 2.0), "f": f"1 + {num(0.0, 1.0)}*x"}
        keys["c"] = repr(round(nu - lam - draw(st.floats(0.5, 2.0)), 3)) if thm7 else num(0.0, 3.0)
        if nine_point:
            keys["a12"] = keys["a21"] = num(0.05, 0.3)
        if dim == 2:
            keys["g"] = f"{num(0.0, 0.5)}*(x - y)"
        species.append(keys)
    coupling = {
        f"m{k}{l}": repr(round(-nu if thm7 else draw(st.sampled_from([-1.0, 1.0])) * nu * draw(st.floats(0.5, 1.0)), 3))
        for k in range(1, n_species + 1)
        for l in range(1, n_species + 1)
        if k != l
    }
    return system_text(shape, species, coupling)


def _laplace_eigenvalue(n: int) -> float:
    """The least eigenvalue of the 5-point Dirichlet Laplacian on n^2 cells
    of the unit square."""
    return float(8 * n**2 * np.sin(np.pi / (2 * n)) ** 2)


# c = -lambda_1 leaves each species block singular to working precision,
# while m12 = -m21 = -1 keeps A's eigenvalues 1 away from 0 (kappa_inf 794)
_SINGULAR_SPECIES = system_text(
    (8, 8),
    [{"c": repr(-_laplace_eigenvalue(8)), "f": "1"}] * 2,
    {"m12": "-1", "m21": "1"},
)
# two Laplacians coupled by m = -lambda_1: A itself is singular to working precision
_SINGULAR_PAIR = system_text(
    (8, 8), [{"f": "1"}] * 2, {"m12": repr(-_laplace_eigenvalue(8)), "m21": repr(-_laplace_eigenvalue(8))}
)


@contextlib.contextmanager
def _oracle_messages():
    """The messages logged meanwhile on elcomp.oracle, at DEBUG."""
    log, messages = logging.getLogger("elcomp.oracle"), []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: messages.append(record.getMessage())
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield messages
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _error_bound(asys, x, b) -> np.ndarray:
    """|A^{-1}| (|b - A x| + gamma_{k+1} (|A| |x| + |b|)), k the largest row
    nnz: a bound on |x - A^{-1} b|, the computed residual widened by its
    own rounding."""
    k = int(np.diff(asys.A.indptr).max())
    a = asys.A.toarray()
    r = np.abs(b - asys.A @ x) + linalg.gamma(k + 1) * (np.abs(a) @ np.abs(x) + np.abs(b))
    return np.abs(np.linalg.inv(a)) @ r


@given(coupled_systems())
@example(_SINGULAR_SPECIES)
@example(_SINGULAR_PAIR)
@settings(max_examples=60, deadline=None)
def test_solve_system_sweeps_to_the_floor_or_hands_off(text):
    """A 2D system of two or more species is swept or handed off, and logs
    which: one record, a hand-off exactly when the coupled LU is called.
    Swept, u meets the rounding floor, and lies within the sum of its own
    and the coupled LU's error bounds of the coupled LU's answer.  Handed
    off, and on 1D grids and single species, which log nothing, u is the
    coupled LU's, byte for byte, and a coupled LU that raises SingularMatrix
    (exit 3) makes the solve raise it.  The examples: a species block
    singular inside a nonsingular A hands off; a singular A raises."""
    asys = parse_problem(text).discretize().assembled("full")
    b = asys.f_vec - asys.G @ asys.g_vec
    swept = asys.grid.dim == 2 and asys.n_species > 1
    try:
        reference = lu_solve(asys.A, b, lu_order(asys.grid, asys.A))
    except SingularMatrix:
        reference = None
    with _oracle_messages() as messages, mock.patch.object(oracle, "lu_solve", wraps=lu_solve) as coupled:
        try:
            u = solve_system(asys)
        except SingularMatrix as err:
            assert err.exit_code == 3
            u = None
    handed = [m for m in messages if m.startswith("solve handed to the coupled LU: ")]
    assert len(messages) == swept
    assert len(handed) == (swept and coupled.called)
    if text == _SINGULAR_SPECIES:
        assert handed[0].startswith("solve handed to the coupled LU: a species block is singular")
    if text == _SINGULAR_PAIR:
        assert handed and reference is None
    if coupled.called:
        assert (u is None) == (reference is None)
        assert u is None or u.tobytes() == reference.tobytes()
        return
    assert messages[0].startswith("solve reached the rounding floor in ")
    assert _floor_met(asys, u, b)
    assert reference is not None
    bound = _error_bound(asys, u, b) + _error_bound(asys, reference, b)
    assert (np.abs(u - reference) <= bound).all()


def test_species_sweeps_reach_the_floor_on_a_fine_grid():
    """A 128^2 5-point pair with variable diffusion, convection and
    sign-changing coupling is swept to the rounding floor, with no hand-off.
    The sweeps solve for corrections: u_k <- A_kk^{-1} (b_k - sum_{l != k}
    A_kl u_l) stalled on this pair at 1.3 times the floor in one row."""
    smooth = "1 + 0.5*sin(3.1416*x + {})^2*cos(3.1416*y + {})^2"
    species = [
        {"a11": smooth.format(2.6623, 2.3995), "a22": smooth.format(0.8013, 1.5565), "b1": "-0.202*cos(3.1416*y)",
         "b2": "0.6064*sin(3.1416*x)", "c": "2.5774", "f": "1 + 0.0939*x*y", "g": "0.0142*(x - y)"},
        {"a11": smooth.format(1.3596, 2.3948), "a22": smooth.format(0.0066, 1.3992), "b1": "0.8862*cos(3.1416*y)",
         "b2": "-1.085*sin(3.1416*x)", "c": "2.8905", "f": "1 + 0.9014*x*y", "g": "0.0153*(x - y)"},
    ]
    coupling = {"m12": "0.3127*sin(2*3.1416*x)", "m21": "-0.5707*cos(2*3.1416*y)"}
    asys = parse_problem(system_text((128, 128), species, coupling)).discretize().assembled("full")
    with _oracle_messages() as messages:
        u = solve_system(asys)
    assert len(messages) == 1 and messages[0].startswith("solve reached the rounding floor in ")
    assert _floor_met(asys, u, asys.f_vec - asys.G @ asys.g_vec)


def test_solve_system_reproduces_manufactured_solution():
    """Manufactured solution: u = sin(pi x) has -u'' = pi^2 sin(pi x);
    solving with that rhs recovers u to discretization accuracy."""
    grid = build_grid(1, (0.0,), (1.0,), (64,))
    pi = float(np.pi)
    spec = laplace_system(grid, f=[f"{pi * pi} * sin({pi} * x)"])
    asys = assemble_system(spec)
    u = solve_system(asys)
    x = grid.coords[grid.interior_ids, 0]
    assert np.allclose(u, np.sin(pi * x), atol=2e-3)
    # and the algebraic residual is tiny
    assert np.abs(asys.A @ u + asys.G @ asys.g_vec - asys.f_vec).max() < 1e-10


def test_oracle_report_json_shape():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    rep = inverse_positivity(assemble_system(laplace_system(grid)))
    d = rep.to_json_dict()
    assert set(d) == {
        "inverse_positive",
        "min_entry",
        "boundary_monotone",
        "min_boundary_entry",
        "boundary_reason",
        "dof",
        "gauge",
        "method",
        "counterexample",
    }
    assert d["inverse_positive"] is True
    assert d["counterexample"] is None


def _gauged_dense(asys, gauge):
    """(D A^{-1} D, -(D A^{-1} D)(D G D_b) or None when G is empty), from one
    dense inverse of D A D."""
    signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
    d = sp.diags(np.repeat(signs, asys.grid.n_interior))
    d_bnd = sp.diags(np.repeat(signs, asys.grid.n_boundary))
    inv = dense_inverse((d @ asys.A @ d).tocsr(), Settings(oracle_max_dof=10**6))
    if not asys.G.nnz:
        return inv, None
    return inv, -(inv @ (d @ asys.G @ d_bnd).toarray())


def _reference(asys, gauge):
    """The oracle's decision on A^{-1} as one dense inverse of D A D:
    (min_entry, inverse_positive)."""
    inv, _ = _gauged_dense(asys, gauge)
    min_entry = float(inv.min())
    return min_entry, min_entry >= -TOL_OP * float(np.abs(inv).max())


def _decision(rep):
    return rep.min_entry, rep.inverse_positive


def _solved_columns(asys):
    """The columns b of G with a positive value: those of -G the oracle
    solves for."""
    return np.flatnonzero((asys.G.toarray() > 0.0).any(axis=0))


def _assert_boundary(asys, gauge, rep, bound_bnd):
    """The boundary half of rep against a dense -(D A^{-1} D)(D G D_b):
    undecided where A^{-1} has a negative entry; derived true where G <= 0,
    with every dense entry >= -TOL_OP max|A^{-1}| max_b |g_b|_1; else the
    minimum over the columns of G with a positive value, within bound_bnd
    of the dense one, decides, except where the dense margin to -TOL_OP
    max|A^{-1}| is itself within bound_bnd."""
    inv, bnd = _gauged_dense(asys, gauge)
    scale = float(np.abs(inv).max())
    cols = _solved_columns(asys)
    if not rep.inverse_positive:
        assert (rep.boundary_monotone, rep.min_boundary_entry) == (None, None)
        assert rep.boundary_reason == "A^-1 has a negative entry"
    elif cols.size == 0:
        assert (rep.boundary_monotone, rep.min_boundary_entry) == (True, None)
        assert rep.boundary_reason == "G <= 0 and A^-1 >= 0"
        if bnd is not None:
            tolerance = TOL_OP * scale * inf_norm(asys.G.T)
            assert float(bnd.min()) >= -tolerance - bound_bnd
    else:
        assert rep.boundary_reason == f"{cols.size} columns of -G solved"
        least = float(bnd[:, cols].min())
        assert abs(rep.min_boundary_entry - least) <= bound_bnd
        margin = least + TOL_OP * scale
        if abs(margin) > bound_bnd * (1 + TOL_OP):
            assert rep.boundary_monotone == (margin >= 0.0)


# Two computations of an entry of A^{-1}, such as the dense inverse's and a
# column solved in a block of another width, lie within ROUNDING * u *
# kappa_inf(A) * max|A^{-1}| of each other (u the unit roundoff).  16 leaves
# room: over 4,500 random 2D systems like _oracle_case's, a block-tridiagonal
# recursion over grid lines, which rounds more than SuperLU's solves, stayed
# within 1.2 of these units of the dense inverse.
ROUNDING = 16


def _rounding_bounds(asys):
    """(bound on an entry of A^{-1}, bound on an entry of A^{-1} G): the
    second adds up the first over G's largest column, |G|_1."""
    inv = dense_inverse(asys.A, Settings(oracle_max_dof=10**6))
    kappa = inf_norm(asys.A) * float(np.abs(inv).sum(axis=1).max())
    bound = ROUNDING * np.finfo(float).eps / 2 * kappa * float(np.abs(inv).max())
    return bound, bound * inf_norm(asys.G.T)


_B = oracle.BLOCK
# (species, interior nodes) in 1D with dof just below, at and just above
# one and two blocks
_BLOCK_EDGES = [
    (ns, dof // ns)
    for dof in (_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1)
    for ns in (1, 2, 3)
    if dof % ns == 0
]


@st.composite
def _oracle_case(draw, cross=False, two_d=False, symmetric=False):
    """A random 1-3 species system and gauge, on a 2D grid with either axis
    longer when cross or two_d.  Random reaction and coupling signs give Z
    and non-Z matrices, with inverses of either sign; some off-diagonal
    coupling blocks are zero.  Without cross diffusion every boundary value
    enters one equation, so the dense and the streamed boundary products
    round alike; with it (2D only) a boundary value enters up to three.
    A symmetric draw has no convection and m_lk = m_kl w_l / w_k for
    species weights w of either sign, powers of 2 so that the ratio is
    exact: A W is symmetric for W = diag(w_k I) when there is no cross
    diffusion."""
    if not (cross or two_d) and draw(st.booleans()):
        ns, n_int = draw(st.sampled_from(_BLOCK_EDGES))
        grid = build_grid(1, 0.0, 1.0, n_int + 1)
    else:
        ns = draw(st.integers(1, 3))
        cells = (draw(st.integers(3, 8)), draw(st.integers(3, 8)))
        grid = build_grid(2, 0.0, 1.0, cells)
    dim, nn = grid.dim, grid.n_nodes
    coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    a = np.zeros((ns, dim, dim, nn))
    for d in range(dim):
        a[:, d, d] = np.abs(draw(arrays(float, (ns, nn), elements=coeff))) + 0.5
    if cross:
        a[:, 0, 1] = a[:, 1, 0] = 0.1 * draw(arrays(float, (ns, nn), elements=coeff))
    b = draw(arrays(float, (ns, dim, nn), elements=coeff))
    c = draw(arrays(float, (ns, nn), elements=coeff)) + draw(st.floats(0.0, 30.0))
    m = draw(arrays(float, (ns, ns, nn), elements=coeff))
    coupled = draw(arrays(bool, (ns, ns)))
    if symmetric:
        b[:] = 0.0
        weights = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.25])
        w = np.array(draw(st.lists(weights, min_size=ns, max_size=ns)))
        upper = np.triu(np.ones((ns, ns), dtype=bool), 1)
        m = np.where(upper[..., None], m, m.transpose(1, 0, 2) * (w[:, None] / w)[..., None])
        coupled &= coupled.T
    m[~coupled] = 0.0
    zeros = np.zeros((ns, nn))
    ds = DiscreteSystem(grid, ns, a, b, c, m, zeros, zeros)
    gauge = draw(st.none() | st.tuples(*[st.sampled_from((1, -1))] * ns))
    return ds.assemble("full"), gauge


def _assert_lu_decision(asys, gauge, rep, expect):
    """An LU scan's report against _reference: the entry and the decision
    exactly; the boundary half as _assert_boundary has it, with its solved
    columns, which the oracle solves for and the dense product sums, to
    1e-12 relative."""
    assert _decision(rep) == expect
    _assert_boundary(asys, gauge, rep, 1e-12 * abs(rep.min_boundary_entry or 0.0) + 1e-15)


@given(st.booleans().flatmap(lambda symmetric: _oracle_case(symmetric=symmetric)))
@settings(max_examples=80, deadline=None)
def test_streamed_oracle_matches_dense_inverse(case):
    """The scan gives the dense inverse's entry and decision exactly, on 1D
    and 2D grids, for any gauge, in any order of gauged and plain calls,
    and the boundary half that G's signs give (_assert_boundary)."""
    asys, gauge = case
    for g in (None, gauge):  # the second call reads the kept scan
        try:
            expect = _reference(asys, g)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                inverse_positivity(asys, gauge=g)
            continue
        _assert_lu_decision(asys, g, inverse_positivity(asys, gauge=g), expect)


@given(_oracle_case(cross=True))
@settings(max_examples=40, deadline=None)
def test_streamed_boundary_sums_span_blocks(case):
    """With blocks of 8 columns, the columns of -G that cross diffusion
    leaves with a positive value are solved eight at a time, each column
    whole, whichever rows (up to three) its boundary value enters.  The
    dense product sums those rows' columns of A^{-1} in BLAS order, so the
    boundary minimum agrees to rounding only."""
    asys, gauge = case
    try:
        expect = _reference(asys, gauge)
    except SingularMatrix:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", 8)
        rep = inverse_positivity(replace(asys, _oracle_cache={}), gauge=gauge)
    _assert_lu_decision(asys, gauge, rep, expect)


def _near_threshold_column():
    """A 1D scalar system whose inverse is M below: column 0 dips to
    -1e-12, within the scan's threshold -TOL_OP max|M| but negative in the
    stored A, column 1 to -0.5, and the least entry lies in column 2."""
    grid = build_grid(1, 0.0, 1.0, 4)
    asys = assemble_system(laplace_system(grid))
    m = np.array([[1.0, -0.5, -0.9], [-1e-12, 2.0, 0.5], [1.0, 0.5, 3.0]])
    return replace(asys, A=sp.csr_matrix(np.linalg.inv(m))), None


@given(
    st.tuples(st.booleans(), st.booleans(), st.booleans()).flatmap(
        lambda f: _oracle_case(cross=f[0], two_d=f[1], symmetric=f[2])
    )
)
@example(_near_threshold_column())
@settings(max_examples=80, deadline=None)
def test_refute_gives_the_first_refuting_column(case):
    """Where a decision fails, refute's field is proven (assert_proven, in
    exact arithmetic), its boundary data -e_j or 0, and its image under D A
    D and D G D_b is -(e_j + eps 1), or -eps 1 when only boundary_monotone
    fails, for one eps > 0, to rounding; column j of the dense D A^{-1} D,
    or of the dense -(D A^{-1} D)(D G D_b), where j is one of the columns
    of G with a positive value, which alone the oracle solves for, has a
    negative entry to rounding.  j is a column of species l of the report's
    block (k, l), and no column of species l before it, among those the
    oracle solves for, dips below 4 rounding bounds, where its shifted field
    would be proven.  A report's block that rounding could reorder leaves l unchecked, and a
    decision within rounding of the threshold -TOL_OP max|A^{-1}| may have
    no field.  Where both decisions hold there is no field."""
    asys, gauge = case
    try:
        inv, bnd = _gauged_dense(asys, gauge)
    except SingularMatrix:
        return
    bound, bound_bnd = _rounding_bounds(asys)
    threshold = TOL_OP * float(np.abs(inv).max())
    n_int, ns = asys.grid.n_interior, asys.n_species
    signs = np.ones(ns) if gauge is None else np.asarray(gauge, float)
    rep = inverse_positivity(asys, gauge=gauge)
    cex = refute(asys, rep)
    if rep.inverse_positive and rep.boundary_monotone:
        assert cex is None
        return
    boundary = bool(rep.inverse_positive)
    dense, b = (bnd, bound_bnd) if boundary else (inv, bound)
    if cex is None:
        assert float(dense.min()) >= -threshold - b
        return
    assert cex.which == ("oracle-boundary" if boundary else "oracle")
    assert_proven(asys, cex, gauge)
    if boundary:  # +inf in the columns of -G left unsolved
        solved = _solved_columns(asys)
        dense = np.full_like(bnd, np.inf)
        dense[:, solved] = bnd[:, solved]
    width = dense.shape[1] // ns
    v, g = cex.w.interior.ravel(), cex.w.boundary.ravel()
    d, d_bnd = np.repeat(signs, n_int), np.repeat(signs, asys.grid.n_boundary)
    image = d * (asys.A @ (d * v) + asys.G @ (d_bnd * g))
    expect_g = np.zeros_like(g)
    if boundary:
        expect_g[cex.j] = -1.0
    else:
        image[cex.j] += 1.0
    assert np.array_equal(g, expect_g)
    assert np.ptp(image) <= 1e-8 * inf_norm(asys.A) * np.abs(v).max()
    assert float(dense[:, cex.j].min()) < b
    col_min = dense.min(axis=0)
    l = cex.j // width
    assert (col_min[l * width : cex.j] >= -4 * b).all()
    blocks = dense.reshape(ns, n_int, ns, width).min(axis=(1, 3))  # [k, l]
    near = np.argwhere(blocks <= dense.min() + 2 * b)
    if len(near) == 1:  # rounding could not pick another block
        assert near[0][1] == l


_COLUMNS = Settings(oracle_max_dof=0)  # every system is above the budget


def _columns(asys, gauge):
    """The ladder's column rung alone: decide above the budget, with the
    M-matrix check passing every order on."""
    with mock.patch.object(oracle, "m_matrix", lambda *args: None):
        return decide(asys, gauge, _COLUMNS)


def _tiny_negative_middle_column():
    """A 1D scalar system whose inverse is M below: its middle column, 1,
    dips to -1e-12, within the scan's threshold -TOL_OP max|M| = -3e-9 but
    negative in the stored A."""
    grid = build_grid(1, 0.0, 1.0, 4)
    asys = assemble_system(laplace_system(grid))
    m = np.array([[1.0, -1e-12, 0.9], [0.5, 2.0, 0.5], [0.2, 0.5, 3.0]])
    return replace(asys, A=sp.csr_matrix(np.linalg.inv(m))), None


def _missed_by_the_middle_column():
    """A 1D scalar system whose inverse is M below: its middle column, 1, is
    positive, and column 2 dips to -0.9, far below the scan's threshold."""
    grid = build_grid(1, 0.0, 1.0, 4)
    asys = assemble_system(laplace_system(grid))
    m = np.array([[1.0, 0.5, -0.9], [0.2, 2.0, 0.5], [0.3, 0.5, 3.0]])
    return replace(asys, A=sp.csr_matrix(np.linalg.inv(m))), None


def _middle_nodes(asys):
    """The unknowns of the interior node at position m_d // 2 along each
    axis d, m_d the interior nodes on that axis: n_d // 2 + n_d % 2 cells
    from the lower corner."""
    grid = asys.grid
    at = [grid.lo[d] + (grid.n[d] + 1) // 2 * grid.h[d] for d in range(grid.dim)]
    (node,) = np.flatnonzero(np.isclose(grid.coords[grid.interior_ids], at).all(axis=1))
    return node + grid.n_interior * np.arange(asys.n_species)


def _assert_columns(asys, gauge, scan):
    """The column rung (_columns) against the scan's report: False only with a
    proven field (assert_proven), which == "oracle", from a middle column
    j, whose image under D A D is -(e_j + eps 1), eps > 0, with zero
    boundary data, to rounding; where the scan certifies, only where the
    dense inverse has a negative entry, to rounding, which the scan's
    TOL_OP tolerance let pass.  min_entry and the boundary half are None.
    Returns the report."""
    rep = _columns(asys, gauge)
    assert rep.method == "columns" and rep.gauge == scan.gauge
    assert (rep.min_entry, rep.boundary_monotone, rep.min_boundary_entry) == (None, None, None)
    assert rep.inverse_positive in (False, None)
    if scan.inverse_positive and rep.inverse_positive is False:
        inv, _ = _gauged_dense(asys, gauge)
        assert float(inv.min()) < _rounding_bounds(asys)[0]
    cex = rep.counterexample
    assert (cex is None) == (rep.inverse_positive is None)
    if cex is not None:
        assert cex.which == "oracle" and cex.j in _middle_nodes(asys)
        assert_proven(asys, cex, gauge)
        signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
        d = np.repeat(signs, asys.grid.n_interior)
        v = cex.w.interior.ravel()
        image = d * (asys.A @ (d * v))
        image[cex.j] += 1.0
        assert np.ptp(image) <= 1e-8 * inf_norm(asys.A) * np.abs(v).max()
        assert not cex.w.boundary.any()
    return rep


@given(
    st.tuples(st.booleans(), st.booleans(), st.booleans()).flatmap(
        lambda f: _oracle_case(cross=f[0], two_d=f[1], symmetric=f[2])
    )
)
@example(_tiny_negative_middle_column())
@seed(20261020)
@settings(max_examples=60, deadline=None)
def test_columns_refute_only_what_the_scan_refutes(case):
    """The middle column of each species refutes a
    system that the scan certifies only where the dense inverse has a
    negative entry within the scan's -TOL_OP max|A^{-1}|, and each
    refutation carries a proven field (_assert_columns), plain and gauged.
    These draws couple pointwise with random signs, so a middle column can
    miss a negative entry that the scan finds: a miss is None, not a
    certificate."""
    asys, gauge = case
    for g in (None, gauge):
        try:
            scan = inverse_positivity(asys, gauge=g)
        except SingularMatrix:
            return
        _assert_columns(asys, g, scan)


def test_a_proof_shows_entries_within_the_scan_tolerance():
    """The pinned systems' -1e-12 entries lie within the scan's TOL_OP
    tolerance, yet the shifted fields of their columns are proven: refute
    takes column 0, not column 1 whose entry -0.5 passes the threshold, and
    the ladder's middle column refutes, below the budget and above it, the
    system that the scan alone would certify."""
    asys, _ = _near_threshold_column()
    rep = inverse_positivity(asys)
    assert rep.inverse_positive is False and refute(asys, rep).j == 0
    asys, _ = _tiny_negative_middle_column()
    assert inverse_positivity(asys).inverse_positive
    for budget in (_COLUMNS, Settings()):
        rep = decide(asys, None, budget)
        assert (rep.method, rep.inverse_positive) == ("columns", False)
        assert rep.counterexample.j == 1
        assert_proven(asys, rep.counterexample)


@given(coupled_systems(), st.data())
@seed(20261020)
@settings(max_examples=60, deadline=None)
def test_columns_refute_every_coupled_system_the_scan_refutes(text, data):
    """On systems whose couplings are constant, as the bundled and the
    benchmark ones are, the middle column of each species refutes every
    system that the scan refutes, plain and in a random gauge order,
    besides _assert_columns."""
    asys = parse_problem(text).discretize().assembled("full")
    gauge = data.draw(st.tuples(*[st.sampled_from((1, -1))] * asys.n_species))
    for g in (None, gauge):
        try:
            scan = inverse_positivity(asys, gauge=g)
        except SingularMatrix:
            return
        rep = _assert_columns(asys, g, scan)
        if not scan.inverse_positive:
            assert rep.inverse_positive is False


@pytest.mark.parametrize("cells", [(12, 12), (16, 7), (7, 16)])
def test_singular_two_d_system_raises(cells):
    """c at minus the least eigenvalue of the discrete Laplacian leaves A
    singular to working precision: the scan raises SingularMatrix as the
    dense inverse does, and so does the ladder, whose M-matrix check hands
    the order on and whose column search solves on the same LU."""
    h = 1.0 / np.asarray(cells)
    c = -4.0 * float((np.sin(np.pi * h / 2) ** 2 / h**2).sum())
    asys = assemble_system(laplace_system(build_grid(2, 0.0, 1.0, cells), c=c))
    with pytest.raises(SingularMatrix):
        dense_inverse(asys.A)
    assert oracle.m_matrix(asys) is None
    with pytest.raises(SingularMatrix):
        inverse_positivity(asys)
    with pytest.raises(SingularMatrix):
        decide(asys)


@given(_oracle_case(cross=True), st.sampled_from((3, 8, 64)))
@settings(max_examples=40, deadline=None)
def test_boundary_scan_equals_solves_against_minus_g(case, block):
    """The extremes of -(A^{-1} G) over the columns of G with a positive
    value equal, bit for bit, those of LuFactor(A).solve(-G) on just those
    columns, taken in the same groups of BLOCK columns: the oracle solves
    against -G's columns as they are, whatever rows of A a boundary value
    enters (up to three, with cross diffusion)."""
    asys, _ = case
    n_int, n_bnd, ns = asys.grid.n_interior, asys.grid.n_boundary, asys.n_species
    cols = _solved_columns(asys)
    assume(cols.size)
    minus_g = -asys.G.toarray()
    expect = {}
    try:
        lu = LuFactor(asys.A)
        for c0 in range(0, cols.size, block):
            x = lu.solve(minus_g[:, cols[c0 : c0 + block]])
            for c, col in zip(cols[c0 : c0 + block], x.T):
                for k in range(ns):
                    part = col[k * n_int : (k + 1) * n_int]
                    for s, v in ((1, part.min()), (-1, -part.max())):
                        key = (k, c // n_bnd, s)
                        expect[key] = min(expect.get(key, float(v)), float(v))
    except SingularMatrix:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", block)
        n_cols, bnd = oracle._boundary_columns(asys)
    assert n_cols == cols.size
    # + 0.0 makes -0.0 and 0.0 one value, which the two orders may tie on
    assert {key: repr(v + 0.0) for key, v in bnd.items()} == {
        key: repr(v + 0.0) for key, v in expect.items()
    }


@given(st.tuples(st.booleans(), st.booleans()).flatmap(lambda f: _oracle_case(*f)))
@settings(max_examples=60, deadline=None)
def test_boundary_half_follows_from_the_signs_of_g(case):
    """On systems of at most 200 dof, 1D and 2D, with and without cross
    diffusion, plain and gauged, boundary_monotone and boundary_reason are
    those a dense -(D A^{-1} D)(D G D_b) gives (_assert_boundary): derived
    from G's signs where G <= 0, and from the solved columns, within the
    rounding bound, where it is not.  G is species-block diagonal, so the
    gauge leaves it as it is."""
    asys, gauge = case
    assert asys.A.shape[0] <= 200
    n_int, n_bnd = asys.grid.n_interior, asys.grid.n_boundary
    g = asys.G.toarray()
    for k in range(asys.n_species):
        g[k * n_int : (k + 1) * n_int, k * n_bnd : (k + 1) * n_bnd] = 0.0
    assert not g.any()
    try:
        _, bound_bnd = _rounding_bounds(asys)
    except SingularMatrix:
        return
    for sigma in (None, gauge):
        _assert_boundary(asys, sigma, inverse_positivity(asys, gauge=sigma), bound_bnd)


_NINE_POINT_PAIR = (
    "[domain]\ndim = 2\nlo = 0 0\nhi = 1 1\nn = 20 20\n"
    "[species 1]\na11 = 1 + x\na12 = 0.1\na21 = 0.1\nf = 1\n"
    "[species 2]\na12 = 0.1\na21 = 0.1\nf = 1\n"
    "[coupling]\nm12 = -1\nm21 = -1\n"
)


def test_cross_diffusion_breaks_the_boundary_half_alone(caplog):
    """Cross diffusion gives G positive values, and on this 20^2 9-point
    cooperative pair A^{-1} >= 0 while -A^{-1} G has negative entries: the
    columns of -G with a positive value in G (148 of 160) are solved, their
    least entry matches the dense one, boundary_monotone is false, a DEBUG
    record says how it was decided, and refute gives a proven field from
    one of those columns, with boundary data -e_j."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    asys = parse_problem(_NINE_POINT_PAIR).discretize().assembled("full")
    rep = inverse_positivity(asys)
    assert rep.inverse_positive and rep.boundary_monotone is False
    assert rep.boundary_reason == "148 columns of -G solved"
    assert _solved_columns(asys).size == 148 and asys.G.shape[1] == 160
    inv, bnd = _gauged_dense(asys, None)
    assert abs(rep.min_boundary_entry - float(bnd.min())) <= 1e-12 * float(np.abs(inv).max())
    assert rep.min_boundary_entry == pytest.approx(-0.0150, abs=5e-5)
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.oracle"]
    assert "gauge None: boundary_monotone False (148 columns of -G solved)" in messages
    cex = refute(asys, rep)
    assert cex.verified and cex.which == "oracle-boundary"
    assert_proven(asys, cex)
    assert cex.j in _solved_columns(asys)
    assert np.array_equal(cex.w.boundary.ravel(), -np.eye(160)[cex.j])


@pytest.mark.parametrize("n", [8, 128, 1000])
def test_lu_scan_reads_the_discrete_greens_function(n):
    """For -u'' on (0, 1) with n cells, A^{-1} is the discrete Green's
    function h x_i (1 - x_j), i <= j: its least entry is h^3.  G <= 0, so
    the report derives the boundary half and gives no boundary minimum;
    -A^{-1} G, one LuFactor solve against -G, holds the harmonic extensions
    1 - x and x of the two boundary values, whose least entry is h.  Both
    are closed forms, whatever order the scan sums in, and nothing is
    refuted."""
    h = 1.0 / n
    asys = assemble_system(laplace_system(build_grid(1, 0.0, 1.0, n)))
    rep = inverse_positivity(asys)
    assert rep.inverse_positive and rep.boundary_monotone
    assert rep.min_entry == pytest.approx(h**3, rel=1e-12)
    assert rep.min_boundary_entry is None
    assert rep.boundary_reason == "G <= 0 and A^-1 >= 0"
    harmonic = LuFactor(asys.A).solve(-asys.G.toarray())
    assert float(harmonic.min()) == pytest.approx(h, rel=1e-12)
    assert refute(asys, rep) is None


def test_oracle_scan_kept_by_content(monkeypatch):
    """One factorization serves every gauge on one system; changed matrix
    content is scanned again."""
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = _pair(grid, [["0", "0.5"], ["0.5", "0"]])
    factorized = []
    lu_factor = oracle.LuFactor

    def counting(a):
        factorized.append(a.shape)
        return lu_factor(a)

    monkeypatch.setattr(oracle, "LuFactor", counting)
    plain = inverse_positivity(asys)
    gauged = inverse_positivity(asys, gauge=(1, -1))
    assert inverse_positivity(asys) == plain
    assert len(factorized) == 1
    assert gauged.inverse_positive and not plain.inverse_positive
    asys.A.data *= 2.0
    assert inverse_positivity(asys).min_entry == pytest.approx(plain.min_entry / 2)
    assert len(factorized) == 2


def _counting_lus(monkeypatch):
    """The shapes of the matrices LuFactor factorizes from now on."""
    factorized = []
    init = linalg.LuFactor.__init__

    def counting(self, a, order=None):
        factorized.append(a.shape)
        init(self, a, order)

    monkeypatch.setattr(linalg.LuFactor, "__init__", counting)
    return factorized


@pytest.mark.parametrize("case", ["nine-point-pair", "missed-by-the-middle-column"])
def test_the_ladder_factorizes_a_once(case, monkeypatch):
    """A system that reaches the scan is factorized once: the M-matrix
    check, the middle columns, the scan, the columns of -G and refute's
    column search all solve on the one LU of A kept on the system
    (oracle._lu).  The 10^2 9-point cooperative pair, which only the scan
    decides, solves columns of -G; the system the middle column misses is
    refuted by refute's field."""
    if case == "nine-point-pair":
        cross = {"a12": "0.1", "a21": "0.1", "f": "1"}
        species = [{"a11": "1 + x", **cross}, cross]
        text = system_text((10, 10), species, {"m12": "-1", "m21": "-1"})
        asys = parse_problem(text).discretize().assembled("full")
    else:
        asys, _ = _missed_by_the_middle_column()
    factorized = _counting_lus(monkeypatch)
    report = decide(asys)
    assert report.method == "scan"
    assert factorized == [asys.A.shape]
    if case == "nine-point-pair":
        assert report.inverse_positive and report.boundary_reason.endswith("columns of -G solved")
    else:
        assert report.inverse_positive is False and report.counterexample.verified


def test_oracle_memory_stays_below_a_quarter_inverse():
    """The scan holds a few column blocks, never the n x n inverse."""
    grid = build_grid(2, (0.0, 0.0), (1.0, 1.0), (33, 33))
    asys = _pair(grid, [["0", "-1"], ["-0.5", "0"]])
    n = asys.A.shape[0]
    assert n == 2048
    tracemalloc.start()
    try:
        rep = inverse_positivity(asys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.inverse_positive and rep.boundary_monotone
    assert peak < n * n * 8 / 4


def test_scan_builds_no_sparse_matrix_per_block():
    """The scan reads its right-hand sides off CSC arrays, the identity's
    and one copy of G's: a 1D system of 2 column blocks, one of 16 and a 2D
    pair of 17 build the same number of scipy sparse matrices."""
    built = []
    init = sparse_base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    systems = [
        _pair(build_grid(2, 0.0, 1.0, 24), [["0", "-1"], ["-0.5", "0"]]),
        *(assemble_system(laplace_system(build_grid(1, 0.0, 1.0, n))) for n in (128, 1024)),
    ]
    assert [asys.A.shape[0] for asys in systems] == [1058, 127, 1023]
    counts = []
    for asys in systems:
        assert asys.G.nnz
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_base._spbase, "__init__", counting)
            assert oracle._scan_inverse(asys)
        counts.append(len(built))
        built.clear()
    assert counts[0] == counts[1] == counts[2], counts


# ------------------------------------------------------ one-solve M-matrix check


def _shifted_laplacian(eps: float):
    """The scalar Laplacian on 16 cells of [0, 1], shifted by -lambda_1 (1 -
    eps), lambda_1 its least eigenvalue: an M-matrix, singular as eps -> 0."""
    h = 1.0 / 16
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    return assemble_system(laplace_system(build_grid(1, 0.0, 1.0, 16), c=-lam * (1.0 - eps)))


def _triangular_competition():
    """A competitive pair coupled one way only, m12 > 0 and m21 = 0, with
    its gauge (1, -1): Z in the gauge order, and reducible."""
    asys = _pair(build_grid(1, 0.0, 1.0, 16), [["0", "0.5"], ["0", "0"]])
    return asys, (1, -1)


@st.composite
def _system_case(draw, cross=False):
    """(ds, gauge): 1-3 species on a 1D or 2D grid of at most 200 dof,
    with variable diffusion, upwind convection, a shift c of either sign,
    and couplings of one sign per species pair, pairs uncoupled at random
    in half the draws; with cross, 2D grids add cross diffusion in half the
    draws, which gives G positive values.
    Each pair's sign is the one that makes D A D a Z-matrix for a drawn
    order sigma, or either sign; gauge is None or sigma."""
    ns = draw(st.integers(1, 3))
    if draw(st.booleans()):
        grid = build_grid(1, 0.0, 1.0, draw(st.integers(4, 200 // ns)))
    else:
        grid = build_grid(2, 0.0, 1.0, (draw(st.integers(3, 8)), draw(st.integers(3, 8))))
    dim, nn = grid.dim, grid.n_nodes
    unit = st.floats(0.0, 1.0)
    a = np.zeros((ns, dim, dim, nn))
    for d in range(dim):
        a[:, d, d] = 0.5 + draw(arrays(float, (ns, nn), elements=unit))
    b = 4.0 * draw(arrays(float, (ns, dim, nn), elements=unit)) - 2.0
    c = draw(arrays(float, (ns, nn), elements=unit)) + draw(st.floats(-60.0, 10.0))
    sigma = np.array(draw(st.tuples(*[st.sampled_from((1, -1))] * ns)))
    want = -np.outer(sigma, sigma)  # the sign of m_kl that D A D's Z pattern needs
    sign = np.where(draw(st.booleans()), want, draw(arrays(int, (ns, ns), elements=st.sampled_from((1, -1)))))
    size = draw(st.floats(0.1, 30.0)) * draw(arrays(float, (ns, ns, nn), elements=st.floats(0.5, 1.0)))
    coupled = draw(arrays(bool, (ns, ns))) | draw(st.booleans())  # every pair, half the time
    m = (sign * coupled)[..., None] * size
    m[np.arange(ns), np.arange(ns)] = 0.0
    if cross and dim == 2 and draw(st.booleans()):
        a[:, 0, 1] = a[:, 1, 0] = 0.2 * draw(arrays(float, (ns, nn), elements=unit)) - 0.1
    zeros = np.zeros((ns, nn))
    ds = DiscreteSystem(grid, ns, a, b, c, m, zeros, zeros)
    return ds, draw(st.sampled_from([None, tuple(int(s) for s in sigma)]))


_m_matrix_case = _system_case().map(lambda case: (case[0].assemble("full"), case[1]))


def _assert_m_matrix(asys, gauge, rep, derived=False):
    """m_matrix's report against one dense inverse of D A D: the decision is
    the sign of its least entry wherever that lies beyond +-TOL_OP max|entry|;
    a check's refutation carries a proven field, v with D A D v < 0, zero
    boundary data and v > 0 somewhere; a derived one carries none."""
    assert rep.method == "m-matrix" and rep.gauge == gauge and rep.dof == asys.A.shape[0]
    assert (rep.min_entry, rep.min_boundary_entry) == (None, None)
    assert rep.boundary_monotone is (True if rep.inverse_positive else None)
    try:
        inv, _ = _gauged_dense(asys, gauge)
    except SingularMatrix:
        inv = None
    if inv is not None:
        least, scale = float(inv.min()), float(np.abs(inv).max())
        if abs(least) > TOL_OP * scale:
            assert rep.inverse_positive == (least > 0.0)
    cex = rep.counterexample
    if rep.inverse_positive or derived:
        assert cex is None
        return
    assert cex.verified and cex.which == "m-matrix" and cex.j is None
    signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
    d = np.repeat(signs, asys.grid.n_interior)
    v = cex.w.interior.ravel()
    assert (d * (asys.A @ (d * v))).max() < 0.0 and v.max() > 0.0
    assert not cex.w.boundary.any()
    assert_proven(asys, cex, gauge)


@given(_m_matrix_case)
@example((_shifted_laplacian(1e-12), None))
@example(_triangular_competition())
@example((_pair(build_grid(1, 0.0, 1.0, 16), [["0", "0.5"], ["0.5", "0"]]), (1, -1)))
@seed(20261020)
@settings(max_examples=120, deadline=None)
def test_m_matrix_check_decides_as_the_dense_inverse(case):
    """Wherever the one-solve check decides, in the drawn order and, where
    that order flips some species and not all and the check proves
    positivity, in the
    plain order derived from it, it decides as the dense (D A D)^{-1} does
    (_assert_m_matrix).  The plain order is derived exactly when A is
    irreducible.  The pinned near-singular Laplacian hands its order on,
    and the pinned triangular competition, reducible, its plain one."""
    asys, gauge = case
    rep = oracle.m_matrix(asys, gauge)
    if rep is None:
        return
    _assert_m_matrix(asys, gauge, rep)
    # the sine-basis candidate and x = (D A D)^{-1} 1 decide alike wherever both are proven
    d = np.repeat(oracle._signs(asys, gauge)[1], asys.grid.n_interior)
    vectors = [oracle._sine_candidate(asys, d)]
    with contextlib.suppress(SingularMatrix):
        vectors.append(d * lu_solve(asys.A, d))
    proven = [
        x for x in vectors if x is not None and (oracle._image_upper(asys, d, -x) < 0.0).all()
    ]
    assert {bool((x > 0.0).all()) for x in proven} <= {rep.inverse_positive}
    if gauge is not None and set(gauge) == {1, -1} and rep.inverse_positive:
        plain = oracle.m_matrix(asys, None, flipped=rep)
        assert (plain is None) == (not csr_strongly_connected(asys.A))
        if plain is not None:
            _assert_m_matrix(asys, None, plain, derived=True)
            assert plain.inverse_positive is False


def test_m_matrix_check_hands_the_pinned_cases_to_the_scan():
    """The near-singular Laplacian's row sums of A^{-1} reach |A| |x| >
    1e14, where the solve calls A singular; no middle column refutes it, so
    the ladder's scan of its entries decides.  The triangular competition
    is Z in its gauge order, which the check proves, but its plain report
    cannot follow from that, and its middle columns refute it."""
    asys = _shifted_laplacian(1e-12)
    assert oracle.m_matrix(asys) is None
    rep = decide(asys)
    assert (rep.method, rep.inverse_positive) == ("scan", True)
    asys, gauge = _triangular_competition()
    gauged = oracle.m_matrix(asys, gauge)
    assert gauged.inverse_positive and gauged.method == "m-matrix"
    assert oracle.m_matrix(asys, None, flipped=gauged) is None
    rep = decide(asys, None, flipped=gauged)
    assert (rep.method, rep.inverse_positive) == ("columns", False)
    assert not inverse_positivity(asys).inverse_positive


def test_m_matrix_bound_rounds_outward():
    """_image_upper's bound on D A D x + D G D_b g lies strictly above
    fl(fl(.) + gamma_(k+1) fl(|A| |x| + |G| |g|)) in every row, k a row's
    terms, so dropping its outward rounding, its gamma term or the
    magnitudes |A| is caught; and a row whose terms are all 0 is bounded by
    0: on a small Z-matrix in a flipping order, for x > 0 and x of mixed
    signs, with boundary data -e_0 and with none."""
    asys, gauge = _triangular_competition()
    a, gm, n = asys.A, asys.G, asys.grid.n_interior
    d = np.repeat(np.asarray(gauge, float), n)
    x_pos = d * lu_solve(a, d)
    b = -np.eye(gm.shape[1])[0]
    for x in (x_pos, x_pos * np.where(np.arange(x_pos.size) % 3, 1.0, -1.0)):
        for g in (None, b):
            s, t = d * (a @ (d * x)), abs(a) @ np.abs(x)
            k = int(np.diff(a.indptr).max())
            if g is not None:
                s, t = s + gm @ g, t + abs(gm) @ np.abs(g)
                k += int(np.diff(gm.indptr).max())
            upper = oracle._image_upper(asys, d, x, g)
            assert (upper > s + linalg.gamma(k + 1) * t).all()
    # species 2 couples to nothing, so its rows of a field zero there are 0
    x = np.concatenate([x_pos[:n], np.zeros(n)])
    upper = oracle._image_upper(asys, d, x)
    assert (upper[n:] == 0.0).all() and (upper[:n] != 0.0).all()


def _check_records(caplog):
    """The M-matrix check's records on elcomp.oracle, one per order."""
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "elcomp.oracle" and " M-matrix check" in r.getMessage()
    ]


def test_certify_logs_the_method_of_each_order(caplog, monkeypatch):
    """certify logs one DEBUG record per order on elcomp.oracle for the
    M-matrix check: that it decided, or why it handed the order on to the
    columns, where one more record says that a middle column refuted."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    from elcomp.certify import certify

    def records(spec):
        caplog.clear()
        certify(spec)
        return _check_records(caplog)

    data = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"
    assert records(load_problem(data / "cooperative_pair.prob")) == [
        "gauge None: decided by the M-matrix check"
    ]
    assert records(load_problem(data / "competitive17.prob")) == [
        "gauge (1, -1): decided by the M-matrix check",
        "gauge None: decided by the M-matrix check in gauge (1, -1), A irreducible",
    ]
    assert records(load_problem(data / "predator_prey.prob")) == [
        "gauge None: M-matrix check handed to the columns: D A D is not a Z-matrix"
    ]
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.oracle"]
    assert [m for m in messages if "middle column" in m] == ["gauge None: refuted by the middle column 70"]
    spec = laplace_system(build_grid(1, 0.0, 1.0, 16), n_species=2, m=[["0", "0.5"], ["0", "0"]])
    assert records(spec) == [
        "gauge (1, -1): decided by the M-matrix check",
        "gauge None: M-matrix check handed to the columns: A is reducible, so no report"
        " follows from gauge (1, -1)",
    ]
    # the same pair with the bound unproven, and with a singular solve
    monkeypatch.setattr(oracle, "_image_upper", lambda asys, d, v, g=None: np.zeros_like(v))
    assert records(spec) == [
        "gauge (1, -1): M-matrix check handed to the columns: (D A D) x > 0 is not proven",
        "gauge None: M-matrix check handed to the columns: D A D is not a Z-matrix",
    ]
    monkeypatch.undo()
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    caplog.clear()
    assert oracle.m_matrix(_shifted_laplacian(1e-12)) is None
    (record,) = _check_records(caplog)
    assert record.startswith("gauge None: M-matrix check handed to the columns: the solve calls A singular (solve: ")


def test_m_matrix_check_needs_g_nonpositive(caplog):
    """A positive value in G leaves the boundary half to the scan's columns
    of -G, so the check hands the order on."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    asys = assemble_system(laplace_system(build_grid(1, 0.0, 1.0, 16)))
    g = asys.G.copy()
    g.data[0] = 1e-3
    assert oracle.m_matrix(replace(asys, G=g)) is None
    assert _check_records(caplog) == [
        "gauge None: M-matrix check handed to the columns: G has a value that is not <= 0"
    ]


# ------------------------------------------------ the sine-basis candidate


def _candidate(asys, gauge):
    """(x, max|1 - D A D x|) of the sine-basis candidate in the order gauge."""
    d = np.repeat(oracle._signs(asys, gauge)[1], asys.grid.n_interior)
    x = oracle._sine_candidate(asys, d)
    return x, float(np.abs(1.0 - d * (asys.A @ (d * x))).max())


_ANISOTROPIC = [{"a11": "2", "a22": "0.5", "c": "1", "f": "1"}, {"f": "1"}]


@pytest.mark.parametrize(
    "shape, species, coupling, gauge, positive",
    [
        ((12, 12), [{"f": "1"}] * 2, ("-1", "-1"), None, True),
        ((12, 12), [{"f": "1"}] * 2, ("0.5", "0.5"), (1, -1), True),
        ((12, 12), [{"c": "-5.74", "f": "1"}] * 2, ("-17", "-17"), None, False),
        ((10, 17), _ANISOTROPIC, ("-1", "-0.3"), None, True),
    ],
    ids=["cooperative", "competitive-gauged", "thm7", "anisotropic"],
)
def test_the_sine_candidate_decides_a_constant_coefficient_pair(
    shape, species, coupling, gauge, positive, monkeypatch, caplog
):
    """A constant-coefficient pair's D A D is its own mean stencil, so the
    candidate is (D A D)^{-1} 1 to rounding, max|1 - D A D x| <= 1e-12,
    with and without a gauge, and on a 10 x 17 grid whose species differ and
    diffuse unequally along x and y, and the M-matrix check decides with no
    LU of A, both ways, as the dense inverse does (_assert_m_matrix)."""
    text = system_text(shape, species, dict(zip(("m12", "m21"), coupling)))
    asys = parse_problem(text).discretize().assembled("full")
    _, residual = _candidate(asys, gauge)
    assert residual <= 1e-12
    factorized = _counting_lus(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    rep = oracle.m_matrix(asys, gauge)
    assert factorized == []
    assert f"gauge {gauge}: the sine-basis candidate x decides" in caplog.messages
    assert rep.inverse_positive is positive
    _assert_m_matrix(asys, gauge, rep)


_CONVECTION_PAIR = system_text(
    (64, 64), [{"b1": "20", "b2": "-10", "f": "1"}, {"f": "1"}], {"m12": "-1", "m21": "-1"}
)
# a reaction well that the mean stencil averages out: P is an M-matrix, so
# the candidate is > 0, but A is not inverse positive
_REACTION_WELL = system_text(
    (12, 12), [{"c": "-100*exp(-((x - 0.5)^2 + (y - 0.5)^2)/0.02)", "f": "1"}]
)


@pytest.mark.parametrize(
    "text, positive",
    [(_CONVECTION_PAIR, True), (_REACTION_WELL, False)],
    ids=["convection", "well"],
)
def test_an_unproven_candidate_hands_off_to_the_lu(text, positive, monkeypatch, caplog):
    """Where D A D is far from its mean stencil, the candidate proves
    nothing, and the check solves x = (D A D)^{-1} 1 on the one LU of A,
    which decides; one DEBUG record gives the candidate's max|1 - D A D x|.
    Strong convection (b = (20, -10) on species 1 of a 64^2 cooperative
    pair) leaves it near 6, on an inverse-positive A.  The reaction well's
    candidate is > 0 while A^{-1} has negative entries: a check that took
    x > 0 without its bound would prove positivity there."""
    asys = parse_problem(text).discretize().assembled("full")
    x, residual = _candidate(asys, None)
    assert residual > 1.0
    factorized = _counting_lus(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    rep = oracle.m_matrix(asys)
    assert factorized == [asys.A.shape]
    assert rep.method == "m-matrix" and rep.inverse_positive is positive
    assert (
        f"gauge None: the sine-basis candidate x leaves max|1 - (D A D) x| = {residual:.3g},"
        " so x = (D A D)^-1 1 is solved on the LU of A"
    ) in caplog.messages
    if not positive:
        assert (x > 0.0).all() and rep.counterexample.verified
        assert inverse_positivity(asys).inverse_positive is False


@given(
    _system_case(cross=True).map(lambda case: (case[0].assemble("full"), case[1]))
    | st.tuples(st.booleans(), st.booleans(), st.booleans()).flatmap(lambda f: _oracle_case(*f))
)
@example(_tiny_negative_middle_column())
@example(_missed_by_the_middle_column())
@example((_shifted_laplacian(1e-12), None))
@seed(20261021)
@settings(max_examples=80, deadline=None)
def test_the_ladder_decides_alike_below_and_above_the_budget(case):
    """On systems of at most 200 dof, 1D and 2D, with and without cross
    diffusion, with constant-sign couplings (_system_case) and pointwise
    random ones (_oracle_case), whose negative entries a middle column can
    miss, plain and in a drawn gauge order, each order decided on its own
    as elcomp oracle does: wherever the ladder decides above the budget
    (its M-matrix and column rungs), it decides the same within the default
    budget, boundary half included.  Within the budget every order is
    decided, unless the scan finds A singular.  Every False, at either
    budget, carries a field proven in exact arithmetic (assert_proven): the
    pinned system that no middle column refutes is refuted by the scan and
    refute's column 2.  The near-singular Laplacian is decided by the scan
    alone, and the tiny negative middle column refutes at both budgets."""
    asys, gauge = case
    for g in {None, gauge}:
        try:
            above = decide(asys, g, _COLUMNS)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                decide(asys, g)
            continue
        try:
            within = decide(asys, g)
        except SingularMatrix:
            assert above.inverse_positive is None
            continue
        assert within.inverse_positive is not None
        if above.inverse_positive is not None:
            assert (above.method, above.inverse_positive, above.boundary_monotone) == (
                within.method, within.inverse_positive, within.boundary_monotone,
            )
        for rep in (above, within):
            if rep.inverse_positive is False:
                assert rep.counterexample is not None
                assert_proven(asys, rep.counterexample, g)


# ------------------------------------------------- fields in exact arithmetic


def _proven_fields(ds, gauge):
    """The kinds of field that certify (its witness and its plain oracle's),
    the M-matrix check, refute and the column search give on ds, the oracle
    in the order gauge, each asserted proven in exact arithmetic
    (assert_proven)."""
    from elcomp.certify import certify

    asys, kinds = ds.assembled("full"), []

    def check(cex, order):
        if cex is not None:
            assert_proven(asys, cex, order)
            kinds.append(cex.which)

    try:
        verdict = certify(ds)
        check(verdict.counterexample, None)
        check(verdict.oracle and verdict.oracle.counterexample, None)
    except ElcompError:  # not Z, singular and the like: no verdict to check
        pass
    try:
        rep = oracle.m_matrix(asys, gauge)
        check(rep and rep.counterexample, gauge)
        check(refute(asys, inverse_positivity(asys, gauge)), gauge)
        check(decide(asys, gauge, _COLUMNS).counterexample, gauge)
    except SingularMatrix:
        pass
    return kinds


def _pinned_fields():
    """(ds, None) for thm6_failure (94 dof), a Thm 7 pair on 8^2 cells (98
    dof) and the cross-diffusion pair on 10^2 cells (162 dof)."""
    data = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"
    species = [{"c": "-5.74", "f": "1"}] * 2
    thm7 = system_text((8, 8), species, {"m12": "-17", "m21": "-17"})
    nine = _NINE_POINT_PAIR.replace("n = 20 20", "n = 10 10")
    specs = [load_problem(data / "thm6_failure.prob"), parse_problem(thm7), parse_problem(nine)]
    return [(spec.discretize(), None) for spec in specs]


def test_the_pinned_systems_give_every_kind_of_field():
    """Between them the pinned systems give a proven field of every kind:
    Theorem 6 and 7 witnesses, the M-matrix check's, the shifted columns'
    and a boundary column's."""
    kinds = {kind for case in _pinned_fields() for kind in _proven_fields(*case)}
    assert kinds == {"thm6", "thm7", "m-matrix", "oracle", "oracle-boundary"}


@given(_system_case(cross=True))
@example(_pinned_fields()[0])
@example(_pinned_fields()[1])
@example(_pinned_fields()[2])
@seed(20261021)
@settings(max_examples=60, deadline=None)
def test_every_field_is_proven_in_exact_arithmetic(case):
    """Every field that certify, the M-matrix check, refute and the column
    search give on systems of at most 200 dof has D A D v + D G D_b g <= 0
    in every row, recomputed in exact rational arithmetic from the stored
    floats, at most its residual_max, with boundary data <= 0 and v > 0
    somewhere (_proven_fields)."""
    _proven_fields(*case)
