"""Inverse-positivity ground truth on small assembled systems."""

import inspect
import logging
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._base as sparse_base
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elcomp import linalg, oracle
from elcomp.assembly import DiscreteSystem, assemble_system
from elcomp.errors import SingularMatrix, TooLarge, ValidationError
from elcomp.cli import main
from elcomp.fields import block_from_solution, load_block, save_fields
from elcomp.linalg import LuFactor, dense_inverse, inf_norm, lu_order, lu_solve
from elcomp.mesh import build_grid
from elcomp.oracle import (
    TOL_OP,
    inverse_positivity,
    random_probe,
    refute,
    solve_system,
)
from elcomp.settings import Settings
from elcomp.expressions import parse_expr
from elcomp.problems import load_problem, parse_problem

from helpers import (
    laplace_system,
    reference_row_fold,
    system_text,
)


def _pair(grid, m):
    return assemble_system(laplace_system(grid, n_species=2, m=m))


def test_m_matrix_is_inverse_positive():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    asys = _pair(grid, [["0", "-1"], ["-0.5", "0"]])
    rep = inverse_positivity(asys)
    assert rep.inverse_positive
    assert rep.boundary_monotone
    assert rep.min_entry >= 0.0
    assert rep.min_boundary_entry >= 0.0
    assert rep.dof == 30
    assert rep.gauge is None and not rep.sampled


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
    grid = build_grid(1, (0.0,), (1.0,), (64,))
    asys = assemble_system(laplace_system(grid))
    with pytest.raises(TooLarge):
        inverse_positivity(asys, settings=Settings(oracle_max_dof=32))


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


@contextmanager
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


def test_random_probe_negative_case_and_determinism():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    bad = assemble_system(laplace_system(grid, c=-30.0))
    rep1 = random_probe(bad, trials=40, seed=3)
    rep2 = random_probe(bad, trials=40, seed=3)
    assert not rep1.inverse_positive
    assert rep1.sampled and rep1.trials == 40
    assert rep1.min_entry == rep2.min_entry
    cex1, cex2 = rep1.counterexample, rep2.counterexample
    assert cex1.verified and cex1.which == "probe"
    assert cex1.j == cex2.j and cex1.residual_max == cex2.residual_max
    assert np.array_equal(cex1.w.values, cex2.w.values)
    good = assemble_system(laplace_system(grid))
    rep3 = random_probe(good, trials=20, seed=0)
    assert rep3.inverse_positive
    assert rep3.sampled
    assert rep3.counterexample is None


def test_oracle_report_json_shape():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    rep = inverse_positivity(assemble_system(laplace_system(grid)))
    d = rep.to_json_dict()
    assert set(d) == {
        "inverse_positive",
        "min_entry",
        "boundary_monotone",
        "min_boundary_entry",
        "dof",
        "gauge",
        "sampled",
        "trials",
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
    """The oracle's decision as one dense inverse of D A D and a dense
    product with D G D_b: (min_entry, inverse_positive, min_boundary_entry,
    boundary_monotone)."""
    inv, bnd = _gauged_dense(asys, gauge)
    scale = float(np.abs(inv).max())
    min_entry = float(inv.min())
    min_boundary = 0.0 if bnd is None else float(bnd.min())
    return (
        min_entry,
        min_entry >= -TOL_OP * scale,
        min_boundary,
        min_boundary >= -TOL_OP * scale,
    )


def _decision(rep):
    return (
        rep.min_entry,
        rep.inverse_positive,
        rep.min_boundary_entry,
        rep.boundary_monotone,
    )


# The slab scan's entries of A^{-1} lie within ROUNDING * u * kappa_inf(A) *
# max|A^{-1}| of the dense inverse's (u the unit roundoff).  Over 4,500
# random 2D systems like _oracle_case's, the largest gap was 1.2 of these
# units, the dense inverse's own rounding included.
ROUNDING = 16


def _rounding_bounds(asys):
    """(bound on an entry of A^{-1}, bound on an entry of A^{-1} G): the
    second adds up the first over G's largest column, |G|_1."""
    inv = dense_inverse(asys.A, Settings(oracle_max_dof=10**6))
    kappa = inf_norm(asys.A) * float(np.abs(inv).sum(axis=1).max())
    bound = ROUNDING * np.finfo(float).eps / 2 * kappa * float(np.abs(inv).max())
    return bound, bound * inf_norm(asys.G.T)


def _lu_report(asys, gauge):
    """inverse_positivity of a copy of asys, without kept scans, through
    the LU scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_scan_slabs", lambda asys: None)
        return inverse_positivity(replace(asys, _oracle_cache={}), gauge=gauge)


def _assert_within_rounding(asys, gauge, rep):
    """A 2D report against the dense inverse of D A D: the minimum lies
    within the rounding bound of the dense minimum, and the decisions are
    the dense ones except where the dense margin to -TOL_OP * scale is
    itself within the bound."""
    bound, bound_bnd = _rounding_bounds(asys)
    inv, bnd = _gauged_dense(asys, gauge)
    scale = float(np.abs(inv).max())
    assert abs(rep.min_entry - float(inv.min())) <= bound
    margin = float(inv.min()) + TOL_OP * scale
    if abs(margin) > bound * (1 + TOL_OP):
        assert rep.inverse_positive == (margin >= 0.0)
    min_bnd = 0.0 if bnd is None else float(bnd.min())
    assert abs(rep.min_boundary_entry - min_bnd) <= bound_bnd
    margin = min_bnd + TOL_OP * scale
    if abs(margin) > bound_bnd + TOL_OP * bound:
        assert rep.boundary_monotone == (margin >= 0.0)


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
    diffusion, and the slab scan mirrors the lower half of A^{-1}."""
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


def _assert_lu_decision(rep, expect):
    """An LU scan's report against _reference: the entry and decisions
    exactly; the boundary minimum, which the scan solves for and the dense
    product sums, to 1e-12 relative."""
    got = _decision(rep)
    assert got[:2] + got[3:] == expect[:2] + expect[3:]
    assert got[2] == pytest.approx(expect[2], rel=1e-12, abs=1e-15)


def _solved_boundary_min(asys, gauge):
    """The least entry of -(D A D)^{-1} (D G D_b), from one solve of D A D
    against all the columns of -(D G D_b)."""
    signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
    d = sp.diags(np.repeat(signs, asys.grid.n_interior))
    d_bnd = sp.diags(np.repeat(signs, asys.grid.n_boundary))
    lu = LuFactor((d @ asys.A @ d).tocsr())
    return float(lu.solve(-(d @ asys.G @ d_bnd).toarray()).min())


@given(st.booleans().flatmap(lambda symmetric: _oracle_case(symmetric=symmetric)))
@settings(max_examples=80, deadline=None)
def test_streamed_oracle_matches_dense_inverse(case):
    """The LU scan gives the dense inverse's entry and decisions exactly, for any gauge, in any order of gauged and plain calls, and
    its boundary minimum to 1e-12 of the dense product's; on a 1D grid that
    minimum is the one of one solve of D A D against -(D G D_b), exactly.
    On a 2D grid the slab scan's answer lies within the rounding bound
    (_assert_within_rounding), with the lower half mirrored or not."""
    asys, gauge = case
    for g in (None, gauge):  # the second call reads the kept scan
        try:
            expect = _reference(asys, g)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                inverse_positivity(asys, gauge=g)
            continue
        rep = inverse_positivity(asys, gauge=g)
        if asys.grid.dim == 1:
            _assert_lu_decision(rep, expect)
            assert rep.min_boundary_entry == _solved_boundary_min(asys, g)
            continue
        _assert_within_rounding(asys, g, rep)
        _assert_lu_decision(_lu_report(asys, g), expect)


@given(_oracle_case(cross=True))
@settings(max_examples=40, deadline=None)
def test_streamed_boundary_sums_span_blocks(case):
    """With blocks of 8 columns, the LU scan solves against -G eight
    boundary values at a time, each value's column whole, whichever rows
    (up to three, with cross diffusion) it enters.  The dense product sums
    those rows' columns of A^{-1} in BLAS order, so the boundary minimum
    agrees to rounding only.  The slab scan, which these 2D grids take by
    default, is within the rounding bound (_assert_within_rounding)."""
    asys, gauge = case
    try:
        expect = _reference(asys, gauge)
    except SingularMatrix:
        return
    _assert_within_rounding(asys, gauge, inverse_positivity(asys, gauge=gauge))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", 8)
        rep = _lu_report(asys, gauge)
    _assert_lu_decision(rep, expect)


@given(
    st.tuples(st.booleans(), st.booleans()).flatmap(
        lambda flavour: st.tuples(
            st.just(flavour), _oracle_case(flavour[0], two_d=True, symmetric=flavour[1])
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_slab_scan_matches_dense_inverse(case):
    """Every extreme the slab scan keeps lies within the rounding bound of
    the dense inverse's, blocks of exact zeros (a zero coupling block makes
    some) included.  That covers every gauge, whose extremes are these
    with signs.  Each boundary extreme lies
    within the bound for A^{-1} G.  The draws are 2D grids with either axis
    longer, 5- and 9-point stencils, convection, and couplings of either
    sign; the symmetric 5-point ones mirror the lower half of A^{-1}."""
    (cross, symmetric), (asys, _) = case
    try:
        inv = dense_inverse(asys.A, Settings(oracle_max_dof=10**6))
    except SingularMatrix:
        return
    if symmetric and not cross:
        w, _ = oracle._mirror_weights(asys.A, asys.G, asys.n_species, asys.grid.n_interior)
        assert w is not None
    scan = oracle._scan_slabs(asys)
    assume(scan is not None)
    extremes, bnd = scan
    bound, bound_bnd = _rounding_bounds(asys)
    n_int, n_bnd = asys.grid.n_interior, asys.grid.n_boundary
    prod = -(inv @ asys.G.toarray())
    for (k, l, s), v in extremes.items():
        block = s * inv[k * n_int : (k + 1) * n_int, l * n_int : (l + 1) * n_int]
        assert abs(v - float(block.min())) <= bound
    assert set(bnd) == (set(extremes) if asys.G.nnz else set())
    for (k, l, s), v in bnd.items():
        block = s * prod[k * n_int : (k + 1) * n_int, l * n_bnd : (l + 1) * n_bnd]
        assert abs(v - float(block.min())) <= bound_bnd


def _lu_refutation(asys, gauge):
    """(report, refute's field) of a copy of asys, without kept scans,
    through the LU scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_scan_slabs", lambda asys: None)
        copy = replace(asys, _oracle_cache={})
        rep = inverse_positivity(copy, gauge=gauge)
        return rep, refute(copy, rep)


def _near_threshold_column():
    """A 1D scalar system whose inverse is M below: column 0 dips to
    -1e-12, within the threshold -TOL_OP max|M|, and column 1 to -0.5, so
    the first refuting column is 1, and the least entry's column 2."""
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
    """Where a decision fails, refute's field breaks comparison on D A D:
    its image under D A D and D G D_b is <= 0, its boundary data -e_j or 0,
    and it is minus column j of the dense D A^{-1} D, or of the dense
    -(D A^{-1} D)(D G D_b) when only boundary_monotone fails, to rounding.
    j is the first column of the report's block (k, l) with an entry of
    species k below -TOL_OP max|A^{-1}|, through the slab scan and the LU
    scan alike.  Blocks or columns that rounding could reorder, their dense
    values within the rounding bound of each other or of the threshold,
    leave j unchecked.  Where both decisions hold there is no field."""
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
    for rep, cex in ((rep, refute(asys, rep)), _lu_refutation(asys, gauge)):
        if rep.inverse_positive and rep.boundary_monotone:
            assert cex is None
            continue
        boundary = bool(rep.inverse_positive)
        assert cex.which == ("oracle-boundary" if boundary else "oracle")
        dense, b = (bnd, bound_bnd) if boundary else (inv, bound)
        width = dense.shape[1] // ns
        v, g = cex.w.interior.ravel(), cex.w.boundary.ravel()
        assert np.abs(v + dense[:, cex.j]).max() <= b
        d, d_bnd = np.repeat(signs, n_int), np.repeat(signs, asys.grid.n_boundary)
        image = d * (asys.A @ (d * v) + asys.G @ (d_bnd * g))
        assert image.max() <= 1e-8 * inf_norm(asys.A) * np.abs(v).max()
        expect_g = np.zeros_like(g)
        if boundary:
            expect_g[cex.j] = -1.0
        assert np.array_equal(g, expect_g)
        blocks = dense.reshape(ns, n_int, ns, width).min(axis=(1, 3))  # [k, l]
        near = np.argwhere(blocks <= dense.min() + 2 * b)
        if len(near) > 1 or dense.min() >= -threshold - b:
            continue  # rounding could pick another block, or no column
        (k, l), = near
        assert cex.verified
        col_min = dense[k * n_int : (k + 1) * n_int, l * width : (l + 1) * width].min(axis=0)
        first = int(np.argmax(col_min < -threshold))
        if (np.abs(col_min[: first + 1] + threshold) > b).all():
            assert cex.j == l * width + first


def _strip_singular():
    """The 20^2 scalar Laplacian with c = -4 h^-2 (sin^2(pi h / 2) +
    sin^2(pi / 22)): the Dirichlet problem on its first 10 grid lines alone
    has eigenvalue 0, so S_10 is singular, while A is not (kappa_inf 792)."""
    h = 1.0 / 20
    c = -4.0 / h**2 * (np.sin(np.pi * h / 2) ** 2 + np.sin(np.pi / 22) ** 2)
    return assemble_system(laplace_system(build_grid(2, 0.0, 1.0, 20), c=c))


def _hand_offs(caplog):
    """The reasons logged for handing the slab scan to the LU scan."""
    prefix = "slab scan handed to the LU scan: "
    return [
        r.getMessage()[len(prefix) :]
        for r in caplog.records
        if r.name == "elcomp.oracle" and r.getMessage().startswith(prefix)
    ]


def test_slab_guard_takes_the_lu_scan_on_a_singular_strip(monkeypatch, caplog):
    """Unguarded, the recursion through the singular S_10 is off by more
    than max|A^{-1}|.  The guard sends the scan to the LU path, whose
    report inverse_positivity then gives; the hand-off is logged with
    phi's value."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    asys = _strip_singular()
    inv = dense_inverse(asys.A)
    scale = float(np.abs(inv).max())
    assert oracle._scan_slabs(asys) is None
    (reason,) = _hand_offs(caplog)
    assert reason.startswith("phi ") and reason.endswith("exceeds SLAB_PHI_MAX 3e+03")
    assert float(reason.split()[1]) > oracle.SLAB_PHI_MAX
    rep = inverse_positivity(asys)
    assert list(asys._oracle_cache.values()) == [oracle._scan_inverse(asys)]
    assert not rep.inverse_positive
    assert abs(rep.min_entry - float(inv.min())) <= 1e-12 * scale
    monkeypatch.setattr(oracle, "SLAB_PHI_MAX", np.inf)
    unguarded, _ = oracle._scan_slabs(asys)
    assert max(abs(v - float((s * inv).min())) for (_, _, s), v in unguarded.items()) > scale


@pytest.mark.parametrize("cells", [(12, 12), (16, 7), (7, 16)])
def test_singular_two_d_system_raises(cells, monkeypatch, caplog):
    """c at minus the least eigenvalue of the discrete Laplacian leaves A
    singular to working precision: the slab scan's guard trips, which is
    logged with its reason, and the LU scan raises SingularMatrix as the
    dense inverse does.  Without the Schur complements' bound, the slab
    scan raises SingularMatrix itself on |A| max|A^{-1}| > 1 / SINGULAR_RTOL,
    and hands nothing off."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    h = 1.0 / np.asarray(cells)
    c = -4.0 * float((np.sin(np.pi * h / 2) ** 2 / h**2).sum())
    asys = assemble_system(laplace_system(build_grid(2, 0.0, 1.0, cells), c=c))
    with pytest.raises(SingularMatrix):
        dense_inverse(asys.A)
    assert oracle._scan_slabs(asys) is None
    (reason,) = _hand_offs(caplog)
    assert reason.startswith("phi ")
    with pytest.raises(SingularMatrix):
        inverse_positivity(asys)
    caplog.clear()
    monkeypatch.setattr(oracle, "SLAB_PHI_MAX", np.inf)
    with pytest.raises(SingularMatrix, match=r"\|A\| max\|A\^-1\| = .* above 1 / 1e-14"):
        oracle._scan_slabs(asys)
    assert _hand_offs(caplog) == []


def test_slab_scan_logs_a_singular_line_and_a_wide_coupling(caplog):
    """A zero row in the first line leaves S_0 singular; an entry that
    couples lines 0 and 3 leaves A not block tridiagonal.  Either hands the
    scan to the LU path and logs why, and the LU scan then decides."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    asys = assemble_system(laplace_system(build_grid(2, 0.0, 1.0, (6, 18))))
    perm, _, per_line = oracle._line_order(asys.grid, 1)
    a = asys.A.tolil()
    a[perm[0], :] = 0.0
    singular = replace(asys, A=a.tocsr(), _oracle_cache={})
    assert oracle._scan_slabs(singular) is None
    assert _hand_offs(caplog) == ["S_0 is singular"]
    with pytest.raises(SingularMatrix):
        inverse_positivity(singular)
    caplog.clear()
    a = asys.A.tolil()
    a[perm[0], perm[3 * per_line]] = -1.0
    wide = replace(asys, A=a.tocsr(), _oracle_cache={})
    assert oracle._scan_slabs(wide) is None
    assert _hand_offs(caplog) == ["A is not block tridiagonal"]
    assert inverse_positivity(wide).inverse_positive


@pytest.mark.parametrize(
    "cells, n_species, slabs",
    [((40, 3), 1, False), ((60, 8), 1, False), ((60, 8), 3, True), ((20, 20), 1, True)],
)
def test_narrow_two_d_grids_take_the_lu_scan(cells, n_species, slabs, monkeypatch, caplog):
    """A 2D grid takes the slab scan only when its lines hold SLAB_MIN_WIDTH
    unknowns or more, species included; a narrower one logs its width."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    tried = []
    scan = oracle._scan_slabs
    monkeypatch.setattr(oracle, "_scan_slabs", lambda asys: tried.append(1) or scan(asys))
    grid = build_grid(2, 0.0, 1.0, cells)
    rep = inverse_positivity(assemble_system(laplace_system(grid, n_species=n_species)))
    assert rep.inverse_positive
    assert bool(tried) == slabs
    width = n_species * (min(cells) - 1)
    expect = [] if slabs else [f"lines hold {width} unknowns, below SLAB_MIN_WIDTH 16"]
    assert _hand_offs(caplog) == expect


@pytest.mark.parametrize(
    "asys",
    [
        _pair(build_grid(2, 0.0, 1.0, (12, 9)), [["0", "-1"], ["-0.5", "0"]]),
        assemble_system(
            laplace_system(
                build_grid(2, 0.0, 1.0, (7, 10)),
                n_species=3,
                m=[["0", "-1", "0"], ["0", "0", "-0.5"], ["-0.5", "0", "0"]],
            )
        ),
    ],
    ids=["pair", "three"],
)
def test_slab_scan_inverts_each_line_once(asys, monkeypatch):
    """Each line Schur complement S_p is inverted once: the recursion reads
    S_p^{-1} off the stack that the guard's pass kept."""
    calls = []
    inverse = oracle._inverse
    monkeypatch.setattr(oracle, "_inverse", lambda s: calls.append(1) or inverse(s))
    assert oracle._scan_slabs(asys) is not None
    _, n_lines, _ = oracle._line_order(asys.grid, asys.n_species)
    assert len(calls) == n_lines


def _text_system(species, coupling, shape=(18, 16)):
    return parse_problem(system_text(shape, species, coupling)).discretize().assembled("full")


_COOP_PAIR = load_problem(
    Path(oracle.__file__).parent / "data" / "cooperative_pair.prob"
).discretize().assembled("full")


@pytest.mark.parametrize(
    "asys, mirrored",
    [
        (_COOP_PAIR, True),
        (_text_system([{"a11": "1 + x", "c": "1"}, {"a22": "1 + y"}], {"m12": "0.5", "m21": "-0.3"}), True),
        (_text_system([{"a11": "1 + x"}, {"c": "2"}], {"m21": "-1.5"}), False),
    ],
    ids=["cooperative_pair", "predator-prey", "one-way"],
)
def test_mirrored_scan_makes_no_left_chain_products(asys, mirrored, monkeypatch):
    """Left of its diagonal, a mirrored scan builds only G_{p+1,p} = G_{p+1,
    p+1} Q_p, one product with Q per row below the first; a one-way
    coupling leaves A W unsymmetric, and every G_{p,q} = G_{p,q+1} Q_q of
    the full rows is built."""
    stacks, products = [], []
    line_schur, matmul = oracle._line_schur, np.matmul

    def keeping(*args):
        stacks.append(line_schur(*args))
        return stacks[-1]

    def counting(x, y, *args, **kwargs):
        if stacks and y.base is stacks[0][0]:  # a block of the Q stack
            products.append(1)
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(oracle, "_line_schur", keeping)
    monkeypatch.setattr(np, "matmul", counting)
    assert oracle._scan_slabs(asys) is not None
    _, n_lines, _ = oracle._line_order(asys.grid, asys.n_species)
    assert len(products) == (n_lines - 1 if mirrored else n_lines * (n_lines - 1) // 2)


_FULL = "full rows, lower half not mirrored: "


@pytest.mark.parametrize(
    "species, coupling, record",
    [
        ([{"c": "1"}, {"c": "2"}], {"m12": "-1", "m21": "-1"}, "lower half mirrored, species weights (1, 1)"),
        ([{"a11": "1 + x"}, {}], {"m12": "0.5", "m21": "-0.25"}, "lower half mirrored, species weights (1, -0.5)"),
        ([{"c": "1"}, {"b1": "2"}], {"m12": "-1", "m21": "-1"}, _FULL + "species block 2 is not symmetric"),
        ([{}, {}], {"m12": "-1", "m21": "-1 - x"}, _FULL + "m_21/m_12 varies"),
        ([{}, {}], {"m21": "-1"}, _FULL + "m_21 is present without m_12"),
        (
            [{"c": "4"}] * 3,
            {"m12": "-1", "m21": "-1", "m23": "-1", "m32": "-1", "m13": "-1", "m31": "-2"},
            _FULL + "the weights are inconsistent around a cycle",
        ),
        (
            [{"a12": "0.1", "a21": "0.1"}] * 2,
            {"m12": "-1", "m21": "-1"},
            _FULL + "a boundary value enters more than one equation",
        ),
    ],
    ids=["equal", "weighted", "convection", "varying", "one-way", "cycle", "nine-point"],
)
def test_slab_scan_logs_which_lower_half_it_builds(species, coupling, record, caplog):
    """Each slab scan logs one DEBUG record: the species weights it mirrors
    the lower half of A^{-1} with, or the first reason it builds full rows."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    assert oracle._scan_slabs(_text_system(species, coupling)) is not None
    assert [r.getMessage() for r in caplog.records if r.name == "elcomp.oracle"] == [record]


@st.composite
def _slab_rows(draw):
    """The line order of a small 2D grid for 1-3 species, species weights or
    none, and a few block rows of a line-numbered A^{-1}, each held
    transposed as the slab scan folds it: whole, or from its diagonal line
    on when there are weights.  The entries are drawn mostly from a few
    values, so extremes repeat across lines, nodes and species, and across
    the mirror where the weights are equal; some species blocks (the same
    in every row) are exact zeros."""
    ns = draw(st.integers(1, 3))
    cells = (draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    perm, n_lines, per_line = oracle._line_order(build_grid(2, 0.0, 1.0, cells), ns)
    m = ns * per_line
    weights = draw(st.none() | st.lists(st.sampled_from([1.0, -1.0, 2.0, -0.5, 0.3]),
                                        min_size=ns, max_size=ns))
    ratio = None if weights is None else np.divide.outer(weights, weights)
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-4.0, 4.0)
    zero = np.argwhere(draw(arrays(bool, (ns, ns))))  # (l, k) of zero blocks
    rows = []
    for p in draw(st.lists(st.integers(0, n_lines - 1), min_size=1, max_size=4)):
        lines = n_lines if ratio is None else n_lines - p
        t = draw(arrays(float, (lines * m, m), elements=values))
        blocks = t.reshape(lines, ns, per_line, ns, per_line)  # [line, l, node, k, y]
        for l, k in zero:
            blocks[:, l, :, k, :] = 0.0
        rows.append((t, p))
    return perm, ns, per_line, ratio, rows


def _scaled_node_zero_rows():
    """Species weights (1, 2) on 2 lines of 2 nodes, and row 0, whose
    transposed block (1, 2) right of line 0 holds -2 at node 0 and -4 at
    node 1: scaled by 1/2, its least entry -2 is at node 1, though node 0
    holds -2 unscaled."""
    perm, n_lines, per_line = oracle._line_order(build_grid(2, 0.0, 1.0, (3, 3)), 2)
    t = np.zeros((n_lines * 2 * per_line, 2 * per_line))
    t.reshape(n_lines, 2, per_line, 2, per_line)[1, 0, :, 1, 0] = [-2.0, -4.0]
    return perm, 2, per_line, np.divide.outer([1.0, 2.0], [1.0, 2.0]), [(t, 0)]


@given(_slab_rows())
@example(_scaled_node_zero_rows())
@settings(max_examples=120, deadline=None)
def test_row_fold_matches_a_brute_force_fold(case):
    """Folding block rows one after another keeps, for every species block
    and sign, the extreme that a fold over every entry keeps, blocks of
    exact zeros included; with weights, the mirrored entries right of each
    diagonal line too."""
    _, ns, per_line, ratio, rows = case
    extremes, expect = oracle._Extremes(ns, per_line, ratio), {}
    for t, _ in rows:
        assert extremes.fold(t)
        reference_row_fold(expect, t, ns, per_line, ratio)
    assert extremes.result() == expect


@pytest.mark.parametrize("cells, lines", [((4, 9), 8), ((9, 4), 8), ((6, 6), 5)])
def test_slab_lines_cut_across_the_longer_axis(cells, lines):
    """The slab scan's lines run along the shorter axis, so there are as
    many as the longer axis has interior nodes; each lists its species in
    turn, each species' nodes in increasing order."""
    grid = build_grid(2, 0.0, 1.0, cells)
    perm, n_lines, per_line = oracle._line_order(grid, 2)
    assert (n_lines, per_line) == (lines, grid.n_interior // lines)
    assert np.array_equal(np.sort(perm), np.arange(2 * grid.n_interior))
    by_line = perm.reshape(n_lines, 2, per_line)
    assert (by_line // grid.n_interior == np.arange(2)[:, None]).all()
    assert (np.diff(by_line, axis=2) > 0).all()


@given(_oracle_case(cross=True), st.sampled_from((3, 8, 64)))
@settings(max_examples=40, deadline=None)
def test_boundary_scan_equals_solves_against_minus_g(case, block):
    """The LU scan's extremes of -(A^{-1} G) equal, bit for bit, those of
    LuFactor(A).solve(-G) taken in the same groups of BLOCK columns, cross
    diffusion included: the scan solves against -G's columns as they are,
    whatever rows of A a boundary value enters."""
    asys, _ = case
    n_int, n_bnd, ns = asys.grid.n_interior, asys.grid.n_boundary, asys.n_species
    minus_g = -asys.G.toarray()
    expect = {}
    try:
        lu = LuFactor(asys.A)
        for c0 in range(0, minus_g.shape[1], block):
            x = lu.solve(minus_g[:, c0 : c0 + block])
            for c, col in enumerate(x.T, start=c0):
                for k in range(ns):
                    part = col[k * n_int : (k + 1) * n_int]
                    for s, v in ((1, part.min()), (-1, -part.max())):
                        key = (k, c // n_bnd, s)
                        expect[key] = min(expect.get(key, float(v)), float(v))
    except SingularMatrix:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", block)
        _, bnd = oracle._scan_inverse(asys)
    # + 0.0 makes -0.0 and 0.0 one value, which the two orders may tie on
    assert {key: repr(v + 0.0) for key, v in bnd.items()} == {
        key: repr(v + 0.0) for key, v in expect.items()
    }


@pytest.mark.parametrize("n", [8, 128, 1000])
def test_lu_scan_reads_the_discrete_greens_function(n):
    """For -u'' on (0, 1) with n cells, A^{-1} is the discrete Green's
    function h x_i (1 - x_j), i <= j: its least entry is h^3.  -A^{-1} G
    holds the harmonic extensions 1 - x and x of the two boundary values,
    whose least entry is h.  Both are closed forms, whatever order the scan
    sums in, and nothing is refuted."""
    h = 1.0 / n
    asys = assemble_system(laplace_system(build_grid(1, 0.0, 1.0, n)))
    rep = inverse_positivity(asys)
    assert rep.inverse_positive and rep.boundary_monotone
    assert rep.min_entry == pytest.approx(h**3, rel=1e-12)
    assert rep.min_boundary_entry == pytest.approx(h, rel=1e-12)
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
    """The LU scan reads its right-hand sides off CSC arrays, the
    identity's and one copy of G's: a 1D system of 2 column blocks, one of
    16 and a 2D pair of 17 build the same number of scipy sparse matrices.  The slab scan reads
    A's blocks off one line-numbered copy: 2D systems of 8 to 23 lines and
    1 to 3 species build the same number as each other."""
    built = []
    init = sparse_base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    def counts(scan, systems):
        out = []
        for asys in systems:
            assert asys.G.nnz
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sparse_base._spbase, "__init__", counting)
                assert scan(asys) is not None
            out.append(len(built))
            built.clear()
        return out

    systems = [
        _pair(build_grid(2, 0.0, 1.0, 24), [["0", "-1"], ["-0.5", "0"]]),
        *(assemble_system(laplace_system(build_grid(1, 0.0, 1.0, n))) for n in (128, 1024)),
    ]
    lu = counts(oracle._scan_inverse, systems)
    assert [asys.A.shape[0] for asys in systems] == [1058, 127, 1023]
    assert lu[0] == lu[1] == lu[2], lu
    slabs = counts(
        oracle._scan_slabs,
        [
            systems[0],
            _pair(build_grid(2, 0.0, 1.0, (4, 9)), [["0", "-1"], ["-0.5", "0"]]),
            assemble_system(laplace_system(build_grid(2, 0.0, 1.0, (12, 20)), n_species=3)),
        ],
    )
    assert slabs[0] == slabs[1] == slabs[2], slabs
