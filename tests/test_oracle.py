"""Inverse-positivity ground truth on small assembled systems."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._base as sparse_base
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elcomp import oracle
from elcomp.assembly import DiscreteSystem, assemble_system
from elcomp.errors import DimMismatch, SingularMatrix, TooLarge, ValidationError
from elcomp.fields import block_from_exprs, block_from_solution
from elcomp.linalg import dense_inverse, row_ids
from elcomp.mesh import build_grid
from elcomp.oracle import (
    TOL_OP,
    inverse_positivity,
    random_probe,
    solve_system,
    verify_subsolution,
)
from elcomp.expressions import parse_expr

from helpers import laplace_system, reference_boundary_scan


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
    assert rep.witness is not None
    i, j = rep.witness
    assert 0 <= i < 15 and 0 <= j < 15


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
        inverse_positivity(asys, max_dof=32)


def test_verify_subsolution_block_field():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, f=[1.0])
    asys = assemble_system(spec)
    u = solve_system(asys)
    block = block_from_solution(grid, 1, u, asys.g_vec)
    ok, res = verify_subsolution(asys, block)
    assert ok
    assert abs(res) <= 1e-10
    # bumping the peak turns it into a strict supersolution violation
    bumped = block.values.copy()
    bumped[0, 8] += 0.1
    from elcomp.fields import BlockField

    ok2, res2 = verify_subsolution(asys, BlockField(grid, bumped))
    assert not ok2
    assert res2 > 1.0


def test_verify_subsolution_flat_vector():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    asys = assemble_system(laplace_system(grid, f=[1.0]))
    u = solve_system(asys)
    ok, _ = verify_subsolution(asys, u)
    assert ok
    with pytest.raises(DimMismatch):
        verify_subsolution(asys, u[:-1])


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
    assert rep1.witness == rep2.witness
    good = assemble_system(laplace_system(grid))
    rep3 = random_probe(good, trials=20, seed=0)
    assert rep3.inverse_positive
    assert rep3.sampled


def test_oracle_report_json_shape():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    rep = inverse_positivity(assemble_system(laplace_system(grid)))
    d = rep.to_json_dict()
    assert set(d) == {
        "inverse_positive",
        "min_entry",
        "witness",
        "boundary_monotone",
        "min_boundary_entry",
        "dof",
        "gauge",
        "sampled",
        "trials",
    }
    assert d["inverse_positive"] is True
    assert isinstance(d["witness"], list)


def _reference(asys, gauge):
    """The oracle's decision as one dense inverse of D A D and a dense
    product with D G D_b: (min_entry, witness, inverse_positive,
    min_boundary_entry, boundary_monotone)."""
    signs = np.ones(asys.n_species) if gauge is None else np.asarray(gauge, float)
    d = sp.diags(np.repeat(signs, asys.grid.n_interior))
    d_bnd = sp.diags(np.repeat(signs, asys.grid.n_boundary))
    inv = dense_inverse((d @ asys.A @ d).tocsr(), max_dof=10**6)
    scale = float(np.abs(inv).max())
    min_entry = float(inv.min())
    witness = tuple(int(i) for i in np.unravel_index(int(np.argmin(inv)), inv.shape))
    if asys.G.nnz:
        min_boundary = float((-(inv @ (d @ asys.G @ d_bnd).toarray())).min())
    else:
        min_boundary = 0.0
    return (
        min_entry,
        witness,
        min_entry >= -TOL_OP * scale,
        min_boundary,
        min_boundary >= -TOL_OP * scale,
    )


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
def _oracle_case(draw, cross=False):
    """A random 1-3 species system and gauge.  Random reaction and coupling
    signs give Z and non-Z matrices, with inverses of either sign; some
    off-diagonal coupling blocks are zero.  Without cross diffusion every
    boundary value enters one equation, so the dense and the streamed
    boundary products round alike; with it (2D only) a boundary value
    enters up to three."""
    if not cross and draw(st.booleans()):
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
    m[~draw(arrays(bool, (ns, ns)))] = 0.0
    zeros = np.zeros((ns, nn))
    ds = DiscreteSystem(grid, ns, a, b, c, m, zeros, zeros)
    gauge = draw(st.none() | st.tuples(*[st.sampled_from((1, -1))] * ns))
    return ds.assemble("full"), gauge


@given(_oracle_case())
@settings(max_examples=80, deadline=None)
def test_streamed_oracle_matches_dense_inverse(case):
    """The block scan of A^{-1} gives the dense inverse's answer exactly,
    for any gauge, in any order of gauged and plain calls."""
    asys, gauge = case
    for g in (None, gauge):  # the second call reads the kept scan
        try:
            expect = _reference(asys, g)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                inverse_positivity(asys, gauge=g)
            continue
        rep = inverse_positivity(asys, gauge=g)
        got = (
            rep.min_entry,
            rep.witness,
            rep.inverse_positive,
            rep.min_boundary_entry,
            rep.boundary_monotone,
        )
        assert got == expect


@given(_oracle_case(cross=True))
@settings(max_examples=40, deadline=None)
def test_streamed_boundary_sums_span_blocks(case):
    """With blocks of 8 columns, the rows a boundary value enters fall in
    different blocks, and its column of A^{-1} G is summed across them.
    The dense product adds those terms in BLAS order, so the boundary
    minimum agrees to rounding only."""
    asys, gauge = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", 8)
        try:
            expect = _reference(asys, gauge)
        except SingularMatrix:
            return
        rep = inverse_positivity(asys, gauge=gauge)
    assert (rep.min_entry, rep.witness, rep.inverse_positive) == expect[:3]
    assert rep.min_boundary_entry == pytest.approx(expect[3], rel=1e-12, abs=1e-15)
    assert rep.boundary_monotone == expect[4]


@given(_oracle_case(cross=True), st.sampled_from((3, 8, 64)))
@settings(max_examples=40, deadline=None)
def test_boundary_fold_equals_the_sparse_product(case, block):
    """Folding each block's share of A^{-1} G from G's arrays gives, bit for
    bit, the extremes of the sparse-product route, whose column sums add
    each block's terms in increasing row onto 0.0 before the running sum."""
    asys, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "BLOCK", block)
        try:
            expect = reference_boundary_scan(asys, block)
        except SingularMatrix:
            return
        _, bnd = oracle._scan_inverse(asys)
    assert {key: repr(v) for key, v in bnd.items()} == {
        key: repr(v) for key, v in expect.items()
    }


@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_block_fold_sums_like_the_sparse_product(seed, block):
    """The running column sums of A^{-1} G, folded block by block from G's
    arrays, equal bit for bit those of the sparse product G[c0:c1].T @ x.T
    added block by block, for columns with several rows in one block and
    across blocks."""
    rng = np.random.default_rng(seed)
    n = 24
    dense = np.where(rng.random((n, 10)) < 0.3, rng.uniform(-2.0, 2.0, (n, 10)), 0.0)
    g = sp.csr_matrix(dense)
    inverse = rng.uniform(-1.0, 1.0, (n, n))
    rows = row_ids(g)
    open_ids, sums = np.empty(0, dtype=np.intp), np.zeros((n, 0))
    expect = {}
    for c0 in range(0, n, block):
        c1 = min(c0 + block, n)
        x = inverse[:, c0:c1].copy()
        lo, hi = g.indptr[c0], g.indptr[c1]
        if hi > lo:
            open_ids, sums = oracle._fold_block(
                open_ids, sums, x, rows[lo:hi] - c0, g.indices[lo:hi], g.data[lo:hi]
            )
        g_rows = g[c0:c1]
        cols = np.unique(g_rows.indices)
        for j, v in zip(cols, g_rows[:, cols].T @ x.T):
            expect[j] = expect.get(j, 0.0) + v
    assert open_ids.tolist() == sorted(expect)
    for i, j in enumerate(open_ids):
        assert sums[:, i].tobytes() == expect[j].tobytes()


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
    """The scan reads G's CSR arrays: a 1D system of 2 column blocks, one
    of 16 and a 2D pair of 17 build the same number of scipy sparse
    matrices, all of them for the one factorization."""
    built = []
    init = sparse_base._spbase.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    systems = [
        _pair(build_grid(2, 0.0, 1.0, 24), [["0", "-1"], ["-0.5", "0"]]),
        *(assemble_system(laplace_system(build_grid(1, 0.0, 1.0, n))) for n in (128, 1024)),
    ]
    counts = []
    for asys in systems:
        assert asys.G.nnz
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_base._spbase, "__init__", counting)
            oracle._scan_inverse(asys)
        counts.append(len(built))
        built.clear()
    assert [asys.A.shape[0] for asys in systems] == [1058, 127, 1023]
    assert counts[0] == counts[1] == counts[2], counts
