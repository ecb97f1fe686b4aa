"""Finite-difference assembly against hand-built stencils and exact solutions."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elcomp import assembly
from elcomp.assembly import (
    DiscreteSystem,
    assemble_system,
    as_discrete,
    check_z_matrix,
)
from elcomp.certify import certify
from elcomp.errors import NonEllipticCoefficient, ValidationError
from elcomp.expressions import parse_expr
from elcomp.linalg import content_key, dense_inverse, shifted
from elcomp.mesh import build_grid, sub_rectangle_mask
from elcomp.problems import load_problem

from helpers import (
    laplace_system,
    op_of,
    reference_assembly,
    reference_scalar_parts,
    scalar_parts_of,
    system_of,
)


def test_1d_laplacian_stencil_exact():
    # h = 1/4, constant diffusion: rows are (-16, 32, -16)
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    A, G = scalar_parts_of(op_of(1), grid)
    expected = 16.0 * np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )
    assert np.array_equal(A.toarray(), expected)
    # boundary columns: node 0 next to row 0, node 4 next to row 2
    Gd = G.toarray()
    assert Gd[0, 0] == -16.0 and Gd[2, 1] == -16.0
    assert Gd[0, 1] == 0.0 and Gd[1, :].sum() == 0.0


def test_1d_green_function_inverse():
    """Inverse of the discrete Laplacian is the exact lattice Green function
    h * min(x, y) * (1 - max(x, y))."""
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    A, _ = scalar_parts_of(op_of(1), grid)
    inv = dense_inverse(A)
    x = grid.coords[grid.interior_ids, 0]
    h = grid.h[0]
    expected = h * np.minimum.outer(x, x) * (1.0 - np.maximum.outer(x, x))
    assert np.allclose(inv, expected, atol=1e-12)


def test_variable_diffusion_face_averages():
    # a(x) = 1 + x sampled at nodes; faces take arithmetic means
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    A, G = scalar_parts_of(op_of(1, a="1 + x"), grid)
    h2 = 16.0
    a_nodes = 1.0 + np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    faces = 0.5 * (a_nodes[:-1] + a_nodes[1:])
    row1 = A.toarray()[1]
    assert row1[0] == pytest.approx(-faces[1] * h2)
    assert row1[2] == pytest.approx(-faces[2] * h2)
    assert row1[1] == pytest.approx((faces[1] + faces[2]) * h2)


def test_constant_function_annihilated():
    """A @ 1 + G @ 1 recovers the reaction coefficient exactly."""
    grid = build_grid(2, 0.0, 1.0, 5)
    A, G = scalar_parts_of(op_of(2, a="1 + x * y", b=("y", "-x"), c="3"), grid)
    ones_i = np.ones(A.shape[1])
    ones_b = np.ones(G.shape[1])
    assert np.allclose(A @ ones_i + G @ ones_b, 3.0, atol=1e-11)


def test_upwind_convection_exact_on_linear():
    # first-order upwind differentiates linear functions exactly
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    for b in (2.5, -2.5):
        A, G = scalar_parts_of(op_of(1, b=(b,)), grid)
        u = grid.coords[:, 0]
        lhs = A @ u[grid.interior_ids] + G @ u[grid.boundary_ids]
        assert np.allclose(lhs, b, atol=1e-12)


def test_upwind_keeps_z_sign_pattern():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    A, _ = scalar_parts_of(op_of(1, b=("100 * (x - 0.5)",)), grid)
    off = A.toarray().copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() <= 0.0


def test_2d_cross_term_exact_on_xy():
    """u = x y has -div(a grad u) = -2 q for a = [[1, q], [q, 1]];
    centered cross differences are exact on quadratics."""
    q = 0.3
    grid = build_grid(2, 0.0, 1.0, 6)
    a = (("1", str(q)), (str(q), "1"))
    A, G = scalar_parts_of(op_of(2, a=a, c="1"), grid)
    u = grid.coords[:, 0] * grid.coords[:, 1]
    lhs = A @ u[grid.interior_ids] + G @ u[grid.boundary_ids]
    expected = -2.0 * q + u[grid.interior_ids]
    assert np.allclose(lhs, expected, atol=1e-10)


def test_2d_laplacian_quadratic_exact():
    grid = build_grid(2, 0.0, 1.0, 5)
    A, G = scalar_parts_of(op_of(2), grid)
    coords = grid.coords
    u = coords[:, 0] * (1.0 - coords[:, 0]) + coords[:, 1] * (1.0 - coords[:, 1])
    lhs = A @ u[grid.interior_ids] + G @ u[grid.boundary_ids]
    assert np.allclose(lhs, 4.0, atol=1e-10)


def ellipticity_of(op, grid):
    return as_discrete(system_of(grid, (op,))).check_ellipticity()[0]


def test_ellipticity_range_and_rejection():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    lo, hi = ellipticity_of(op_of(1, a="1 + x"), grid)
    assert lo == 1.0 and hi == 2.0
    grid2 = build_grid(2, 0.0, 1.0, 4)
    bad = op_of(2, a=(("1", "1.5"), ("1.5", "1")))
    with pytest.raises(NonEllipticCoefficient):
        ellipticity_of(bad, grid2)


def test_asymmetric_tensor_warns():
    grid = build_grid(2, 0.0, 1.0, 4)
    op = op_of(2, a=(("1", "0.2"), ("0.1", "1")))
    with pytest.warns(UserWarning, match="asymmetry"):
        ellipticity_of(op, grid)


def test_check_z_matrix_reports_worst_entry():
    d = np.array([[2.0, 0.5, 0.0], [0.0, 2.0, -1.0], [0.2, 0.0, 2.0]])
    is_z, pos, worst, offmax = check_z_matrix(sp.csr_matrix(d))
    assert not is_z
    assert pos == (0, 1)
    assert worst == 0.5 and offmax == 0.5
    ok, _, _, offmax2 = check_z_matrix(sp.csr_matrix(np.diag([1.0, 2.0])))
    assert ok and offmax2 == 0.0


def test_check_z_matrix_species_positions():
    # 2 species x 2 interior nodes; offending entry in block (1,2)
    d = np.zeros((4, 4))
    np.fill_diagonal(d, 1.0)
    d[1, 3] = 0.7
    is_z, pos, worst, _ = check_z_matrix(sp.csr_matrix(d), 2)
    assert not is_z
    assert pos == ((1, 1), (2, 1))
    assert worst == 0.7


def test_system_block_layout():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    spec = laplace_system(grid, n_species=2, m=[["0", "x"], ["-1", "0"]])
    asys = assemble_system(spec)
    n_int = grid.n_interior
    A = asys.A.toarray()
    x_int = grid.coords[grid.interior_ids, 0]
    # off-diagonal blocks are diagonal couplings sampled on the interior
    assert np.allclose(np.diag(A[:n_int, n_int:]), x_int)
    assert np.allclose(np.diag(A[n_int:, :n_int]), -1.0)
    # scalar blocks agree with the standalone scalar assembly
    A_scal, _ = scalar_parts_of(op_of(1), grid)
    assert np.allclose(A[:n_int, :n_int], A_scal.toarray())
    assert not asys.z_matrix
    assert asys.offdiag_max == pytest.approx(0.75)  # max of x on interior


def test_cooperative_coupling_drops_positive_part():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    spec = laplace_system(grid, n_species=2, m=[["0", "x"], ["-1", "0"]])
    asys = assemble_system(spec, coupling="cooperative")
    n_int = grid.n_interior
    A = asys.A.toarray()
    assert np.allclose(A[:n_int, n_int:], 0.0)
    assert np.allclose(np.diag(A[n_int:, :n_int]), -1.0)
    assert asys.z_matrix


def test_masked_assembly_restricts_and_zeroes_boundary():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    mask = sub_rectangle_mask(grid, (0.25,), (0.75,))
    ds = as_discrete(laplace_system(grid, f=[1.0]))
    # same tridiagonal stencil as an unmasked grid of the same spacing: the
    # cut-off neighbours carry zero data and drop out
    expected = 64.0 * np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )
    assert np.array_equal(ds.block("full", [0], mask).toarray(), expected)


@st.composite
def _integer_grid_system(draw):
    """Up to three species with random diffusion (cross terms in 2D),
    convection, reaction and coupling, about a third of them exact zeros, on
    a grid of unit spacing, so that every sub-rectangle with integer corners
    has the same, exact h."""
    dim = draw(st.sampled_from((1, 2)))
    cells = tuple(draw(st.integers(3, 7 if dim == 2 else 12)) for _ in range(dim))
    n = draw(st.integers(1, 3))
    grid = build_grid(dim, 0.0, cells, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(*shape):
        v = rng.uniform(-2.0, 2.0, (*shape, grid.n_nodes))
        return np.where(rng.random(v.shape) < 0.35, 0.0, v)

    a = values(n, dim, dim)
    for d in range(dim):
        a[:, d, d] = np.abs(a[:, d, d]) + 0.5
    ds = DiscreteSystem(
        grid, n, a, values(n, dim), values(n), values(n, n), values(n), values(n)
    )
    return ds, draw(st.sampled_from(("full", "cooperative")))


@given(_integer_grid_system(), st.data())
@settings(max_examples=60, deadline=None)
def test_masked_assembly_is_restriction(case, data):
    """The block on a rectangular mask is, bit for bit, the operator
    assembled on the sub-grid the mask cuts out, from the same node values."""
    ds, coupling = case
    grid = ds.grid
    lo, hi = [], []
    for cells in grid.n:
        i0 = data.draw(st.integers(0, cells - 3))
        lo.append(i0)
        hi.append(data.draw(st.integers(i0 + 3, cells)))
    mask = sub_rectangle_mask(grid, lo, hi)
    sub_grid = build_grid(grid.dim, lo, hi, np.subtract(hi, lo))
    on_sub = np.all((grid.coords >= lo) & (grid.coords <= hi), axis=1)
    nodes = np.flatnonzero(on_sub)  # canonical order, as on the sub-grid
    sub = DiscreteSystem(
        sub_grid,
        ds.n_species,
        *(v[..., nodes] for v in (ds.a_vals, ds.b_vals, ds.c_vals, ds.m_vals,
                                  ds.f_vals, ds.g_vals)),
    )
    block = ds.block(coupling, range(ds.n_species), mask)
    assert content_key(block) == content_key(sub.assemble(coupling).A)


@given(_integer_grid_system(), st.data())
@settings(max_examples=60, deadline=None)
def test_species_block_is_restriction(case, data):
    """The block of a species subset is, bit for bit, the operator of a
    system built from those species' coefficient arrays alone."""
    ds, coupling = case
    species = data.draw(
        st.lists(st.integers(0, ds.n_species - 1), min_size=1, unique=True).map(sorted)
    )
    ix = np.array(species)
    sub = DiscreteSystem(
        ds.grid,
        len(ix),
        ds.a_vals[ix],
        ds.b_vals[ix],
        ds.c_vals[ix],
        ds.m_vals[np.ix_(ix, ix)],
        ds.f_vals[ix],
        ds.g_vals[ix],
    )
    block = ds.block(coupling, species)
    assert content_key(block) == content_key(sub.assemble(coupling).A)


@given(_integer_grid_system())
@settings(max_examples=60, deadline=None)
def test_assembly_equals_the_block_reference(case):
    """The one-CSR build gives, bit for bit, the A and G of the sp.diags +
    sp.bmat route, cross diffusion, convection and zero couplings included."""
    ds, coupling = case
    asys = ds.assemble(coupling)
    A, G = reference_assembly(ds, coupling)
    assert content_key(asys.A) == content_key(A)
    assert content_key(asys.G) == content_key(G)


def test_a_diagonal_that_sums_to_zero_stays_stored():
    """Every row of A stores its diagonal entry; the block route drops one
    that sums to exactly 0.0 and is otherwise the same matrix.  A - s*I is
    then the same on both."""
    grid = build_grid(1, (0.0,), (1.0,), (4,))  # h = 1/4: Laplacian diagonal 32
    ds = laplace_system(grid, n_species=2, m=[["-32", "-1"], ["-1", "0"]]).discretize()
    A = ds.assemble("full").A
    ref, _ = reference_assembly(ds, "full")
    assert A.nnz == ref.nnz + 3
    assert np.array_equal(A.toarray(), ref.toarray())
    for r in range(3):
        row = A.indices[A.indptr[r] : A.indptr[r + 1]]
        assert r in row and A[r, r] == 0.0
    assert content_key(shifted(A, 2.5)) == content_key(ref - 2.5 * sp.identity(6, format="csr"))


def test_cancelling_cross_terms_leave_no_zero_in_the_stencil():
    """With a12 = -a21 the two cross-derivative terms at each corner cancel
    to 0.0: the scalar part drops them (its diagonal aside), while G keeps
    its explicit zeros, as the block route does."""
    grid = build_grid(2, 0.0, 1.0, 4)
    twisted = op_of(2, a=(("1", "1"), ("-1", "1")))
    ds = system_of(grid, (twisted, op_of(2)), m=[["0", "-0.5"], ["-1", "0"]]).discretize()
    A_1, G_1 = ds.scalar_parts(0)
    assert not (A_1.data == 0.0).any() and (G_1.data == 0.0).any()
    # what is left is the five-point pattern of the Laplacian
    assert A_1.nnz == ds.scalar_parts(1)[0].nnz
    for coupling in ("full", "cooperative"):
        asys = ds.assemble(coupling)
        A, G = reference_assembly(ds, coupling)
        assert content_key(asys.A) == content_key(A)
        assert content_key(asys.G) == content_key(G)


@st.composite
def _stencil_case(draw):
    """Node values for one scalar operator on a small 1D or 2D grid of
    dyadic spacing: exact zeros of both signs, convection of both signs
    and, in 2D, cross diffusion.  Half the draws take values from a few
    dyadic numbers, so that stencil slots sum to exactly 0.0 (cross terms
    with a12 = -a21, or diffusion against convection) inside and on the
    boundary; every grid this small has rows next to the boundary on every
    side."""
    dim = draw(st.sampled_from((1, 2)))
    grid = build_grid(dim, 0.0, 1.0, tuple(draw(st.sampled_from((4, 8))) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    few = draw(st.booleans())

    def values(*shape):
        shape = (*shape, grid.n_nodes)
        if few:
            return rng.choice([-4.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 4.0], shape)
        v = rng.uniform(-2.0, 2.0, shape)
        pick = rng.random(shape)
        v[pick < 0.2] = 0.0
        v[pick > 0.85] = -0.0
        return v

    a = values(dim, dim)
    if dim == 2 and draw(st.booleans()):
        a[1, 0] = -a[0, 1]
    return a, values(dim), values(), grid


@given(_stencil_case())
@settings(max_examples=80, deadline=None)
def test_scalar_parts_equal_the_coo_reference(case):
    """Stencils written row by row in column order give, bit for bit, the
    A_k and G_k of the triplet route that sums duplicates in a sort."""
    a, b, c, grid = case
    A, G = assembly._assemble_scalar_values(a, b, c, grid)
    A_ref, G_ref = reference_scalar_parts(a, b, c, grid)
    assert content_key(A) == content_key(A_ref)
    assert content_key(G) == content_key(G_ref)


@st.composite
def _coupling_sign_case(draw):
    """A 1-3 species system whose couplings are nonpositive (-0.0 among
    them) except where a draw puts a positive value: nowhere, at one
    interior node off or on the diagonal, or only on boundary nodes."""
    dim = draw(st.sampled_from((1, 2)))
    grid = build_grid(dim, 0.0, 1.0, tuple(draw(st.integers(3, 5)) for _ in range(dim)))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nn = grid.n_nodes
    m = rng.choice([-1.5, -0.25, -0.0, 0.0], size=(n, n, nn))
    k, l = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    where = draw(st.sampled_from(("nowhere", "interior", "diagonal", "boundary")))
    if where == "interior":
        m[k, l, rng.choice(grid.interior_ids)] = 0.5
    elif where == "diagonal":
        m[k, k, rng.choice(grid.interior_ids)] = 0.5
    elif where == "boundary":
        m[k, l, rng.choice(grid.boundary_ids)] = 0.5
    a = np.zeros((n, dim, dim, nn))
    for d in range(dim):
        a[:, d, d] = rng.uniform(0.5, 2.0, (n, nn))
    ds = DiscreteSystem(
        grid,
        n,
        a,
        rng.uniform(-1.0, 1.0, (n, dim, nn)),
        rng.uniform(-1.0, 1.0, (n, nn)),
        m,
        np.zeros((n, nn)),
        np.zeros((n, nn)),
    )
    return ds, draw(st.permutations(["full", "cooperative"]))


@given(_coupling_sign_case())
@settings(max_examples=60, deadline=None)
def test_modes_share_one_assembly_exactly_without_positive_coupling(case):
    """assembled("cooperative") is assembled("full") exactly when no interior
    value of m is positive, whichever mode is asked for first, and each mode
    is bit for bit a fresh assembly of that mode."""
    ds, order = case
    built = {mode: ds.assembled(mode) for mode in order}
    positive = (ds.m_vals[:, :, ds.grid.interior_ids] > 0.0).any()
    assert (built["cooperative"] is built["full"]) == (not positive)
    for mode, asys in built.items():
        fresh = ds.assemble(mode)
        assert content_key(asys.A, asys.G) == content_key(fresh.A, fresh.G)
        assert (asys.z_matrix, asys.offdiag_max, asys.worst_offdiag) == (
            fresh.z_matrix,
            fresh.offdiag_max,
            fresh.worst_offdiag,
        )


def test_boundary_data_vector_layout():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    spec = laplace_system(grid, n_species=2, g=["x", "2"], f=["1", "0"])
    asys = assemble_system(spec)
    # species-major: species 1 boundary values then species 2
    assert np.allclose(asys.g_vec, [0.0, 1.0, 2.0, 2.0])
    assert np.allclose(asys.f_vec, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_species_structure_queries():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    spec = laplace_system(
        grid, n_species=3, m=[["0", "-1", "0"], ["0", "0", "0.5"], ["0", "0", "0"]]
    )
    ds = as_discrete(spec)
    # m[0][1] < 0: edge species 2 -> species 1 in 0-based form 1 -> 0
    assert ds.minus_edges() == [[], [0], []]
    pat = ds.plus_offdiag_pattern()
    assert pat[1, 2] and pat.sum() == 1
    assert not ds.plus_diag_nonzero(0)
    # species 2 and 3 keep their coupling in their block
    block = ds.block("full", [1, 2]).toarray()
    n_int = grid.n_interior
    assert np.array_equal(np.diag(block[:n_int, n_int:]), np.full(n_int, 0.5))


def test_species_block_keeps_operators():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    ops = (op_of(1, c=1.0), op_of(1, c=7.0))
    ds = as_discrete(system_of(grid, ops))
    # diagonal picks up c = 7
    assert ds.block("full", [1]).toarray()[0, 0] == pytest.approx(32.0 + 7.0)


def test_coupling_values_validation():
    """Only the two mode names select a coupling; an array of the coupling's
    own shape is no mode either, and is not compared elementwise."""
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    ds = as_discrete(laplace_system(grid, n_species=2))
    for coupling in ("weird", ds.m_vals.copy(), None):
        with pytest.raises(ValidationError) as info:
            ds.coupling_values(coupling)
        assert info.value.exit_code == 2
        for build in (ds.assemble, ds.assembled, lambda c: ds.block(c, [0])):
            with pytest.raises(ValidationError):
                build(coupling)
    assert ds._assembly_cache == {}


def test_spec_validation_rejects_bad_shapes():
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    with pytest.raises(ValidationError):
        system_of(grid, (op_of(1),), m=[["0", "0"]]).validate()
    with pytest.raises(ValidationError):
        op_of(1, a=(("1", "0"),))
    with pytest.raises(ValidationError):
        # y is not a coordinate of a 1d grid
        system_of(grid, (op_of(1, c="y"),)).validate()


@given(
    arrays(
        float,
        (2, 2, 5),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)
@settings(max_examples=80, deadline=None)
def test_split_coupling_is_exact_partition(vals):
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    zeros = np.zeros((2, grid.n_nodes))
    ds = DiscreteSystem(
        grid, 2, np.ones((2, 1, 1, 5)), zeros[:, None], zeros, vals, zeros, zeros
    )
    plus, minus = ds.m_plus, ds.m_minus
    assert (plus >= 0.0).all()
    assert (minus <= 0.0).all()
    assert np.array_equal(plus + minus, vals)
    assert np.array_equal(np.where(vals > 0, vals, 0.0), plus)


DATA = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"


@pytest.mark.parametrize(
    "name", ["cooperative_pair", "competitive17", "predator_prey", "thm6_failure"]
)
def test_certify_assembles_each_stencil_once(name, monkeypatch):
    """Every restricted operator is a slice of the full-domain assembly, so
    a two-species certify assembles two scalar stencils whatever route it
    takes."""
    calls = []
    build = assembly._assemble_scalar_values

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(assembly, "_assemble_scalar_values", counting)
    certify(load_problem(DATA / f"{name}.prob"), with_oracle=True)
    assert len(calls) == 2


# modes each bundled problem assembles: without a positive coupling the
# cooperative system is the full one
_ASSEMBLED_MODES = {
    "cooperative_pair": ["full"],
    "competitive17": ["cooperative", "full"],
    "predator_prey": ["cooperative", "full"],
    "thm6_failure": ["full"],
    "lap1d": ["full"],
}


@pytest.mark.parametrize("name", list(_ASSEMBLED_MODES))
def test_certify_assembles_once_per_coupling_mode(name, monkeypatch):
    """One assembly per distinct operator."""
    modes = []
    build = DiscreteSystem.assemble

    def counting(self, coupling="full"):
        modes.append(coupling)
        return build(self, coupling)

    monkeypatch.setattr(DiscreteSystem, "assemble", counting)
    certify(load_problem(DATA / f"{name}.prob"), with_oracle=True)
    assert sorted(modes) == _ASSEMBLED_MODES[name]


def test_assembled_is_kept_per_mode_on_the_full_domain():
    grid = build_grid(1, (0.0,), (1.0,), (8,))
    ds = laplace_system(grid, n_species=2, m=[["0", "0.5"], ["-1", "0"]]).discretize()
    full = ds.assembled("full")
    assert ds.assembled("full") is full
    assert ds.assembled("cooperative") is ds.assembled("cooperative")
    assert ds.assembled("cooperative") is not full
    assert ds.assemble("full") is not full  # assemble always builds
    # blocks are slices: they neither assemble nor touch the shared matrix
    key = content_key(full.A)
    mask = sub_rectangle_mask(grid, (0.0,), (0.5,))
    ds.block("full", [1], mask).data[:] = 0.0
    assert ds.block("full", [1], mask).nnz > 0
    assert content_key(full.A) == key
    assert sorted(ds._assembly_cache) == ["cooperative", "full"]
    assert sorted(ds._scalar_cache) == [0, 1]
