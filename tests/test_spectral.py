"""Principal eigenvalues against closed forms for the discrete Laplacian."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from elcomp import assembly, linalg, spectral
from elcomp.certify import certify
from elcomp.errors import NoConvergence, NotIrreducible, NotZMatrix, ValidationError
from elcomp.linalg import noda_iteration
from elcomp.mesh import build_grid, sub_rectangle_mask
from elcomp.problems import load_problem, parse_problem
from elcomp.spectral import (
    block_eigen,
    component_eigen,
    cooperative_eigen,
    principal_eigenpair,
    subdomain_scan,
)

from helpers import (
    convection_pair_text,
    coop_pair_text,
    laplace_system,
    op_of,
    system_of,
)


def lap1d_eig(n, length=1.0):
    """Smallest eigenvalue of the discrete 1d Dirichlet Laplacian."""
    h = length / n
    return 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * length)) ** 2


def test_1d_closed_form_n128():
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    pair = cooperative_eigen(laplace_system(grid), tol_eig=1e-9)
    exact = lap1d_eig(128)
    assert exact == pytest.approx(9.869108962780114, rel=1e-12)
    assert pair.value == pytest.approx(exact, abs=1e-8)
    lo, hi = pair.cw
    assert lo <= pair.value <= hi
    assert hi - lo <= 1e-9 * (1.0 + abs(pair.value)) + 1e-15
    assert lo - 1e-9 <= exact <= hi + 1e-9
    assert pair.right.min() > 0.0 and pair.left.min() > 0.0
    assert pair.right.max() == pytest.approx(1.0)
    assert pair.residual <= 1e-6


def test_eigenvector_matches_sine_profile():
    grid = build_grid(1, (0.0,), (1.0,), (32,))
    pair = cooperative_eigen(laplace_system(grid))
    x = grid.coords[grid.interior_ids, 0]
    expected = np.sin(math.pi * x)
    # discrete eigenvector of the 3-point Laplacian is exactly the sine
    assert np.allclose(pair.right, expected, atol=1e-7)


def test_2d_closed_form():
    grid = build_grid(2, 0.0, 1.0, 16)
    pair = cooperative_eigen(laplace_system(grid), tol_eig=1e-10)
    assert pair.value == pytest.approx(2.0 * lap1d_eig(16), abs=1e-8)


def test_shift_equivariance():
    """Adding a constant reaction shifts the eigenvalue by that constant."""
    grid = build_grid(1, (0.0,), (1.0,), (24,))
    base = cooperative_eigen(laplace_system(grid), tol_eig=1e-10).value
    shifted = cooperative_eigen(laplace_system(grid, c=-20.0), tol_eig=1e-10).value
    assert shifted == pytest.approx(base - 20.0, abs=1e-8)
    assert shifted < 0.0


def test_coupled_cooperative_pair_splits():
    """Symmetric cooperative coupling -q splits the principal eigenvalue
    of the pair into lambda_scalar - q."""
    grid = build_grid(1, (0.0,), (1.0,), (24,))
    q = 1.0
    spec = laplace_system(grid, n_species=2, m=[["0", "-1"], ["-1", "0"]])
    pair = cooperative_eigen(spec, tol_eig=1e-10)
    assert pair.value == pytest.approx(lap1d_eig(24) - q, abs=1e-8)


def test_component_eigen_uses_own_operator():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    ops = (op_of(1, c=0.0), op_of(1, c=5.0))
    spec = system_of(grid, ops, m=[["0", "-1"], ["-1", "0"]])
    p1 = component_eigen(spec, 1, tol_eig=1e-10)
    p2 = component_eigen(spec, 2, tol_eig=1e-10)
    assert p1.value == pytest.approx(lap1d_eig(16), abs=1e-8)
    assert p2.value == pytest.approx(lap1d_eig(16) + 5.0, abs=1e-8)
    with pytest.raises(ValidationError):
        component_eigen(spec, 3)


def test_component_ignores_couplings_but_keeps_own_diag_minus():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, n_species=2, m=[["-2", "-1"], ["-1", "0"]])
    p1 = component_eigen(spec, 1, tol_eig=1e-10)
    assert p1.value == pytest.approx(lap1d_eig(16) - 2.0, abs=1e-8)


def test_left_eigenvector_is_adjoint_root():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, n_species=2, m=[["0", "-2"], ["-0.5", "0"]])
    pair = cooperative_eigen(spec, tol_eig=1e-10)
    asys = laplace_system(grid, n_species=2, m=[["0", "-2"], ["-0.5", "0"]])
    from elcomp.assembly import assemble_system

    A = assemble_system(asys, coupling="cooperative").A
    r = A.T @ pair.left - pair.value * pair.left
    assert np.abs(r).max() <= 1e-6


NONSYMMETRIC = {
    "dense3": lambda: sp.csr_matrix(
        np.array([[3.0, -2.0, 0.0], [-0.5, 2.0, -1.0], [-1.0, 0.0, 4.0]])
    ),
    # x = 1 is the right eigenvector: the right iterate is done before any
    # factorization and the left one goes on with its own shifts
    "constant-row-sums": lambda: sp.csr_matrix(
        np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [-0.5, -0.5, 2.0]])
    ),
    "convection-pair-32": lambda: parse_problem(convection_pair_text(32))
    .discretize()
    .assembled("cooperative")
    .A,
}


@pytest.mark.parametrize("name", list(NONSYMMETRIC))
def test_left_vector_shares_the_right_factorizations(name, monkeypatch):
    """The run's LUs serve both vectors; the right run is the one a
    right-only Noda run gives, the value is the two-sided Rayleigh quotient
    in its enclosure, and the left vector carries its own Collatz-Wielandt
    enclosure on A^T."""
    a = NONSYMMETRIC[name]()
    assert (a != a.T).nnz > 0
    factorized = []
    init = linalg.LuFactor.__init__

    def counting(self, m):
        factorized.append(m.shape)
        init(self, m)

    monkeypatch.setattr(linalg.LuFactor, "__init__", counting)
    tol = 1e-10
    pair = principal_eigenpair(a, tol_eig=tol)
    assert len(factorized) == pair.iterations > 0

    def target(lam):
        return tol * (1.0 + abs(lam))

    right = noda_iteration(a, target, spectral.MAX_ITER)
    left = noda_iteration(a, target, spectral.MAX_ITER, left=a.T.tocsr()).left
    # the left iterate adds factorizations only once the right one is done
    assert pair.iterations == max(right.iterations, left.iterations)
    assert pair.solves == right.solves + left.solves
    assert right.iterations <= right.solves and left.iterations <= left.solves
    assert pair.cw == right.cw and np.array_equal(pair.right, right.vector)
    quotient = float(pair.left @ (a @ pair.right)) / float(pair.left @ pair.right)
    assert pair.value == min(max(quotient, pair.cw[0]), pair.cw[1])
    width = target(pair.value)
    ratios = (a.T @ pair.left) / pair.left
    assert pair.left.min() > 0.0 and pair.left.max() == 1.0
    assert ratios.max() - ratios.min() <= width
    assert ratios.min() - width <= pair.value <= ratios.max() + width


def test_positive_offdiag_rejected():
    from elcomp.assembly import assemble_system

    grid = build_grid(1, (0.0,), (1.0,), (8,))
    spec = laplace_system(grid, n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    asys = assemble_system(spec, coupling="full")
    with pytest.raises(NotZMatrix) as info:
        principal_eigenpair(asys.A)
    assert info.value.value == pytest.approx(0.5)
    # the cooperative part drops the positive coupling entirely and ends up
    # block diagonal, which the irreducibility gate must reject
    with pytest.raises(NotIrreducible):
        cooperative_eigen(spec)
    # a single species block is fine
    assert component_eigen(spec, 1).value > 0.0


def test_not_irreducible_rejected():
    a = sp.csr_matrix(np.diag([2.0, 3.0]))
    with pytest.raises(NotIrreducible):
        principal_eigenpair(a)


def test_principal_eigenpair_z_gate():
    a = sp.csr_matrix(np.array([[2.0, 0.5], [-1.0, 2.0]]))
    with pytest.raises(NotZMatrix):
        principal_eigenpair(a)


def test_small_explicit_matrix():
    # [[2,-1],[-1,2]] has eigenvalues 1 and 3; principal (smallest) is 1
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    pair = principal_eigenpair(a, tol_eig=1e-12)
    assert pair.value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(pair.right / pair.right.max(), [1.0, 1.0], atol=1e-9)


def test_subdomain_monotonicity_quarter_domain():
    """Shrinking the domain to (1/4, 3/4) scales the Laplacian eigenvalue
    by about 4 (exactly 4 in the continuum)."""
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    spec = laplace_system(grid)
    full = cooperative_eigen(spec).value
    mask = sub_rectangle_mask(grid, (0.25,), (0.75,))
    small = cooperative_eigen(spec, mask=mask).value
    assert small / full == pytest.approx(4.0, abs=0.1)
    assert small > full


def test_subdomain_scan_monotone():
    grid = build_grid(1, (0.0,), (1.0,), (32,))
    scan = subdomain_scan(laplace_system(grid), depth=1)
    assert scan.monotone_ok
    assert scan.full_value == pytest.approx(lap1d_eig(32), abs=1e-7)
    assert scan.min_value == scan.full_value
    assert len(scan.entries) >= 3
    masks, values = zip(*scan.entries)
    assert values[0] == scan.full_value
    assert min(values) == scan.min_value


@pytest.mark.parametrize("n", [128, 1024, 2048])
def test_solve_count_does_not_grow_with_mesh(n):
    grid = build_grid(1, (0.0,), (1.0,), (n,))
    pair = cooperative_eigen(laplace_system(grid))
    lo, hi = pair.cw
    assert lo <= lap1d_eig(n) <= hi
    assert pair.iterations <= 10


def test_factorization_count_does_not_grow_with_mesh():
    """At a kept shift the width contracts by a ratio of eigenvalue gaps,
    which the mesh does not change; so does the factorization count."""
    counts = {}
    for n in (32, 64, 128):
        pair = cooperative_eigen(parse_problem(coop_pair_text(n)).discretize())
        lo, hi = pair.cw
        assert lo <= pair.value <= hi
        counts[n] = (pair.iterations, pair.solves)
    assert len({lus for lus, _ in counts.values()}) == 1, counts
    assert counts[128][0] <= 2, counts


def test_weakly_coupled_pair_converges():
    """m = -1e-4 leaves the second eigenvalue close to the first, so a kept
    shift contracts slowly and the loop has to factorize again."""
    ds = parse_problem(coop_pair_text(16, m=-1e-4)).discretize()
    pair = cooperative_eigen(ds)
    lo, hi = pair.cw
    assert lo <= pair.value <= hi
    exact = float(np.linalg.eigvals(ds.assembled("cooperative").A.toarray()).real.min())
    assert lo <= exact <= hi
    assert pair.iterations >= 2


def test_roundoff_floor_stops_at_once():
    """At n=4096 the ratio floor (about 1.7e-8) lies above the target width
    (about 1.1e-8); the iteration must give up within a few solves."""
    grid = build_grid(1, (0.0,), (1.0,), (4096,))
    with pytest.raises(NoConvergence) as info:
        cooperative_eigen(laplace_system(grid))
    assert info.value.iterations <= 10


def test_scalar_cache_keyed_by_mask_content():
    """Rebinding one name to new masks on one system must not reuse the
    operator or eigenpair of an earlier, garbage-collected mask."""
    grid = build_grid(1, (0.0,), (1.0,), (32,))
    spec = laplace_system(grid, c="100*x")
    ds = spec.discretize()
    for lo, hi in [(0.0, 0.5), (0.5, 1.0), (0.0, 0.25), (0.25, 1.0)]:
        m = sub_rectangle_mask(grid, (lo,), (hi,))
        value = cooperative_eigen(ds, mask=m).value
        fresh = cooperative_eigen(spec.discretize(), mask=m).value
        assert value == pytest.approx(fresh, rel=1e-12), (lo, hi)


def test_subdomain_scan_builds_each_stencil_once(monkeypatch):
    """Every subdomain is a slice of the one full-domain assembly, so a
    two-species scan builds two stencils.  Each value is the eigenvalue of
    the system posed on its sub-rectangle, whose dyadic nodes take the same
    coefficient values."""
    calls = []
    build = assembly._assemble_scalar_values

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(assembly, "_assemble_scalar_values", counting)
    spec = parse_problem(convection_pair_text(16))
    ds = spec.discretize()
    scan = subdomain_scan(ds, 2)
    assert len(calls) == 2
    assert sorted(ds._scalar_cache) == [0, 1]
    assert len(scan.entries) == 100
    grid = spec.grid
    for mask, value in scan.entries:
        pts = grid.coords[grid.interior_ids[mask.inside]]
        lo, hi = pts.min(axis=0) - grid.h, pts.max(axis=0) + grid.h
        cells = np.rint((hi - lo) / grid.h).astype(int)
        sub = dataclasses.replace(spec, grid=build_grid(2, lo, hi, cells))
        assert cooperative_eigen(sub).value == value


DATA = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"


def _count_solves(monkeypatch):
    calls = []
    solve = spectral.principal_eigenpair

    def counting(a, *args):
        calls.append(a.shape)
        return solve(a, *args)

    monkeypatch.setattr(spectral, "principal_eigenpair", counting)
    return calls


@pytest.mark.parametrize(
    "name",
    ["cooperative_pair", "competitive17", "predator_prey", "thm6_failure", "lap1d"],
)
def test_certify_solves_each_operator_once(name, monkeypatch):
    """Every bundled linear problem has one distinct eigen operator: the
    failure scan, the counterexample and the certificate route share it."""
    calls = _count_solves(monkeypatch)
    certify(load_problem(DATA / f"{name}.prob"))
    assert len(calls) == 1, calls


def test_eigen_memo_is_per_system_and_read_only(monkeypatch):
    calls = _count_solves(monkeypatch)
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, n_species=2)
    ds = spec.discretize()
    first = component_eigen(ds, 1)
    # species 2 has the same operator; every block looks up in the system's memo
    assert block_eigen(ds, [1]) is first
    assert component_eigen(ds, 2) is first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first.right[0] = 0.0
    component_eigen(ds, 1, tol_eig=1e-7)  # another tolerance is another solve
    component_eigen(spec.discretize(), 1)  # a new system starts empty
    assert len(calls) == 3


def test_block_eigen_scans_each_block_once(monkeypatch):
    """principal_eigenpair's Z scan is the block's only one, and a memo hit
    scans nothing; a non-Z block still reports (species, position) pairs
    within the block."""
    scans = []
    scan = spectral.check_z_matrix

    def counting(a, *args):
        scans.append(a.shape)
        return scan(a, *args)

    monkeypatch.setattr(spectral, "check_z_matrix", counting)
    grid = build_grid(2, 0.0, 1.0, 6)
    twisted = op_of(2, a=(("1", "0.9"), ("0.9", "1")))
    ds = system_of(grid, (op_of(2), twisted), m=[["0", "-1"], ["-1", "0"]]).discretize()
    block_eigen(ds, [0])
    assert len(scans) == 1
    block_eigen(ds, [0])
    assert len(scans) == 1
    for species in ([1], [0, 1]):
        a = ds.block("cooperative", species)
        _, pos, worst, _ = scan(a, grid.n_interior)
        with pytest.raises(NotZMatrix) as info:
            block_eigen(ds, species)
        assert (info.value.position, info.value.value) == (pos, worst)
        assert pos[0][0] == len(species)  # the twisted species comes last
        assert str(info.value) == (
            f"cooperative part has positive off-diagonal {worst:.6g} at {pos}"
        )
