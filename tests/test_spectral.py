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
from elcomp.settings import MAX_ITER, TOL_EIG, Settings
from elcomp.spectral import (
    block_eigen,
    component_eigen,
    cooperative_eigen,
    principal_eigenpair,
)

from helpers import (
    convection_pair_text,
    coop_pair_text,
    laplace_system,
    op_of,
    rounding_bound,
    system_of,
    system_text,
)


def lap1d_eig(n, length=1.0):
    """Smallest eigenvalue of the discrete 1d Dirichlet Laplacian."""
    h = length / n
    return 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * length)) ** 2


def test_1d_closed_form_n128():
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    pair = cooperative_eigen(laplace_system(grid), Settings(tol_eig=1e-9))
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
    pair = cooperative_eigen(laplace_system(grid), Settings(tol_eig=1e-10))
    assert pair.value == pytest.approx(2.0 * lap1d_eig(16), abs=1e-8)


def test_shift_equivariance():
    """Adding a constant reaction shifts the eigenvalue by that constant."""
    grid = build_grid(1, (0.0,), (1.0,), (24,))
    fine = Settings(tol_eig=1e-10)
    base = cooperative_eigen(laplace_system(grid), fine).value
    shifted = cooperative_eigen(laplace_system(grid, c=-20.0), fine).value
    assert shifted == pytest.approx(base - 20.0, abs=1e-8)
    assert shifted < 0.0


def test_coupled_cooperative_pair_splits():
    """Symmetric cooperative coupling -q splits the principal eigenvalue
    of the pair into lambda_scalar - q."""
    grid = build_grid(1, (0.0,), (1.0,), (24,))
    q = 1.0
    spec = laplace_system(grid, n_species=2, m=[["0", "-1"], ["-1", "0"]])
    pair = cooperative_eigen(spec, Settings(tol_eig=1e-10))
    assert pair.value == pytest.approx(lap1d_eig(24) - q, abs=1e-8)


def test_component_eigen_uses_own_operator():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    ops = (op_of(1, c=0.0), op_of(1, c=5.0))
    spec = system_of(grid, ops, m=[["0", "-1"], ["-1", "0"]])
    p1 = component_eigen(spec, 1, Settings(tol_eig=1e-10))
    p2 = component_eigen(spec, 2, Settings(tol_eig=1e-10))
    assert p1.value == pytest.approx(lap1d_eig(16), abs=1e-8)
    assert p2.value == pytest.approx(lap1d_eig(16) + 5.0, abs=1e-8)
    with pytest.raises(ValidationError):
        component_eigen(spec, 3)


def test_component_ignores_couplings_but_keeps_own_diag_minus():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, n_species=2, m=[["-2", "-1"], ["-1", "0"]])
    p1 = component_eigen(spec, 1, Settings(tol_eig=1e-10))
    assert p1.value == pytest.approx(lap1d_eig(16) - 2.0, abs=1e-8)


def test_left_eigenvector_is_adjoint_root():
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    spec = laplace_system(grid, n_species=2, m=[["0", "-2"], ["-0.5", "0"]])
    pair = cooperative_eigen(spec, Settings(tol_eig=1e-10))
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
    pair = principal_eigenpair(a, Settings(tol_eig=tol))
    assert len(factorized) == pair.iterations > 0

    run = Settings(tol_eig=tol, max_iter=MAX_ITER)
    right = noda_iteration(a, run)
    left = noda_iteration(a, run, left=a.T.tocsr()).left
    # the left iterate adds factorizations only once the right one is done
    assert pair.iterations == max(right.iterations, left.iterations)
    assert pair.solves == right.solves + left.solves
    assert right.iterations <= right.solves and left.iterations <= left.solves
    assert pair.cw == right.cw and np.array_equal(pair.right, right.vector)
    quotient = float(pair.left @ (a @ pair.right)) / float(pair.left @ pair.right)
    assert pair.value == min(max(quotient, pair.cw[0]), pair.cw[1])
    width = tol * (1.0 + abs(pair.value))
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
    pair = principal_eigenpair(a, Settings(tol_eig=1e-12))
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
    """Over the full interval and its dyadic halves and quarters, the full
    domain has the smallest eigenvalue, the closed form."""
    grid = build_grid(1, (0.0,), (1.0,), (32,))
    spec = laplace_system(grid)
    full = cooperative_eigen(spec).value
    assert full == pytest.approx(lap1d_eig(32), abs=1e-7)
    ends = [i / 4 for i in range(5)]
    values = [
        cooperative_eigen(spec, mask=sub_rectangle_mask(grid, (lo,), (hi,))).value
        for lo in ends
        for hi in ends
        if hi > lo
    ]
    assert len(values) == 10
    assert min(values) == full


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
    (about 1.1e-8): the sine stops at the floor with no LU, its enclosure
    holds the closed form, and certify decides Holds on it with a note."""
    grid = build_grid(1, (0.0,), (1.0,), (4096,))
    spec = laplace_system(grid)
    pair = cooperative_eigen(spec)
    assert pair.stopped == "floor"
    assert (pair.iterations, pair.solves) == (0, 0)
    width = pair.cw[1] - pair.cw[0]
    assert width > TOL_EIG * (1.0 + pair.value)
    assert pair.cw[0] <= _lap_eig(4096) <= pair.cw[1]
    verdict = certify(spec, Settings(with_oracle=False))
    assert verdict.kind == "HoldsThm4"
    assert verdict.eigen["j=1"].stopped == "floor"
    assert f"eigen j=1 stopped at the rounding floor: width {width:.3e}" in verdict.notes


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
    two-species scan over the dyadic sub-rectangles builds two stencils.
    Each value is the eigenvalue of the system posed on its sub-rectangle,
    whose dyadic nodes take the same coefficient values."""
    calls = []
    build = assembly._assemble_scalar_values

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(assembly, "_assemble_scalar_values", counting)
    spec = parse_problem(convection_pair_text(16))
    ds = spec.discretize()
    grid = spec.grid
    ends = [i / 4 for i in range(5)]
    spans = [(lo, hi) for lo in ends for hi in ends if hi > lo]
    boxes = [(lo, hi) for lo in spans for hi in spans]
    masks = [sub_rectangle_mask(grid, *zip(*box)) for box in boxes]
    values = [cooperative_eigen(ds, mask=mask).value for mask in masks]
    assert len(calls) == 2
    assert sorted(ds._scalar_cache) == [0, 1]
    assert len(values) == 100
    for mask, value in zip(masks, values):
        pts = grid.coords[grid.interior_ids[mask.inside]]
        lo, hi = pts.min(axis=0) - grid.h, pts.max(axis=0) + grid.h
        cells = np.rint((hi - lo) / grid.h).astype(int)
        sub = dataclasses.replace(spec, grid=build_grid(2, lo, hi, cells))
        assert cooperative_eigen(sub).value == value


DATA = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"


def _count_solves(monkeypatch):
    """The eigen runs made from here on (spectral.EigenRun), one per solved
    operator: a memo hit, or a read that continues a kept run, makes none."""
    calls = []
    solve = spectral.EigenRun

    def counting(a, *args):
        calls.append(a.shape)
        return solve(a, *args)

    monkeypatch.setattr(spectral, "EigenRun", counting)
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


def test_a_failed_run_raises_again_on_every_read():
    """A run that needs more LUs than max_iter raises NoConvergence where it
    runs out, and so does every later read, which makes the run again;
    within open_runs the sine's pair is handed out, the run raises once it
    is taken on to where it ran out, and it leaves the memo."""
    ds = parse_problem(coop_pair_text(32)).discretize()
    capped = Settings(max_iter=1)
    with pytest.raises(NoConvergence) as first:
        cooperative_eigen(ds, capped)
    with pytest.raises(NoConvergence) as again:
        cooperative_eigen(ds, capped)
    assert str(again.value) == str(first.value)
    with pytest.raises(NoConvergence):
        with spectral.open_runs(ds) as runs:
            pair = cooperative_eigen(ds, capped)
            (run,) = runs.values()
            assert pair.open and pair.iterations == 0
            run.finish()
    assert ds._eigen_cache == {}


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
    # the memo keys on the two settings a solve reads, and on nothing else
    assert component_eigen(ds, 1, Settings(mode="sharp", tol_cond=0.0)) is first
    component_eigen(ds, 1, Settings(tol_eig=1e-7))  # another tolerance is another solve
    component_eigen(spec.discretize(), 1)  # a new system starts empty
    assert len(calls) == 3


def test_certify_scans_each_operator_content_once(monkeypatch):
    """lap1d's one species block is its whole A: the eigen solve reuses the
    Z scan assemble took of that content instead of scanning it again."""
    scans = []
    for module in (assembly, spectral):
        scan = module.check_z_matrix

        def counting(a, *args, _scan=scan):
            scans.append(linalg.content_key(a))
            return _scan(a, *args)

        monkeypatch.setattr(module, "check_z_matrix", counting)
    v = certify(load_problem(DATA / "lap1d.prob"))
    assert v.kind.startswith("Holds")
    assert len(scans) == len(set(scans)) == 1


def test_thm1_scans_each_operator_content_once(monkeypatch):
    """A cooperative pair with m11 = m22 = 1 has a full and a cooperative
    system of different content, each scanned once by assemble: Theorem 1
    gates the full one and solves it without scanning it again."""
    scans = []
    for module in (assembly, spectral):
        scan = module.check_z_matrix

        def counting(a, *args, _scan=scan):
            scans.append(linalg.content_key(a))
            return _scan(a, *args)

        monkeypatch.setattr(module, "check_z_matrix", counting)
    coupling = {"m11": "1", "m22": "1", "m12": "-1", "m21": "-1"}
    v = certify(parse_problem(system_text((64,), [{}, {}], coupling)))
    assert v.kind == "HoldsThm1"
    assert len(scans) == len(set(scans)) == 2


@pytest.mark.parametrize("name, keys", [("cooperative_pair", 1), ("competitive17", 3)])
def test_certify_hashes_each_operator_once(monkeypatch, name, keys):
    """A certify run hashes each operator it solves or factorizes once.
    cooperative_pair's eigen solves and its oracle's LU of A, which the
    M-matrix check solves with, read the key of its one assembled system.
    competitive17 hashes its two species blocks, equal in content and so
    solved once, and its full system, whose LU its gauged order's M-matrix
    check keeps by content (oracle._lu); the plain order follows with no
    solve, and neither order is scanned."""
    hashed = []
    content_key = linalg.content_key

    def counting(*mats):
        hashed.append(tuple(id(a) for a in mats))
        return content_key(*mats)

    monkeypatch.setattr(linalg, "content_key", counting)
    v = certify(load_problem(DATA / f"{name}.prob"))
    assert v.oracle is not None
    assert (v.oracle_gauged is not None) == (name == "competitive17")
    assert len(hashed) == len(set(hashed)) == keys


def test_block_eigen_scans_each_block_once(monkeypatch):
    """principal_eigenpair's Z scan is the block's only one, and a memo hit
    scans nothing; a non-Z block still reports (species, position) pairs
    of the whole system, as the cooperative gate does."""
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
        _, _, worst, _ = scan(a)
        pos = ds.assembled("cooperative").worst_offdiag
        with pytest.raises(NotZMatrix) as info:
            block_eigen(ds, species)
        assert (info.value.position, info.value.value) == (pos, worst)
        assert pos[0][0] == 2  # the twisted species, numbered in the system
        assert str(info.value) == (
            f"cooperative part has positive off-diagonal {worst:.6g} at {pos}"
        )


def test_masked_block_reports_z_position_in_system_numbering():
    """A non-Z block on a subdomain names the species in the system and the
    node among the whole grid's interior nodes, not its place in the mask."""
    text = system_text((8, 8), [{}, {"a12": "0.9", "a21": "0.9"}])
    ds = parse_problem(text).discretize()
    mask = sub_rectangle_mask(ds.grid, (0.3, 0.3), (0.9, 0.9))
    with pytest.raises(NotZMatrix) as info:
        component_eigen(ds, 2, mask=mask)
    assert info.value.position == ((2, 17), (2, 23))


def _counting_z_scans(monkeypatch):
    """The matrices spectral's Z gate scans, from here on."""
    scans = []
    scan = spectral.check_z_matrix

    def counting(a, *args):
        scans.append(a.shape)
        return scan(a, *args)

    monkeypatch.setattr(spectral, "check_z_matrix", counting)
    return scans


def test_blocks_of_a_z_operator_take_no_z_scan(monkeypatch):
    """A cooperative operator with no positive off-diagonal entry has none
    in any principal submatrix: its species and subdomain blocks reach the
    eigen solve as Z with no scan, and give the eigenpair of a scanned
    solve from the same start (the grid's sine on the whole grid, none on a
    subdomain)."""
    grid = build_grid(2, 0.0, 1.0, 8)
    ds = laplace_system(grid, n_species=2, m=[["0", "-1"], ["-0.5", "0"]]).discretize()
    assert ds.assembled("cooperative").offdiag_max == 0.0
    mask = sub_rectangle_mask(grid, (0.0, 0.25), (0.75, 1.0))
    blocks = [([0], None), ([1], None), ([0, 1], mask), ([1], mask)]
    expect = []
    for species, m in blocks:
        a = ds.block("cooperative", species, m)
        start = None if m is not None else spectral.grid_sine(grid, len(species))
        expect.append(principal_eigenpair(a, z_scan=assembly.check_z_matrix(a), start=start))
    scans = _counting_z_scans(monkeypatch)
    for (species, m), pair in zip(blocks, expect):
        got = block_eigen(ds, species, mask=m)
        assert (got.value, got.cw) == (pair.value, pair.cw)
        assert (got.iterations, got.solves) == (pair.iterations, pair.solves)
        assert np.array_equal(got.right, pair.right)
    assert scans == []


def test_a_tiny_positive_offdiag_still_scans_each_block(monkeypatch):
    """One positive off-diagonal entry, below Z_RTOL of |A|, makes the
    cooperative operator's offdiag_max positive: each block is scanned, and
    the scan's tolerance still lets it through as Z."""
    grid = build_grid(2, 0.0, 1.0, 8)
    twisted = op_of(2, a=(("1", "1e-18 * x * y"), ("1e-18 * x * y", "1")))
    ds = system_of(grid, (op_of(2), twisted), m=[["0", "-1"], ["-1", "0"]]).discretize()
    coop = ds.assembled("cooperative")
    assert 0.0 < coop.offdiag_max <= assembly.Z_RTOL * linalg.inf_norm(coop.A)
    scans = _counting_z_scans(monkeypatch)
    assert block_eigen(ds, [1]).value > 0.0
    assert block_eigen(ds, [0]).value > 0.0
    assert len(scans) == 2


def _lap_eig(n, side=1.0):
    """Smallest eigenvalue of the 3-point -d^2/dx^2 on n cells of a side."""
    h = side / n
    return 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * side)) ** 2


def _counting_lus(monkeypatch):
    factorized = []
    init = linalg.LuFactor.__init__

    def counting(self, *args, **kwargs):
        factorized.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.LuFactor, "__init__", counting)
    return factorized


# (grid, coupling, closed-form principal eigenvalue); the coupling's rows
# all sum to the same s, so (1, ..., 1) x sine is the eigenvector and
# lambda is the Laplacian's plus s
CLOSED_FORMS = {
    "1d-16": (lambda: build_grid(1, (0.0,), (1.0,), (16,)), None, _lap_eig(16)),
    "1d-128": (lambda: build_grid(1, (0.0,), (1.0,), (128,)), None, _lap_eig(128)),
    "1d-1024": (lambda: build_grid(1, (0.0,), (1.0,), (1024,)), None, _lap_eig(1024)),
    "2d-32": (lambda: build_grid(2, 0.0, 1.0, 32), None, 2.0 * _lap_eig(32)),
    "2d-24x40-side-pi": (
        lambda: build_grid(2, 0.0, math.pi, (24, 40)),
        None,
        _lap_eig(24, math.pi) + _lap_eig(40, math.pi),
    ),
    "symmetric-3-species": (
        lambda: build_grid(2, 0.0, 1.0, 12),
        [["0", "-1", "-0.5"], ["-1", "0", "-0.5"], ["-0.5", "-0.5", "-0.5"]],
        2.0 * _lap_eig(12) - 1.5,
    ),
    # nonsymmetric: the left iterate checks the sine on A^T and closes too
    "cyclic-3-species": (
        lambda: build_grid(1, (0.0,), (1.0,), (64,)),
        [["0", "-1", "0"], ["0", "0", "-1"], ["-1", "0", "0"]],
        _lap_eig(64) - 1.0,
    ),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_runs_close_before_any_lu(name, monkeypatch):
    """A constant-coefficient block on the whole grid closes on the grid's
    sine with no LU and no solve.  Its enclosure is the sine's ratios
    widened by their rounding bound delta, holds the closed-form discrete
    eigenvalue, and is at least 2 delta and at most the target wide."""
    make_grid, m, exact = CLOSED_FORMS[name]
    grid = make_grid()
    n_species = 1 if m is None else len(m)
    ds = laplace_system(grid, n_species=n_species, m=m).discretize()
    factorized = _counting_lus(monkeypatch)
    pair = cooperative_eigen(ds)
    assert pair.iterations == pair.solves == 0
    assert factorized == []
    a = ds.assembled("cooperative").A
    x = spectral.grid_sine(grid, n_species)
    assert np.array_equal(pair.right, x) and np.array_equal(pair.left, x)
    lo, hi = pair.cw
    assert lo <= exact <= hi
    assert lo <= pair.value <= hi
    ratios = (a @ x) / x
    delta = rounding_bound(a, x)
    assert lo <= float(ratios.min()) - delta and float(ratios.max()) + delta <= hi
    assert 2.0 * delta <= hi - lo <= TOL_EIG * (1.0 + abs(pair.value))
    if name == "cyclic-3-species":
        assert (a != a.T).nnz > 0
        at_ratios = (a.T @ x) / x
        assert lo <= float(at_ratios.min()) and float(at_ratios.max()) <= hi


def test_grid_sine_is_the_discrete_eigenvector():
    """On each axis, sin(pi i / n) solves the 3-point eigenproblem; the
    product over the axes is canonical (x fastest), unit max and tiled
    per species."""
    grid = build_grid(2, 0.0, 1.0, (6, 4))
    x = spectral.grid_sine(grid, 2)
    pts = grid.coords[grid.interior_ids]
    expected = np.sin(math.pi * pts[:, 0]) * np.sin(math.pi * pts[:, 1])
    expected = expected / expected.max()
    assert x.shape == (2 * grid.n_interior,)
    assert np.allclose(x, np.tile(expected, 2), rtol=1e-14, atol=0.0)
    assert x.max() == 1.0 and x.min() > 0.0


VARIABLE = {
    "coop-pair": lambda: parse_problem(coop_pair_text(16)).discretize(),
    "convection-pair": lambda: parse_problem(convection_pair_text(16)).discretize(),
}


@pytest.mark.parametrize("name", list(VARIABLE))
def test_variable_coefficients_iterate_as_without_the_start(name):
    """The sine is no eigenvector of a variable-coefficient block: its
    check fails, and the run is, bit for bit, the one without a start."""
    ds = VARIABLE[name]()
    a = ds.assembled("cooperative").A
    with_start = principal_eigenpair(a, start=spectral.grid_sine(ds.grid, ds.n_species))
    without = principal_eigenpair(a)
    assert with_start.iterations >= 1
    for got, want in ((with_start, without), (cooperative_eigen(ds), without)):
        assert (got.value, got.cw, got.iterations, got.solves, got.residual) == (
            want.value,
            want.cw,
            want.iterations,
            want.solves,
            want.residual,
        )
        assert np.array_equal(got.right, want.right)
        assert np.array_equal(got.left, want.left)


def test_subdomain_blocks_take_no_start(monkeypatch):
    """Only a block on the whole grid (no mask, or one that keeps every
    node) is offered the sine; a sub-rectangle's block iterates from ones."""
    starts = []
    solve = spectral.EigenRun

    def recording(a, *args):
        starts.append(args[2] if len(args) > 2 else None)
        return solve(a, *args)

    monkeypatch.setattr(spectral, "EigenRun", recording)
    grid = build_grid(1, (0.0,), (1.0,), (32,))
    ds = laplace_system(grid).discretize()
    half = cooperative_eigen(ds, mask=sub_rectangle_mask(grid, (0.0,), (0.5,)))
    assert starts == [None] and half.iterations >= 1
    whole = cooperative_eigen(ds, mask=sub_rectangle_mask(grid, (0.0,), (1.0,)))
    assert np.array_equal(starts[1], spectral.grid_sine(grid, 1))
    assert whole.iterations == 0
    assert cooperative_eigen(ds) is whole  # the same block, from the memo
    assert len(starts) == 2


def test_start_above_the_target_at_n2048_stops_at_the_floor():
    """At n = 2048 the sine's rounding bound alone is wider than the
    target, so the sine stops at the floor, with no LU; the closed form
    lies in cw.  From ones the run reaches the same floor."""
    grid = build_grid(1, (0.0,), (1.0,), (2048,))
    ds = laplace_system(grid).discretize()
    a = ds.assembled("cooperative").A
    pair = cooperative_eigen(ds)
    assert pair.stopped == "floor"
    assert (pair.iterations, pair.solves) == (0, 0)
    assert pair.cw[0] <= _lap_eig(2048) <= pair.cw[1]
    x = spectral.grid_sine(grid, 1)
    assert np.array_equal(pair.right, x)
    assert 2.0 * rounding_bound(a, x) > TOL_EIG * (1.0 + _lap_eig(2048))
    plain = principal_eigenpair(a)
    assert plain.stopped == "floor" and plain.iterations >= 1
    assert plain.cw[0] <= _lap_eig(2048) <= plain.cw[1]
