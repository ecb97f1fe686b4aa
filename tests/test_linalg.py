"""Sparse kernels against dense numpy references."""

import contextlib
import itertools
import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elcomp.assembly import Z_RTOL, check_z_matrix
from elcomp.errors import (
    DimMismatch,
    NoConvergence,
    SingularMatrix,
    TooLarge,
    ValidationError,
)
from elcomp import linalg, oracle
from elcomp.graphs import csr_strongly_connected
from elcomp.linalg import (
    LuFactor,
    content_key,
    dense_inverse,
    from_coo,
    inf_norm,
    lu_order,
    lu_solve,
    nested_dissection,
    noda_iteration,
    noda_steps,
    principal_submatrix,
    row_ids,
    same_nonzeros,
    shifted,
)
from elcomp.mesh import build_grid
from elcomp.problems import parse_problem
from elcomp.settings import Settings

from helpers import (
    convection_pair_text,
    laplace_system,
    power_iteration,
    rounding_bound,
    system_text,
)


def test_from_coo_sums_duplicates():
    a = from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0])
    d = a.toarray()
    assert d[0, 1] == 5.0
    assert d[1, 0] == -1.0
    assert a.has_sorted_indices


def test_inf_norm():
    a = sp.csr_matrix(np.array([[1.0, -4.0], [0.5, 0.0]]))
    assert inf_norm(a) == 5.0
    assert inf_norm(sp.csr_matrix((3, 3))) == 0.0


@st.composite
def stored_matrices(draw):
    """A CSR, CSC or COO matrix whose entries are stored in a random order
    (unsorted indices), with empty rows, explicit zeros and tied values;
    square ones are symmetric in value about half the time, with some
    explicit zeros mirrored by no entry at all."""
    n_rows = draw(st.integers(0, 10))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(0, 12))
    value = st.sampled_from([0.0, 1.0, -2.5, 0.5, 3.0]) | st.floats(-10.0, 10.0)
    entries = {}
    if n_rows and n_cols:
        cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
        for rc in draw(st.lists(cell, unique=True, max_size=40)):
            entries[rc] = draw(value)
    if n_rows == n_cols and draw(st.booleans()):
        for (r, c), v in list(entries.items()):
            mirror = entries.get((c, r), 0.0)
            if v != 0.0 or mirror != 0.0:
                entries[(r, c)] = entries[(c, r)] = v if v != 0.0 else mirror
    order = draw(st.permutations(list(entries)))
    rows = np.array([r for r, _ in order], dtype=np.int32)
    cols = np.array([c for _, c in order], dtype=np.int32)
    vals = np.array([entries[rc] for rc in order], dtype=float)
    shape = (n_rows, n_cols)
    fmt = draw(st.sampled_from(("csr", "csc", "coo")))
    if fmt == "coo":
        return sp.coo_matrix((vals, (rows, cols)), shape=shape)
    major, minor = (rows, cols) if fmt == "csr" else (cols, rows)
    by_major = np.argsort(major, kind="stable")  # keeps the random minor order
    indptr = np.concatenate([[0], np.cumsum(np.bincount(major, minlength=shape[fmt == "csc"]))])
    build = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    return build((vals[by_major], minor[by_major], indptr.astype(np.int32)), shape=shape)


def _z_scan_reference(a):
    """check_z_matrix as a scan of a.tocoo(), with the norm of |A|."""
    coo = a.tocoo()
    off = coo.row != coo.col
    if not off.any():
        return True, None, 0.0, 0.0
    vals, rows, cols = coo.data[off], coo.row[off], coo.col[off]
    k = int(np.argmax(vals))
    worst = float(vals[k])
    pos = (int(rows[k]), int(cols[k]))
    norm = float(np.abs(a).sum(axis=1).max())
    return worst <= Z_RTOL * max(norm, 1e-300), pos, worst, max(worst, 0.0)


_THREE_NODES = laplace_system(build_grid(1, 0.0, 1.0, 4)).discretize()


def _bits(z):
    is_z, pos, worst, offmax = z
    return is_z, pos, worst.hex(), offmax.hex()


@given(stored_matrices(), st.data())
@example(sp.csr_matrix((0, 0)), None)
@example(sp.csr_matrix(np.array([[2.0]])), None)
# a row longer than 8 entries, where pairwise and running sums differ
@example(sp.csr_matrix(np.array([[1e16] + [1.0] * 15])), None)
@example(sp.csc_matrix(np.array([[1e16] + [1.0] * 15])), None)
@example(sp.csr_matrix((np.zeros(1), np.zeros(1, dtype=np.int32), np.array([0, 1])), shape=(1, 1)), None)
@settings(max_examples=300, deadline=None)
def test_array_helpers_equal_the_matrix_formulas(a, data):
    """inf_norm, the Z scan, the symmetry test, strong connectivity,
    principal submatrices and the diagonal shift, read off the stored
    arrays, equal the formulas that build sparse matrices, bit for bit."""
    norm = 0.0 if a.nnz == 0 else float(np.abs(a).sum(axis=1).max())
    assert inf_norm(a).hex() == norm.hex()
    z_scan = check_z_matrix(a)
    assert _bits(z_scan) == _bits(_z_scan_reference(a))
    if z_scan[1] is not None:  # rows of a system of 3 interior nodes per species
        expect = tuple((q + 1, r) for q, r in (divmod(row, 3) for row in z_scan[1]))
        assert _THREE_NODES.species_position(z_scan[1]) == expect
    n = a.shape[0]
    if n != a.shape[1]:
        return
    assert same_nonzeros(a, a.T) == ((a != a.T).nnz == 0)
    mat = sp.csr_matrix(a, copy=True)
    mat.eliminate_zeros()
    reference = n > 0 and connected_components(mat, directed=True, connection="strong")[0] == 1
    assert csr_strongly_connected(a) == reference
    if data is None:
        return
    ix = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n)))
    csr = a.tocsr()
    assert content_key(principal_submatrix(csr, ix)) == content_key(csr[ix][:, ix])
    s = data.draw(st.floats(-5.0, 5.0))
    out = shifted(a, s)
    assert out.format == ("csc" if a.format == "csc" else "csr")
    assert np.array_equal(out.toarray(), a.toarray() - s * np.eye(n))
    assert np.count_nonzero(out.indices == np.repeat(np.arange(n), np.diff(out.indptr))) == n


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(11)
    d = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    b = rng.normal(size=12)
    for order in (None, rng.permutation(12)):
        x = lu_solve(sp.csr_matrix(d), b, order)
        assert np.allclose(x, np.linalg.solve(d, b), rtol=1e-12, atol=1e-12)


def test_lu_transposed_solve_matches_numpy():
    rng = np.random.default_rng(12)
    d = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    b = rng.normal(size=12)
    for order in (None, rng.permutation(12)):
        x = LuFactor(sp.csr_matrix(d), order).solve(b, transposed=True)
        assert np.allclose(x, np.linalg.solve(d.T, b), rtol=1e-12, atol=1e-12)


def test_lu_ordering_fills_less_than_colamd():
    """Minimum degree on A + A^T against splu's default COLAMD on a 2D
    two-species operator with convection and unequal coupling."""
    a = parse_problem(convection_pair_text(48)).discretize().assembled("full").A
    assert a.shape == (2 * 47 * 47,) * 2
    ordered = LuFactor(a)._lu
    colamd = spla.splu(a.tocsc())
    fill = ordered.L.nnz + ordered.U.nnz
    assert fill <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


def test_lu_rejects_singular():
    d = np.array([[1.0, 2.0], [2.0, 4.0]])
    for order in (None, [1, 0]):
        with pytest.raises(SingularMatrix):
            LuFactor(sp.csr_matrix(d), order)


def test_lu_order_must_be_a_permutation():
    a = sp.identity(3, format="csr")
    for order in ([0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(ValidationError, match="not a permutation"):
            LuFactor(a, order)


def _dissect(x0, y0, w, h, mx, splits):
    """The nodes of a box in nested dissection order, recursively; each
    split box's two halves are appended to splits."""
    if max(w, h) < 3:
        return [(y0 + j) * mx + x0 + i for j in range(h) for i in range(w)]
    if w >= h:
        k = w // 2
        first = _dissect(x0, y0, k, h, mx, splits)
        second = _dissect(x0 + k + 1, y0, w - k - 1, h, mx, splits)
        line = [(y0 + j) * mx + x0 + k for j in range(h)]
    else:
        k = h // 2
        first = _dissect(x0, y0, w, k, mx, splits)
        second = _dissect(x0, y0 + k + 1, w, h - k - 1, mx, splits)
        line = [(y0 + k) * mx + x0 + i for i in range(w)]
    splits.append((first, second))
    return first + second + line


def _nine_point_pair(shape):
    """The assembled 2-species system with cross diffusion on shape cells."""
    keys = {"a11": "1 + x", "a12": "0.1", "a21": "0.2", "c": "1"}
    text = system_text(
        shape,
        [{**keys, "b1": "3"}, {**keys, "b2": "-2"}],
        {"m12": "-1", "m21": "-0.5"},
    )
    return parse_problem(text).discretize().assembled("full")


@given(st.integers(2, 24), st.integers(2, 24))
@example(2, 2)
@example(2, 9)
@example(9, 2)
@example(3, 2)
@settings(max_examples=40, deadline=None)
def test_nested_dissection_splits_every_box(mx, my):
    """The order is a permutation, the recursive dissection's, and no
    entry of a 9-point operator joins the two halves of any split box;
    lu_order interleaves the species node by node."""
    order = nested_dissection((mx, my))
    splits = []
    assert order.tolist() == _dissect(0, 0, mx, my, mx, splits)
    assert sorted(order.tolist()) == list(range(mx * my))
    asys = _nine_point_pair((mx + 1, my + 1))
    n_int = mx * my
    rows, cols = asys.A.nonzero()
    nodes = sp.csr_matrix(
        (np.ones(rows.size), (rows % n_int, cols % n_int)), shape=(n_int, n_int)
    )
    for first, second in splits:
        assert nodes[first][:, second].nnz == 0
        assert nodes[second][:, first].nnz == 0
    perm = lu_order(asys.grid, asys.A)
    assert perm.tolist() == [k * n_int + i for i in order.tolist() for k in (0, 1)]


def test_nested_dissection_fills_less_than_minimum_degree():
    """On a 2-species 9-point operator on 48^2 cells, nested dissection
    under the natural order fills less than minimum degree on A + A^T."""
    asys = _nine_point_pair((48, 48))
    order = lu_order(asys.grid, asys.A)
    nd = LuFactor(asys.A, order)._lu
    mmd = LuFactor(asys.A)._lu
    assert nd.L.nnz + nd.U.nnz < mmd.L.nnz + mmd.U.nnz


def test_one_copy_of_the_operator_per_factorization(monkeypatch):
    """splu gets a CSC matrix as it is; shifted keeps CSC, so each Noda
    shift is one CSC copy made from left's arrays, and the factors equal
    those of the CSR route bit for bit."""
    a = parse_problem(convection_pair_text(16)).discretize().assembled("full").A
    at = a.T.tocsr()
    handed = []
    splu = spla.splu

    def spy(m, **kwargs):
        handed.append(m)
        return splu(m, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    csc = shifted(at.T, 2.5)
    assert csc.format == "csc"
    via_csc = LuFactor(csc)._lu
    assert handed[-1] is csc
    via_csr = LuFactor(shifted(a, 2.5))._lu
    for name in ("perm_r", "perm_c"):
        assert np.array_equal(getattr(via_csc, name), getattr(via_csr, name))
    for name in ("L", "U"):
        m1, m2 = getattr(via_csc, name), getattr(via_csr, name)
        for part in ("indptr", "indices", "data"):
            assert getattr(m1, part).tobytes() == getattr(m2, part).tobytes()
    handed.clear()
    noda_iteration(a, Settings(tol_eig=1e-10, max_iter=20), left=at)
    assert handed and all(m.format == "csc" for m in handed)


class _FactorsHidden:
    """A SuperLU object whose L and U may not be read."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"SuperLU.{name} was read")
        return getattr(self._lu, name)


def test_no_factorization_reads_l_or_u(monkeypatch):
    """Reading L or U makes scipy build and keep CSC copies of both, so no
    LU of the solve, eigen or oracle paths may read them."""
    splu = spla.splu
    made = []

    def hidden(a, **kwargs):
        made.append(_FactorsHidden(splu(a, **kwargs)))
        return made[-1]

    monkeypatch.setattr(linalg.spla, "splu", hidden)
    asys = _nine_point_pair((12, 12))
    a, rhs = asys.A, np.ones(asys.A.shape[0])
    for order in (None, lu_order(asys.grid, a)):
        assert order is None or order.size == a.shape[0]
        lu = LuFactor(a, order)
        assert np.allclose(a @ lu.solve(rhs), rhs)
        assert np.allclose(a.T @ lu.solve(rhs, transposed=True), rhs)
    # the 9-point pattern with every coupling made cooperative: an
    # irreducible nonsymmetric Z-matrix, so a left iterate runs alongside
    z = a.copy()
    off = z.indices != row_ids(z)
    z.data[off] = -np.abs(z.data[off])
    run = noda_iteration(z, Settings(tol_eig=1e-9, max_iter=20), left=z.T.tocsr())
    assert run.left is not None and run.left.vector.min() > 0.0
    oracle.inverse_positivity(asys)
    oracle.decide(asys, settings=Settings(oracle_max_dof=0))  # the column search
    u = oracle.solve_system(asys)
    assert np.allclose(a @ u, asys.f_vec - asys.G @ asys.g_vec)
    assert len(made) >= 6


@pytest.mark.parametrize("order", [None, [1, 0]])
def test_solves_show_singularity(order):
    """A pivot of 1.1e-15 is no exact zero, so the LU is made; every solve
    whose bound |A| max|x| / max|b| passes 1e14 raises, transposed or not."""
    near = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    lu = LuFactor(near, order)
    for transposed in (False, True):
        with pytest.raises(SingularMatrix, match="above max"):
            lu.solve(np.array([1.0, 0.0]), transposed=transposed)
    with pytest.raises(SingularMatrix):
        lu_solve(near, np.array([1.0, 0.0]), order)
    with pytest.raises(SingularMatrix):
        lu.solve(np.array([np.nan, 1.0]))
    with pytest.raises(SingularMatrix):  # a large x of one sign counts
        lu_solve(sp.csr_matrix(np.diag([1.0, 1e-20])), np.array([0.0, -1.0]), order)
    # a condition near 4e13 stays below the bound
    far = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
    x = lu_solve(far, np.array([1.0, 0.0]), order)
    assert np.allclose(np.abs(x), 1.0008e13, rtol=1e-4)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_solves_accept_scaled_matrices(scale):
    """The bound is relative: a well-conditioned matrix solves at any scale."""
    rng = np.random.default_rng(13)
    d = (rng.normal(size=(12, 12)) + 12 * np.eye(12)) * scale
    b = rng.normal(size=12)
    for order in (None, rng.permutation(12)):
        lu = LuFactor(sp.csr_matrix(d), order)
        assert np.allclose(lu.solve(b), np.linalg.solve(d, b), rtol=1e-12, atol=0.0)
        assert np.allclose(
            lu.solve(b, transposed=True), np.linalg.solve(d.T, b), rtol=1e-12, atol=0.0
        )


def test_noda_reports_a_singular_solve(monkeypatch):
    """A SingularMatrix from a shift's solve ends the run as NoConvergence."""

    def singular(self, b, transposed=False):
        raise SingularMatrix("solve: |A| max|x| = inf")

    monkeypatch.setattr(LuFactor, "solve", singular)
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 3.0]]))
    with pytest.raises(NoConvergence, match="singular shift") as info:
        noda_iteration(a, Settings(tol_eig=1e-12, max_iter=20))
    assert info.value.iterations == 1


def test_lu_solve_shape_check():
    lu = LuFactor(sp.identity(3, format="csr"))
    with pytest.raises(DimMismatch):
        lu.solve(np.ones(4))


def test_dense_inverse_and_budget():
    d = np.array([[2.0, -1.0], [-1.0, 2.0]])
    inv = dense_inverse(sp.csr_matrix(d))
    assert np.allclose(inv, np.linalg.inv(d), atol=1e-14)
    with pytest.raises(TooLarge):
        dense_inverse(sp.identity(10, format="csr"), Settings(oracle_max_dof=5))


def test_power_iteration_known_root():
    # [[2,1],[1,2]] has Perron root 3 with eigenvector (1,1)
    b = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    res = power_iteration(b, tol=1e-12)
    assert res.rho == pytest.approx(3.0, abs=1e-11)
    lo, hi = res.cw
    assert lo <= res.rho <= hi
    v = res.vector / res.vector.max()
    assert np.allclose(v, [1.0, 1.0], atol=1e-9)


def test_power_iteration_imprimitive_cycle():
    # plain power iteration oscillates on a 2-cycle; the internal shift
    # must still give the Perron root 1
    b = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = power_iteration(b, tol=1e-10)
    assert res.rho == pytest.approx(1.0, abs=1e-9)


def test_power_iteration_guards():
    with pytest.raises(ValueError, match="negative entry"):
        power_iteration(sp.csr_matrix(np.array([[1.0, -0.1], [0.2, 1.0]])))
    b = sp.csr_matrix(np.array([[2.0, 1.0], [3.0, 2.0]]))
    with pytest.raises(NoConvergence) as info:
        power_iteration(b, tol=1e-15, max_iter=3)
    assert info.value.iterations == 3
    assert info.value.width > 0.0


def test_power_iteration_unpacks_as_triple():
    b = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    rho, vector, cw = power_iteration(b)
    assert rho == pytest.approx(3.0, abs=1e-8)
    assert cw[0] <= rho <= cw[1]
    assert vector.shape == (2,)


def test_enclosure_never_widens():
    rng = np.random.default_rng(3)
    b = sp.csr_matrix(rng.uniform(0.1, 1.0, size=(8, 8)))
    res = power_iteration(b, tol=1e-10, collect_history=True)
    widths = [hi - lo for lo, hi in res.history]
    assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(widths, widths[1:]))


@given(
    arrays(
        float,
        (5, 5),
        elements=st.floats(min_value=0.01, max_value=4.0),
    )
)
@settings(max_examples=60, deadline=None)
def test_enclosure_brackets_true_perron_root(d):
    """Collatz-Wielandt enclosure always contains numpy's spectral radius."""
    b = sp.csr_matrix(d)
    res = power_iteration(b, tol=1e-8)
    true_rho = max(abs(np.linalg.eigvals(d)))
    lo, hi = res.cw
    assert lo - 1e-9 <= true_rho <= hi + 1e-9


def test_noda_iteration_known_eigenpair():
    # [[2,-1],[-1,3]] has principal eigenvalue (5 - sqrt 5) / 2
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 3.0]]))
    res = noda_iteration(a, Settings(tol_eig=1e-12, max_iter=20))
    exact = (5.0 - np.sqrt(5.0)) / 2.0
    assert res.rho == pytest.approx(exact, abs=1e-11)
    lo, hi = res.cw
    assert lo <= exact <= hi
    assert res.vector.min() > 0.0 and res.vector.max() == 1.0
    assert 1 <= res.iterations <= 10


def test_noda_iteration_guards():
    with pytest.raises(DimMismatch):
        noda_iteration(sp.csr_matrix((2, 3)), Settings(tol_eig=1e-9, max_iter=10))
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-3.0, 2.0]]))
    # the smallest positive tol_eig: no enclosure of a nonzero width meets
    # it, so the run stops at the rounding floor, on its one factorization
    res = noda_iteration(a, Settings(tol_eig=math.ulp(0.0), max_iter=1))
    assert res.stopped == "floor" and res.iterations == 1
    lo, hi = res.cw
    assert lo <= 2.0 - math.sqrt(3.0) <= hi and hi - lo > 0.0


def test_floor_stops_log_one_debug_record_each(caplog):
    """A right and a left iterate that stop at the floor log one DEBUG
    record each, with the width, delta and the run's LU count."""
    caplog.set_level(logging.DEBUG, logger="elcomp.linalg")
    a = sp.csr_matrix(np.array([[2.0, -1.0], [-3.0, 2.0]]))
    res = noda_iteration(a, Settings(tol_eig=math.ulp(0.0)), left=a.T.tocsr())
    assert res.stopped == res.left.stopped == "floor"
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.linalg"]
    pattern = r"(left )?enclosure stopped at the rounding floor: width (\S+), delta (\S+), (\d+) LU\(s\)"
    found = [re.fullmatch(pattern, m) for m in messages]
    assert [m.group(1) for m in found] == [None, "left "]
    for m, run in zip(found, (res, res.left)):
        assert m.group(2) == f"{run.cw[1] - run.cw[0]:.3e}"
        assert 0.0 < float(m.group(3)) < 1e-14
        assert int(m.group(4)) == run.iterations


@pytest.mark.parametrize(
    "max_iter, tol_eig",
    [(0, 1e-9), (-1, 1e-9), (10, math.inf), (10, math.nan), (10, -1e-9)],
)
def test_noda_iteration_rejects_bad_settings(max_iter, tol_eig):
    """max_iter below 1, or a width target that is not finite or is
    negative, cannot reach a run: Settings refuses it, naming the field."""
    field = "max_iter" if max_iter < 1 else "tol_eig"
    with pytest.raises(ValidationError, match=field):
        Settings(tol_eig=tol_eig, max_iter=max_iter)


def test_noda_start_closes_only_when_every_iterate_does():
    """On a matrix with constant row sums, x = 1 is the right eigenvector
    but not the left one: the right iterate would close at the start, the
    left would not, so the run goes on from ones as without a start.  The
    transpose has constant column sums, so only its left iterate closes.
    With both closed, the run returns the start and no LU."""
    a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [0.0, 2.0, -1.0], [-0.5, -0.5, 2.0]]))
    run = Settings(tol_eig=1e-10, max_iter=20)
    ones = np.ones(3)
    for b in (a, a.T.tocsr()):
        plain = noda_iteration(b, run, left=b.T.tocsr())
        started = noda_iteration(b, run, left=b.T.tocsr(), start=ones)
        assert plain.iterations >= 1
        assert (started.rho, started.cw, started.iterations, started.solves) == (
            plain.rho,
            plain.cw,
            plain.iterations,
            plain.solves,
        )
        assert np.array_equal(started.vector, plain.vector)
        assert started.left.cw == plain.left.cw
    right = noda_iteration(a, run, start=ones)
    assert (right.iterations, right.solves, right.left) == (0, 0, None)
    assert right.vector is ones and right.cw[0] <= 1.0 <= right.cw[1]
    assert right.cw[1] - right.cw[0] > 0.0


def test_noda_steps_offer_every_enclosure_and_end_in_the_run():
    """noda_steps on a nonsymmetric 2D pair from the grid's sine: an open
    state after the start's enclosure, with no LU, then one after each
    solve, each holding the end's rho in its enclosure, its counts never
    falling; its last state is noda_iteration's result, bit for bit, and
    none of the states is the x = 1 enclosure, which no solve precedes."""
    ds = parse_problem(convection_pair_text(16)).discretize()
    a = ds.assembled("cooperative").A
    run = Settings(tol_eig=1e-10)
    sine = np.sin(np.pi * np.arange(1, 16) / 16)
    start = np.tile(np.outer(sine, sine).ravel(), 2)
    states = list(noda_steps(a, run, a.T.tocsr(), start))
    end = noda_iteration(a, run, a.T.tocsr(), start)
    *opened, last = states
    assert last.stopped == "target" and all(s.stopped is None for s in opened)
    assert (last.rho, last.cw, last.iterations, last.solves) == (
        end.rho, end.cw, end.iterations, end.solves,
    )
    assert np.array_equal(last.vector, end.vector) and last.left.cw == end.left.cw
    first = opened[0]
    assert (first.iterations, first.solves, first.left.solves) == (0, 0, 0)
    assert first.vector is start
    assert [s.solves for s in opened[1:]] == list(range(1, len(opened)))
    assert [s.iterations for s in opened] == sorted(s.iterations for s in opened)
    for s in opened:
        assert s.cw[0] <= end.rho <= s.cw[1]
        assert s.left.solves == s.solves  # the left iterate is solved alongside


@given(
    arrays(float, (5, 5), elements=st.floats(min_value=0.01, max_value=4.0)),
    arrays(float, (5,), elements=st.floats(min_value=-4.0, max_value=4.0)),
)
@settings(max_examples=60, deadline=None)
def test_noda_agrees_with_power_reference(off, diag):
    """On random irreducible Z-matrices the Noda eigenvalue lies in the power
    iteration's enclosure and the reverse, up to the target widths."""
    tol = 1e-8
    a = np.diag(diag) - off * (1.0 - np.eye(5))
    s = float(diag.max())
    ref = power_iteration(sp.csr_matrix(s * np.eye(5) - a), tol=tol)
    lam_ref = s - ref.rho
    ref_lo, ref_hi = s - ref.cw[1], s - ref.cw[0]
    res = noda_iteration(sp.csr_matrix(a), Settings(tol_eig=tol, max_iter=50))
    # each value is within its own target width of the true root, which lies
    # in the other enclosure
    pad = tol * (1.0 + abs(res.rho))
    pad_ref = tol * (1.0 + abs(ref.rho))
    assert ref_lo - pad <= res.rho <= ref_hi + pad
    assert res.cw[0] - pad_ref <= lam_ref <= res.cw[1] + pad_ref


@given(
    arrays(float, (5, 5), elements=st.floats(min_value=0.01, max_value=4.0)),
    arrays(float, (5,), elements=st.floats(min_value=-4.0, max_value=4.0)),
)
@settings(max_examples=60, deadline=None)
def test_noda_left_iterate_leaves_the_right_run_alone(off, diag):
    """On random irreducible Z-matrices the left iterate, solved through the
    right run's factorizations, encloses the same eigenvalue on A^T, and the
    right run is bitwise the one without it."""
    a = sp.csr_matrix(np.diag(diag) - off * (1.0 - np.eye(5)))
    run = Settings(tol_eig=1e-8, max_iter=50)

    def target(lam):
        return run.tol_eig * (1.0 + abs(lam))

    both = noda_iteration(a, run, left=a.T.tocsr())
    alone = noda_iteration(a, run)
    assert both.cw == alone.cw and both.rho == alone.rho
    assert np.array_equal(both.vector, alone.vector)
    left = both.left
    assert left.cw[1] - left.cw[0] <= target(left.rho)
    assert left.vector.min() > 0.0
    # cw lies within the last ratios widened by delta
    at = a.T.tocsr()
    ratios = (at @ left.vector) / left.vector
    delta = rounding_bound(at, left.vector)
    assert left.cw[0] >= np.nextafter(ratios.min() - delta, -np.inf)
    assert left.cw[1] <= np.nextafter(ratios.max() + delta, np.inf)
    # both enclosures hold the principal eigenvalue
    assert max(both.cw[0], left.cw[0]) <= min(both.cw[1], left.cw[1])
    assert alone.iterations <= both.iterations == max(alone.iterations, left.iterations)


@st.composite
def irreducible_z_matrices(draw):
    """A dense irreducible Z-matrix of order 2 to 8, symmetric in half the
    draws: couplings 0 or in [0.01, 4], with at least 0.01 from each
    index i to i + 1 (mod n), which makes it irreducible, and a diagonal in
    [-4, 4].  A symmetric draw keeps the upper triangle and mirrors it; the
    path 0, 1, ..., n - 1 keeps it irreducible."""
    n = draw(st.integers(2, 8))
    coupling = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
    off = draw(arrays(float, (n, n), elements=coupling))
    cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    off[cycle] = np.maximum(off[cycle], 0.01)
    if draw(st.booleans()):
        off = np.triu(off, 1)
        off += off.T
    diag = draw(arrays(float, (n,), elements=st.floats(-4.0, 4.0)))
    return np.diag(diag) - off * (1.0 - np.eye(n))


def _cyclic_chain():
    """8 x 8: a cycle 0 -> 1 -> ... -> 7 -> 0 of couplings 1 then 0.01, and
    2 from 7 to 2.  At the smallest tol_eig its iterates settle on a fixed
    point whose ratios disagree by 15 ulps, above 2 delta (6 ulps)."""
    d = np.zeros((8, 8))
    d[np.arange(7), np.arange(1, 8)] = -0.01
    d[0, 1], d[7, 0], d[7, 2] = -1.0, -0.01, -2.0
    return d


def _constant_rows():
    """8 x 8, 0.7 on the diagonal and -0.1 off it: ones is the eigenvector
    and closes the run at once, but its computed ratio, 2.8e-17, lies above
    lambda = fl(0.7) - 7 fl(0.1) = -8.3e-17, so only the widening by delta
    keeps lambda in cw."""
    d = np.full((8, 8), -0.1)
    np.fill_diagonal(d, 0.7)
    return d


@seed(20070)
@given(irreducible_z_matrices())
# lambda = -sqrt(0.02): a shift one target width below lo is singular to
# working precision before the ratios agree within 2 delta
@example(np.array([[0.0, -2.0], [-0.01, 0.0]]))
@example(_cyclic_chain())
@example(_constant_rows())
@settings(max_examples=80, deadline=None)
def test_noda_enclosures_hold_the_principal_eigenvalue(d):
    """Both enclosures of a run hold the principal eigenvalue, computed by
    mpmath at 50 digits from the float matrix's exact entries, and no run
    raises: at tol_eig 1e-8, and at the smallest positive tol_eig, where no
    width meets the target and both iterates stop at the rounding floor."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.matrix(d.tolist())
        if np.array_equal(d, d.T):  # Jacobi: QR may not converge on repeated roots
            eigenvalues = mpmath.eigsy(m, eigvals_only=True)
        else:
            eigenvalues = mpmath.eig(m, left=False, right=False)
        lam = mpmath.re(min(eigenvalues, key=mpmath.re))
    a = sp.csr_matrix(d)
    for tol in (1e-8, math.ulp(0.0)):
        res = noda_iteration(a, Settings(tol_eig=tol), left=a.T.tocsr())
        for run in (res, res.left):
            assert mpmath.mpf(run.cw[0]) <= lam <= mpmath.mpf(run.cw[1]), (tol, run.cw)
    assert res.stopped == res.left.stopped == "floor"


def test_a_stall_on_a_kept_lu_takes_a_new_one():
    """A cycle of couplings 0.01 through diagonals 0, 4, ..., 4 has an
    eigenvector whose entries fall to 2e-16.  The left iterate's solve on a
    kept LU leaves its enclosure where it was, at width 1.3e-6; that is no
    floor, since only a new shift's solve proves one, and the fourth LU
    takes the left iterate to the target too."""
    d = np.diag([0.0] + [4.0] * 6)
    d[np.arange(6), np.arange(1, 7)] = -0.01
    d[6, 0] = -0.01
    a = sp.csr_matrix(d)
    run = Settings(tol_eig=1e-8)
    res = noda_iteration(a, run, left=a.T.tocsr())
    assert res.stopped == res.left.stopped == "target"
    assert res.iterations == 4
    for r in (res, res.left):
        assert r.cw[1] - r.cw[0] <= run.tol_eig * (1.0 + abs(r.rho))
        assert r.cw[0] <= float(np.linalg.eigvals(d).real.min()) <= r.cw[1]


@contextlib.contextmanager
def recorded_solves():
    """Log each LuFactor.solve as (factorization serial, transposed, rhs)."""
    log, serials = [], itertools.count()
    init, solve = LuFactor.__init__, LuFactor.solve

    def numbered(self, a):
        init(self, a)
        self.serial = next(serials)

    def logged(self, b, transposed=False):
        log.append((self.serial, transposed, np.array(b)))
        return solve(self, b, transposed)

    with mock.patch.object(LuFactor, "__init__", numbered):
        with mock.patch.object(LuFactor, "solve", logged):
            yield log


def running_widths(b, xs):
    """Collatz-Wielandt widths of the running enclosure after each iterate."""
    lo, hi, widths = -np.inf, np.inf, []
    for x in xs:
        ratios = (b @ x) / x
        lo, hi = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        widths.append(hi - lo)
    return widths


@given(
    arrays(float, (5, 5), elements=st.floats(min_value=0.01, max_value=4.0)),
    arrays(float, (5,), elements=st.floats(min_value=-4.0, max_value=4.0)),
)
@settings(max_examples=60, deadline=None)
def test_noda_keeps_a_shift_only_while_it_halves_the_width(off, diag):
    """On random irreducible Z-matrices: both enclosures bracket the dense
    principal eigenvalue; an LU is solved with again only after the lead
    iterate's last solve with it halved that iterate's width (the right
    iterate leads while open, then the left); and left=A^T leaves the
    right run equal to a right-only run."""
    d = np.diag(diag) - off * (1.0 - np.eye(5))
    a = sp.csr_matrix(d)
    at = a.T.tocsr()
    run = Settings(tol_eig=1e-8, max_iter=50)

    def target(lam):
        return run.tol_eig * (1.0 + abs(lam))

    with recorded_solves() as log:
        alone = noda_iteration(a, run)
    serials = [s for s, _, _ in log]
    assert alone.solves == len(log) and alone.iterations == len(set(serials))
    kept = sum(s == prev for s, prev in zip(serials[1:], serials))
    if kept:
        # each kept solve follows a halving one, and widths never grow
        widths = running_widths(a, [x for _, _, x in log])
        assert kept <= math.log2(widths[0] / widths[-1])

    with recorded_solves() as log:
        both = noda_iteration(a, run, left=at)
    left = both.left
    assert both.cw == alone.cw and both.rho == alone.rho
    assert np.array_equal(both.vector, alone.vector) and both.solves == alone.solves
    assert both.iterations == max(alone.iterations, left.iterations)
    runs = {t: [(s, x) for s, tt, x in log if tt == t] for t in (False, True)}
    assert len(runs[False]) == both.solves and len(runs[True]) == left.solves
    widths = {
        False: running_widths(a, [x for _, x in runs[False]]),
        True: running_widths(at, [x for _, x in runs[True]]),
    }
    # step k solves the right iterate while it is open, then the left one;
    # the first of them leads and all share the step's LU
    for k in range(1, max(len(runs[False]), len(runs[True]))):
        lead = k >= len(runs[False])
        if runs[lead][k][0] == runs[k - 1 >= len(runs[False])][k - 1][0]:
            assert widths[lead][k] <= 0.5 * widths[lead][k - 1], k

    lam = float(np.linalg.eigvals(d).real.min())
    pad = 1e-12 * (1.0 + abs(lam))
    for res in (both, left):
        assert res.cw[0] - pad <= lam <= res.cw[1] + pad
        assert res.cw[1] - res.cw[0] <= target(res.rho)


def test_noda_enclosure_rounds_outward():
    """enclose widens the ratios' range by delta and rounds each end one
    step outward: on a small Z-matrix, lo lies strictly below fl(low -
    delta) and hi strictly above fl(high + delta), recomputed here from the
    iterate, so an enclosure without the outward step is caught."""
    b = sp.csr_matrix(
        np.array([[4.0, -1.0, 0.0, -0.5], [-1.0, 3.0, -1.0, 0.0], [0.0, -2.0, 5.0, -1.0], [-0.25, 0.0, -1.0, 2.0]])
    )
    x = np.array([1.0, 0.7, 0.3, 0.9])
    it = linalg._NodaIterate(b, False, 1e-300, x)
    it.enclose(0)
    ratios = (b @ x) / x
    u = np.finfo(float).eps / 2
    k = int(b.getnnz(axis=1).max())
    g = linalg.gamma(k + 1) / (1.0 - linalg.gamma(k) - linalg.gamma(3))
    delta = float((g * (2.0 * np.maximum(b.diagonal(), 0.0) - ratios) + u * np.abs(ratios)).max())
    assert it.lo < float(ratios.min()) - delta
    assert it.hi > float(ratios.max()) + delta
