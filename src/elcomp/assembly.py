"""Monotone finite-difference discretization of weakly coupled systems.

Unknowns are interior node values, species-major: global index
k * n_int + i for species k and interior position i.  Dirichlet data is
eliminated into a boundary map G so that the discrete equations read
A u + G g = f.

Each species' scalar parts A_k and G_k are written row by row in column
order, and the coupled A and G are each built as one CSR straight from
their arrays; exact zeros are left out, except that every row of A stores
its diagonal entry, even one that sums to 0.0.  Species blocks and
subdomain operators are principal submatrices of that one assembly, and
the two coupling modes share it when they give the same A.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import NonEllipticCoefficient, ValidationError
from .expressions import COORDS, Expr, const, sample_field, validate_variables
from .mesh import Grid, SubdomainMask

Z_RTOL = 1e-14
COUPLING_NONZERO = 1e-12
ASYMMETRY_WARN = 1e-10


@dataclass(frozen=True)
class ScalarOperatorSpec:
    """-sum_ij D_j(a_ij D_i u) + sum_i b_i D_i u + c u with expression fields."""

    a: tuple  # dim x dim nested tuple of Expr
    b: tuple  # dim tuple of Expr
    c: Expr

    @staticmethod
    def make(dim: int, a=None, b=None, c=None) -> "ScalarOperatorSpec":
        """Normalize shorthand: scalar a means a * identity, missing parts are 0."""
        if a is None:
            a = const(1.0)
        if isinstance(a, Expr):
            a = tuple(
                tuple(a if i == j else const(0.0) for j in range(dim))
                for i in range(dim)
            )
        else:
            a = tuple(tuple(row) for row in a)
        if b is None:
            b = tuple(const(0.0) for _ in range(dim))
        elif isinstance(b, Expr):
            b = (b,) * dim
        else:
            b = tuple(b)
        if c is None:
            c = const(0.0)
        spec = ScalarOperatorSpec(a, b, c)
        if len(spec.a) != dim or any(len(row) != dim for row in spec.a):
            raise ValidationError(f"diffusion tensor must be {dim}x{dim}")
        if len(spec.b) != dim:
            raise ValidationError(f"convection needs {dim} component(s)")
        return spec

    def validate(self, grid: Grid) -> None:
        allowed = set(COORDS[: grid.dim])
        for i, row in enumerate(self.a):
            for j, e in enumerate(row):
                validate_variables(e, allowed, f"a{i + 1}{j + 1}")
        for i, e in enumerate(self.b):
            validate_variables(e, allowed, f"b{i + 1}")
        validate_variables(self.c, allowed, "c")


@dataclass(frozen=True)
class SystemSpec:
    """N scalar operators coupled through a pointwise matrix m."""

    grid: Grid
    ops: tuple  # N ScalarOperatorSpec
    m: tuple  # N x N nested tuple of Expr
    f: tuple  # N Expr
    g: tuple  # N Expr

    @property
    def n_species(self) -> int:
        return len(self.ops)

    def validate(self) -> None:
        n = self.n_species
        if n < 1:
            raise ValidationError("need at least one species")
        if len(self.m) != n or any(len(row) != n for row in self.m):
            raise ValidationError(f"coupling matrix must be {n}x{n}")
        if len(self.f) != n or len(self.g) != n:
            raise ValidationError("f and g need one expression per species")
        allowed = set(COORDS[: self.grid.dim])
        for k, op in enumerate(self.ops):
            op.validate(self.grid)
        for k, row in enumerate(self.m):
            for l, e in enumerate(row):
                validate_variables(e, allowed, f"m{k + 1}{l + 1}")
        for k in range(n):
            validate_variables(self.f[k], allowed, f"f{k + 1}")
            validate_variables(self.g[k], allowed, f"g{k + 1}")

    def discretize(self) -> "DiscreteSystem":
        self.validate()
        grid = self.grid
        n = self.n_species
        dim = grid.dim
        a_vals = np.empty((n, dim, dim, grid.n_nodes))
        b_vals = np.empty((n, dim, grid.n_nodes))
        c_vals = np.empty((n, grid.n_nodes))
        m_vals = np.empty((n, n, grid.n_nodes))
        f_vals = np.empty((n, grid.n_nodes))
        g_vals = np.empty((n, grid.n_nodes))
        for k, op in enumerate(self.ops):
            for i in range(dim):
                for j in range(dim):
                    a_vals[k, i, j] = sample_field(op.a[i][j], grid)
                b_vals[k, i] = sample_field(op.b[i], grid)
            c_vals[k] = sample_field(op.c, grid)
            f_vals[k] = sample_field(self.f[k], grid)
            g_vals[k] = sample_field(self.g[k], grid)
        for k in range(n):
            for l in range(n):
                m_vals[k, l] = sample_field(self.m[k][l], grid)
        return DiscreteSystem(grid, n, a_vals, b_vals, c_vals, m_vals, f_vals, g_vals)


def _sym_eig_range(a_node):
    """Eigenvalue range of the symmetrized dim x dim tensor at every node."""
    dim = a_node.shape[0]
    if dim == 1:
        vals = a_node[0, 0]
        return vals, vals
    p = a_node[0, 0]
    r = a_node[1, 1]
    q = 0.5 * (a_node[0, 1] + a_node[1, 0])
    half_tr = 0.5 * (p + r)
    disc = np.sqrt((0.5 * (p - r)) ** 2 + q**2)
    return half_tr - disc, half_tr + disc


def check_ellipticity_values(a_vals: np.ndarray, grid: Grid):
    if grid.dim == 2:
        asym = float(np.abs(a_vals[0, 1] - a_vals[1, 0]).max())
        if asym > ASYMMETRY_WARN:
            warnings.warn(
                f"diffusion tensor asymmetry {asym:.3e}; using the symmetric part "
                "for the ellipticity check",
                stacklevel=2,
            )
    lo, hi = _sym_eig_range(a_vals)
    lam_min = float(lo.min())
    lam_max = float(hi.max())
    if lam_min <= 0.0:
        node = int(np.argmin(lo))
        raise NonEllipticCoefficient(
            f"diffusion tensor eigenvalue {lam_min:.6g} <= 0 at node "
            f"{grid.node_coord(node)}"
        )
    return lam_min, lam_max


def _largest_offdiag(a: sp.spmatrix):
    """(value, (row, col)) of the first largest off-diagonal stored entry
    in storage order, or None without off-diagonal entries."""
    rows, cols, vals = linalg.stored_entries(a)
    off = rows != cols
    if not off.any():
        return None
    k = int(np.argmax(vals[off]))  # the gather is freed before the next one
    k = np.flatnonzero(off)[k]
    return float(vals[k]), (int(rows[k]), int(cols[k]))


def check_z_matrix(a: sp.spmatrix, n_int: int | None = None):
    """(is_z, worst_position, worst_value, offdiag_max) for positive off-diagonals.

    worst_position is (row, col); with n_int given it becomes
    ((species, interior_pos), (species, interior_pos)).
    """
    found = _largest_offdiag(a)
    if found is None:
        return True, None, 0.0, 0.0
    worst, pos = found
    offdiag_max = max(worst, 0.0)
    if n_int:
        pos = (
            (pos[0] // n_int + 1, pos[0] % n_int),
            (pos[1] // n_int + 1, pos[1] % n_int),
        )
    # the tolerance is positive, so only a positive worst entry needs |A|
    is_z = worst <= 0.0 or worst <= Z_RTOL * max(linalg.inf_norm(a), 1e-300)
    return is_z, pos, worst, offdiag_max


@dataclass
class AssembledSystem:
    """Interior operator A, boundary map G, data vectors, and Z diagnostics."""

    A: sp.csr_matrix
    G: sp.csr_matrix
    f_vec: np.ndarray
    g_vec: np.ndarray
    z_matrix: bool
    offdiag_max: float
    worst_offdiag: tuple | None
    grid: Grid
    n_species: int
    # oracle scans of A^{-1} by content of A and G (oracle.inverse_positivity)
    _oracle_cache: dict = field(default_factory=dict, repr=False)


def _assemble_scalar_values(a_vals, b_vals, c_vals, grid: Grid):
    """CSR (A, G) for one scalar operator from node-sampled coefficients.

    Conservative fluxes with arithmetic-mean face coefficients, first-order
    upwind convection, centered cross-derivatives.

    The stencil slots are grouped by node offset, and the offsets taken in
    increasing order, which is column order in A and in G both, so every
    row is written straight into place.  An offset holds at most two slots
    (a diffusion and a convection term, or two cross terms), so their sum
    does not depend on the order.  Exact-zero slots count as absent: an
    entry is stored where some slot is nonzero.  A also drops off-diagonal
    entries whose slots cancel to 0.0 and stores every diagonal entry, zero
    or not; G keeps its explicit zeros.
    """
    h = grid.h
    target = grid.interior_ids
    n_rows = len(target)
    stride = (1, grid.shape[0])
    slots = {}  # node offset -> the stencil coefficients there
    diag = c_vals[target]
    for d in range(grid.dim):
        app = a_vals[d, d, target]
        f_up = 0.5 * (app + a_vals[d, d, target + stride[d]])
        f_dn = 0.5 * (app + a_vals[d, d, target - stride[d]])
        inv_h2 = 1.0 / (h[d] * h[d])
        diag = diag + (f_up + f_dn) * inv_h2
        bv = b_vals[d, target]
        bp = np.maximum(bv, 0.0)
        bm = np.minimum(bv, 0.0)
        diag = diag + (bp - bm) / h[d]
        slots[stride[d]] = [-f_up * inv_h2, bm / h[d]]
        slots[-stride[d]] = [-f_dn * inv_h2, -bp / h[d]]
    if grid.dim == 2:
        # -D_d2(a_{d1 d2} D_d1 u), centered both ways, for d1 != d2
        scale = 1.0 / (4.0 * h[0] * h[1])
        for d1, d2 in ((0, 1), (1, 0)):
            for s2 in (1, -1):
                a_here = a_vals[d1, d2, target + s2 * stride[d2]]
                for s1 in (1, -1):
                    offset = s1 * stride[d1] + s2 * stride[d2]
                    slots.setdefault(offset, []).append(-s1 * s2 * a_here * scale)
    slots[0] = [diag]
    offsets = sorted(slots)
    vals = np.empty((n_rows, len(offsets)))
    present = np.empty(vals.shape, dtype=bool)
    for i, offset in enumerate(offsets):
        parts = slots[offset]
        # with one slot at 0.0, the sum is the other slot exactly
        vals[:, i] = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        present[:, i] = np.logical_or.reduce([p != 0.0 for p in parts])
    node = target[:, None] + np.asarray(offsets)
    col = grid.interior_pos[node]
    inside = col >= 0
    in_a = inside & (vals != 0.0)
    in_a[:, offsets.index(0)] = True  # the diagonal, zero or not
    A = _rows_to_csr(in_a, col, vals, grid.n_interior)
    G = _rows_to_csr(~inside & present, grid.boundary_pos[node], vals, grid.n_boundary)
    return A, G


def _rows_to_csr(keep, cols, vals, n_cols: int) -> sp.csr_matrix:
    """CSR of the kept (row, slot) entries, each row's slots in order."""
    indptr = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (vals[keep], cols[keep], indptr), shape=(keep.shape[0], n_cols)
    )


def _coupled_operator(blocks, m) -> sp.csr_matrix:
    """The coupled A from the species' A_k and the coupling values m[k, l]
    at the interior nodes, as one CSR.

    Row i of species k holds, in column order, m_kl(x_i) for l < k, the row
    of A_k with m_kk(x_i) added to its diagonal, then m_kl(x_i) for l > k,
    so every entry is written straight into place, with no sort.  Zero
    couplings are left out.  Each A_k stores one diagonal entry per row and
    no other zero (_assemble_scalar_values), so every row of A stores its
    diagonal entry, even one that sums to 0.0, and nothing else that is 0.0.
    """
    n, _, n_int = m.shape
    cross = m != 0.0
    cross[np.diag_indices(n)] = False  # m_kk goes onto A_k's diagonal
    counts = cross.sum(axis=1)  # entries of each row of A, species-major
    for k, A_k in enumerate(blocks):
        counts[k] += np.diff(A_k.indptr)
    indptr = np.zeros(n * n_int + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    index = np.int32 if max(nnz, n * n_int) <= np.iinfo(np.int32).max else np.int64
    indptr = indptr.astype(index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    for k, A_k in enumerate(blocks):
        lo, hi = indptr[k * n_int], indptr[(k + 1) * n_int]
        seg_indices, seg_data = indices[lo:hi], data[lo:hi]
        # where each row's entries start, and A_k's part of it
        row_start = indptr[k * n_int : (k + 1) * n_int] - lo
        own_start = row_start + cross[k, :k].sum(axis=0)
        coupled = np.zeros(hi - lo, dtype=bool)
        for l in range(n):
            i = np.flatnonzero(cross[k, l])
            # after the couplings to species before l, and after A_k if l > k
            pos = row_start[i] + cross[k, :l][:, i].sum(axis=0)
            if l > k:
                pos += A_k.indptr[i + 1] - A_k.indptr[i]
            seg_indices[pos] = (l - k) * n_int + i  # shifted with the rest below
            seg_data[pos] = m[k, l, i]
            coupled[pos] = True
        # A_k's entries, in order, fill the slots the couplings leave
        free = ~coupled
        seg_indices[free] = A_k.indices
        seg_indices += k * n_int
        seg_data[free] = A_k.data
        diag = np.flatnonzero(A_k.indices == linalg.row_ids(A_k))
        seg_data[own_start + diag - A_k.indptr[:-1]] += m[k, k]
    return sp.csr_matrix((data, indices, indptr), shape=(n * n_int,) * 2)


def _coupling_mode(coupling) -> str:
    """coupling if it names a mode; anything else, arrays too, is invalid."""
    if isinstance(coupling, str) and coupling in ("full", "cooperative"):
        return coupling
    raise ValidationError(f"unknown coupling mode {coupling!r}")


@dataclass
class DiscreteSystem:
    """Node-sampled coefficients of a system; the assembly workhorse.

    Produced by SystemSpec.discretize() or by a linearization; everything
    downstream (spectral, certify, oracle) runs on this representation.
    """

    grid: Grid
    n_species: int
    a_vals: np.ndarray  # (N, dim, dim, n_nodes)
    b_vals: np.ndarray  # (N, dim, n_nodes)
    c_vals: np.ndarray  # (N, n_nodes)
    m_vals: np.ndarray  # (N, N, n_nodes)
    f_vals: np.ndarray  # (N, n_nodes)
    g_vals: np.ndarray  # (N, n_nodes)
    _scalar_cache: dict = field(default_factory=dict, repr=False)
    # full-domain AssembledSystem per coupling mode (assembled)
    _assembly_cache: dict = field(default_factory=dict, repr=False)
    # eigenpairs by operator content (spectral)
    _eigen_cache: dict = field(default_factory=dict, repr=False)

    @property
    def m_plus(self) -> np.ndarray:
        return np.maximum(self.m_vals, 0.0)

    @property
    def m_minus(self) -> np.ndarray:
        return np.minimum(self.m_vals, 0.0)

    def check_ellipticity(self):
        out = []
        for k in range(self.n_species):
            out.append(check_ellipticity_values(self.a_vals[k], self.grid))
        return out

    def scalar_parts(self, k: int):
        """(A, G) of species k's scalar operator (0-based), built once."""
        if k not in self._scalar_cache:
            self._scalar_cache[k] = _assemble_scalar_values(
                self.a_vals[k], self.b_vals[k], self.c_vals[k], self.grid
            )
        return self._scalar_cache[k]

    def coupling_values(self, coupling) -> np.ndarray:
        """m_vals ("full") or m_minus ("cooperative")."""
        return self.m_vals if _coupling_mode(coupling) == "full" else self.m_minus

    def assembled(self, coupling="full") -> AssembledSystem:
        """assemble(coupling), built once per distinct operator.

        Where m has no positive value at an interior node (m_kk included;
        boundary nodes never enter A), m_minus drops nothing that A holds,
        so the "cooperative" system is the "full" one, and the same
        AssembledSystem is returned for both.  The stages of a run share
        it, and with it the oracle scan kept on it, so it must not be
        modified.
        """
        mode = _coupling_mode(coupling)
        if mode not in self._assembly_cache:
            m = self.m_vals[:, :, self.grid.interior_ids]
            if mode == "cooperative" and not (m > 0.0).any():
                self._assembly_cache[mode] = self.assembled("full")
            else:
                self._assembly_cache[mode] = self.assemble(mode)
        return self._assembly_cache[mode]

    def block(self, coupling, species, mask: SubdomainMask | None = None):
        """Principal submatrix of assembled(coupling).A on the given species
        (0-based) at the masked interior nodes, species-major.

        Zero Dirichlet data on the unknowns left out deletes their rows and
        columns, so this is the operator of the species block on the
        subdomain.
        """
        n_int = self.grid.n_interior
        nodes = np.arange(n_int) if mask is None else np.flatnonzero(mask.inside)
        ix = (np.asarray(species, dtype=np.int64)[:, None] * n_int + nodes).ravel()
        return linalg.principal_submatrix(self.assembled(coupling).A, ix)

    def assemble(self, coupling="full") -> AssembledSystem:
        """A and G of the coupled system, each built as one CSR from the
        arrays of the species' scalar parts.

        A is _coupled_operator's: every row stores its diagonal entry, even
        one that sums to 0.0, so the Noda shift (linalg.shifted) subtracts
        from it in place.  G is the block diagonal of the G_k.
        """
        grid = self.grid
        n, n_int = self.n_species, grid.n_interior
        target = grid.interior_ids
        parts = [self.scalar_parts(k) for k in range(n)]
        A = _coupled_operator(
            [A_k for A_k, _ in parts], self.coupling_values(coupling)[:, :, target]
        )
        gs = [G_k for _, G_k in parts]
        n_b = grid.n_boundary
        first = np.cumsum([0] + [G_k.nnz for G_k in gs])
        G = sp.csr_matrix(
            (
                np.concatenate([G_k.data for G_k in gs]),
                np.concatenate([G_k.indices + k * n_b for k, G_k in enumerate(gs)]),
                np.concatenate([[0]] + [G_k.indptr[1:] + first[k] for k, G_k in enumerate(gs)]),
            ),
            shape=(n * n_int, n * n_b),
        )
        f_vec = self.f_vals[:, target].reshape(-1)
        g_vec = self.g_vals[:, grid.boundary_ids].reshape(-1)
        is_z, worst_pos, _, offdiag_max = check_z_matrix(A, grid.n_interior)
        return AssembledSystem(
            A, G, f_vec, g_vec, is_z, offdiag_max, worst_pos, grid, n
        )

    # ---------------------------------------------------- species structure

    def minus_edges(self) -> list:
        """adjacency: edge l -> k iff m_kl has a nonpositive part somewhere."""
        neg = self.m_vals[:, :, self.grid.interior_ids].min(axis=2) < -COUPLING_NONZERO
        n = self.n_species
        return [[k for k in range(n) if k != l and neg[k, l]] for l in range(n)]

    def plus_offdiag_pattern(self) -> np.ndarray:
        pat = self.m_vals[:, :, self.grid.interior_ids].max(axis=2) > COUPLING_NONZERO
        np.fill_diagonal(pat, False)
        return pat

    def plus_diag_nonzero(self, j: int) -> bool:
        ids = self.grid.interior_ids
        return float(self.m_vals[j, j][ids].max()) > COUPLING_NONZERO


def assemble_system(spec, coupling="full") -> AssembledSystem:
    """Block assembly of a SystemSpec or DiscreteSystem."""
    return as_discrete(spec).assemble(coupling)


def as_discrete(spec) -> DiscreteSystem:
    if isinstance(spec, DiscreteSystem):
        return spec
    return spec.discretize()
