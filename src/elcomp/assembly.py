"""Monotone finite-difference discretization of weakly coupled systems.

Unknowns are interior node values, species-major: global index
k * n_int + i for species k and interior position i.  Dirichlet data is
eliminated into a boundary map G so that the discrete equations read
A u + G g = f.
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


def check_z_matrix(a: sp.spmatrix, n_species: int = 1, n_int: int | None = None):
    """(is_z, worst_position, worst_value, offdiag_max) for positive off-diagonals.

    worst_position is (row, col); with n_int given it becomes
    ((species, interior_pos), (species, interior_pos)).
    """
    coo = a.tocoo()
    off = coo.row != coo.col
    if not off.any():
        return True, None, 0.0, 0.0
    vals = coo.data[off]
    rows = coo.row[off]
    cols = coo.col[off]
    k = int(np.argmax(vals))
    worst = float(vals[k])
    offdiag_max = max(worst, 0.0)
    pos = (int(rows[k]), int(cols[k]))
    if n_int:
        pos = (
            (pos[0] // n_int + 1, pos[0] % n_int),
            (pos[1] // n_int + 1, pos[1] % n_int),
        )
    tol = Z_RTOL * max(linalg.inf_norm(a), 1e-300)
    return worst <= tol, pos, worst, offdiag_max


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

    Every row lists its stencil entries in the same order, diagonal last,
    and exact zeros are dropped, so duplicate entries are summed in a fixed
    order.
    """
    h = grid.h
    target = grid.interior_ids
    n_rows = len(target)
    stride = (1, grid.shape[0])
    nodes, coeffs = [], []  # one column per stencil entry, in row order
    diag = c_vals[target]
    for d in range(grid.dim):
        up = target + stride[d]
        dn = target - stride[d]
        app = a_vals[d, d, target]
        f_up = 0.5 * (app + a_vals[d, d, up])
        f_dn = 0.5 * (app + a_vals[d, d, dn])
        inv_h2 = 1.0 / (h[d] * h[d])
        diag = diag + (f_up + f_dn) * inv_h2
        bv = b_vals[d, target]
        bp = np.maximum(bv, 0.0)
        bm = np.minimum(bv, 0.0)
        diag = diag + (bp - bm) / h[d]
        nodes += [up, dn, dn, up]
        coeffs += [-f_up * inv_h2, -f_dn * inv_h2, -bp / h[d], bm / h[d]]
    if grid.dim == 2:
        # -D_d2(a_{d1 d2} D_d1 u), centered both ways, for d1 != d2
        scale = 1.0 / (4.0 * h[0] * h[1])
        for d1, d2 in ((0, 1), (1, 0)):
            for s2 in (1, -1):
                nbr2 = target + s2 * stride[d2]
                a_here = a_vals[d1, d2, nbr2]
                for s1 in (1, -1):
                    nodes.append(nbr2 + s1 * stride[d1])
                    coeffs.append(-s1 * s2 * a_here * scale)
    nodes.append(target)
    coeffs.append(diag)
    node = np.stack(nodes, axis=1)
    coeff = np.stack(coeffs, axis=1)
    col = grid.interior_pos[node]
    row = np.broadcast_to(np.arange(n_rows)[:, None], node.shape)
    nonzero = coeff != 0.0
    nonzero[:, -1] = True  # the diagonal closes every row of A, zero or not
    in_a = nonzero & (col >= 0)
    A = linalg.from_coo(n_rows, n_rows, row[in_a], col[in_a], coeff[in_a])
    in_g = nonzero & (col < 0)
    G = linalg.from_coo(
        n_rows, grid.n_boundary, row[in_g], grid.boundary_pos[node[in_g]], coeff[in_g]
    )
    return A, G


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
        """assemble(coupling), built once per coupling mode.

        The stages of a run share that AssembledSystem, and with it the
        oracle scan kept on it, so it must not be modified.
        """
        if _coupling_mode(coupling) not in self._assembly_cache:
            self._assembly_cache[coupling] = self.assemble(coupling)
        return self._assembly_cache[coupling]

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
        return self.assembled(coupling).A[ix][:, ix]

    def assemble(self, coupling="full") -> AssembledSystem:
        grid = self.grid
        n = self.n_species
        m_sel = self.coupling_values(coupling)
        target = grid.interior_ids
        blocks_a = [[None] * n for _ in range(n)]
        blocks_g = [[None] * n for _ in range(n)]
        for k in range(n):
            A_k, G_k = self.scalar_parts(k)
            for l in range(n):
                coupl = sp.diags(m_sel[k, l][target], format="csr")
                if l == k:
                    blocks_a[k][l] = A_k + coupl
                else:
                    blocks_a[k][l] = coupl
                blocks_g[k][l] = G_k if l == k else None
        A = sp.bmat(blocks_a, format="csr")
        A.sort_indices()
        G = sp.bmat(blocks_g, format="csr")
        G.sort_indices()
        f_vec = self.f_vals[:, target].reshape(-1)
        g_vec = self.g_vals[:, grid.boundary_ids].reshape(-1)
        is_z, worst_pos, _, offdiag_max = check_z_matrix(A, n, grid.n_interior)
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
