"""Divergence-form quasilinear systems and their comparison linearization.

For a pair of candidate fields (u, v) the quasilinear operator

    Q^l u = -sum_i D_i flux^l_i(x, u^l, Du^l) + F^l(x, u, Du^l)

is linearized along the segment v + s (u - v): coefficients are integrals
over s of the flux and reaction Jacobians, producing a linear weakly
coupled system for the difference w = u - v.  A comparison certificate for
that frozen-coefficient system transfers back to the pair (u, v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import DiscreteSystem, SystemSpec, _sym_eig_range
from .certify import Verdict, certify
from .errors import EvalDomainError, NonEllipticLinearization, ValidationError
from .expressions import (
    COORDS,
    BinOp,
    Expr,
    Num,
    Var,
    const,
    evaluate,
    validate_variables,
)
from .fields import BlockField
from .mesh import Grid
from .settings import DEFAULT, Settings

GAUSS_POINTS = 5
FD_STEP = 1e-6


def _eval_checked(e: Expr, env: dict, context: str) -> np.ndarray:
    vals, bad = evaluate(e, env, len(env["x"]))
    if bad.any():
        raise EvalDomainError(f"{context}: non-finite value along the segment")
    return vals


def _fd_partial(e: Expr, env: dict, var: str, context: str) -> np.ndarray:
    """Central difference in one argument, vectorized over nodes."""
    base = np.asarray(env[var], dtype=float)
    step = FD_STEP * (1.0 + np.abs(base))
    hi = dict(env)
    lo = dict(env)
    hi[var] = base + step
    lo[var] = base - step
    return (_eval_checked(e, hi, context) - _eval_checked(e, lo, context)) / (
        2.0 * step
    )


def _partial(qs, key: str, e: Expr, env: dict, var: str, context: str):
    """The closed-form partial qs.partials[key] if given, else a central
    difference of e in var."""
    if key in qs.partials:
        return _eval_checked(qs.partials[key], env, key)
    return _fd_partial(e, env, var, context)


# ----------------------------------------------------------------- spec


@dataclass(frozen=True)
class QuasiSpec:
    """Quasilinear system: fluxes of (x, u, p), reactions of (x, u1..uN, p).

    partials may provide closed-form Jacobian expressions under the keys
    dflux{l}_{i}_dp{j}, dflux{l}_{i}_du, dF{l}_du{k}, dF{l}_dp{i} (1-based);
    any missing partial falls back to a central difference.
    """

    grid: Grid
    flux: tuple  # N x dim nested tuple of Expr
    F: tuple  # N Expr
    f: tuple  # N Expr, data in the coordinates
    g: tuple  # N Expr, Dirichlet data
    partials: dict = field(default_factory=dict)

    @property
    def n_species(self) -> int:
        return len(self.flux)

    def validate(self) -> None:
        n = self.n_species
        dim = self.grid.dim
        if n < 1:
            raise ValidationError("need at least one species")
        if len(self.F) != n or len(self.f) != n or len(self.g) != n:
            raise ValidationError("flux, F, f, g need one entry per species")
        coords = set(COORDS[:dim])
        p_vars = {f"p{i + 1}" for i in range(dim)}
        flux_vars = coords | {"u"} | p_vars
        reac_vars = coords | {f"u{k + 1}" for k in range(n)} | p_vars
        for l in range(n):
            if len(self.flux[l]) != dim:
                raise ValidationError(f"flux{l + 1} needs {dim} component(s)")
            for i in range(dim):
                validate_variables(self.flux[l][i], flux_vars, f"flux{l + 1}_{i + 1}")
            validate_variables(self.F[l], reac_vars, f"F{l + 1}")
            validate_variables(self.f[l], coords, f"f{l + 1}")
            validate_variables(self.g[l], coords, f"g{l + 1}")
        for key, e in self.partials.items():
            allowed = flux_vars if key.startswith("dflux") else reac_vars
            validate_variables(e, allowed, key)


def _sum_terms(terms) -> Expr:
    terms = [t for t in terms if t is not None]
    if not terms:
        return const(0.0)
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def _coeff_times(coeff: Expr, var: str):
    if isinstance(coeff, Num) and coeff.value == 0.0:
        return None
    return BinOp("*", coeff, Var(var))


def from_linear_system(spec: SystemSpec) -> QuasiSpec:
    """Exact quasilinear embedding of a linear system.

    Closed-form partials are attached, so linearizing at any pair of fields
    reproduces the original coefficients up to quadrature roundoff.
    """
    spec.validate()
    dim = spec.grid.dim
    n = spec.n_species
    flux = []
    reac = []
    partials: dict = {}
    for l, op in enumerate(spec.ops):
        comps = []
        for i in range(dim):
            comps.append(
                _sum_terms(_coeff_times(op.a[j][i], f"p{j + 1}") for j in range(dim))
            )
            partials[f"dflux{l + 1}_{i + 1}_du"] = const(0.0)
            for j in range(dim):
                partials[f"dflux{l + 1}_{i + 1}_dp{j + 1}"] = op.a[j][i]
        flux.append(tuple(comps))
        terms = [_coeff_times(op.b[i], f"p{i + 1}") for i in range(dim)]
        for k in range(n):
            coeff = spec.m[l][k]
            if k == l:
                coeff = BinOp("+", op.c, coeff)
            terms.append(_coeff_times(coeff, f"u{k + 1}"))
            partials[f"dF{l + 1}_du{k + 1}"] = coeff
        for i in range(dim):
            partials[f"dF{l + 1}_dp{i + 1}"] = op.b[i]
        reac.append(_sum_terms(terms))
    qs = QuasiSpec(spec.grid, tuple(flux), tuple(reac), spec.f, spec.g, partials)
    qs.validate()
    return qs


# ----------------------------------------------------------- linearization


def _as_block_values(grid: Grid, n: int, u) -> np.ndarray:
    if isinstance(u, BlockField):
        if u.grid != grid:
            raise ValidationError("field grid does not match the system grid")
        vals = u.values
    else:
        vals = np.asarray(u, dtype=float)
    if vals.shape != (n, grid.n_nodes):
        raise ValidationError(
            f"need ({n}, {grid.n_nodes}) node values, got {vals.shape}"
        )
    return vals


def _node_gradient(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """All-node gradient: centered inside, second-order one-sided on edges."""
    if grid.dim == 1:
        return np.gradient(vals, grid.h[0], edge_order=2)[np.newaxis, :]
    arr = vals.reshape(grid.shape[1], grid.shape[0])
    gy, gx = np.gradient(arr, grid.h[1], grid.h[0], edge_order=2)
    return np.stack([gx.ravel(), gy.ravel()])


def _node_divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    if grid.dim == 1:
        return np.gradient(vec[0], grid.h[0], edge_order=2)
    ax = vec[0].reshape(grid.shape[1], grid.shape[0])
    ay = vec[1].reshape(grid.shape[1], grid.shape[0])
    dx = np.gradient(ax, grid.h[0], axis=1, edge_order=2)
    dy = np.gradient(ay, grid.h[1], axis=0, edge_order=2)
    return (dx + dy).ravel()


@dataclass
class LinearizedSystem:
    """Segment-averaged Jacobian coefficients of a quasilinear system.

    B[l, i, j] multiplies D_j w in flux component i of species l; B0 is the
    flux sensitivity to the state, E the reaction Jacobian in the states,
    and H the reaction sensitivity to the own gradient.
    """

    grid: Grid
    n_species: int
    B: np.ndarray  # (N, dim, dim, n_nodes)
    B0: np.ndarray  # (N, dim, n_nodes)
    E: np.ndarray  # (N, N, n_nodes)
    H: np.ndarray  # (N, dim, n_nodes)

    def to_discrete(self) -> DiscreteSystem:
        """Frozen-coefficient system for the difference of the two fields.

        Expanding -D_i(B0 w) moves B0 into the convection and, through its
        divergence, into the diagonal coupling; the homogeneous problem for
        the difference carries no data terms.
        """
        grid = self.grid
        n = self.n_species
        a_vals = np.transpose(self.B, (0, 2, 1, 3)).copy()
        b_vals = self.H - self.B0
        c_vals = np.zeros((n, grid.n_nodes))
        m_vals = self.E.copy()
        for l in range(n):
            m_vals[l, l] -= _node_divergence(grid, self.B0[l])
        zeros = np.zeros((n, grid.n_nodes))
        return DiscreteSystem(
            grid, n, a_vals, b_vals, c_vals, m_vals, zeros.copy(), zeros.copy()
        )


def linearize(qs: QuasiSpec, u, v) -> LinearizedSystem:
    """Gauss-Legendre average of the Jacobians along v + s (u - v)."""
    qs.validate()
    grid = qs.grid
    n = qs.n_species
    dim = grid.dim
    uu = _as_block_values(grid, n, u)
    vv = _as_block_values(grid, n, v)
    gu = np.stack([_node_gradient(grid, uu[l]) for l in range(n)])
    gv = np.stack([_node_gradient(grid, vv[l]) for l in range(n)])
    xs, ws = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    s_pts = 0.5 * (xs + 1.0)
    s_wts = 0.5 * ws
    coord_env = {
        name: grid.coords[:, d].copy() for d, name in enumerate(COORDS[:dim])
    }
    B = np.zeros((n, dim, dim, grid.n_nodes))
    B0 = np.zeros((n, dim, grid.n_nodes))
    E = np.zeros((n, n, grid.n_nodes))
    H = np.zeros((n, dim, grid.n_nodes))
    for s, w in zip(s_pts, s_wts):
        state = vv + s * (uu - vv)  # (N, n_nodes)
        grads = gv + s * (gu - gv)  # (N, dim, n_nodes)
        for l in range(n):
            env = dict(coord_env)
            env["u"] = state[l]
            for i in range(dim):
                env[f"p{i + 1}"] = grads[l, i]
            ds_tensor = np.empty((dim, dim, grid.n_nodes))
            for i in range(dim):
                name = f"flux{l + 1}_{i + 1}"
                for j in range(dim):
                    key = f"dflux{l + 1}_{i + 1}_dp{j + 1}"
                    val = _partial(qs, key, qs.flux[l][i], env, f"p{j + 1}", name)
                    ds_tensor[i, j] = val
                    B[l, i, j] += w * val
                key = f"dflux{l + 1}_{i + 1}_du"
                B0[l, i] += w * _partial(qs, key, qs.flux[l][i], env, "u", name)
            lo, _ = _sym_eig_range(ds_tensor)
            if float(lo.min()) <= 0.0:
                node = int(np.argmin(lo))
                raise NonEllipticLinearization(
                    f"flux Jacobian of species {l + 1} loses ellipticity at "
                    f"s={s:.6f}, node {grid.node_coord(node)} "
                    f"(eigenvalue {float(lo.min()):.6g})"
                )
            env_r = dict(coord_env)
            for k in range(n):
                env_r[f"u{k + 1}"] = state[k]
            for i in range(dim):
                env_r[f"p{i + 1}"] = grads[l, i]
            for k in range(n):
                key, var = f"dF{l + 1}_du{k + 1}", f"u{k + 1}"
                E[l, k] += w * _partial(qs, key, qs.F[l], env_r, var, f"F{l + 1}")
            for i in range(dim):
                key, var = f"dF{l + 1}_dp{i + 1}", f"p{i + 1}"
                H[l, i] += w * _partial(qs, key, qs.F[l], env_r, var, f"F{l + 1}")
    return LinearizedSystem(grid, n, B, B0, E, H)


def check_thm8(qs: QuasiSpec, u, v, settings: Settings = DEFAULT) -> Verdict:
    """Comparison certificate for a pair of fields via the linearization.

    Only positive certificates transfer: a failure verdict on the frozen
    linear system says nothing about the quasilinear pair, so it is
    reported as Inconclusive with the linear verdict in the notes, no
    claimed order, and a skipped cross-check.
    """
    verdict = certify(linearize(qs, u, v).to_discrete(), settings)
    if verdict.kind.startswith("Holds"):
        verdict.theorem = f"Theorem 8 (via {verdict.theorem})"
        verdict.notes.append(
            "certificate for the segment-averaged linearization; comparison "
            "holds for the given pair of fields"
        )
    else:
        if verdict.kind.startswith("Fails"):
            note = (
                f"linearized system verdict {verdict.kind}: refutes only the "
                "frozen-coefficient system, not the quasilinear pair"
            )
            verdict.notes.append(note)
            verdict.counterexample = None
            verdict.order = None
            verdict.cross_check = {"result": "skipped", "reason": note}
        verdict.kind = "Inconclusive"
        verdict.theorem = "Theorem 8"
    return verdict
