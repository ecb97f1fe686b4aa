"""Independent discrete ground truth for the comparison principle.

The discrete comparison principle is defined as: A nonsingular, inverse of
A entrywise nonnegative, and -A^{-1} G entrywise nonnegative.  Equivalently
A u <= 0 in the interior plus boundary data <= 0 force u <= 0.  The oracle
decides this by direct dense inversion (decisive, size-capped) or by seeded
random probing (falsification only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import AssembledSystem
from .errors import DimMismatch, ValidationError
from .fields import BlockField
from .linalg import LuFactor, dense_inverse, lu_solve

TOL_OP = 1e-9
TOL_RES = 1e-8
ORACLE_MAX_DOF = 2500


@dataclass
class OracleReport:
    inverse_positive: bool
    min_entry: float | None
    witness: tuple | None
    boundary_monotone: bool | None
    min_boundary_entry: float | None
    dof: int
    gauge: tuple | None = None
    sampled: bool = False
    trials: int = 0

    def to_json_dict(self) -> dict:
        return {
            "inverse_positive": self.inverse_positive,
            "min_entry": self.min_entry,
            "witness": list(self.witness) if self.witness is not None else None,
            "boundary_monotone": self.boundary_monotone,
            "min_boundary_entry": self.min_boundary_entry,
            "dof": self.dof,
            "gauge": list(self.gauge) if self.gauge is not None else None,
            "sampled": self.sampled,
            "trials": self.trials,
        }


def _conjugate(asys: AssembledSystem, gauge):
    """(sigma, D A D, D G D_b): species sign flips applied to A and G."""
    if gauge is None:
        return None, asys.A, asys.G
    sigma = tuple(int(s) for s in gauge)
    if len(sigma) != asys.n_species or any(s not in (-1, 1) for s in sigma):
        raise ValidationError(
            f"gauge must be {asys.n_species} entries of +-1, got {gauge!r}"
        )
    signs = np.asarray(sigma, dtype=float)
    d = sp.diags(np.repeat(signs, asys.n_int), format="csr")
    d_bnd = sp.diags(np.repeat(signs, asys.grid.n_boundary), format="csr")
    return sigma, (d @ asys.A @ d).tocsr(), (d @ asys.G @ d_bnd).tocsr()


def inverse_positivity(
    asys: AssembledSystem,
    gauge=None,
    max_dof: int = ORACLE_MAX_DOF,
    tol_op: float = TOL_OP,
) -> OracleReport:
    """Decide inverse-positivity of (D A D) by dense inversion.

    With a gauge sigma, D flips the sign of whole species blocks, realizing
    the cone order that turns constant-sign competitive coupling cooperative.
    """
    dof = asys.A.shape[0]
    sigma, a, g_mat = _conjugate(asys, gauge)
    inv = dense_inverse(a, max_dof)
    scale = float(np.abs(inv).max())
    min_entry = float(inv.min())
    witness = tuple(int(i) for i in np.unravel_index(int(np.argmin(inv)), inv.shape))
    inverse_positive = min_entry >= -tol_op * scale
    if asys.G.nnz:
        bnd = -(inv @ g_mat.toarray())
        min_boundary = float(bnd.min())
    else:
        min_boundary = 0.0
    boundary_monotone = min_boundary >= -tol_op * scale
    return OracleReport(
        inverse_positive,
        min_entry,
        witness,
        boundary_monotone,
        min_boundary,
        dof,
        gauge=sigma,
    )


def verify_subsolution(asys: AssembledSystem, u, g_data=None, tol_res: float = TOL_RES):
    """Check A u + G g <= f componentwise.

    u is a BlockField or the flat interior unknown vector; g defaults to the
    field's boundary values (or the assembled data).  Returns the decision
    and the largest signed residual component.
    """
    if isinstance(u, BlockField):
        if u.grid != asys.grid or u.n_species != asys.n_species:
            raise DimMismatch("field does not match the assembled system")
        if asys.mask is None:
            u_int = u.interior.reshape(-1)
        else:
            u_int = u.interior[:, asys.mask.inside].reshape(-1)
        if g_data is None:
            g_data = u.boundary.reshape(-1)
    else:
        u_int = np.asarray(u, dtype=float)
    if g_data is None:
        g_data = asys.g_vec
    g_data = np.asarray(g_data, dtype=float)
    if u_int.shape != (asys.A.shape[0],):
        raise DimMismatch(
            f"u has {u_int.shape}, system has {asys.A.shape[0]} unknowns"
        )
    if g_data.shape != (asys.G.shape[1],):
        raise DimMismatch(
            f"g has {g_data.shape}, system has {asys.G.shape[1]} boundary values"
        )
    r = asys.A @ u_int + asys.G @ g_data - asys.f_vec
    max_residual = float(r.max())
    f_norm = float(np.abs(asys.f_vec).max()) if asys.f_vec.size else 0.0
    return max_residual <= tol_res * (1.0 + f_norm), max_residual


def random_probe(
    asys: AssembledSystem,
    trials: int,
    seed: int = 0,
    tol_op: float = TOL_OP,
    gauge=None,
) -> OracleReport:
    """Falsification-only probe: solve against random nonnegative sparse RHS.

    A clean pass never upgrades to a definitive inverse-positivity claim;
    the report is marked sampled.  With a gauge the probe runs on D A D.
    """
    dof = asys.A.shape[0]
    sigma, a, _ = _conjugate(asys, gauge)
    report = OracleReport(
        True, None, None, None, None, dof, sigma, sampled=True, trials=int(trials)
    )
    if trials <= 0:
        return report
    lu = LuFactor(a)
    rng = np.random.default_rng(seed)
    nnz = max(1, dof // 20)
    worst = 0.0
    witness = None
    for trial in range(int(trials)):
        f = np.zeros(dof)
        pos = rng.choice(dof, size=nnz, replace=False)
        f[pos] = 1.0 - rng.random(nnz)  # values in (0, 1]
        u = lu.solve(f)
        floor = -tol_op * (1.0 + float(np.abs(u).max()))
        m = float(u.min())
        if m < worst:
            worst = m
            witness = (int(np.argmin(u)), trial)
        if m < floor:
            report.inverse_positive = False
    report.min_entry = worst if witness is not None else 0.0
    report.witness = witness
    return report


def solve_system(asys: AssembledSystem, rhs=None, g_data=None) -> np.ndarray:
    """Interior solution of A u = f - G g."""
    f = asys.f_vec if rhs is None else np.asarray(rhs, dtype=float)
    g = asys.g_vec if g_data is None else np.asarray(g_data, dtype=float)
    if f.shape != (asys.A.shape[0],):
        raise DimMismatch(f"rhs has {f.shape}, system has {asys.A.shape[0]} unknowns")
    return lu_solve(asys.A, f - asys.G @ g)
