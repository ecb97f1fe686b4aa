"""Coupling-structure classification and comparison-principle verdicts.

A verdict either certifies the comparison principle through one of the
sufficient conditions (positive cooperative eigenvalue, common-point and
pointwise competitive-part margins, per-component or triangular variants),
refutes it with a numerically verified counterexample field, or reports
Inconclusive.  Margins near zero are never rounded into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import oracle as oracle_mod
from .assembly import as_discrete
from .errors import (
    InfeasibleEpsilon,
    NotZMatrix,
    SingularMatrix,
    StructureUnsupported,
    ValidationError,
)
from .fields import BlockField, block_from_solution
from .graphs import adjacency_scc, topo_order
from .linalg import inf_norm, lu_solve
from .spectral import (
    MAX_ITER,
    TOL_EIG,
    _memo_eigenpair,
    block_eigen,
    component_eigen,
    cooperative_eigen,
)

TOL_COND = 1e-8
TOL_RES = 1e-8


# ------------------------------------------------------------- structure


@dataclass(frozen=True)
class StructureClass:
    """Sign-pattern class of the coupling; blocks and order are 1-based."""

    kind: str  # Cooperative | IrreducibleCooperativePart | DiagonalMinus |
    #            BlockDiagonalMinus | TriangularMinus | General
    blocks: tuple = ()
    order: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": [list(b) for b in self.blocks],
            "order": list(self.order),
        }


@dataclass(frozen=True)
class _Species:
    """Cooperative digraph of the species, 0-based: edge l -> k iff m_kl has
    a negative part.  blocks are its SCCs sorted by first species."""

    adj: list
    blocks: list
    cross: bool  # some edge joins two blocks
    order: list | None  # topological order, None on cycles

    @property
    def irreducible(self) -> bool:
        return len(self.adj) >= 2 and len(self.blocks) == 1


def _species_structure(ds) -> _Species:
    n = ds.n_species
    adj = ds.minus_edges()
    blocks = sorted(adjacency_scc(n, adj), key=lambda c: c[0])
    block_of = {v: b for b, block in enumerate(blocks) for v in block}
    cross = any(block_of[v] != block_of[w] for v in range(n) for w in adj[v])
    return _Species(adj, blocks, cross, topo_order(n, adj))


def classify_structure(spec) -> StructureClass:
    """Label by the sampled sign pattern of the coupling matrix.

    Strong connectivity of the cooperative digraph wins over the
    cooperative label: a fully coupled cooperative system is reported as
    IrreducibleCooperativePart (its certificate route), and Cooperative is
    reserved for reducible systems with no competitive off-diagonal part.
    """
    ds = as_discrete(spec)
    st = _species_structure(ds)
    if st.irreducible:
        return StructureClass("IrreducibleCooperativePart")
    if not ds.plus_offdiag_pattern().any():
        return StructureClass("Cooperative")
    if not any(st.adj):
        return StructureClass("DiagonalMinus")
    if st.order is not None:
        return StructureClass("TriangularMinus", order=tuple(v + 1 for v in st.order))
    if not st.cross:
        blocks = tuple(tuple(v + 1 for v in block) for block in st.blocks)
        return StructureClass("BlockDiagonalMinus", blocks=blocks)
    return StructureClass("General")


# ---------------------------------------------------------------- verdict


@dataclass
class Counterexample:
    """Constructed nonnegative field whose image under the full operator
    is nonpositive; verified gates any Fails verdict."""

    w: BlockField
    verified: bool
    residual_max: float
    j: int | None
    which: str

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "j": self.j,
            "verified": self.verified,
            "residual_max": self.residual_max,
            "w_min": float(self.w.interior.min()),
            "w_max": float(self.w.interior.max()),
        }


@dataclass
class Verdict:
    kind: str
    theorem: str | None = None
    mode: str = "basic"
    margins: dict = field(default_factory=dict)
    lambdas: dict = field(default_factory=dict)
    cws: dict = field(default_factory=dict)
    eigen_meta: dict = field(default_factory=dict)
    x0: tuple | None = None
    j: int | None = None
    epsilon: float | None = None
    counterexample: Counterexample | None = None
    structure: StructureClass | None = None
    gauge: tuple | None = None
    gauge_reason: str | None = None
    oracle: oracle_mod.OracleReport | None = None
    oracle_gauged: oracle_mod.OracleReport | None = None
    wtilde: BlockField | None = None
    notes: list = field(default_factory=list)

    def _headline_key(self):
        if "system" in self.lambdas:
            return "system"
        if self.j is not None and f"j={self.j}" in self.lambdas:
            return f"j={self.j}"
        if self.lambdas:
            return min(self.lambdas, key=lambda k: self.lambdas[k])
        return None

    @property
    def value(self):
        key = self._headline_key()
        return self.lambdas[key] if key is not None else None

    def to_json_dict(self) -> dict:
        key = self._headline_key()
        return {
            "verdict": self.kind,
            "theorem": self.theorem,
            "mode": self.mode,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "lambda": self.lambdas.get(key) if key is not None else None,
            "lambdas": {k: float(v) for k, v in sorted(self.lambdas.items())},
            "cw": list(self.cws[key]) if key in self.cws else None,
            "cws": {k: list(v) for k, v in sorted(self.cws.items())},
            "eigen": {k: dict(v) for k, v in sorted(self.eigen_meta.items())},
            "epsilon": self.epsilon,
            "x0": list(self.x0) if self.x0 is not None else None,
            "j": self.j,
            "structure": self.structure.to_json_dict() if self.structure else None,
            "gauge": list(self.gauge) if self.gauge is not None else None,
            "gauge_reason": self.gauge_reason,
            "counterexample": (
                self.counterexample.to_json_dict() if self.counterexample else None
            ),
            "oracle": self.oracle.to_json_dict() if self.oracle else None,
            "oracle_gauged": (
                self.oracle_gauged.to_json_dict() if self.oracle_gauged else None
            ),
            "notes": list(self.notes),
        }


def _record_eigen(verdict: Verdict, key: str, pair) -> None:
    verdict.lambdas[key] = pair.value
    verdict.cws[key] = tuple(pair.cw)
    verdict.eigen_meta[key] = {
        "value": pair.value,
        "cw": list(pair.cw),
        "iterations": pair.iterations,
        "residual": pair.residual,
    }


# ------------------------------------------------------------ conditions


def _margins(ds, lams, tol_cond):
    """Per-species tolerances, m_plus on interior nodes, and the margins
    diag[j, x] = lam_j + m_jj_plus(x), col[j, x] = lam_j + sum_k m_kj_plus(x)."""
    n = len(lams)
    mp = ds.m_plus[:, :, ds.grid.interior_ids]
    tols = [tol_cond * (1.0 + abs(lams[j])) for j in range(n)]
    diag = np.array([lams[j] + mp[j, j] for j in range(n)])
    col = np.array([lams[j] + mp[:, j, :].sum(axis=0) for j in range(n)])
    return tols, mp, diag, col


def _common_point(col, tols):
    """Best common witness node where every column margin exceeds its tol.

    Returns (ok, node position, reported margin = min_j raw value there).
    """
    score = (col - np.asarray(tols)[:, None]).min(axis=0)
    pos = int(np.argmax(score))
    return bool(score[pos] > 0.0), pos, float(col[:, pos].min())


def _counterexample(ds, block, pair, j, which, tol_res: float = TOL_RES):
    """Counterexample from the block's right eigenfunction, zero on the
    other species and scaled to max 1.  Verified when w >= 0 and
    (A w)_i <= tol_res * |A| for the fully coupled A."""
    a = ds.assembled("full").A
    w = np.zeros((ds.n_species, ds.grid.n_interior))
    w[block] = pair.right.reshape(len(block), -1)
    w = w.ravel()
    wmax = float(w.max())
    if wmax <= 0.0:
        ok, residual = False, float("inf")
    else:
        w = w / wmax
        residual = float((a @ w).max())
        ok = float(w.min()) >= 0.0 and residual <= tol_res * inf_norm(a)
    fld = block_from_solution(ds.grid, ds.n_species, w, None)
    return Counterexample(fld, ok, residual, j, which)


# -------------------------------------------------------------- theorem 1


def check_thm1(
    spec,
    mode: str = "basic",
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Cooperative certificate: sign of the principal eigenvalue decides.

    The full coupling (including any nonnegative diagonal part) is folded
    into the operator; competitive off-diagonal entries are out of scope.
    """
    ds = as_discrete(spec)
    if ds.plus_offdiag_pattern().any():
        raise StructureUnsupported(
            "cooperative certificate needs nonpositive off-diagonal coupling"
        )
    asys = ds.assembled("full")
    if not asys.z_matrix:
        raise NotZMatrix(
            f"assembled system has positive off-diagonal {asys.offdiag_max:.6g}",
            position=asys.worst_offdiag,
            value=asys.offdiag_max,
        )
    pair = _memo_eigenpair(ds, asys.A, tol_eig, max_iter)
    lam = pair.value
    tol = tol_cond * (1.0 + abs(lam))
    verdict = Verdict("Inconclusive", theorem="Theorem 1", mode=mode)
    _record_eigen(verdict, "system", pair)
    verdict.margins["lambda"] = lam
    if lam > tol:
        verdict.kind = "HoldsThm1"
    elif lam < -tol:
        cex = _counterexample(ds, list(range(ds.n_species)), pair, None, "thm7")
        if cex.verified:
            verdict.kind = "FailsThm7"
            verdict.counterexample = cex
            verdict.notes.append(
                "negative principal eigenvalue: eigenfunction refutes the "
                "comparison principle (cooperative converse)"
            )
        else:
            verdict.notes.append(
                f"eigenfunction counterexample failed verification "
                f"(residual {cex.residual_max:.3e})"
            )
    else:
        verdict.notes.append("principal eigenvalue within tolerance of zero")
    return verdict


# ---------------------------------------------------------- theorems 3, 4


def _block_margins(ds, verdict, blocks, keys, holds, tol_eig, tol_cond, max_iter):
    """Margin conditions of Theorems 3 and 4, every species taking the
    principal eigenpair of its block (recorded under keys[b]).

    basic: lam_j + m_jj_plus >= -tol pointwise, and one common witness node
    where every column margin lam_j + sum_k m_kj_plus is > tol.  sharp:
    lam_j w_j + sum_k m_kj_plus w_k > tol along the left eigenvectors w.
    """
    n = ds.n_species
    lams = [0.0] * n
    lefts = [None] * n
    for block, key in zip(blocks, keys):
        pair = block_eigen(ds, block, tol_eig, max_iter)
        _record_eigen(verdict, key, pair)
        left = pair.left.reshape(len(block), -1)
        for bi, k in enumerate(block):
            lams[k] = pair.value
            lefts[k] = left[bi]
    tols, mp, diag, col = _margins(ds, lams, tol_cond)
    ok_common, pos, margin = _common_point(col, tols)
    verdict.margins["pointwise_diag"] = float(diag.min())
    verdict.margins["common_point"] = margin
    verdict.x0 = ds.grid.node_coord(int(ds.grid.interior_ids[pos]))
    if verdict.mode == "sharp":
        w = np.array(lefts)
        sharp = np.array(
            [
                lams[j] * w[j] + np.einsum("kx,kx->x", mp[:, j, :], w)
                for j in range(n)
            ]
        )
        verdict.margins["sharp"] = float(sharp.min())
        if all(float(sharp[j].min()) > tols[j] for j in range(n)):
            verdict.kind = holds
        else:
            verdict.notes.append("sharp pointwise condition has nonpositive margin")
        return verdict
    ok_diag = all(float(diag[j].min()) >= -tols[j] for j in range(n))
    if ok_common and ok_diag:
        verdict.kind = holds
    else:
        if not ok_diag:
            verdict.notes.append("pointwise diagonal condition fails")
        if not ok_common:
            verdict.notes.append("no common witness point with strict column margins")
    return verdict


def check_thm3(
    spec,
    mode: str = "basic",
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Irreducible cooperative part: the block margins with one block that
    holds every species, recorded under system."""
    ds = as_discrete(spec)
    if len(_species_structure(ds).blocks) != 1:
        raise StructureUnsupported("cooperative part is not fully coupled")
    verdict = Verdict("Inconclusive", theorem="Theorem 3", mode=mode)
    everyone = [list(range(ds.n_species))]
    return _block_margins(
        ds, verdict, everyone, ["system"], "HoldsThm3", tol_eig, tol_cond, max_iter
    )


def check_thm4(
    spec,
    mode: str = "basic",
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Per-component (or per-block) variant of the margin conditions."""
    ds = as_discrete(spec)
    st = _species_structure(ds)
    if st.cross:
        raise StructureUnsupported(
            "cooperative part couples across blocks; per-component "
            "certificate does not apply"
        )
    blocks = st.blocks
    keys = [
        f"j={b[0] + 1}" if len(b) == 1 else "block=" + ",".join(str(k + 1) for k in b)
        for b in blocks
    ]
    verdict = Verdict("Inconclusive", theorem="Theorem 4", mode=mode)
    _block_margins(ds, verdict, blocks, keys, "HoldsThm4", tol_eig, tol_cond, max_iter)
    for block, key in zip(blocks, keys):
        if len(block) > 1:
            for k in block:
                verdict.lambdas[f"j={k + 1}"] = verdict.lambdas[key]
                verdict.cws[f"j={k + 1}"] = verdict.cws[key]
    return verdict


# -------------------------------------------------------------- theorem 5


def check_thm5(
    spec,
    mode: str = "basic",
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Triangular cooperative part: epsilon-shifted margins plus the
    constructive positive chain.

    The species first in the triangular order keeps slack conditions (its
    equation is uncoupled in the cooperative part); later species need
    strict margins, and epsilon is half the smallest strict slack.
    """
    ds = as_discrete(spec)
    n = ds.n_species
    order0 = _species_structure(ds).order
    if order0 is None:
        raise StructureUnsupported("cooperative part is not triangular")
    if n < 2:
        raise StructureUnsupported("triangular certificate needs several species")
    verdict = Verdict(
        "Inconclusive", theorem="Theorem 5", mode=mode
    )
    verdict.structure = StructureClass(
        "TriangularMinus", order=tuple(v + 1 for v in order0)
    )
    pairs = [component_eigen(ds, j + 1, tol_eig, max_iter) for j in range(n)]
    lams = [p.value for p in pairs]
    for j, p in enumerate(pairs):
        _record_eigen(verdict, f"j={j + 1}", p)
    tols, _, diag, col = _margins(ds, lams, tol_cond)
    first = order0[0]
    strict = [j for j in order0[1:]]
    s16 = diag.min(axis=1)
    try:
        eps, pos = _thm5_epsilon(s16, col, tols, first, strict)
    except InfeasibleEpsilon as err:
        verdict.notes.append(f"InfeasibleEpsilon: {err}")
        verdict.margins["pointwise_diag"] = float(s16.min())
        return verdict
    verdict.epsilon = eps
    verdict.x0 = ds.grid.node_coord(int(ds.grid.interior_ids[pos]))
    eps_vec = np.array([0.0 if j == first else eps for j in range(n)])
    verdict.margins["pointwise_diag"] = float((s16 - eps_vec).min())
    verdict.margins["common_point"] = float((col[:, pos] - eps_vec).min())
    chain = _thm5_chain(ds, lams, eps, order0, pairs)
    if chain is None:
        verdict.notes.append("constructed chain lost positivity")
        return verdict
    wt, fallback = chain
    if fallback:
        verdict.notes.append(
            "uncoupled species in the chain use their own eigenfunctions"
        )
    values = np.zeros((n, ds.grid.n_nodes))
    values[:, ds.grid.interior_ids] = wt
    verdict.wtilde = BlockField(ds.grid, values)
    verdict.kind = "HoldsThm5"
    return verdict


def _thm5_epsilon(s16, col, tols, first, strict):
    """Feasibility reduction: epsilon = half the smallest strict slack."""
    if s16[first] < -tols[first]:
        raise InfeasibleEpsilon(
            f"pointwise diagonal margin {s16[first]:.6g} for the uncoupled species"
        )
    bad = [j for j in strict if s16[j] <= tols[j]]
    if bad:
        raise InfeasibleEpsilon(
            f"species {bad[0] + 1} has no strict pointwise slack "
            f"({s16[bad[0]]:.6g})"
        )
    feasible = col[first] >= -tols[first]
    for j in strict:
        feasible &= col[j] > tols[j]
    if not feasible.any():
        raise InfeasibleEpsilon("no common witness node with strict column margins")
    strict_cols = np.array([col[j] for j in strict])
    score = np.where(feasible, strict_cols.min(axis=0), -np.inf)
    pos = int(np.argmax(score))
    slacks = [float(s16[j]) for j in strict] + [float(score[pos])]
    return 0.5 * min(slacks), pos


def _thm5_chain(ds, lams, eps, order0, pairs):
    """w_1 = eigenfunction; later species solve the shifted scalar system
    against the accumulated nonnegative coupling of earlier species."""
    ids = ds.grid.interior_ids
    mm = ds.m_minus
    n_int = ds.grid.n_interior
    wt = np.zeros((ds.n_species, n_int))
    fallback = False
    for pos, j in enumerate(order0):
        if pos == 0:
            wt[j] = pairs[j].right
            continue
        rhs = np.zeros(n_int)
        for i in order0[:pos]:
            rhs += np.abs(mm[j, i][ids]) * wt[i]
        if not rhs.any():
            wt[j] = pairs[j].right
            fallback = True
            continue
        a = ds.block("cooperative", [j])
        shifted = (a - (lams[j] - eps) * sp.identity(a.shape[0])).tocsr()
        w = lu_solve(shifted, rhs)
        if float(w.min()) <= 0.0:
            return None
        wt[j] = w
    return wt, fallback


# ------------------------------------------------------- failure theorems


def build_counterexample(
    spec,
    j: int,
    which: str,
    tol_eig: float = TOL_EIG,
    max_iter: int = MAX_ITER,
    tol_res: float = TOL_RES,
):
    """Candidate failure field: species-j eigenfunction (thm6, reducible
    case) or the full cooperative eigenfunction (thm7, irreducible case),
    verified against the fully coupled matrix.  Returns (field, verified,
    residual)."""
    ds = as_discrete(spec)
    if which == "thm6":
        block, pair = [j - 1], component_eigen(ds, j, tol_eig, max_iter)
    elif which == "thm7":
        block = list(range(ds.n_species))
        pair = cooperative_eigen(ds, tol_eig, max_iter)
    else:
        raise ValidationError(f"unknown counterexample family {which!r}")
    cex = _counterexample(ds, block, pair, j, which, tol_res)
    return cex.w, cex.verified, cex.residual_max


def check_failure(
    spec,
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
    diagnostics: list | None = None,
) -> Verdict | None:
    """Refutation scan; emits a verdict only for a verified counterexample.

    A candidate is a species j and the block whose principal eigenfunction
    refutes once lam + m_jj_plus < 0 everywhere.  Theorem 7 (irreducible
    cooperative part without competitive off-diagonal support): the whole
    system, for each j with no positive diagonal coupling elsewhere.
    Theorem 6 (reducible): species j alone, for each j with no positive
    coupling in its row or column.  Candidates that fail numeric
    verification are logged into diagnostics and produce no verdict.
    """
    ds = as_discrete(spec)
    n = ds.n_species
    ids = ds.grid.interior_ids
    plus_pat = ds.plus_offdiag_pattern()
    notes = diagnostics if diagnostics is not None else []
    if _species_structure(ds).irreducible:
        kind, theorem, which = "FailsThm7", "Theorem 7", "thm7"
        candidates = [
            (j, list(range(n)))
            for j in range(n)
            if not plus_pat.any()
            and all(not ds.plus_diag_nonzero(k) for k in range(n) if k != j)
        ]
    else:
        kind, theorem, which = "FailsThm6", "Theorem 6", "thm6"
        candidates = [
            (j, [j])
            for j in range(n)
            if not (plus_pat[:, j].any() or plus_pat[j, :].any())
        ]
    for j, block in candidates:
        pair = block_eigen(ds, block, tol_eig, max_iter)
        lam = pair.value
        worst = float((lam + ds.m_plus[j, j][ids]).max())
        if worst >= -tol_cond * (1.0 + abs(lam)):
            continue
        cex = _counterexample(ds, block, pair, j + 1, which)
        if not cex.verified:
            notes.append(
                f"FailureCandidate j={j + 1} ({which}) failed verification "
                f"(residual {cex.residual_max:.3e})"
            )
            continue
        verdict = Verdict(kind, theorem=theorem, j=j + 1)
        _record_eigen(verdict, "system" if which == "thm7" else f"j={j + 1}", pair)
        verdict.margins["pointwise"] = worst
        verdict.counterexample = cex
        return verdict
    return None


# ------------------------------------------------------------------ gauge


def find_gauge(spec):
    """Species sign vector turning every off-diagonal coupling nonpositive.

    Returns (sigma, None) or (None, reason).  Built by parity 2-coloring:
    a positive coupling between two species forces opposite signs, a
    negative one forces equal signs.
    """
    ds = as_discrete(spec)
    n = ds.n_species
    ids = ds.grid.interior_ids
    thresh = 1e-12
    neighbors = [[] for _ in range(n)]  # (w, required sigma_v * sigma_w)
    for i in range(n):
        for j in range(i + 1, n):
            need = None
            for k, l in ((i, j), (j, i)):
                vals = ds.m_vals[k, l][ids]
                has_pos = float(vals.max()) > thresh
                has_neg = float(vals.min()) < -thresh
                if has_pos and has_neg:
                    return None, f"MixedSign: m{k + 1}{l + 1} changes sign"
                if not (has_pos or has_neg):
                    continue
                want = -1 if has_pos else 1
                if need is None:
                    need = want
                elif need != want:
                    return None, (
                        f"InconsistentPair: m{i + 1}{j + 1} and m{j + 1}{i + 1} "
                        "have opposite signs"
                    )
            if need is not None:
                neighbors[i].append((j, need))
                neighbors[j].append((i, need))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root] = 1
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w, need in neighbors[v]:
                want = sigma[v] * need
                if sigma[w] == 0:
                    sigma[w] = want
                    queue.append(w)
                elif sigma[w] != want:
                    return None, "ParityConflict: no consistent sign assignment"
    return tuple(sigma), None


# ---------------------------------------------------------------- certify


def certify(
    spec,
    mode: str = "basic",
    with_oracle: bool = True,
    oracle_max_dof: int = oracle_mod.ORACLE_MAX_DOF,
    tol_eig: float = TOL_EIG,
    tol_cond: float = TOL_COND,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Full pipeline: gates, classification, refutation scan, certificate
    route, gauge and oracle attachments."""
    ds = as_discrete(spec)
    ds.check_ellipticity()
    coop = ds.assembled("cooperative")
    if not coop.z_matrix:
        raise NotZMatrix(
            "cooperative part is not a Z-matrix (cross-derivative stencil "
            f"entry {coop.offdiag_max:.6g} at {coop.worst_offdiag})",
            position=coop.worst_offdiag,
            value=coop.offdiag_max,
        )
    structure = classify_structure(ds)
    notes: list = []
    verdict = check_failure(ds, tol_eig, tol_cond, max_iter, diagnostics=notes)
    if verdict is None:
        kind = structure.kind
        args = dict(tol_eig=tol_eig, tol_cond=tol_cond, max_iter=max_iter)
        if kind == "IrreducibleCooperativePart":
            if ds.plus_offdiag_pattern().any():
                verdict = check_thm3(ds, mode, **args)
            else:
                verdict = check_thm1(ds, mode, **args)
        elif kind in ("DiagonalMinus", "BlockDiagonalMinus"):
            verdict = check_thm4(ds, mode, **args)
        elif kind == "TriangularMinus":
            verdict = check_thm5(ds, mode, **args)
        elif kind == "Cooperative":
            st = _species_structure(ds)
            if st.order is not None and any(st.adj):
                verdict = check_thm5(ds, mode, **args)
            else:
                try:
                    verdict = check_thm4(ds, mode, **args)
                except StructureUnsupported as err:
                    verdict = Verdict("Inconclusive", mode=mode)
                    verdict.notes.append(str(err))
        else:
            verdict = Verdict("Inconclusive", mode=mode)
            verdict.notes.append(
                "general coupling structure: no applicable sufficient condition"
            )
    verdict.mode = mode
    verdict.structure = structure
    verdict.notes.extend(notes)
    sigma, reason = find_gauge(ds)
    verdict.gauge = sigma
    verdict.gauge_reason = reason
    if with_oracle:
        asys_full = ds.assembled("full")
        dof = asys_full.A.shape[0]
        if dof <= oracle_max_dof:
            try:
                verdict.oracle = oracle_mod.inverse_positivity(
                    asys_full, max_dof=oracle_max_dof
                )
            except SingularMatrix:
                verdict.notes.append("oracle: system matrix is singular")
            if sigma is not None and any(s < 0 for s in sigma):
                try:
                    verdict.oracle_gauged = oracle_mod.inverse_positivity(
                        asys_full, gauge=sigma, max_dof=oracle_max_dof
                    )
                except SingularMatrix:
                    verdict.notes.append("oracle: gauged system matrix is singular")
        else:
            verdict.notes.append(
                f"oracle skipped: {dof} dof exceeds budget {oracle_max_dof}"
            )
    return verdict
