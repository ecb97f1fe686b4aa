"""Coupling-structure classification and comparison-principle verdicts.

The structure class, each check's guard, the refutation candidates, the
gauge and certify's route all read one record built once per system, the
sign pattern DiscreteSystem.signs.  The route is one rule on its
cooperative digraph: strongly connected over N >= 2 species, Theorem 1
(Theorem 3 if some off-diagonal coupling is positive); acyclic with an
edge, Theorem 5; no edge between blocks, Theorem 4; else Inconclusive.

A verdict either certifies the comparison principle through one of the
sufficient conditions (positive cooperative eigenvalue, common-point and
pointwise competitive-part margins, per-component or triangular variants),
refutes it with a counterexample field whose image a rounding bound proves
nonpositive, or reports Inconclusive.  Margins near zero are never rounded
into a verdict.  certify states the species order a Holds or Fails claims
(all +1) and cross-checks the claim against the oracle in that order.  It
takes each eigen run only as far as its verdict needs (_decide).
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, field

import numpy as np

from . import oracle as oracle_mod
from .assembly import KNOWN_Z, as_discrete
from .errors import InfeasibleEpsilon, NotZMatrix, SingularMatrix, StructureUnsupported
from .fields import BlockField, Counterexample
from .graphs import potentials
from .linalg import lu_solve, shifted
from .settings import DEFAULT, Settings
from .spectral import _memo_eigenpair, block_eigen, component_eigen, open_runs

ACROSS_BLOCKS = (
    "cooperative part couples across blocks; per-component certificate "
    "does not apply"
)
GENERAL = "general coupling structure: no applicable sufficient condition"

logger = logging.getLogger(__name__)


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


def classify_structure(spec) -> StructureClass:
    """Label by the sampled sign pattern of the coupling matrix.

    Strong connectivity of the cooperative digraph wins over the
    cooperative label: a fully coupled cooperative system is reported as
    IrreducibleCooperativePart (its certificate route), and Cooperative is
    reserved for reducible systems with no competitive off-diagonal part.
    """
    signs = as_discrete(spec).signs
    if signs.irreducible:
        return StructureClass("IrreducibleCooperativePart")
    if not signs.plus_offdiag.any():
        return StructureClass("Cooperative")
    if not any(signs.edges):
        return StructureClass("DiagonalMinus")
    if signs.order is not None:
        order = tuple(v + 1 for v in signs.order)
        return StructureClass("TriangularMinus", order=order)
    if not signs.cross:
        blocks = tuple(tuple(v + 1 for v in block) for block in signs.blocks)
        return StructureClass("BlockDiagonalMinus", blocks=blocks)
    return StructureClass("General")


# ---------------------------------------------------------------- verdict


@dataclass
class Verdict:
    kind: str
    theorem: str | None = None
    mode: str = "basic"
    margins: dict = field(default_factory=dict)
    eigen: dict = field(default_factory=dict)  # key -> spectral.EigenPair
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
    order: tuple | None = None
    cross_check: dict | None = None
    notes: list = field(default_factory=list)

    def _headline_key(self):
        if "system" in self.eigen:
            return "system"
        if self.j is not None and f"j={self.j}" in self.eigen:
            return f"j={self.j}"
        if self.eigen:
            return min(self.eigen, key=lambda k: self.eigen[k].value)
        return None

    @property
    def value(self):
        key = self._headline_key()
        return self.eigen[key].value if key is not None else None

    def to_json_dict(self) -> dict:
        """The report.  lambda, lambdas and cw are views of eigen, kept
        because perfbench/checks.py reads lambdas and cw."""
        key = self._headline_key()
        eigen = {k: pair.to_json_dict() for k, pair in sorted(self.eigen.items())}
        return {
            "verdict": self.kind,
            "theorem": self.theorem,
            "mode": self.mode,
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "lambda": eigen[key]["value"] if key is not None else None,
            "lambdas": {k: e["value"] for k, e in eigen.items()},
            "cw": list(eigen[key]["cw"]) if key is not None else None,
            "eigen": eigen,
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
            "order": list(self.order) if self.order is not None else None,
            "cross_check": self.cross_check,
            "notes": list(self.notes),
        }


# ------------------------------------------------------------ conditions


def _tol(pair, settings: Settings = DEFAULT) -> float:
    """tol_cond (1 + |lambda|), the slack of each margin check on pair; the
    check reads lambda at cw's end on its own side (_margins, check_failure)."""
    return settings.tol_cond * (1.0 + abs(pair.value))


def _margins(ds, pairs, settings: Settings = DEFAULT):
    """Per-species tolerances, m_plus on interior nodes, and the margins of
    the Holds conditions, at the lower end lo_j = pairs[j].cw[0] of lambda_j:
    diag[j, x] = lo_j + m_jj_plus(x), col[j, x] = lo_j + sum_k m_kj_plus(x)."""
    mp = ds.m_plus[:, :, ds.grid.interior_ids]
    tols = [_tol(p, settings) for p in pairs]
    diag = np.array([p.cw[0] + mp[j, j] for j, p in enumerate(pairs)])
    col = np.array([p.cw[0] + mp[:, j, :].sum(axis=0) for j, p in enumerate(pairs)])
    return tols, mp, diag, col


def _common_point(col, tols):
    """Best common witness node where every column margin exceeds its tol.

    Returns (ok, node position, reported margin = min_j raw value there).
    """
    score = (col - np.asarray(tols)[:, None]).min(axis=0)
    pos = int(np.argmax(score))
    return bool(score[pos] > 0.0), pos, float(col[:, pos].min())


def _counterexample(ds, block, pair, j, which):
    """Counterexample from the block's right eigenfunction, zero on the
    other species and scaled to max 1, on the fully coupled system: verified
    where oracle.prove_field proves A w <= 0 in every row."""
    w = np.zeros((ds.n_species, ds.grid.n_interior))
    w[block] = pair.right.reshape(len(block), -1)
    w = w.ravel()
    wmax = float(w.max())
    w = w / wmax if wmax > 0.0 else w
    return oracle_mod.prove_field(ds.assembled("full"), np.ones(w.size), w, None, j, which)


# -------------------------------------------------------------- theorem 1


def check_thm1(spec, settings: Settings = DEFAULT) -> Verdict:
    """Cooperative certificate: sign of the principal eigenvalue decides.

    The full coupling (including any nonnegative diagonal part) is folded
    into the operator; competitive off-diagonal entries are out of scope.
    Below zero the eigenfunction refutes (FailsThm7) where its field is
    proven (oracle.prove_field); else a note reads "not proven (bound ...)".
    """
    ds = as_discrete(spec)
    if ds.signs.plus_offdiag.any():
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
    pair = _memo_eigenpair(ds, asys.A, asys.key, settings, KNOWN_Z)
    tol = _tol(pair, settings)
    verdict = Verdict("Inconclusive", theorem="Theorem 1", mode=settings.mode)
    verdict.eigen["system"] = pair
    verdict.margins["lambda"] = pair.value
    if pair.cw[0] > tol:
        verdict.kind = "HoldsThm1"
    elif pair.cw[1] < -tol:
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
                f"eigenfunction counterexample not proven "
                f"(bound {cex.residual_max:.3e})"
            )
    else:
        verdict.notes.append("principal eigenvalue within tolerance of zero")
    return verdict


# ---------------------------------------------------------- theorems 3, 4


def _block_margins(ds, verdict, blocks, keys, holds, settings: Settings = DEFAULT):
    """Margin conditions of Theorems 3 and 4, every species taking the
    principal eigenpair of its block (recorded under keys[b]).

    basic: lo_j + m_jj_plus >= -tol pointwise, and one common witness node
    where every column margin lo_j + sum_k m_kj_plus is > tol.  sharp:
    lo_j w_j + sum_k m_kj_plus w_k > tol along the left eigenvectors w >= 0.
    """
    n = ds.n_species
    pairs = [None] * n
    lefts = [None] * n
    for block, key in zip(blocks, keys):
        pair = block_eigen(ds, block, settings)
        verdict.eigen[key] = pair
        left = pair.left.reshape(len(block), -1)
        for bi, k in enumerate(block):
            pairs[k] = pair
            lefts[k] = left[bi]
    tols, mp, diag, col = _margins(ds, pairs, settings)
    ok_common, pos, margin = _common_point(col, tols)
    verdict.margins["pointwise_diag"] = float(diag.min())
    verdict.margins["common_point"] = margin
    verdict.x0 = ds.grid.node_coord(int(ds.grid.interior_ids[pos]))
    if settings.mode == "sharp":
        w = np.array(lefts)
        sharp = np.array(
            [
                pairs[j].cw[0] * w[j] + np.einsum("kx,kx->x", mp[:, j, :], w)
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


def check_thm3(spec, settings: Settings = DEFAULT) -> Verdict:
    """Irreducible cooperative part: the block margins with one block that
    holds every species, recorded under system."""
    ds = as_discrete(spec)
    if len(ds.signs.blocks) != 1:
        raise StructureUnsupported("cooperative part is not fully coupled")
    verdict = Verdict("Inconclusive", theorem="Theorem 3", mode=settings.mode)
    everyone = [list(range(ds.n_species))]
    return _block_margins(ds, verdict, everyone, ["system"], "HoldsThm3", settings)


def check_thm4(spec, settings: Settings = DEFAULT) -> Verdict:
    """Per-component (or per-block) variant of the margin conditions."""
    ds = as_discrete(spec)
    blocks = ds.signs.blocks
    if ds.signs.cross:
        raise StructureUnsupported(ACROSS_BLOCKS)
    keys = [
        f"j={b[0] + 1}" if len(b) == 1 else "block=" + ",".join(str(k + 1) for k in b)
        for b in blocks
    ]
    verdict = Verdict("Inconclusive", theorem="Theorem 4", mode=settings.mode)
    return _block_margins(ds, verdict, blocks, keys, "HoldsThm4", settings)


# -------------------------------------------------------------- theorem 5


def check_thm5(spec, settings: Settings = DEFAULT) -> Verdict:
    """Triangular cooperative part: epsilon-shifted margins plus the
    constructive positive chain.

    The species first in the triangular order keeps slack conditions (its
    equation is uncoupled in the cooperative part); later species need
    strict margins, and epsilon is half the smallest strict slack.
    """
    ds = as_discrete(spec)
    n = ds.n_species
    order0 = ds.signs.order
    if order0 is None:
        raise StructureUnsupported("cooperative part is not triangular")
    if n < 2:
        raise StructureUnsupported("triangular certificate needs several species")
    verdict = Verdict("Inconclusive", theorem="Theorem 5", mode=settings.mode)
    verdict.structure = classify_structure(ds)
    pairs = [component_eigen(ds, j + 1, settings) for j in range(n)]
    verdict.eigen.update((f"j={j + 1}", p) for j, p in enumerate(pairs))
    tols, _, diag, col = _margins(ds, pairs, settings)
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
    chain = _thm5_chain(ds, eps, order0, pairs)
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


def _thm5_chain(ds, eps, order0, pairs):
    """w_1 = eigenfunction; later species solve the shifted scalar system
    against the accumulated nonnegative coupling of earlier species.

    Species j's shift is lo_j - eps, lo_j = pairs[j].cw[0] <= lambda_j, so
    A_j - (lo_j - eps) I is a nonsingular M-matrix and its solve against a
    nonnegative, nonzero right-hand side is positive however wide the
    enclosure is (Berman-Plemmons, ch. 6); a solve that comes out
    nonpositive anyway, by rounding, gives None."""
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
        # the block component_eigen kept; a CSC copy of it makes shifted's
        # copy the one LuFactor hands to SuperLU
        a, _ = ds.cooperative_block([j])
        w = lu_solve(shifted(a.tocsc(), pairs[j].cw[0] - eps), rhs)
        if float(w.min()) <= 0.0:
            return None
        wt[j] = w
    return wt, fallback


# ------------------------------------------------------- failure theorems


def check_failure(
    spec, settings: Settings = DEFAULT, diagnostics: list | None = None
) -> Verdict | None:
    """Refutation scan; emits a verdict only for a proven counterexample.

    A candidate is a species j and the block whose principal eigenfunction
    refutes once hi + m_jj_plus < 0 everywhere, hi = cw[1] the upper end of
    lambda.  Theorem 7 (irreducible cooperative part without competitive
    off-diagonal support): the whole system, for each j with no positive
    diagonal coupling elsewhere.
    Theorem 6 (reducible): species j alone, for each j with no positive
    coupling in its row or column.  A candidate whose field is not proven
    (oracle.prove_field) is noted in diagnostics, "not proven (bound ...)",
    and produces no verdict.

    On an open run (EigenPair.open, within spectral.open_runs) a candidate
    is passed over only where lo = cw[0] already gives lo + m_jj_plus >=
    -tol somewhere, as every narrower enclosure then does, and refutes
    only with a proven field; else it is undecided, and the scan stops
    there with an Inconclusive verdict, so that certify goes on with the
    run before any later candidate is tried and j is the one the run's end
    gives.
    """
    ds = as_discrete(spec)
    n = ds.n_species
    ids = ds.grid.interior_ids
    signs = ds.signs
    competes = signs.plus_offdiag
    notes = diagnostics if diagnostics is not None else []
    if signs.irreducible:
        kind, theorem, which = "FailsThm7", "Theorem 7", "thm7"
        candidates = [
            (j, list(range(n)))
            for j in range(n)
            if not competes.any()
            and not any(signs.plus[k, k] for k in range(n) if k != j)
        ]
    else:
        kind, theorem, which = "FailsThm6", "Theorem 6", "thm6"
        candidates = [
            (j, [j])
            for j in range(n)
            if not (competes[:, j].any() or competes[j, :].any())
        ]
    for j, block in candidates:
        pair = block_eigen(ds, block, settings)
        mp = ds.m_plus[j, j][ids]
        tol = _tol(pair, settings)
        undecided = Verdict("Inconclusive", theorem=theorem, j=j + 1)
        worst = float((pair.cw[1] + mp).max())
        if worst >= -tol:
            if pair.open and float((pair.cw[0] + mp).max()) < -tol:
                return undecided
            continue
        cex = _counterexample(ds, block, pair, j + 1, which)
        if not cex.verified:
            if pair.open:
                return undecided
            notes.append(
                f"FailureCandidate j={j + 1} ({which}) not proven "
                f"(bound {cex.residual_max:.3e})"
            )
            continue
        verdict = Verdict(kind, theorem=theorem, j=j + 1)
        verdict.eigen["system" if which == "thm7" else f"j={j + 1}"] = pair
        verdict.margins["pointwise"] = worst
        verdict.counterexample = cex
        return verdict
    return None


# ------------------------------------------------------------------ gauge


def find_gauge(spec):
    """Species sign vector turning every off-diagonal coupling nonpositive.

    Returns (sigma, None) or (None, reason).  A positive coupling between
    two species requires sigma_k sigma_l = -1, a negative one +1, and sigma
    follows from these products along the coupling graph, +1 on the first
    species of each component (graphs.potentials, exact).
    """
    ds = as_discrete(spec)
    n = ds.n_species
    signs = ds.signs
    need = {}  # (i, j): required sigma_i * sigma_j
    for i in range(n):
        for j in range(i + 1, n):
            for k, l in ((i, j), (j, i)):
                has_pos, has_neg = signs.plus[k, l], signs.minus[k, l]
                if has_pos and has_neg:
                    return None, f"MixedSign: m{k + 1}{l + 1} changes sign"
                if not (has_pos or has_neg):
                    continue
                want = -1 if has_pos else 1
                if need.setdefault((i, j), want) != want:
                    return None, (
                        f"InconsistentPair: m{i + 1}{j + 1} and m{j + 1}{i + 1} "
                        "have opposite signs"
                    )
    sigma = potentials(n, need)
    if sigma is None:
        return None, "ParityConflict: no consistent sign assignment"
    return tuple(int(s) for s in sigma), None


# ---------------------------------------------------------------- certify


def _route(signs):
    """The check of the certificate the sign pattern selects, or None when
    no sufficient condition applies."""
    if signs.irreducible:
        return check_thm3 if signs.plus_offdiag.any() else check_thm1
    if signs.order is not None and any(signs.edges):
        return check_thm5
    if not signs.cross:
        return check_thm4
    return None


def certify(spec, settings: Settings = DEFAULT) -> Verdict:
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
    verdict, notes = _decide(ds, structure, settings)
    verdict.mode = settings.mode
    verdict.structure = structure
    verdict.notes.extend(notes)
    verdict.notes.extend(
        f"eigen {key} stopped at the rounding floor: width {pair.cw[1] - pair.cw[0]:.3e}"
        for key, pair in sorted(verdict.eigen.items())
        if pair.stopped == "floor"
    )
    sigma, reason = find_gauge(ds)
    verdict.gauge = sigma
    verdict.gauge_reason = reason
    gauged = sigma is not None and min(sigma) < 0
    if verdict.kind != "Inconclusive":
        # a Holds on a gauged system claims comparison for the fields sigma_k u_k
        in_gauge = gauged and verdict.kind.startswith("Holds")
        verdict.order = sigma if in_gauge else (1,) * ds.n_species
    if not settings.with_oracle:
        verdict.cross_check = _cross_check(verdict, ["oracle not run: with_oracle is off"])
        return verdict
    asys = ds.assembled("full")
    # the gauged order first: where its check proves positivity, the plain
    # report follows from it with no solve (oracle.m_matrix)
    orders = [("oracle", None, "system")]
    if gauged:
        orders.insert(0, ("oracle_gauged", sigma, "gauged system"))
    first_note = len(verdict.notes)
    for name, gauge, what in orders:
        try:
            report = oracle_mod.decide(asys, gauge, settings, verdict.oracle_gauged)
            setattr(verdict, name, report)
        except SingularMatrix:
            verdict.notes.append(f"oracle: {what} matrix is singular")
    verdict.cross_check = _cross_check(verdict, verdict.notes[first_note:])
    return verdict


def _decide(ds, structure: StructureClass, settings: Settings):
    """(verdict, notes) of the refutation scan, then the route, on each
    eigen run as far as it has gone (spectral.open_runs).

    While the verdict is Inconclusive and a run it read is open, those runs
    go on by one enclosure and the system is decided again.  Enclosures
    nest, a Holds reads each margin at lo and a Fails at hi, so a Holds or
    a proven Fails on a wider enclosure is one that the runs' end would
    give too.  Every run therefore stops at its target, at its floor, or
    where the verdict is decided; an Inconclusive verdict reads every run
    at its end.  Sharp mode reads the left eigenvectors, so it reads every
    run at its end from the start.
    """
    with open_runs(ds) if settings.mode == "basic" else contextlib.nullcontext({}) as runs:
        while True:
            runs.clear()
            notes: list = []
            verdict = check_failure(ds, settings, diagnostics=notes)
            if verdict is None:
                route = _route(ds.signs)
                if route is not None:
                    verdict = route(ds, settings)
                else:
                    verdict = Verdict("Inconclusive", mode=settings.mode)
                    verdict.notes.append(
                        GENERAL if structure.kind == "General" else ACROSS_BLOCKS
                    )
            going = [run for run in runs.values() if run.open]
            if verdict.kind != "Inconclusive" or not going:
                return verdict, notes
            for run in going:
                run.advance()


def _cross_check(verdict: Verdict, skipped: list) -> dict:
    """Whether the oracle in the claimed order agrees with the verdict.

    The order sigma is the claim's: with D = diag(sigma), a Holds claims
    (D A D)^-1 >= 0 and -(D A D)^-1 D G D_b >= 0 (inverse_positive and
    boundary_monotone), a Fails that they do not both hold.  A Holds on a
    system with a sign gauge that flips a species is claimed in the gauge
    order, which oracle_gauged decides; every other claim is in the all +1
    order, which the plain oracle decides.  Each report is the first rung
    of the oracle's ladder that decides (oracle.decide), and every rung
    reads inverse_positive and boundary_monotone alike.  No claim, no
    report in the claimed order, or an undecided one (inverse_positive
    None, above the scan's budget) gives skipped: a missing report with
    that order's note from skipped, the oracle notes in the order tried,
    gauged first and plain last, and an undecided one with its reason.
    """
    if verdict.order is None:
        return {"result": "skipped", "reason": "Inconclusive: no claim"}
    name = "oracle_gauged" if min(verdict.order) < 0 else "oracle"
    rep = getattr(verdict, name)
    if rep is None:
        return {"result": "skipped", "reason": skipped[0 if name == "oracle_gauged" else -1]}
    monotone = bool(rep.inverse_positive and rep.boundary_monotone)
    reason = (
        f"{name}: inverse_positive {rep.inverse_positive}, "
        f"boundary_monotone {rep.boundary_monotone} ({rep.boundary_reason})"
    )
    if rep.inverse_positive is None:
        return {"result": "skipped", "reason": reason}
    if monotone == verdict.kind.startswith("Holds"):
        return {"result": "agrees", "reason": reason}
    logger.warning("%s disagrees with the %s", verdict.kind, reason)
    return {"result": "disagrees", "reason": reason}
