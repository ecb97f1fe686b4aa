"""Certificates, refutations, gauges, and the routing pipeline.

Closed-form anchors: on (0, pi) with n cells the discrete Dirichlet
Laplacian has smallest eigenvalue 4/h^2 sin^2(h/2), eigenvector sin(x);
constant couplings shift margins by exactly the coupling size.
"""

import contextlib
import dataclasses
import inspect
import itertools
import logging
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import elcomp.certify as certify_mod
from elcomp import assembly, linalg, oracle, quasilinear, spectral
from elcomp.certify import (
    StructureClass,
    Verdict,
    certify,
    check_failure,
    check_thm1,
    check_thm3,
    check_thm4,
    check_thm5,
    classify_structure,
    find_gauge,
)
from elcomp.errors import (
    NonEllipticCoefficient,
    NotZMatrix,
    SingularMatrix,
    StructureUnsupported,
    ValidationError,
)
from elcomp.fields import load_block
from elcomp.mesh import build_grid
from elcomp.oracle import OracleReport, inverse_positivity
from elcomp.problems import load_problem, parse_problem
from elcomp.quasilinear import check_thm8
from elcomp.settings import DEFAULT, Settings
from elcomp.spectral import EigenPair, component_eigen

from helpers import (
    assert_report_views,
    coop_pair_text,
    laplace_system,
    op_of,
    system_of,
    system_text,
)

PI = math.pi


def lap_eig(n, length=1.0):
    h = length / n
    return 4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2


def grid1(n, length=1.0):
    return build_grid(1, (0.0,), (length,), (n,))


# ------------------------------------------------------------ structure


@pytest.mark.parametrize(
    "m,kind",
    [
        ([["0", "-1"], ["-1", "0"]], "IrreducibleCooperativePart"),
        ([["0", "0"], ["0", "0"]], "Cooperative"),
        ([["-1", "0"], ["0", "2"]], "Cooperative"),
        ([["0", "0.5"], ["0.5", "0"]], "DiagonalMinus"),
        ([["0", "0.5"], ["-1", "0"]], "TriangularMinus"),
    ],
)
def test_classification_table(m, kind):
    spec = laplace_system(grid1(8), n_species=2, m=m)
    assert classify_structure(spec).kind == kind


def test_classification_single_species():
    assert classify_structure(laplace_system(grid1(8))).kind == "Cooperative"


def test_classification_block_diagonal():
    m = [
        ["0", "-1", "0.5", "0"],
        ["-1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "-1", "0"],
    ]
    sc = classify_structure(laplace_system(grid1(8), n_species=4, m=m))
    assert sc.kind == "BlockDiagonalMinus"
    assert sc.blocks == ((1, 2), (3, 4))
    assert sc.to_json_dict()["blocks"] == [[1, 2], [3, 4]]


def test_classification_triangular_order():
    m = [["0", "0", "0"], ["-1", "0", "0"], ["0.5", "-1", "0"]]
    sc = classify_structure(laplace_system(grid1(8), n_species=3, m=m))
    assert sc.kind == "TriangularMinus"
    assert sc.order == (1, 2, 3)


def test_classification_general():
    m = [["0", "-1", "0"], ["-1", "0", "0.5"], ["-1", "0", "0"]]
    sc = classify_structure(laplace_system(grid1(8), n_species=3, m=m))
    assert sc.kind == "General"


# ------------------------------------------------------------- theorem 1


def test_thm1_holds_cooperative_pair():
    spec = laplace_system(grid1(24), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    v = check_thm1(spec)
    assert v.kind == "HoldsThm1"
    assert v.theorem == "Theorem 1"
    # symmetric coupling -1 shifts the scalar eigenvalue down by 1
    assert v.value == pytest.approx(lap_eig(24) - 1.0, abs=1e-7)
    assert v.eigen["system"].value == v.value
    lo, hi = v.eigen["system"].cw
    assert lo <= v.value <= hi


def test_thm1_negative_eigenvalue_refutes():
    spec = laplace_system(
        grid1(24), c=-15.0, n_species=2, m=[["0", "-1"], ["-1", "0"]]
    )
    v = check_thm1(spec)
    assert v.kind == "FailsThm7"
    assert v.value == pytest.approx(lap_eig(24) - 16.0, abs=1e-7)
    assert v.counterexample is not None
    assert v.counterexample.verified
    assert v.counterexample.which == "thm7"
    assert v.counterexample.w.interior.min() >= 0.0


def test_thm1_rejects_competitive():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    with pytest.raises(StructureUnsupported):
        check_thm1(spec)


def test_thm1_near_zero_inconclusive():
    # c tuned so lambda sits inside the conclusion tolerance
    lam = lap_eig(16)
    spec = laplace_system(grid1(16), c=-lam)
    v = check_thm1(spec, Settings(tol_cond=1e-4))
    assert v.kind == "Inconclusive"
    assert any("within tolerance" in note for note in v.notes)


# ------------------------------------------------------------- theorem 3

# three species in a ring: cooperative couplings -1.1 make the minus part
# irreducible, positive couplings 0.5 exercise the margin conditions
RING = [["0", "0.5", "-1.1"], ["-1.1", "0", "0.5"], ["0.5", "-1.1", "0"]]


def test_thm3_basic_margins_exact():
    spec = laplace_system(grid1(48, PI), n_species=3, m=RING)
    v = check_thm3(spec)
    lam = lap_eig(48, PI) - 1.1  # row sums of the cooperative coupling
    assert v.kind == "Inconclusive"
    assert v.eigen["system"].value == pytest.approx(lam, abs=1e-7)
    assert v.margins["pointwise_diag"] == pytest.approx(lam, abs=1e-7)
    assert v.margins["common_point"] == pytest.approx(lam + 0.5, abs=1e-7)
    assert v.x0 is not None


def test_thm3_sharp_certifies_where_basic_fails():
    spec = laplace_system(grid1(48, PI), n_species=3, m=RING)
    v = check_thm3(spec, Settings(mode="sharp"))
    lam = lap_eig(48, PI) - 1.1
    h = PI / 48
    assert v.kind == "HoldsThm3"
    assert v.mode == "sharp"
    # left eigenfunction is sin(x) for every species, so the sharp margin
    # bottoms out at the first interior node
    assert v.margins["sharp"] == pytest.approx((lam + 0.5) * math.sin(h), rel=1e-5)


def test_thm3_basic_holds_with_room():
    # shrink the couplings until the plain margins clear zero
    m = [["0", "0.2", "-0.3"], ["-0.3", "0", "0.2"], ["0.2", "-0.3", "0"]]
    spec = laplace_system(grid1(32, PI), n_species=3, m=m)
    v = check_thm3(spec)
    assert v.kind == "HoldsThm3"
    lam = lap_eig(32, PI) - 0.3
    assert v.margins["pointwise_diag"] == pytest.approx(lam, abs=1e-7)
    assert v.margins["common_point"] == pytest.approx(lam + 0.2, abs=1e-7)


def test_thm3_requires_irreducible_minus():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    with pytest.raises(StructureUnsupported):
        check_thm3(spec)


def test_thm3_sharp_rejects_when_truly_negative():
    m = [["0", "0.1", "-2.5"], ["-2.5", "0", "0.1"], ["0.1", "-2.5", "0"]]
    spec = laplace_system(grid1(32, PI), n_species=3, m=m)
    v = check_thm3(spec, Settings(mode="sharp"))
    assert v.kind == "Inconclusive"
    assert v.margins["sharp"] < 0.0


# ------------------------------------------------------------- theorem 4


def test_thm4_competitive_pair_margins():
    sigma = 0.5
    grid = build_grid(2, (0.0, 0.0), (PI, PI), (12, 12))
    spec = laplace_system(grid, n_species=2, m=[["0", str(sigma)], [str(sigma), "0"]])
    v = check_thm4(spec)
    lam = 2.0 * lap_eig(12, PI)
    assert v.kind == "HoldsThm4"
    assert v.eigen["j=1"].value == pytest.approx(lam, abs=1e-7)
    assert v.eigen["j=2"].value == pytest.approx(lam, abs=1e-7)
    assert v.margins["pointwise_diag"] == pytest.approx(lam, abs=1e-7)
    assert v.margins["common_point"] == pytest.approx(lam + sigma, abs=1e-7)
    # headline value is the smallest component eigenvalue
    assert v.value == pytest.approx(lam, abs=1e-7)


def test_thm4_unequal_operators():
    ops = (op_of(1, c=0.0), op_of(1, c=-30.0))
    spec = system_of(grid1(16), ops, m=[["0", "0.5"], ["0.5", "0"]])
    v = check_thm4(spec)
    assert v.kind == "Inconclusive"
    assert v.eigen["j=2"].value == pytest.approx(lap_eig(16) - 30.0, abs=1e-6)
    assert v.value == v.eigen["j=2"].value
    assert any("pointwise diagonal" in note for note in v.notes)


def test_thm4_block_variant():
    m = [
        ["0", "-1", "0.5", "0"],
        ["-1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "-1", "0"],
    ]
    spec = laplace_system(grid1(16), n_species=4, m=m)
    v = check_thm4(spec)
    lam = lap_eig(16) - 1.0
    assert v.kind == "HoldsThm4"
    # one record per solve: a block's species share it, under the block's key
    assert set(v.eigen) == {"block=1,2", "block=3,4"}
    for pair in v.eigen.values():
        assert pair.value == pytest.approx(lam, abs=1e-7)
    assert_report_views(v.to_json_dict())
    report = certify(spec).to_json_dict()
    assert report["verdict"] == "HoldsThm4" and set(report["eigen"]) == set(v.eigen)
    assert_report_views(report)


def test_thm4_sharp_outperforms_basic():
    # negative reaction drags the component eigenvalues below zero, but the
    # sharp test only needs lambda + sigma > 0 along the eigenfunction
    grid = grid1(32, PI)
    spec = laplace_system(grid, c=-1.2, n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    basic = check_thm4(spec)
    sharp = check_thm4(spec, Settings(mode="sharp"))
    lam = lap_eig(32, PI) - 1.2
    assert lam < 0.0
    assert basic.kind == "Inconclusive"
    assert sharp.kind == "HoldsThm4"
    h = PI / 32
    assert sharp.margins["sharp"] == pytest.approx(
        (lam + 0.5) * math.sin(h), rel=1e-5
    )


def test_thm4_rejects_cross_block_coupling():
    m = [["0", "-1", "0"], ["-1", "0", "0"], ["-1", "0.5", "0"]]
    spec = laplace_system(grid1(8), n_species=3, m=m)
    with pytest.raises(StructureUnsupported):
        check_thm4(spec)


# ------------------------------------------------------------- theorem 5


def test_thm5_predator_prey_construction():
    spec = laplace_system(
        grid1(48, PI), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]]
    )
    v = check_thm5(spec)
    lam = lap_eig(48, PI)
    assert v.kind == "HoldsThm5"
    assert v.epsilon == pytest.approx(0.5 * lam, abs=1e-7)
    assert v.margins["pointwise_diag"] == pytest.approx(0.5 * lam, abs=1e-7)
    assert v.margins["common_point"] == pytest.approx(lam, abs=1e-7)
    assert v.structure.order == (1, 2)
    # the constructed chain is strictly positive inside
    assert v.wtilde is not None
    assert v.wtilde.interior.min() > 0.0
    # and the second species solves the shifted equation against the first:
    # w2 = (a / eps) * sin since sin is the exact eigenfunction
    w1 = v.wtilde.interior[0]
    w2 = v.wtilde.interior[1]
    assert np.allclose(w2, 0.5 / v.epsilon * w1, rtol=1e-5)


def test_thm5_chain_hands_splu_the_shifted_block(monkeypatch):
    """The chain's solve gives shifted the cooperative block as CSC, so
    SuperLU factorizes the copy shifted makes, and no other; the chain is
    bit for bit the one solved from a CSR block."""
    ds = load_problem(DATA / "predator_prey.prob").discretize()
    shift, splu = certify_mod.shifted, linalg.spla.splu
    made, factorized = [], []

    def spy_shift(a, s):
        made.append(shift(a, s))
        return made[-1]

    def spy_splu(a, **kwargs):
        factorized.append(a)
        return splu(a, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(certify_mod, "shifted", spy_shift)
        mp.setattr(linalg.spla, "splu", spy_splu)
        v = check_thm5(ds)
    assert v.kind == "HoldsThm5"
    assert len(made) == 1 and made[0].format == "csc"
    assert sum(a is made[0] for a in factorized) == 1
    monkeypatch.setattr(certify_mod, "shifted", lambda a, s: shift(a.tocsr(), s))
    from_csr = check_thm5(load_problem(DATA / "predator_prey.prob").discretize())
    assert np.array_equal(v.wtilde.values, from_csr.wtilde.values)


def test_thm5_chain_stays_positive_on_a_wide_enclosure():
    """The chain shifts species j at lo_j - eps, below lambda_j however wide
    its enclosure is.  With each pair's enclosure widened to lambda +- 3 and
    its value moved to lambda + 2, where an open run's Rayleigh quotient
    may lie, the chain stays positive; a shift at value - eps, between
    lambda_1 and lambda_2 of the block, would solve to a negative w2, -(0.5
    / 1.75) sin, the sine being the block's eigenvector."""
    ds = laplace_system(
        grid1(48, PI), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]]
    ).discretize()
    pairs = [component_eigen(ds, j + 1) for j in range(2)]
    wide = [
        dataclasses.replace(p, cw=(p.value - 3.0, p.value + 3.0), value=p.value + 2.0)
        for p in pairs
    ]
    eps = 0.25
    wt, fallback = certify_mod._thm5_chain(ds, eps, (0, 1), wide)
    assert not fallback and wt.min() > 0.0
    a, _ = ds.cooperative_block([1])
    above = linalg.lu_solve(linalg.shifted(a, wide[1].value - eps), 0.5 * wide[0].right)
    assert above.max() < 0.0


def test_thm5_chain_reads_the_kept_species_blocks(monkeypatch):
    """A triangular pair's certify gathers each species block once: the
    chain's solve reads the block that component_eigen kept, read-only."""
    gathers = []
    gather = linalg.principal_submatrix
    monkeypatch.setattr(
        linalg, "principal_submatrix", lambda a, ix: gathers.append(1) or gather(a, ix)
    )
    ds = laplace_system(
        grid1(48, PI), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]]
    ).discretize()
    v = certify(ds)
    assert v.kind == "HoldsThm5"
    assert len(gathers) == 2
    for j in range(2):
        a, _ = ds.cooperative_block([j])
        assert not a.data.flags.writeable


def test_thm5_infeasible_when_strict_species_negative():
    ops = (op_of(1, c=0.0), op_of(1, c=-30.0))
    spec = system_of(grid1(16), ops, m=[["0", "0.5"], ["-0.5", "0"]])
    v = check_thm5(spec)
    assert v.kind == "Inconclusive"
    assert v.epsilon is None
    assert any(note.startswith("InfeasibleEpsilon") for note in v.notes)


def test_thm5_uncoupled_tail_falls_back_to_eigenfunction():
    m = [["0", "0", "0"], ["-1", "0", "0"], ["0", "0", "0"]]
    spec = laplace_system(grid1(16), n_species=3, m=m)
    v = check_thm5(spec)
    assert v.kind == "HoldsThm5"
    assert any("own eigenfunctions" in note for note in v.notes)
    assert v.wtilde.interior.min() > 0.0


def test_thm5_labels_its_structure_by_classification():
    # a triangular cooperative digraph with no competitive coupling is the
    # Cooperative class, not TriangularMinus
    spec = laplace_system(grid1(16), n_species=2, m=[["0", "-1"], ["0", "0"]])
    v = check_thm5(spec)
    assert v.kind == "HoldsThm5"
    assert v.structure == classify_structure(spec)
    assert v.structure.kind == "Cooperative"
    pp = laplace_system(grid1(16), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]])
    assert check_thm5(pp).structure == StructureClass("TriangularMinus", order=(1, 2))


def test_thm5_requires_triangular():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    with pytest.raises(StructureUnsupported):
        check_thm5(spec)
    with pytest.raises(StructureUnsupported):
        check_thm5(laplace_system(grid1(8)))


# ------------------------------------------------ margins within the width

# an enclosure width far above tol_cond (1 + |lambda|), as at the floor
WIDE = 1e-3


def _floor_pair(ds, value, n_block=1):
    """A floor-stopped eigenpair on n_block species: unit vectors and an
    enclosure WIDE wide, centred on value."""
    one = np.ones(n_block * ds.grid.n_interior)
    cw = (value - WIDE / 2, value + WIDE / 2)
    return EigenPair(value, one, one, cw, 0, 0.0, 0, "floor")


def test_thm1_reads_lambda_at_the_lower_end(monkeypatch):
    """lambda's lower end decides Holds: 0.6 WIDE at the value is 0.1 WIDE
    proven, 0.4 WIDE is -0.1 WIDE, which could be a negative lambda."""
    spec = laplace_system(grid1(16))
    for value, kind in [(0.6 * WIDE, "HoldsThm1"), (0.4 * WIDE, "Inconclusive")]:
        monkeypatch.setattr(
            certify_mod, "_memo_eigenpair", lambda ds, *a: _floor_pair(ds, value)
        )
        v = check_thm1(spec)
        assert v.kind == kind, value
        assert v.margins["lambda"] == value


def test_diagonal_margin_within_the_width_is_not_holds(monkeypatch):
    """m11 = x - 1 has m_plus 0 on x <= 1 and up to 2.1 near pi.  With
    lambda's value at -WIDE / 2, the diagonal margin at the value lies in
    (-WIDE, 0) and the column margin near pi clears every tolerance; at the
    lower end the diagonal margin is -WIDE, so Theorem 4 must not hold."""
    spec = laplace_system(grid1(32, PI), m=[["x - 1"]])
    monkeypatch.setattr(
        certify_mod,
        "block_eigen",
        lambda ds, block, settings: _floor_pair(ds, -WIDE / 2, len(block)),
    )
    v = check_thm4(spec)
    assert v.kind == "Inconclusive"
    assert "pointwise diagonal condition fails" in v.notes
    assert v.margins["pointwise_diag"] == pytest.approx(-WIDE, rel=1e-9)
    assert v.margins["common_point"] > 2.0


def test_thm5_first_species_margin_within_the_width_is_not_holds(monkeypatch):
    """The uncoupled species' slack condition reads the lower end too: the
    predator-prey pair of test_thm5_predator_prey_construction, with
    m11 = x - 1 and species 1 stopped at the floor at -WIDE / 2."""
    spec = laplace_system(
        grid1(32, PI), n_species=2, m=[["x - 1", "0.5"], ["-0.5", "0"]]
    )
    real = certify_mod.component_eigen

    def eigen(ds, j, settings):
        return _floor_pair(ds, -WIDE / 2) if j == 1 else real(ds, j, settings)

    monkeypatch.setattr(certify_mod, "component_eigen", eigen)
    v = check_thm5(spec)
    assert v.kind == "Inconclusive"
    assert any("for the uncoupled species" in note for note in v.notes)


# ------------------------------------------------------- failure theorems


def test_failure_reducible_species_refutes():
    # species 1 has eigenvalue lambda - 2 < 0 on (0, pi) and only feeds
    # species 2 cooperatively, so its eigenfunction refutes comparison
    m = [["-2", "0"], ["-1", "0"]]
    spec = laplace_system(grid1(48, PI), n_species=2, m=m)
    v = check_failure(spec)
    assert v is not None
    assert v.kind == "FailsThm6"
    assert v.j == 1
    lam = lap_eig(48, PI) - 2.0
    assert v.eigen["j=1"].value == pytest.approx(lam, abs=1e-7)
    assert v.margins["pointwise"] == pytest.approx(lam, abs=1e-7)
    assert v.counterexample.verified
    assert v.counterexample.which == "thm6"
    # the counterexample lives on species 1 only
    w = v.counterexample.w
    assert w.interior[0].min() > 0.0
    assert np.allclose(w.interior[1], 0.0)


def test_failure_blocked_by_positive_column():
    # same negative species, but now species 2 feeds it with a positive
    # coupling, which the support condition must reject
    m = [["-2", "0.5"], ["0", "0"]]
    spec = laplace_system(grid1(48, PI), n_species=2, m=m)
    assert check_failure(spec) is None


def test_failure_blocked_by_positive_row():
    m = [["-2", "0"], ["0.5", "0"]]
    spec = laplace_system(grid1(48, PI), n_species=2, m=m)
    assert check_failure(spec) is None


def test_failure_irreducible_system_eigenvalue():
    spec = laplace_system(
        grid1(24), c=-15.0, n_species=2, m=[["0", "-1"], ["-1", "0"]]
    )
    v = check_failure(spec)
    assert v is not None
    assert v.kind == "FailsThm7"
    assert v.j == 1
    assert v.eigen["system"].value == pytest.approx(lap_eig(24) - 16.0, abs=1e-7)
    assert v.counterexample.verified


def test_failure_irreducible_with_positive_diagonal():
    # plus support only on the diagonal of species 2: candidates are
    # restricted to j = 2 and the margin includes the diagonal bump
    m = [["0", "-1"], ["-1", "0.3"]]
    spec = laplace_system(grid1(24), c=-18.0, n_species=2, m=m)
    v = check_failure(spec)
    assert v is not None
    assert v.kind == "FailsThm7"
    assert v.j == 2
    lam = lap_eig(24) - 19.0
    assert v.margins["pointwise"] == pytest.approx(lam + 0.3, abs=1e-6)


def test_failure_none_when_stable():
    spec = laplace_system(grid1(16), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    assert check_failure(spec) is None


# ------------------------------------------------------------------ gauge


def test_gauge_competitive_pair():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    sigma, reason = find_gauge(spec)
    assert sigma == (1, -1)
    assert reason is None


def test_gauge_cooperative_identity():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    sigma, reason = find_gauge(spec)
    assert sigma == (1, 1)
    assert reason is None


def test_gauge_inconsistent_pair():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]])
    sigma, reason = find_gauge(spec)
    assert sigma is None
    assert reason.startswith("InconsistentPair")


def test_gauge_mixed_sign_entry():
    spec = laplace_system(grid1(8), n_species=2, m=[["0", "x - 0.5"], ["0", "0"]])
    sigma, reason = find_gauge(spec)
    assert sigma is None
    assert reason == "MixedSign: m12 changes sign"


def test_gauge_parity_conflict():
    m = [["0", "0.5", "0.5"], ["0.5", "0", "0.5"], ["0.5", "0.5", "0"]]
    spec = laplace_system(grid1(8), n_species=3, m=m)
    sigma, reason = find_gauge(spec)
    assert sigma is None
    assert reason == "ParityConflict: no consistent sign assignment"


def test_gauge_untouched_species_defaults_positive():
    m = [["0", "0.5", "0"], ["0.5", "0", "0"], ["0", "0", "0"]]
    spec = laplace_system(grid1(8), n_species=3, m=m)
    sigma, reason = find_gauge(spec)
    assert sigma == (1, -1, 1)
    assert reason is None


SIGNS = {"-1": "-", "0": "0", "1": "+", "x - 0.5": "+-"}


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            # a sign-changing entry one time in ten, so that most draws
            # pass the pair loop
            st.lists(
                st.sampled_from(["-1", "0", "1"] * 3 + ["x - 0.5"]),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@hyp_settings(max_examples=150, deadline=None)
def test_gauge_matches_brute_force(m):
    """On random sign patterns (couplings -1, 0, 1 or the sign-changing
    x - 0.5; the diagonal is ignored): a returned sigma makes every
    sigma_k sigma_l m_kl <= 0, +1 on the first species of each coupled
    component; ParityConflict means no sigma in {+-1}^N does; MixedSign and
    InconsistentPair name the first offending pair in pair order."""
    n = len(m)
    spec = laplace_system(grid1(8), n_species=n, m=m)
    sigma, reason = find_gauge(spec)
    first = None  # where the pair loop stops, in pair order
    for i, j in itertools.combinations(range(n), 2):
        kinds = [SIGNS[m[k][l]] for k, l in ((i, j), (j, i))]
        if "+-" in kinds:
            k, l = (i, j) if kinds[0] == "+-" else (j, i)
            first = f"MixedSign: m{k + 1}{l + 1} changes sign"
        elif {"+", "-"} <= set(kinds):
            first = (
                f"InconsistentPair: m{i + 1}{j + 1} and m{j + 1}{i + 1} "
                "have opposite signs"
            )
        if first is not None:
            assert (sigma, reason) == (None, first)
            return
    ds = assembly.as_discrete(spec)
    vals = ds.coupling_values("full")[:, :, ds.grid.interior_ids]
    vals[np.arange(n), np.arange(n)] = 0.0  # the diagonal is no coupling

    def works(s):
        return (np.outer(s, s)[:, :, None] * vals).max() <= 0.0

    if sigma is None:
        assert reason == "ParityConflict: no consistent sign assignment"
        assert not any(works(s) for s in itertools.product((1, -1), repeat=n))
        return
    assert reason is None and works(sigma)
    coupled = np.array([[float(m[i][j] != "0") for j in range(n)] for i in range(n)])
    _, component = connected_components(coupled, directed=False)
    assert all(sigma[list(component).index(c)] == 1 for c in component)


# ---------------------------------------------------------------- certify


def test_certify_routes_cooperative_pair_to_thm1():
    spec = laplace_system(grid1(24), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    v = certify(spec)
    assert v.kind == "HoldsThm1"
    assert v.structure.kind == "IrreducibleCooperativePart"
    assert v.gauge == (1, 1)
    assert v.oracle is not None
    assert v.oracle.inverse_positive
    assert v.oracle_gauged is None  # identity gauge adds nothing


def test_certify_routes_ring_to_thm3():
    spec = laplace_system(grid1(32, PI), n_species=3, m=RING)
    v = certify(spec, Settings(mode="sharp"))
    assert v.theorem == "Theorem 3"
    assert v.mode == "sharp"


def test_certify_routes_competitive_to_thm4_with_gauged_oracle():
    grid = build_grid(2, (0.0, 0.0), (PI, PI), (10, 10))
    spec = laplace_system(grid, n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    v = certify(spec)
    assert v.kind == "HoldsThm4"
    assert v.structure.kind == "DiagonalMinus"
    assert v.gauge == (1, -1)
    assert v.oracle is not None and v.oracle_gauged is not None
    # the gauged order is certified positive; the plain order is recorded
    # as found (for this competitive pair it has negative inverse entries)
    assert v.oracle_gauged.inverse_positive
    assert not v.oracle.inverse_positive


DATA = Path(__file__).resolve().parents[1] / "src" / "elcomp" / "data"


def test_certify_factorizes_the_full_operator_once(monkeypatch):
    """The gauged order's M-matrix check factorizes A once and proves (D A
    D)^{-1} >= 0; A being irreducible, the plain report follows from it.
    That is one LU of A and no scan, and each report decides as the scan
    does."""
    ds = load_problem(DATA / "competitive17.prob").discretize()
    full = abs(ds.assemble("full").A)
    factorized, scanned = [], []
    init = linalg.LuFactor.__init__

    def counting(self, a, order=None):
        if a.shape == full.shape and (abs(a) != full).nnz == 0:
            factorized.append(a.shape)
        init(self, a, order)

    def counting_scan(asys):
        scanned.append(asys.A.shape)
        return {}

    monkeypatch.setattr(linalg.LuFactor, "__init__", counting)
    monkeypatch.setattr(oracle, "_scan_inverse", counting_scan)
    v = certify(ds)
    assert v.gauge == (1, -1)
    assert scanned == []
    assert factorized == [full.shape]
    assert v.oracle.method == v.oracle_gauged.method == "m-matrix"
    monkeypatch.undo()
    fresh = load_problem(DATA / "competitive17.prob").discretize().assemble("full")
    for report, gauge in ((v.oracle_gauged, v.gauge), (v.oracle, None)):
        scan = inverse_positivity(fresh, gauge=gauge)
        assert (report.inverse_positive, report.boundary_monotone) == (
            scan.inverse_positive,
            scan.boundary_monotone,
        )
        assert report.boundary_reason == scan.boundary_reason


@pytest.mark.parametrize(
    "name,route",
    [
        ("cooperative_pair", "check_thm1"),
        ("competitive17", "check_thm4"),
        ("predator_prey", "check_thm5"),
        ("thm6_failure", None),
    ],
)
def test_sign_pattern_is_built_once_per_run(name, route, monkeypatch):
    """classify_structure, the refutation scan, the route and the gauge all
    read the one sign pattern of the discretized system."""
    built, called = [], []
    init = assembly.SignPattern.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(assembly.SignPattern, "__init__", counting)
    readers = ["classify_structure", "check_failure", "find_gauge"]
    for reader in readers + ([route] if route else []):
        real = getattr(certify_mod, reader)

        def spy(*args, _real=real, _name=reader, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(certify_mod, reader, spy)
    certify(load_problem(DATA / f"{name}.prob"), Settings(with_oracle=False))
    assert set(called) == set(readers + ([route] if route else []))
    assert len(built) == 1


@pytest.mark.parametrize("mode", ["Sharp", "basic ", "", None])
def test_unknown_mode_rejected(mode, monkeypatch):
    """Settings takes mode basic or sharp only; any other is an input error
    where the settings are built, never a silent basic run.  certify, each
    margin route and Theorem 8 take no mode of their own, so Theorem 8
    rejects a bad one before the pair is linearized."""
    for route in (certify, check_thm1, check_thm3, check_thm4, check_thm5, check_thm8):
        assert "mode" not in inspect.signature(route).parameters
    qs = load_problem(DATA / "quasilinear_demo.prob")
    sub, sup = (
        load_block(DATA / f"quasilinear_demo_{side}.field", qs.grid, qs.n_species)
        for side in ("sub", "super")
    )

    def refuse(*args, **kwargs):
        raise AssertionError("linearize ran before the mode check")

    monkeypatch.setattr(quasilinear, "linearize", refuse)
    with pytest.raises(ValidationError, match="mode") as info:
        check_thm8(qs, sub, sup, Settings(mode=mode))
    assert info.value.exit_code == 2


def test_certify_notes_singular_oracle_for_both_orders(monkeypatch):
    def singular(a, order=None):
        raise SingularMatrix("pivot 0")

    # the M-matrix check's solve and the column search's LU both raise, and
    # a check that cannot solve hands each order to the column search
    monkeypatch.setattr(oracle, "LuFactor", singular)
    v = certify(load_problem(DATA / "competitive17.prob"))
    assert v.kind == "HoldsThm4"
    assert v.oracle is None and v.oracle_gauged is None
    assert "oracle: system matrix is singular" in v.notes
    assert "oracle: gauged system matrix is singular" in v.notes
    # the claim is in the gauge order, so its note is the reason
    assert v.order == (1, -1)
    assert v.cross_check == {
        "result": "skipped",
        "reason": "oracle: gauged system matrix is singular",
    }


def test_certify_routes_triangular_to_thm5():
    spec = laplace_system(
        grid1(48, PI), n_species=2, m=[["0", "0.5"], ["-0.5", "0"]]
    )
    v = certify(spec)
    assert v.kind == "HoldsThm5"
    assert v.structure.kind == "TriangularMinus"
    assert v.gauge is None
    assert v.gauge_reason.startswith("InconsistentPair")
    assert v.epsilon == pytest.approx(0.5 * lap_eig(48, PI), abs=1e-7)


def test_certify_cooperative_reducible_dag_uses_thm5():
    m = [["0", "0"], ["-1", "0"]]
    spec = laplace_system(grid1(16), n_species=2, m=m)
    v = certify(spec)
    assert v.kind == "HoldsThm5"
    assert v.structure.kind == "Cooperative"


def test_certify_cooperative_no_edges_uses_thm4():
    spec = laplace_system(grid1(16), n_species=2)
    v = certify(spec)
    assert v.kind == "HoldsThm4"
    assert v.structure.kind == "Cooperative"


def test_certify_failure_scan_wins_over_routing():
    m = [["-2", "0"], ["-1", "0"]]
    spec = laplace_system(grid1(48, PI), n_species=2, m=m)
    v = certify(spec)
    assert v.kind == "FailsThm6"
    assert v.structure.kind == "Cooperative"
    assert v.oracle is not None
    assert not v.oracle.inverse_positive


def test_certify_general_structure_inconclusive():
    m = [["0", "-1", "0"], ["-1", "0", "0.5"], ["-1", "0", "0"]]
    spec = laplace_system(grid1(8), n_species=3, m=m)
    v = certify(spec)
    assert v.kind == "Inconclusive"
    assert v.structure.kind == "General"
    assert any("general coupling" in note for note in v.notes)


def test_certify_oracle_budget_note(monkeypatch):
    """The budget bounds only the oracle's scan, so above it certify notes
    no skip.  A Z claim is still decided by the M-matrix check, and
    predator_prey's plain order, Z in no order, by its middle columns, with
    the cross-check it has within the budget.  Where no column refutes
    either, the report is undecided, its reason names the budget, and the
    cross-check skips with that reason."""
    spec = laplace_system(grid1(64), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    v = certify(spec, Settings(oracle_max_dof=50))
    assert v.oracle.method == "m-matrix" and v.oracle.inverse_positive
    assert v.cross_check["result"] == "agrees"
    assert not any("oracle" in note for note in v.notes)
    prey = load_problem(DATA / "predator_prey.prob")
    within = certify(prey)
    v = certify(prey, Settings(oracle_max_dof=50))
    assert (v.oracle.method, v.oracle.inverse_positive) == ("columns", False)
    assert v.oracle.counterexample.verified
    assert v.cross_check == within.cross_check
    monkeypatch.setattr(oracle, "_column_search", lambda *args: None)
    v = certify(prey, Settings(oracle_max_dof=50))
    assert (v.oracle.method, v.oracle.inverse_positive) == ("columns", None)
    reason = f"A^-1 not scanned: {v.oracle.dof} dof above the budget 50"
    assert v.oracle.boundary_reason == reason
    assert v.cross_check == {
        "result": "skipped",
        "reason": f"oracle: inverse_positive None, boundary_monotone None ({reason})",
    }
    assert not any("oracle" in note for note in v.notes)


# ------------------------------------------------- the stop at the decision


def _never_stop(monkeypatch):
    """certify reads every eigen run at its end, as it did before it could
    stop one at its decision."""
    monkeypatch.setattr(certify_mod, "open_runs", lambda ds: contextlib.nullcontext({}))


def _claim(v):
    """What a verdict claims: the fields the stop must leave as they are."""
    return v.kind, v.theorem, v.j, v.order, v.cross_check


@pytest.mark.parametrize(
    "text",
    [
        coop_pair_text(16),
        system_text((16, 16), [{"a11": "1 + x", "c": "1", "f": "1"}]),
    ],
    ids=["thm1-pair", "thm4-scalar"],
)
def test_a_threshold_inside_the_enclosure_is_never_decided(text, monkeypatch):
    """Each open enclosure widened to hold [-1, 1], and so every margin's
    threshold, 0 here (no positive coupling), is never decided on: the
    failure scan calls its candidate undecided and the route finds no
    Holds, so the run goes on to its target, and the verdict and eigen
    records are those certify gives with no stop."""
    offered = []

    class Wide(spectral.EigenRun):
        @property
        def pair(self):
            pair = super().pair
            if not pair.open:
                return pair
            offered.append(pair.cw)
            lo, hi = pair.cw
            return dataclasses.replace(pair, cw=(min(lo, -1.0), max(hi, 1.0)))

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "EigenRun", Wide)
        v = certify(parse_problem(text))
    assert offered
    _never_stop(monkeypatch)
    plain = certify(parse_problem(text))
    assert plain.kind.startswith("Holds")
    assert _claim(v) == _claim(plain)
    assert [p.stopped for p in v.eigen.values()] == ["target"]
    assert v.to_json_dict()["eigen"] == plain.to_json_dict()["eigen"]


@pytest.mark.parametrize("rule", ["passed-over", "not-proven"])
def test_an_undecided_candidate_keeps_the_failing_j(rule, monkeypatch):
    """Two uncoupled species that both refute (Theorem 6), species 1's open
    runs made undecided: widened to hi >= 1, where lo alone would pass it
    over, or with its field not proven while open.  The scan stops at
    species 1 and takes its run further, so the Fails names j = 1, as with
    no stop, and not species 2, whose first open enclosure refutes."""
    text = system_text(
        (16, 16),
        [{"a11": "1 + x", "c": "-40", "f": "1"}, {"a11": "1 + y", "c": "-40", "f": "1"}],
    )
    first = parse_problem(text).discretize().cooperative_block([0])[1]
    counterexample = certify_mod._counterexample

    class Undecided(spectral.EigenRun):
        @property
        def pair(self):
            pair = super().pair
            mine = linalg.content_key(self.a) == first
            if rule == "passed-over" and mine and pair.open:
                return dataclasses.replace(pair, cw=(pair.cw[0], max(pair.cw[1], 1.0)))
            return pair

    def unproven(ds, block, pair, j, which):
        cex = counterexample(ds, block, pair, j, which)
        return dataclasses.replace(cex, verified=False) if j == 1 and pair.open else cex

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "EigenRun", Undecided)
        if rule == "not-proven":
            mp.setattr(certify_mod, "_counterexample", unproven)
        v = certify(parse_problem(text))
    _never_stop(monkeypatch)
    plain = certify(parse_problem(text))
    assert (plain.kind, plain.j) == ("FailsThm6", 1)
    assert _claim(v) == _claim(plain)
    assert v.eigen["j=1"].stopped == "target"


def _box_text(n, side, species, coupling):
    """Problem text on (0, side)^2 with n cells per axis."""
    lines = ["[domain]", "dim = 2", "lo = 0 0", f"hi = {side!r} {side!r}", f"n = {n} {n}"]
    for k, keys in enumerate(species, 1):
        lines += [f"[species {k}]"] + [f"{key} = {val}" for key, val in keys.items()]
    lines += ["[coupling]"] + [f"{key} = {val}" for key, val in coupling.items()]
    return "\n".join(lines) + "\n"


def _seeded_2d(seed):
    """The seven seeded 2D certify inputs of the certify-2d-oracle benchmark
    workload, by shape: an irreducible cooperative pair at 30^2, a
    predator-prey pair at 34^2 and a competitive pair at 35^2 on a side of
    pi, triangular and diagonal pairs at 28^2, a Thm 7 pair at 32^2 and a
    cooperative triple at 28^2, with coefficients drawn from seed."""
    rng = random.Random(seed)

    def u(lo, hi):
        return repr(round(rng.uniform(lo, hi), 4))

    def smooth(amp):
        px, py = u(0, PI), u(0, PI)
        return f"1 + {amp}*sin({PI!r}*x + {px})^2*cos({PI!r}*y + {py})^2"

    def data():
        return {"f": u(0.5, 2.0), "g": "0"}

    mu, nu, mu3 = rng.uniform(15.0, 25.0), rng.uniform(15.0, 20.0), rng.uniform(15.0, 20.0)
    c = repr(round(mu + rng.uniform(1, 5), 4))
    c7 = repr(round(nu - 2 * PI**2 - rng.uniform(2, 4), 4))
    c3 = repr(round(2 * mu3 + rng.uniform(1, 3), 4))
    return {
        "coop-pair-30": _box_text(
            30, 1.0,
            [{"a11": smooth(0.3), "a22": smooth(0.3), "c": c, **data()} for _ in range(2)],
            {"m12": repr(-round(mu, 4)), "m21": repr(-round(mu * rng.uniform(0.8, 1.0), 4))},
        ),
        "predprey-34": _box_text(
            34, PI, [data(), {"a11": smooth(0.3), **data()}],
            {"m12": u(0.3, 0.7), "m21": "-" + u(0.3, 0.7)},
        ),
        "competitive-35": _box_text(
            35, PI, [{"c": u(0, 1), **data()} for _ in range(2)],
            {"m12": u(0.3, 0.7), "m21": u(0.3, 0.7)},
        ),
        "tri-pair-28": _box_text(
            28, 1.0, [{"a11": smooth(0.3), **data()}, {"c": u(0, 3), **data()}],
            {"m21": "-" + u(0.5, 3.0)},
        ),
        "diag-pair-28": _box_text(
            28, 1.0, [data(), {"a22": smooth(0.3), **data()}],
            {"m11": "-" + u(0.5, 3.0), "m22": u(0.5, 3.0)},
        ),
        "thm7-pair-32": _box_text(
            32, 1.0,
            [{"c": c7, **data()} for _ in range(2)],
            {"m12": repr(-round(nu, 4)), "m21": repr(-round(nu, 4))},
        ),
        "three-coop-28": _box_text(
            28, 1.0,
            [{"c": c3, **data()} for _ in range(3)],
            {f"m{k}{l}": repr(-round(mu3, 4)) for k in (1, 2, 3) for l in (1, 2, 3) if k != l},
        ),
    }


@pytest.mark.parametrize("seed", [1, 3])
def test_the_stop_keeps_every_seeded_2d_claim(seed, monkeypatch):
    """On the seeded 2D inputs, certify with the stop and with it never
    firing makes the same claim: verdict kind, theorem, j, order and
    cross-check.  Every enclosure the stop decided on holds the lambda of
    the run to its end, and the stop saves work: no run takes more LUs or
    solves than it does without the stop, and some run is decided early."""
    texts = _seeded_2d(seed)
    stopped = {name: certify(parse_problem(text)) for name, text in texts.items()}
    _never_stop(monkeypatch)
    decided = 0
    for name, text in texts.items():
        v, plain = stopped[name], certify(parse_problem(text))
        assert _claim(v) == _claim(plain), name
        assert v.eigen.keys() == plain.eigen.keys(), name
        for key, pair in v.eigen.items():
            end = plain.eigen[key]
            assert end.stopped != "decided"
            assert pair.iterations <= end.iterations and pair.solves <= end.solves
            if pair.stopped == "decided":
                decided += 1
                assert pair.cw[0] <= end.value <= pair.cw[1], (name, key)
            else:
                assert pair.to_json_dict() == end.to_json_dict(), (name, key)
    assert decided >= 3


# ------------------------------------------------------------ cross-check


@pytest.mark.parametrize(
    "name, kind, result",
    [
        ("competitive17", "HoldsThm4", "agrees"),
        ("predator_prey", "HoldsThm5", "disagrees"),
        ("thm6_failure", "FailsThm6", "agrees"),
    ],
)
def test_cross_check_of_the_bundled_problems(name, kind, result, caplog):
    """A Holds on a system with a sign gauge that flips a species is claimed
    in the gauge order and checked by the gauged oracle; every other claim
    is in the all +1 order, checked by the plain oracle.  predator_prey has
    no gauge, so its Holds disagrees, and a disagreement logs one WARNING.
    The goldens hold the other results."""
    caplog.set_level(logging.WARNING, logger="elcomp.certify")
    spec = load_problem(DATA / f"{name}.prob")
    v = certify(spec)
    assert v.kind == kind
    order = (1, -1) if name == "competitive17" else (1,) * len(spec.ops)
    assert v.order == order
    assert v.cross_check["result"] == result
    report = "oracle_gauged" if min(order) < 0 else "oracle"
    assert v.cross_check["reason"].startswith(f"{report}: inverse_positive ")
    records = [r for r in caplog.records if r.name == "elcomp.certify"]
    assert [r.levelname for r in records] == ["WARNING"] * (result == "disagrees")


@pytest.mark.parametrize(
    "kind, inverse_positive, boundary_monotone, result",
    [
        ("HoldsThm1", True, True, "agrees"),
        ("HoldsThm1", True, False, "disagrees"),
        ("HoldsThm4", False, True, "disagrees"),
        ("HoldsThm4", False, None, "disagrees"),
        ("FailsThm6", False, False, "agrees"),
        ("FailsThm6", False, None, "agrees"),
        ("FailsThm7", True, False, "agrees"),
        ("FailsThm6", True, True, "disagrees"),
        ("HoldsThm1", None, None, "skipped"),
        ("FailsThm6", None, None, "skipped"),
    ],
)
def test_cross_check_rule(kind, inverse_positive, boundary_monotone, result):
    """A Holds claims (D A D)^-1 >= 0 and -(D A D)^-1 D G D_b >= 0 together
    in its order D, a Fails their negation; an undecided boundary half
    (None) does not hold, and an undecided report (inverse_positive None)
    checks nothing.  The report in the claimed order decides: the plain
    one, or the gauged one in a gauge order."""
    rep = OracleReport(inverse_positive, 0.0, boundary_monotone, None, "why", 4)
    other = OracleReport(not inverse_positive, 0.0, True, None, "other", 4)
    for name, order in (("oracle", (1, 1)), ("oracle_gauged", (1, -1))):
        reports = {"oracle": other, "oracle_gauged": other, name: rep}
        v = Verdict(kind, order=order, **reports)
        check = certify_mod._cross_check(v, [])
        assert check["result"] == result
        assert check["reason"] == (
            f"{name}: inverse_positive {inverse_positive}, "
            f"boundary_monotone {boundary_monotone} (why)"
        )


def test_cross_check_skips_without_a_claim_or_a_plain_report():
    coop = laplace_system(grid1(64), n_species=2, m=[["0", "-1"], ["-1", "0"]])
    off = certify(coop, Settings(with_oracle=False))
    assert off.kind == "HoldsThm1" and off.order == (1, 1)
    assert off.cross_check == {
        "result": "skipped",
        "reason": "oracle not run: with_oracle is off",
    }
    big = certify(coop, Settings(oracle_max_dof=50))
    assert big.cross_check == {
        "result": "agrees",
        "reason": "oracle: inverse_positive True, boundary_monotone True (G <= 0 and A^-1 >= 0)",
    }
    m = [["0", "-1", "0"], ["-1", "0", "0.5"], ["-1", "0", "0"]]
    general = certify(laplace_system(grid1(8), n_species=3, m=m))
    assert general.kind == "Inconclusive" and general.oracle is not None
    assert general.order is None
    assert general.cross_check == {"result": "skipped", "reason": "Inconclusive: no claim"}
    d = general.to_json_dict()
    assert d["order"] is None and d["cross_check"]["result"] == "skipped"


def test_certify_elliptic_gate():
    bad = system_of(grid1(8), (op_of(1, a="x - 0.2"),))
    with pytest.raises(NonEllipticCoefficient):
        certify(bad)


def test_certify_cross_term_z_gate():
    grid = build_grid(2, 0.0, 1.0, 6)
    spec = system_of(grid, (op_of(2, a=(("1", "0.9"), ("0.9", "1"))),))
    with pytest.raises(NotZMatrix):
        certify(spec)


def test_certify_agrees_with_oracle_on_cooperative_family():
    """Dual route on a deterministic cooperative family: the certificate
    sign must match dense inverse positivity whenever it is decisive."""
    rng = np.random.default_rng(42)
    grid = grid1(12)
    for trial in range(12):
        n = int(rng.integers(2, 4))
        shift = float(rng.uniform(-14.0, 6.0))
        m = [
            [
                "0" if i == j else str(-round(float(rng.uniform(0.0, 1.5)), 3))
                for j in range(n)
            ]
            for i in range(n)
        ]
        ops = tuple(op_of(1, c=shift) for _ in range(n))
        spec = system_of(grid1(12), ops, m=m)
        v = certify(spec)
        lam = min((pair.value for pair in v.eigen.values()), default=None)
        if lam is None or abs(lam) <= 1e-6:
            continue
        rep = inverse_positivity(spec.discretize().assemble("full"))
        if v.kind.startswith("Holds"):
            assert rep.inverse_positive, (trial, v.kind, lam)
        elif v.kind.startswith("Fails"):
            assert not rep.inverse_positive, (trial, v.kind, lam)


# ------------------------------------------------------------ verdict API


def test_verdict_json_shape():
    spec = laplace_system(grid1(16), n_species=2, m=[["0", "0.5"], ["0.5", "0"]])
    v = certify(spec)
    d = v.to_json_dict()
    expected = {
        "verdict",
        "theorem",
        "mode",
        "margins",
        "lambda",
        "lambdas",
        "cw",
        "eigen",
        "epsilon",
        "x0",
        "j",
        "structure",
        "gauge",
        "gauge_reason",
        "counterexample",
        "oracle",
        "oracle_gauged",
        "order",
        "cross_check",
        "notes",
    }
    assert set(d) == expected
    assert d["verdict"] == v.kind
    assert d["lambda"] == min(d["lambdas"].values())
    assert d["gauge"] == [1, -1]
    assert isinstance(d["cw"], list) and len(d["cw"]) == 2
    assert d["oracle"]["inverse_positive"] is not None


def _pair(value):
    one = np.ones(1)
    return EigenPair(value, one, one, (value - 0.5, value + 0.5), 1, 0.0, 2, "target")


def test_verdict_value_headline_rules():
    v = Verdict("Inconclusive")
    assert v.value is None
    v.eigen = {"j=1": _pair(3.0), "j=2": _pair(-1.0)}
    assert v.value == -1.0
    v.eigen["system"] = _pair(0.5)
    assert v.value == 0.5
    assert v.to_json_dict()["cw"] == [0.0, 1.0]
    w = Verdict("FailsThm6", j=2)
    w.eigen = {"j=1": _pair(5.0), "j=2": _pair(2.0)}
    assert w.value == 2.0
    for verdict in (v, w, Verdict("Inconclusive")):
        assert_report_views(verdict.to_json_dict())


def test_counterexample_json():
    m = [["-2", "0"], ["-1", "0"]]
    spec = laplace_system(grid1(32, PI), n_species=2, m=m)
    v = check_failure(spec)
    d = v.counterexample.to_json_dict()
    assert d["which"] == "thm6"
    assert d["j"] == 1
    assert d["verified"] is True
    assert d["w_min"] >= 0.0
    assert d["w_max"] == pytest.approx(1.0)
    assert d["residual_max"] <= 0.0


def test_certify_rejects_bad_settings():
    """The library takes no tolerance the CLI would refuse: tol_eig = inf
    used to certify competitive17 on a lambda of 10.15, and max_iter = 0
    used to end in NoConvergence."""
    problem = load_problem(DATA / "competitive17.prob")
    for kwargs in ({"tol_eig": math.inf}, {"tol_eig": math.nan}, {"max_iter": 0}):
        with pytest.raises(ValidationError):
            certify(problem, Settings(with_oracle=False, **kwargs))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol_cond", math.nan),
        ("tol_cond", -1),
        ("tol_eig", math.inf),
        ("tol_eig", 0),
        ("max_iter", 0),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("mode", "Sharp"),
        ("oracle_max_dof", -5),
    ],
)
def test_settings_reject_out_of_range(field, value):
    """A setting outside its limits is an input error that names it, not a
    verdict: tol_cond = nan or -1 used to give Inconclusive on competitive17
    with a note that blamed the diagonal condition, max_iter = 2.5 let
    check_thm4 decide, and oracle_max_dof = -5 skipped the oracle."""
    with pytest.raises(ValidationError, match=field) as info:
        Settings(**{field: value})
    assert info.value.exit_code == 2


def test_settings_are_frozen_keyword_only_and_hashable():
    assert Settings() == DEFAULT and hash(Settings()) == hash(DEFAULT)
    assert len({DEFAULT, Settings(mode="sharp"), Settings(mode="sharp")}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT.tol_cond = -1.0
    with pytest.raises(TypeError):
        Settings("sharp")
