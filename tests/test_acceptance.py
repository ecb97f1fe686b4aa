"""Acceptance suite: one test per shipped guarantee.

Each test prints a single summary line with the measured quantities; the
pass/fail status of the test is the acceptance verdict for that item.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest

from elcomp.certify import certify
from elcomp.cli import main
from elcomp.mesh import build_grid, sub_rectangle_mask
from elcomp.oracle import inverse_positivity
from elcomp.problems import parse_problem
from elcomp.quasilinear import check_thm8, from_linear_system, linearize
from elcomp.settings import Settings
from elcomp.spectral import cooperative_eigen

from helpers import laplace_system, op_of, system_of

PI = math.pi

BUNDLED = [
    "cooperative_pair.prob",
    "competitive17.prob",
    "predator_prey.prob",
    "thm6_failure.prob",
    "quasilinear_demo.prob",
    "lap1d.prob",
]


def bundled(name):
    return parse_problem((resources.files("elcomp.data") / name).read_text())


def test_acceptance_1_eigenvalue_closed_form():
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    pair = cooperative_eigen(laplace_system(grid))
    h = 1.0 / 128
    exact = 4.0 / (h * h) * math.sin(PI * h / 2.0) ** 2
    rel = abs(pair.value - exact) / exact
    width = pair.cw[1] - pair.cw[0]
    assert rel <= 1e-8
    assert abs(pair.value - PI * PI) / (PI * PI) <= 1e-3
    assert pair.right.min() > 0.0
    assert width <= 1e-8 * (1.0 + abs(pair.value))
    print(
        f"acceptance 1: PASS lambda={pair.value:.12f} rel_err={rel:.2e} "
        f"cw_width={width:.2e}"
    )


def test_acceptance_2_domain_monotonicity():
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    spec = laplace_system(grid)
    full = cooperative_eigen(spec).value
    sub = cooperative_eigen(spec, mask=sub_rectangle_mask(grid, (0.25,), (0.75,))).value
    ratio = sub / full
    assert 3.9 <= ratio <= 4.1
    assert sub > full
    print(f"acceptance 2: PASS ratio={ratio:.6f} (full={full:.6f}, sub={sub:.6f})")


def test_acceptance_3_shift_equivariance():
    grid = build_grid(1, (0.0,), (1.0,), (128,))
    base = cooperative_eigen(laplace_system(grid))
    shifted = cooperative_eigen(laplace_system(grid, c=-20.0))
    diff = abs(shifted.value - (base.value - 20.0))
    assert diff <= 1e-8 * (1.0 + abs(shifted.value))
    cos = float(
        base.right @ shifted.right
        / (np.linalg.norm(base.right) * np.linalg.norm(shifted.right))
    )
    assert cos >= 1.0 - 1e-8
    print(f"acceptance 3: PASS shift_err={diff:.2e} cosine={cos:.12f}")


def test_acceptance_4_cooperative_equivalence():
    """Certificates agree with dense inverse positivity on a random suite
    of cooperative systems (both polarities)."""
    rng = np.random.default_rng(2026)
    checked = holds = fails = 0
    attempts = 0
    while checked < 24 and attempts < 200:
        attempts += 1
        n = int(rng.integers(2, 4))
        cells = int(rng.integers(10, 15))
        pattern = rng.choice(["irreducible", "triangular", "diagonal"])
        m = [[0.0] * n for _ in range(n)]
        if pattern == "irreducible":
            for i in range(n):
                m[i][(i + 1) % n] = -float(rng.uniform(0.2, 1.5))
                m[(i + 1) % n][i] = -float(rng.uniform(0.2, 1.5))
        elif pattern == "triangular":
            for i in range(1, n):
                m[i][int(rng.integers(0, i))] = -float(rng.uniform(0.2, 1.5))
        grid = build_grid(1, (0.0,), (1.0,), (cells,))
        ops = tuple(op_of(1, c=float(rng.uniform(-14.0, 6.0))) for _ in range(n))
        spec = system_of(grid, ops, m=[[str(v) for v in row] for row in m])
        assert n * (cells - 1) <= 600
        v = certify(spec)
        if not v.eigen or min(abs(p.value) for p in v.eigen.values()) <= 1e-6:
            continue
        assert v.kind.startswith(("Holds", "Fails")), (v.kind, v.notes)
        assert v.oracle is not None
        agree = v.kind.startswith("Holds") == v.oracle.inverse_positive
        assert agree, (pattern, v.kind, v.oracle.min_entry)
        # certify's own rule must reach the same answer
        assert v.cross_check["result"] == "agrees", (pattern, v.kind, v.cross_check)
        checked += 1
        if v.kind.startswith("Holds"):
            holds += 1
        else:
            fails += 1
    assert checked >= 20
    assert holds > 0 and fails > 0
    print(
        f"acceptance 4: PASS {checked} systems agree with the oracle "
        f"({holds} hold, {fails} fail)"
    )


def test_acceptance_5_failure_reproduction():
    spec = bundled("thm6_failure.prob")
    v = certify(spec)
    assert v.kind == "FailsThm6"
    assert v.j == 1
    cex = v.counterexample
    assert cex.verified
    assert cex.residual_max <= 0.0
    assert cex.w.interior.min() >= 0.0
    assert cex.w.interior.max() == pytest.approx(1.0)
    assert v.oracle is not None
    assert v.oracle.inverse_positive is False
    print(
        f"acceptance 5: PASS FailsThm6 j=1 lambda={v.value:.6f} "
        f"residual_max={cex.residual_max:.3e} oracle=False"
    )


def test_acceptance_6_competitive_pair_margins():
    spec = bundled("competitive17.prob")
    v = certify(spec)
    assert v.kind == "HoldsThm4"
    lam = v.eigen["j=1"].value
    assert lam == pytest.approx(2.0, rel=0.02)
    assert v.eigen["j=2"].value == pytest.approx(lam, abs=1e-9)
    assert v.margins["common_point"] == pytest.approx(2.5, rel=0.02)
    assert v.margins["pointwise_diag"] == pytest.approx(2.0, rel=0.02)
    assert v.gauge == (1, -1)
    assert v.oracle_gauged is not None
    assert v.oracle_gauged.inverse_positive is True
    # the Holds is claimed in the gauge order, where the gauged oracle agrees
    assert v.order == (1, -1)
    assert v.cross_check["result"] == "agrees"
    # the plain-order result is recorded without an agreement assertion
    assert v.oracle is not None
    assert isinstance(v.oracle.inverse_positive, bool)
    print(
        f"acceptance 6: PASS HoldsThm4 lambda={lam:.6f} "
        f"margins=({v.margins['common_point']:.4f}, "
        f"{v.margins['pointwise_diag']:.4f}) gauge=(1,-1) "
        f"gauged_oracle=True plain_oracle={v.oracle.inverse_positive}"
    )


def test_acceptance_7_predator_prey_construction():
    spec = bundled("predator_prey.prob")
    v = certify(spec)
    assert v.kind == "HoldsThm5"
    lam1 = v.eigen["j=1"].value
    lam2 = v.eigen["j=2"].value
    assert lam1 == pytest.approx(1.0, rel=0.01)
    assert lam2 == pytest.approx(1.0, rel=0.01)
    # epsilon is half the smallest strict slack, here the eigenvalue of
    # the strictly ordered species
    assert v.epsilon == pytest.approx(0.5 * lam2, rel=1e-9)
    assert v.wtilde is not None
    assert v.wtilde.interior.min() > 0.0
    print(
        f"acceptance 7: PASS HoldsThm5 lambda=({lam1:.6f}, {lam2:.6f}) "
        f"epsilon={v.epsilon:.6f} wtilde_min={v.wtilde.interior.min():.3e}"
    )


def test_acceptance_8_quasilinear_reduction():
    # (a) a wrapped linear system linearizes back to itself
    grid = build_grid(1, (0.0,), (1.0,), (24,))
    spec = laplace_system(grid, n_species=2, m=[["0", "-1"], ["-1", "0"]])
    qs = from_linear_system(spec)
    zero = np.zeros((2, grid.n_nodes))
    lin = linearize(qs, zero, zero)
    ds = lin.to_discrete()
    ds0 = spec.discretize()
    coeff_err = max(
        float(np.abs(ds.a_vals - ds0.a_vals).max()),
        float(np.abs(ds.b_vals - ds0.b_vals).max()),
        float(np.abs(ds.m_vals - ds0.m_vals).max()),  # c = 0 here
    )
    assert coeff_err <= 1e-12
    direct = certify(spec, Settings(with_oracle=False))
    via = check_thm8(qs, zero, zero, Settings(with_oracle=False))
    assert direct.kind == via.kind == "HoldsThm1"
    # (b) segment-averaged Jacobians match hand integrals on the
    # nonlinear demo: flux = (1 + u^2) p, F1 = u1 u2
    from elcomp.expressions import parse_expr
    from elcomp.quasilinear import QuasiSpec

    demo = QuasiSpec(
        grid,
        ((parse_expr("(1 + u ^ 2) * p1"),), (parse_expr("p1"),)),
        (parse_expr("u1 * u2"), parse_expr("0.5 * u2 - 0.2 * u1")),
        (parse_expr("0"), parse_expr("0")),
        (parse_expr("0"), parse_expr("0")),
    )
    u = np.vstack([np.ones(grid.n_nodes), 2.0 * np.ones(grid.n_nodes)])
    lin2 = linearize(demo, u, np.zeros_like(u))
    jac_err = max(
        float(np.abs(lin2.B[0, 0, 0] - 4.0 / 3.0).max()),
        float(np.abs(lin2.B[1, 0, 0] - 1.0).max()),
        float(np.abs(lin2.E[0, 0] - 1.0).max()),
        float(np.abs(lin2.E[0, 1] - 0.5).max()),
        float(np.abs(lin2.E[1, 0] + 0.2).max()),
        float(np.abs(lin2.E[1, 1] - 0.5).max()),
    )
    assert jac_err <= 1e-14
    print(
        f"acceptance 8: PASS round_trip_err={coeff_err:.2e} "
        f"jacobian_err={jac_err:.2e} verdict={via.kind}"
    )


def test_acceptance_9_report_determinism(tmp_path):
    identical = 0
    for name in BUNDLED:
        ref = resources.files("elcomp.data") / name
        problem = tmp_path / name
        problem.write_text(ref.read_text())
        outs = []
        for run_ix in (0, 1):
            out = tmp_path / f"{name}.{run_ix}.json"
            main(["certify", str(problem), "--json", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("timings")
            outs.append(json.dumps(payload, sort_keys=True, indent=2))
        assert outs[0] == outs[1], name
        identical += 1
    print(f"acceptance 9: PASS {identical} bundled reports byte-stable")
