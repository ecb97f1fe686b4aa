"""Seeded inputs for the three benchmark workloads.

A workload is a fixed cycle of slots.  Each slot fixes the command, the
grid size, the species count and the coupling class; the seed only picks
coefficient values inside ranges chosen so that the work an op does (eigen
iterations, nodes sampled, dense-inverse size) barely moves between seeds.
Run-to-run medians then compare like with like, whatever the seed.

eigen-1d-fine
    `certify` on 1D problems of one or two species: the pure Laplacian
    (closed-form eigenvalue), a smooth scalar operator and a cooperative
    pair on 128 cells, triangular and diagonal pairs on 90 cells, sized so
    that every op costs about the same.  The shifted power iteration needs
    O(h^-2) matvecs, so eigen is ~98% of op time while sampling, assembly
    and the oracle (dof <= 254) do almost nothing.  The n=256 Laplacian
    runs once, in the traced run, to check its matvec count (COUNT_RUNGS).
    The n=512 rung is left out: it ends in NoConvergence (exit 3) today,
    and a workload must be one on which no op fails.
solve-2d-setup
    `solve --builtin --out` on three 2D two-species problems at 96^2 cells
    (18,050 dof) with variable and cross diffusion, convection and
    sign-changing coupling.  Per-node sampling and discretization (~56%),
    stencil assembly (~28%) and one sparse LU (~15%) do the work; there is
    no eigen solve and no oracle.  128^2 would match the ROADMAP's target
    size, but its runs would not fit the benchmark's time budget.
certify-2d-oracle
    The six bundled inputs (five `certify`, one `thm8` with its sub/super
    fields: irreducible cooperative, competitive, predator-prey, Thm 6
    failure, scalar), then seven seeded 2D `certify` problems just under
    the 2500-dof oracle budget: irreducible cooperative at 30^2,
    predator-prey at 34^2, competitive (gauge route, two dense inverses)
    at 35^2, triangular and diagonal at 28^2, a Thm 7 failure at 32^2 and
    an irreducible three-species system at 28^2.  Eigen and the dense
    oracle share the op time, with large vectors and moderate iteration
    counts.  Five bundled ops are far cheaper than the rest; the triangular,
    diagonal and Thm 7 ops cost about the same and have five slots on each
    side, so the median op falls in the middle of their cluster.

The median of a run is taken over whole cycles.  An order statistic at the
edge of a cluster of similar ops moves with every op's noise, so each
cycle is laid out to put its median inside a cluster.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

PI = math.pi


@dataclass
class Case:
    """One op: the CLI argv (without --json and --out) and what its answer must satisfy.

    expect keys: verdict (exact kind), cooperative (oracle must agree with a
    Holds/Fails verdict), laplace (dim, n, side: closed-form eigenvalue must
    lie in cw), solve (reload the field and recompute the residual).
    """

    slot: str
    argv: list
    expect: dict = field(default_factory=dict)


def _num(v: float) -> str:
    return repr(round(v, 4))


def _problem(dim, n, species, coupling=None, side=1.0):
    lines = [
        "[domain]",
        f"dim = {dim}",
        "lo = " + " ".join(["0"] * dim),
        "hi = " + " ".join([repr(side)] * dim),
        "n = " + " ".join([str(n)] * dim),
        "",
    ]
    for k, keys in enumerate(species, 1):
        lines.append(f"[species {k}]")
        lines += [f"{key} = {val}" for key, val in keys.items()]
        lines.append("")
    if coupling:
        lines.append("[coupling]")
        lines += [f"{key} = {val}" for key, val in coupling.items()]
    return "\n".join(lines) + "\n"


def _smooth_1d(rng, amp):
    """Diffusion 1 + amp*sin^2(pi*x + phase): fixed amplitude, seeded phase.

    Higher wave numbers with a phase shift can double the power-iteration
    count, which would make the op's cost depend on the seed.
    """
    phase = rng.uniform(0.0, PI)
    return f"1 + {_num(amp)}*sin({_num(PI)}*x + {_num(phase)})^2"


def _smooth_2d(rng, amp):
    px, py = rng.uniform(0.0, PI), rng.uniform(0.0, PI)
    return (
        f"1 + {_num(amp)}*sin({_num(PI)}*x + {_num(px)})^2"
        f"*cos({_num(PI)}*y + {_num(py)})^2"
    )


def _data(rng):
    return {"f": _num(rng.uniform(0.5, 2.0)), "g": "0"}


# ------------------------------------------------------------ eigen-1d-fine


def _lap(n):
    return _problem(1, n, [{"f": "1"}])


def _eigen_1d(rng):
    scalar = _problem(
        1,
        128,
        [{"a11": _smooth_1d(rng, 0.2), "c": _num(rng.uniform(-4.0, 4.0)), **_data(rng)}],
    )
    # equal reactions keep the two branches of the coupled spectrum apart,
    # so the iteration count does not depend on the seed
    mu = rng.uniform(20.0, 30.0)
    c = _num(mu + rng.uniform(1.0, 3.0))
    coop = _problem(
        1,
        128,
        [{"c": c, **_data(rng)} for _ in range(2)],
        {"m12": _num(-mu), "m21": _num(-mu)},
    )
    tri = _problem(
        1,
        90,
        [{"a11": _smooth_1d(rng, 0.1), **_data(rng)}, {"c": _num(rng.uniform(0, 3)), **_data(rng)}],
        {"m21": _num(-rng.uniform(0.5, 3.0))},
    )
    diag = _problem(
        1,
        90,
        [{**_data(rng)}, {"a11": _smooth_1d(rng, 0.1), **_data(rng)}],
        {"m11": _num(-rng.uniform(0.5, 3.0)), "m22": _num(rng.uniform(0.5, 3.0))},
    )
    return [
        ("lap-128", _lap(128), {"laplace": (1, 128, 1.0)}),
        ("coop-pair-128", coop, {"cooperative": True}),
        ("scalar-smooth-128", scalar, {"cooperative": True}),
        ("tri-pair-90", tri, {"cooperative": True}),
        ("diag-pair-90", diag, {"cooperative": True}),
    ]


# ----------------------------------------------------------- solve-2d-setup


def _solve_2d(rng):
    out = []
    for i in range(3):
        species = []
        for _ in range(2):
            cross = rng.uniform(0.05, 0.15)
            species.append(
                {
                    "a11": _smooth_2d(rng, 0.5),
                    "a22": _smooth_2d(rng, 0.5),
                    "a12": _num(cross),
                    "a21": _num(cross),
                    "b1": f"{_num(rng.uniform(-2, 2))}*cos({_num(PI)}*y)",
                    "b2": f"{_num(rng.uniform(-2, 2))}*sin({_num(PI)}*x)",
                    "c": _num(rng.uniform(1.0, 3.0)),
                    "f": f"1 + {_num(rng.uniform(0, 1))}*x*y",
                    "g": f"{_num(rng.uniform(0, 0.5))}*(x - y)",
                }
            )
        coupling = {
            "m12": f"{_num(rng.uniform(0.3, 0.8))}*sin(2*{_num(PI)}*x)",
            "m21": f"{_num(-rng.uniform(0.3, 0.8))}*cos(2*{_num(PI)}*y)",
        }
        out.append((f"solve-96-{i}", _problem(2, 96, species, coupling), {"solve": True}))
    return out


# -------------------------------------------------------- certify-2d-oracle


BUNDLED = [
    ("cooperative_pair", "certify"),
    ("competitive17", "certify"),
    ("predator_prey", "certify"),
    ("thm6_failure", "certify"),
    ("lap1d", "certify"),
    ("quasilinear_demo", "thm8"),
]


def _certify_2d(rng):
    mu = rng.uniform(15.0, 25.0)
    c = _num(mu + rng.uniform(1, 5))
    coop = _problem(
        2,
        30,
        [{"a11": _smooth_2d(rng, 0.3), "a22": _smooth_2d(rng, 0.3), "c": c, **_data(rng)}
         for _ in range(2)],
        {"m12": _num(-mu), "m21": _num(-mu * rng.uniform(0.8, 1.0))},
    )
    predprey = _problem(
        2,
        34,
        [{**_data(rng)}, {"a11": _smooth_2d(rng, 0.3), **_data(rng)}],
        {"m12": _num(rng.uniform(0.3, 0.7)), "m21": _num(-rng.uniform(0.3, 0.7))},
        side=PI,
    )
    comp = _problem(
        2,
        35,
        [{"c": _num(rng.uniform(0, 1)), **_data(rng)} for _ in range(2)],
        {"m12": _num(rng.uniform(0.3, 0.7)), "m21": _num(rng.uniform(0.3, 0.7))},
        side=PI,
    )
    tri = _problem(
        2,
        28,
        [{"a11": _smooth_2d(rng, 0.3), **_data(rng)}, {"c": _num(rng.uniform(0, 3)), **_data(rng)}],
        {"m21": _num(-rng.uniform(0.5, 3.0))},
    )
    diag = _problem(
        2,
        28,
        [{**_data(rng)}, {"a22": _smooth_2d(rng, 0.3), **_data(rng)}],
        {"m11": _num(-rng.uniform(0.5, 3.0)), "m22": _num(rng.uniform(0.5, 3.0))},
    )
    nu = rng.uniform(15.0, 20.0)
    c7 = _num(nu - 2 * PI**2 - rng.uniform(2, 4))
    thm7 = _problem(
        2,
        32,
        [{"c": c7, **_data(rng)} for _ in range(2)],
        {"m12": _num(-nu), "m21": _num(-nu)},
    )
    mu3 = rng.uniform(15.0, 20.0)
    c3 = _num(2 * mu3 + rng.uniform(1, 3))
    three = _problem(
        2,
        28,
        [{"c": c3, **_data(rng)} for _ in range(3)],
        {"m12": _num(-mu3), "m23": _num(-mu3), "m31": _num(-mu3),
         "m21": _num(-mu3), "m32": _num(-mu3), "m13": _num(-mu3)},
    )
    return [
        ("coop-pair-30", coop, {"cooperative": True}),
        ("predprey-34", predprey, {}),
        ("competitive-35", comp, {}),
        ("tri-pair-28", tri, {"cooperative": True}),
        ("diag-pair-28", diag, {"cooperative": True}),
        ("thm7-pair-32", thm7, {"cooperative": True}),
        ("three-coop-28", three, {"cooperative": True}),
    ]


GENERATORS = {
    "eigen-1d-fine": _eigen_1d,
    "solve-2d-setup": _solve_2d,
    "certify-2d-oracle": _certify_2d,
}


def build(workload: str, seed: int, root: Path, work: Path):
    """Write the workload's problem files under work and return its cycle."""
    return _cases(workload, GENERATORS[workload](random.Random(f"{workload}:{seed}")), root, work)


# Ops run once, in the traced run only, to check an exact count: the n=256
# Laplacian's matvecs (checks.BASELINE_MATVECS).  At 4x the cost of an
# eigen-1d-fine op it would take the timed cycle's median op out of the
# cluster of equal-cost ops.
COUNT_RUNGS = {"eigen-1d-fine": [("lap-256", _lap(256), {"laplace": (1, 256, 1.0)})]}


def warmup(workload: str, root: Path) -> Case:
    """The untimed op of each set-up: the small bundled cooperative pair, run
    with the workload's command so that the same code paths load."""
    problem = str(root / "src" / "elcomp" / "data" / "cooperative_pair.prob")
    if workload == "solve-2d-setup":
        return Case("warmup-cooperative_pair", ["solve", problem, "--builtin"], {"solve": True})
    golden = root / "tests" / "golden" / "cooperative_pair.certify.json"
    return Case("warmup-cooperative_pair", ["certify", problem], {"verdict": json.loads(golden.read_text())["verdict"]})


def count_rungs(workload: str, root: Path, work: Path):
    return _cases(workload, COUNT_RUNGS.get(workload, []), root, work, bundled=False)


def _cases(workload, slots, root, work, bundled=True):
    """Write the problem files of slots under work; bundled inputs come first."""
    work.mkdir(parents=True, exist_ok=True)
    data = root / "src" / "elcomp" / "data"
    golden = root / "tests" / "golden"
    cases = []
    if bundled and workload == "certify-2d-oracle":
        for name, command in BUNDLED:
            argv = [command, str(data / f"{name}.prob")]
            if command == "thm8":
                argv += ["--sub", str(data / f"{name}_sub.field"),
                         "--super", str(data / f"{name}_super.field")]
            report = json.loads((golden / f"{name}.{command}.json").read_text())
            expect = {"verdict": report["verdict"]}
            if name == "lap1d":
                expect["laplace"] = (1, 128, 1.0)
            cases.append(Case(f"bundled-{name}", argv, expect))
    for slot, text, expect in slots:
        path = work / f"{slot}.prob"
        path.write_text(text)
        argv = ["certify", str(path)]
        if expect.get("solve"):
            argv = ["solve", str(path), "--builtin"]
        cases.append(Case(slot, argv, expect))
    return cases
