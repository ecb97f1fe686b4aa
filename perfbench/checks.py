"""Answer checks.  An op whose answer fails a check counts as failed.

- exit: the CLI returned 0 and wrote its JSON report.
- verdict: bundled inputs give the verdict kind frozen in tests/golden/.
- oracle: a generated cooperative problem with every |lambda| > 1e-6 gets
  Holds* exactly when the dense oracle finds the matrix inverse positive
  (the acceptance-4 rule; competitive and predator-prey problems are
  exempt, the ungauged oracle legitimately disagrees there).
- closed_form: on pure-Laplacian rungs the discrete eigenvalue
  sum_d 4 h^-2 sin^2(pi h / 2L) lies inside the reported enclosure cw.
- residual: for `solve`, the written field is reloaded and A u + G g - f
  is recomputed through the public API; the reported residual is ignored.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Matvecs (right + left) of one eigen solve on the pure Laplacian with the
# shifted power iteration, as measured when the benchmark was defined.  A
# faster eigen solver changes them legitimately, so a difference is
# reported next to the numbers, not counted as a wrong answer.
BASELINE_MATVECS = {128: 38164, 256: 152674}

RESIDUAL_RTOL = 1e-9


class Checker:
    def __init__(self):
        self.total = Counter()
        self.passed = Counter()
        self.matvecs = {}
        self._system = None  # (problem text, grid, species, assembled system) of the last solve checked

    def _record(self, name, ok, detail, failures):
        self.total[name] += 1
        if ok:
            self.passed[name] += 1
        else:
            failures.append(f"{name}: {detail}")

    def check(self, case, rc, report, error, out) -> list:
        """Failures of one op, as short strings; empty when the answer is right."""
        failures = []
        ok = error is None and rc == 0 and report is not None
        detail = error or (report or {}).get("errors") or f"exit code {rc}"
        self._record("exit", ok, detail, failures)
        if not ok:
            return failures
        expect = case.expect
        if "verdict" in expect:
            self._record(
                "verdict",
                report["verdict"] == expect["verdict"],
                f"{report['verdict']} != golden {expect['verdict']}",
                failures,
            )
        if expect.get("cooperative"):
            self._oracle(report, failures)
        if "laplace" in expect:
            self._closed_form(expect["laplace"], report, failures)
        if expect.get("solve"):
            self._residual(case, out, failures)
        return failures

    def _oracle(self, report, failures):
        lambdas = report["lambdas"].values()
        if not lambdas or min(abs(v) for v in lambdas) <= 1e-6:
            return
        kind = report["verdict"]
        oracle = report["oracle"]
        if not kind.startswith(("Holds", "Fails")) or oracle is None:
            self._record("oracle", False, f"{kind} with oracle {oracle}", failures)
            return
        self._record(
            "oracle",
            kind.startswith("Holds") == oracle["inverse_positive"],
            f"{kind} but inverse_positive={oracle['inverse_positive']}",
            failures,
        )

    def _closed_form(self, spec, report, failures):
        dim, n, side = spec
        h = side / n
        exact = dim * 4.0 / h**2 * math.sin(math.pi * h / (2.0 * side)) ** 2
        lo, hi = report["cw"]
        self._record("closed_form", lo <= exact <= hi, f"{exact!r} outside [{lo!r}, {hi!r}]", failures)
        if dim == 1 and n in BASELINE_MATVECS:
            self.matvecs[n] = sorted({e["iterations"] for e in report["eigen"].values()})

    def _residual(self, case, out, failures):
        from elcomp.assembly import as_discrete
        from elcomp.fields import load_block
        from elcomp.linalg import inf_norm
        from elcomp.problems import load_problem

        problem = case.argv[1]
        with open(problem, encoding="utf-8") as fh:
            text = fh.read()  # set-ups write the same problem under several paths
        if self._system is None or self._system[0] != text:
            self._system = None
            ds = as_discrete(load_problem(problem))
            self._system = (text, ds.grid, ds.n_species, ds.assemble("full"))
        _, grid, n_species, asys = self._system
        field = load_block(out, grid, n_species)
        u = field.interior.reshape(-1)
        g = field.boundary.reshape(-1)
        if not np.array_equal(g, asys.g_vec):
            self._record("residual", False, "boundary values differ from g", failures)
            return
        r = float(np.abs(asys.A @ u + asys.G @ g - asys.f_vec).max())
        scale = (
            inf_norm(asys.A) * float(np.abs(u).max())
            + inf_norm(asys.G) * float(np.abs(g).max())
            + float(np.abs(asys.f_vec).max())
        )
        self._record("residual", r <= RESIDUAL_RTOL * scale, f"{r:.3e} vs scale {scale:.3e}", failures)

    def release(self) -> None:
        """Drop the assembled system kept for the next solve check."""
        self._system = None

    def summary(self) -> str:
        parts = [f"{k} {self.passed[k]}/{self.total[k]}" for k in sorted(self.total)]
        line = "checks passed: " + ", ".join(parts)
        for n, seen in sorted(self.matvecs.items()):
            verdict = "matches" if seen == [BASELINE_MATVECS[n]] else "differs from"
            line += f"; lap-{n} matvecs per eigen solve {seen} {verdict} baseline {BASELINE_MATVECS[n]}"
        return line
