"""Spans and counts around elcomp's public functions, installed from outside.

The program has no tracing of its own yet, so the benchmark wraps the
public functions of each module.  Modules import names by value
(`from .spectral import principal_eigenpair`), so a wrapper replaces the
function at every import site: each loaded `elcomp*` module attribute that
is the original object.  `elcomp.certify` is the function re-exported by
the package, so modules are looked up in sys.modules, never by attribute.

A span records name, start, end, parent span and op id.  Spans stay in
memory; run.py writes them out once the run ends.  Self time of a span is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


def _eigen(tracer, args, pair, err):
    a = args[0]
    iterations = pair.iterations if err is None else getattr(err, "iterations", None) or 0
    tracer.counts["spectral.eigen_calls"] += 1
    tracer.counts["spectral.matvecs"] += iterations
    tracer.counts["spectral.matvec_flops"] += 2 * a.nnz * iterations
    if err is not None and type(err).__name__ == "NoConvergence":
        tracer.counts["spectral.noconvergence"] += 1
    csr = a.tocsr()
    digest = hashlib.blake2b(digest_size=16)
    for part in (repr(csr.shape).encode(), csr.indptr, csr.indices, csr.data):
        digest.update(part)
    tracer.operators.add((tracer.op, digest.hexdigest()))


def _count(key, amount=lambda args, result: 1):
    def hook(tracer, args, result, err):
        if err is None:
            tracer.counts[key] += amount(args, result)

    return hook


def _assemble(tracer, args, asys, err):
    if err is None:
        tracer.counts["assembly.assemble_calls"] += 1
        tracer.counts["assembly.nnz"] += asys.A.nnz


def _oracle(tracer, args, report, err):
    if err is None:
        tracer.counts["oracle.calls"] += 1
        tracer.counts["oracle.dof"] += args[0].A.shape[0]


def _sample(tracer, args, values, err):
    if err is None:
        tracer.counts["expressions.sample_calls"] += 1
        tracer.counts["expressions.nodes_sampled"] += len(values)


def _certify(tracer, args, verdict, err):
    if err is None and any(n.startswith("oracle skipped") for n in verdict.notes):
        tracer.counts["oracle.skipped"] += 1


# (module, attribute, span name or None for a count-only hook, hook).
# sample_field gets no span: its time stays in assembly.discretize, the
# layer that drives the sampling.
TARGETS = [
    ("elcomp.cli", "main", "cli.main", None),
    ("elcomp.problems", "load_problem", "problems.load_problem", None),
    ("elcomp.assembly", "SystemSpec.discretize", "assembly.discretize", None),
    ("elcomp.expressions", "sample_field", None, _sample),
    ("elcomp.assembly", "DiscreteSystem.assemble", "assembly.assemble", _assemble),
    ("elcomp.spectral", "principal_eigenpair", "spectral.principal_eigenpair", _eigen),
    ("elcomp.graphs", "tarjan_scc", "graphs.tarjan_scc", _count("graphs.scc_calls")),
    ("elcomp.certify", "certify", "certify.certify", _certify),
    ("elcomp.certify", "classify_structure", "certify.classify_structure", None),
    ("elcomp.certify", "find_gauge", "certify.find_gauge", None),
    ("elcomp.certify", "check_failure", "certify.check_failure", None),
    ("elcomp.certify", "check_thm1", "certify.check_thm1", None),
    ("elcomp.certify", "check_thm3", "certify.check_thm3", None),
    ("elcomp.certify", "check_thm4", "certify.check_thm4", None),
    ("elcomp.certify", "check_thm5", "certify.check_thm5", None),
    ("elcomp.oracle", "inverse_positivity", "oracle.inverse_positivity", _oracle),
    ("elcomp.oracle", "solve_system", "oracle.solve_system", None),
    (
        "elcomp.linalg",
        "dense_inverse",
        "linalg.dense_inverse",
        _count("linalg.dense_inverse_bytes", lambda args, inv: inv.nbytes),
    ),
    ("elcomp.linalg", "LuFactor.__init__", "linalg.lu_factor", _count("linalg.lu_factorizations")),
    ("elcomp.linalg", "lu_solve", "linalg.lu_solve", None),
    ("elcomp.quasilinear", "linearize", "quasilinear.linearize", None),
    ("elcomp.quasilinear", "check_thm8", "quasilinear.check_thm8", None),
    ("elcomp.fields", "load_block", "fields.load_block", None),
    ("elcomp.fields", "save_fields", "fields.save_fields", None),
]

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "spectral.eigen_s": ["spectral.principal_eigenpair"],
    "oracle.inverse_positivity_s": ["oracle.inverse_positivity"],
    "linalg.dense_inverse_s": ["linalg.dense_inverse"],
    "assembly.discretize_s": ["assembly.discretize"],
    "assembly.assemble_s": ["assembly.assemble"],
    "linalg.lu_s": ["linalg.lu_factor", "linalg.lu_solve"],
    "oracle.solve_system_s": ["oracle.solve_system"],
    "graphs.scc_s": ["graphs.tarjan_scc"],
    "certify.classify_s": ["certify.classify_structure"],
    "certify.gauge_s": ["certify.find_gauge"],
    "certify.failure_scan_self_s": ["certify.check_failure"],
    "certify.route_self_s": [f"certify.check_thm{k}" for k in (1, 3, 4, 5)],
    "certify.pipeline_self_s": ["certify.certify"],
    "quasilinear.linearize_s": ["quasilinear.linearize"],
    "quasilinear.thm8_self_s": ["quasilinear.check_thm8"],
    "fields.load_s": ["fields.load_block"],
    "fields.save_s": ["fields.save_fields"],
    "problems.load_s": ["problems.load_problem"],
    "cli.self_s": ["cli.main"],
}

# exact counts; matvec_flops (2 nnz per matvec) and dense_inverse_bytes
# (8 dof^2) are computed from array sizes, not measured
COUNTS = [
    "spectral.eigen_calls",
    "spectral.matvecs",
    "spectral.matvec_flops",
    "spectral.noconvergence",
    "oracle.calls",
    "oracle.dof",
    "oracle.skipped",
    "linalg.dense_inverse_bytes",
    "expressions.sample_calls",
    "expressions.nodes_sampled",
    "assembly.assemble_calls",
    "assembly.nnz",
    "linalg.lu_factorizations",
    "graphs.scc_calls",
]


class Tracer:
    """Collects spans and counts while installed; restore() undoes the wrapping."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.operators: set = set()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is not None:
                parent = self._stack[-1] if self._stack else -1
                span = Span(name, 0.0, 0.0, parent, self.op)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span.start = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                if name is not None:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if hook is not None:
                    hook(self, args, result, error)

        return wrapper

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "elcomp" or key.startswith("elcomp."))
        ]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict:
        """Per-layer self times (s) and counts over every span recorded."""
        child_time = Counter()
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_time = Counter()
        for index, span in enumerate(self.spans):
            self_time[span.name] += span.end - span.start - child_time[index]
        out = {m: sum((self_time[n] for n in names), 0.0) for m, names in SELF_TIME.items()}
        out.update({key: self.counts[key] for key in COUNTS})
        calls = self.counts["spectral.eigen_calls"]
        # distinct operators per op over eigen solves; 1.0 when nothing is solved
        out["spectral.unique_operator_ratio"] = len(self.operators) / calls if calls else 1.0
        return out

    def span_records(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
