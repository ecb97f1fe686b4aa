"""elcomp benchmark: closed-loop CLI ops on generated problems, in one process.

Run from the root of an elcomp checkout:

    python3 perfbench/run.py --workload eigen-1d-fine --seed 1 --seconds 20 --trace 0

One client calls `elcomp.cli.main([...])` in-process with `--json`; the
next op starts when the previous one returns.  An op is one `certify`,
`solve` or `thm8` call.  Inputs are generated from --seed (workloads.py)
and every answer is checked (checks.py).

--trace 0 runs whole cycles of the workload's ops until --seconds of wall
time have passed, with the reference kernel (reference.py) timed between
ops, then checks the answers and reports the end-to-end metrics, times in
reference seconds.  --trace 1 alternates untraced and traced passes over one cycle
(at least one of each, until --seconds of op time), runs the workload's
count rungs once, and reports per-layer self times and counts for one
traced pass, plus the tracing overhead; spans are written to
perfbench/_traces/.
--workload all runs every workload, each in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means no elcomp source tree
was found in the working directory.
"""

import os

# One thread for BLAS and for elcomp, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ELCOMP_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import Checker
from reference import REF_SECONDS, Reference
from spans import Tracer

SETUP_REPS = 3
IMPORT = "import sys; sys.path.insert(0, 'src'); import elcomp.cli"


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(root: Path) -> dict:
    """Machine, versions and source identity recorded next to the numbers."""
    import numpy
    import scipy

    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read(base + "level").strip(), _read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    source = hashlib.sha256()
    for path in sorted((root / "src" / "elcomp").rglob("*.py")):
        source.update(path.read_bytes())
    head = _read(str(root / ".git" / "HEAD")).strip()
    commit = _read(str(root / ".git" / head[5:])).strip() if head.startswith("ref: ") else head
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu[0] if cpu else platform.processor(),
        **caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or None,
        "source_sha256": source.hexdigest()[:16],
        "threads": 1,
    }


@dataclass
class Op:
    """One CLI call as it ran; its answer is read and checked after the timing."""

    case: workloads.Case
    rc: int | None
    seconds: float
    error: str | None
    report: Path
    out: Path | None  # the field a `solve` wrote
    ref: float | None = None  # mean reference-kernel time just before and just after the op

    @property
    def ref_seconds(self) -> float:
        """The op's latency in reference seconds (reference.py)."""
        return self.seconds * REF_SECONDS / self.ref


def run_op(case, work: Path, index: int) -> Op:
    """One CLI call, writing its own report (and field) under work."""
    cli = sys.modules["elcomp.cli"]
    report = work / f"op{index}.json"
    out = work / f"op{index}.field" if case.expect.get("solve") else None
    argv = [*case.argv, "--json", str(report), *(["--out", str(out)] if out else [])]
    sink = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as err:  # an uncaught exception is a failed op, not a crash
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
    return Op(case, rc, seconds, error, report, out)


class Bench:
    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.checker = Checker()
        self.reference = Reference()
        self.started = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, case, tracer=None) -> Op:
        index, self.started = self.started, self.started + 1
        if tracer is not None:
            tracer.op = index
            tracer.install()
        try:
            return run_op(case, self.work, index)
        finally:
            if tracer is not None:
                tracer.restore()

    def check(self, ops) -> None:
        """Check every answer and count the failures; slot order lets a solve check reuse its system."""
        for op in sorted(ops, key=lambda o: o.case.slot):
            report = json.loads(op.report.read_text()) if op.report.exists() else None
            problems = self.checker.check(op.case, op.rc, report, op.error, op.out)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append(f"{op.case.slot}: {'; '.join(problems)}")
            op.report.unlink(missing_ok=True)
            if op.out is not None:
                op.out.unlink(missing_ok=True)
        self.checker.release()

    def setup(self):
        """Set up SETUP_REPS times; return the cycle and each set-up's (raw, reference) seconds.

        One set-up is: start a fresh interpreter that imports elcomp (numpy,
        scipy), generate the problem files, run the workload's small warm-up
        op (workloads.warmup).  Answer checks are not part of it.  The
        reference kernel runs just before and just after each set-up.
        """
        times, warmups = [], []
        for rep in range(SETUP_REPS):
            before = self.reference()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT], cwd=self.root, check=True)
            cases = workloads.build(self.args.workload, self.args.seed, self.root, self.work / f"setup{rep}")
            warmups.append(self.run(workloads.warmup(self.args.workload, self.root)))
            raw = time.perf_counter() - t0
            times.append((raw, raw * REF_SECONDS / ((before + self.reference()) / 2)))
        self.check(warmups)
        self.warmup_failures = self.failures
        self.attempted, self.failed, self.failures = 0, 0, []
        self.checker = Checker()
        return cases, times

    def timed(self, cases):
        """Whole cycles until --seconds of wall time, so every run has the same mix.

        The reference kernel runs before the first op and after each op.
        Returns the ops and the wall time of this timed phase; the answers
        are checked afterwards, outside it.
        """
        ops = []
        ref = self.reference()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.args.seconds:
            for case in cases:
                op = self.run(case)
                after = self.reference()
                op.ref, ref = (ref + after) / 2, after
                ops.append(op)
        return ops, time.perf_counter() - t0

    def traced(self, cases):
        """Alternate untraced and traced passes; per-layer metrics of one traced pass.

        The workload's count rungs then run once, untraced, so that the
        checker sees their exact matvec counts.
        """
        plain, traced, layers, tracers, ops = [], [], [], [], []
        while not (plain and traced and sum(plain) + sum(traced) >= self.args.seconds):
            tracer = Tracer() if len(plain) > len(traced) else None
            t0 = time.perf_counter()
            ops += [self.run(case, tracer) for case in cases]
            seconds = time.perf_counter() - t0
            if tracer is None:
                plain.append(seconds)
                continue
            traced.append(seconds)
            tracers.append(tracer)
            layers.append(tracer.layer_metrics())
        rungs = workloads.count_rungs(self.args.workload, self.root, self.work / "rungs")
        ops += [self.run(case) for case in rungs]
        self.check(ops)
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
        if any(c != counts[0] for c in counts):
            self.failed += 1
            self.failures.append(f"trace: counts differ between traced passes: {counts}")
        metrics = dict(layers[0])
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        return metrics, tracers, plain, traced


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, root: Path) -> int:
    work = root / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args, root, work)
    try:
        cases, setups = bench.setup()
        env = environment(root)
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(
            f"workload {args.workload} seed {args.seed}: cycle of {len(cases)} ops "
            f"({', '.join(c.slot for c in cases)}); closed loop, 1 client"
        )
        if args.trace:
            metrics, tracers, plain, traced = bench.traced(cases)
            units = {k: v["unit"] for k, v in declared(root, "per_layer").items()}
            print(f"passes: untraced {[round(s, 3) for s in plain]} s, traced {[round(s, 3) for s in traced]} s")
            pass_s = metrics["trace.pass_s"]
            for name, value in metrics.items():
                share = f"  ({value / pass_s:.1%} of op time)" if name.endswith("_s") and name != "trace.pass_s" else ""
                print(f"  {name:32s} {_fmt(value):>14s} {units.get(name, '?')}{share}")
            out_dir = root / "perfbench" / "_traces"
            out_dir.mkdir(parents=True, exist_ok=True)
            spans = [tr.span_records() for tr in tracers]
            (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"env": env, "slots": [c.slot for c in cases], "passes": spans}) + "\n"
            )
        else:
            ops, wall = bench.timed(cases)
            # read before the checks, which assemble systems of their own
            rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                      - bench.reference.footprint_bytes) / 2**20
            bench.check(ops)
            for case in cases:
                times = [f"{op.ref_seconds:.3f}/{op.seconds:.3f}" for op in ops if op.case is case]
                print(f"  {case.slot:28s} {' '.join(times)} s (reference/raw)")
            metrics = end_to_end(ops, wall, setups, rss_mb, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(bench.checker.summary())
    for line in bench.warmup_failures + bench.failures:
        print(f"FAILED {line}")
    correct = bench.failed == 0 and not bench.warmup_failures
    kind = "per_layer" if args.trace else "end_to_end"
    spec = declared(root, kind)
    if set(metrics) != set(spec):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(spec))} disagree with BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": spec[k]["unit"]} for k in spec},
    }
    print(json.dumps(result))
    return 0


def end_to_end(ops, wall, setups, rss_mb, bench) -> dict:
    """Gated metrics (BENCHMARK.json end_to_end); tail and failed_frac are printed only.

    Times are in reference seconds (reference.py); raw seconds are printed
    beside them.  Throughput is completed ops over their summed op time:
    the wall time of the timed phase also holds the reference samples.
    The tail is the highest percentile with ten samples beyond it.  A run
    holds 6-40 ops, so that percentile is often at or below the median;
    the maximum is printed then.  failed_frac is 0 on a correct program.
    Neither can carry a bound.
    """
    n = len(ops)
    ranked = sorted(op.ref_seconds for op in ops)
    if n > 20:
        tail = ranked[n - 11]
        tail_note = f"p{100 * (n - 10) / n:.0f}, n={n}, 10 beyond; not gated"
    else:
        tail, tail_note = ranked[-1], f"max, n={n}: no percentile above p50 has 10 beyond; not gated"
    raw = [op.seconds for op in ops]
    metrics = {
        "throughput_ops_s": n / sum(op.ref_seconds for op in ops),
        "latency_p50_s": statistics.median(ranked),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": rss_mb,
    }
    speed = statistics.median(REF_SECONDS / op.ref for op in ops)
    rows = [
        ("throughput_ops_s", "ops/s", f"{n} ops / summed op time; raw {n / sum(raw):.4g} ops/s, "
                                      f"{n / wall:.4g} over the {wall:.1f} s timed phase"),
        ("latency_p50_s", "s", f"median, n={n}; raw {statistics.median(raw):.4g} s"),
        ("latency_tail_s", "s", tail_note),
        ("failed_frac", "ratio", f"{bench.failed} / {n}; not gated"),
        ("setup_s", "s", "median of " + ", ".join(f"{ref:.3f}" for _, ref in setups)
                         + "; raw " + ", ".join(f"{r:.3f}" for r, _ in setups)),
        ("peak_rss_mb", "MB", "ru_maxrss at the end of the timed phase, less the reference kernel's arrays"),
    ]
    shown = {**metrics, "latency_tail_s": tail, "failed_frac": bench.failed / n}
    print(f"  times in reference seconds; host ran at {speed:.3f}x reference speed (median over ops)")
    for name, unit, note in rows:
        print(f"  {name:18s} {shown[name]:>12.6g} {unit:6s} ({note})")
    return metrics


def declared(root: Path, kind: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and set-up stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    needed = ["src/elcomp/__init__.py", "tests/golden", "BENCHMARK.json"]
    missing = [p for p in needed if not (root / p).exists()]
    if missing:
        print(f"perfbench: not an elcomp checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import elcomp.cli  # noqa: F401

    if Path(sys.modules["elcomp"].__file__).resolve().parent != (root / "src" / "elcomp").resolve():
        print("perfbench: elcomp was not imported from ./src", file=sys.stderr)
        return 2
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
