"""Command-line interface: problem files in, verdicts and reports out.

Every command takes a problem file and --json PATH to dump a machine-readable
report; the JSON is stable across runs except for the timings block.  Other
flags come in groups, and a command takes only the groups it reads.  Exit
codes: 0 a verdict or report was produced; otherwise the failing error's
`exit_code` (2 input error, unreadable files included, 3 numerical failure,
4 unsupported structure).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import oracle as oracle_mod
from .assembly import as_discrete
from .certify import certify, check_failure, classify_structure, find_gauge
from .errors import ElcompError, StructureUnsupported, ValidationError
from .fields import block_from_solution, decode_text, load_block, save_fields
from .problems import parse_problem
from .quasilinear import QuasiSpec, check_thm8, linearize
from .settings import DEFAULT, MODES, Settings
from .spectral import component_eigen, cooperative_eigen


def _setting(name, kind):
    """argparse type of the setting name: kind(text), a usage error with
    Settings' reason when Settings refuses it ("argument --tol-eig: '0' is
    not finite and > 0").  It takes kind's name, which argparse quotes for
    unparsable text ("invalid float value")."""

    def parse(text):
        value = kind(text)
        try:
            Settings(**{name: value})
        except ValidationError as err:
            reason = str(err).removeprefix(f"{name}={value!r} ")
            raise argparse.ArgumentTypeError(f"{text!r} {reason}") from None
        return value

    parse.__name__ = kind.__name__
    return parse


def _settings(args) -> Settings:
    """The run settings of the flags a command reads; the rest default."""
    names = [f.name for f in dataclasses.fields(Settings)]
    return Settings(**{name: getattr(args, name) for name in names if name in args})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, built from the flag groups it reads.

    Built once per process, on the first call, and shared by every later
    call and by `main`: callers must not modify the parser it returns.
    """

    def group():
        return argparse.ArgumentParser(add_help=False)

    common = group()
    common.add_argument("problem", help="problem file")
    common.add_argument("--json", metavar="PATH", help="write a JSON report")
    eigen = group()
    eigen.add_argument(
        "--tol-eig", type=_setting("tol_eig", float), default=DEFAULT.tol_eig
    )
    eigen.add_argument(
        "--max-iter",
        type=_setting("max_iter", int),
        default=DEFAULT.max_iter,
        help="cap on the LU factorizations of each eigen run (the solves "
        "with a kept factorization are not counted)",
    )
    condition = group()
    condition.add_argument(
        "--tol-cond", type=_setting("tol_cond", float), default=DEFAULT.tol_cond
    )

    oracle = group()
    oracle.add_argument(
        "--oracle-max-dof",
        type=_setting("oracle_max_dof", int),
        default=DEFAULT.oracle_max_dof,
    )
    mode = group()
    mode.add_argument("--mode", choices=MODES, default=DEFAULT.mode)
    pair = group()
    pair.add_argument("--sub", required=True, metavar="FILE")
    pair.add_argument("--super", dest="sup", required=True, metavar="FILE")

    parser = argparse.ArgumentParser(
        prog="elcomp",
        description="comparison-principle certificates for weakly coupled "
        "elliptic systems",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, text, *groups):
        return commands.add_parser(name, help=text, parents=[common, *groups])

    sub = command(
        "certify", "run the full certificate pipeline", eigen, condition, oracle, mode
    )
    sub.add_argument("--no-oracle", dest="with_oracle", action="store_false")

    sub = command("eigen", "principal eigenvalue with enclosure", eigen)
    choice = sub.add_mutually_exclusive_group()
    choice.add_argument("--component", type=int, metavar="J")
    choice.add_argument("--cooperative", action="store_true")

    sub = command("oracle", "discrete inverse-positivity check", oracle)
    sub.add_argument("--gauge", action="store_true", help="apply the sign gauge")

    sub = command("solve", "solve the fully coupled system")
    rhs = sub.add_mutually_exclusive_group(required=True)
    rhs.add_argument("--rhs-from-file", metavar="FILE")
    rhs.add_argument("--builtin", action="store_true", help="use the problem data")
    sub.add_argument("--out", default="solution.field")

    sub = command("counterexample", "search failure certificates", eigen, condition)
    sub.add_argument("--out", help="write the counterexample field here")

    command("gauge", "species sign gauge, if one exists")
    command("linearize", "frozen coefficients for a pair", pair)
    thm8_groups = (pair, eigen, condition, oracle, mode)
    command("thm8", "quasilinear comparison for a pair", *thm8_groups)
    return parser


class _StderrHandler(logging.Handler):
    """Writes a record as "warning: elcomp.certify: ..." to sys.stderr as it
    is at the time, which a caller may have swapped since the last run."""

    def emit(self, record):
        try:
            line = f"{record.levelname.lower()}: {record.name}: {record.getMessage()}"
            print(line, file=sys.stderr)
        except Exception:
            self.handleError(record)


@functools.cache
def _log_to_stderr() -> None:
    """Sends elcomp's log records to _StderrHandler, installed once per process."""
    logging.getLogger("elcomp").addHandler(_StderrHandler())


def _digest(blobs) -> str:
    return "sha256:" + hashlib.sha256(b"".join(blobs)).hexdigest()


def _linear_spec(spec, command):
    if isinstance(spec, QuasiSpec):
        raise StructureUnsupported(
            f"{command} needs a linear problem; use thm8 --sub/--super for "
            "quasilinear systems"
        )
    return spec


def _quasi_spec(spec, command):
    if not isinstance(spec, QuasiSpec):
        raise StructureUnsupported(f"{command} needs a [quasilinear] problem")
    return spec


def _cmd_certify(args, spec):
    spec = _linear_spec(spec, "certify")
    verdict = certify(spec, _settings(args))
    print(f"verdict: {verdict.kind}")
    if verdict.theorem:
        print(f"theorem: {verdict.theorem}")
    for name, value in sorted(verdict.margins.items()):
        print(f"margin {name}: {value!r}")
    if verdict.value is not None:
        print(f"lambda: {verdict.value!r}")
    return verdict.to_json_dict()


def _cmd_eigen(args, spec):
    ds = as_discrete(_linear_spec(spec, "eigen"))
    if args.component is not None:
        pair = component_eigen(ds, args.component, _settings(args))
        which = f"component {args.component}"
    else:
        pair = cooperative_eigen(ds, _settings(args))
        which = "cooperative system"
    print(f"lambda ({which}): {pair.value!r}")
    print(f"enclosure: [{pair.cw[0]!r}, {pair.cw[1]!r}]")
    print(
        f"iterations: {pair.iterations}  solves: {pair.solves}  stopped: {pair.stopped}"
        f"  residual: {pair.residual:.3e}"
    )
    return {**pair.to_json_dict(), "component": args.component, "dof": len(pair.right)}


def _cmd_oracle(args, spec):
    ds = as_discrete(_linear_spec(spec, "oracle"))
    asys = ds.assembled("full")
    sigma = None
    reason = None
    if args.gauge:
        sigma, reason = find_gauge(ds)
        if sigma is None:
            raise StructureUnsupported(f"no sign gauge: {reason}")
    report = oracle_mod.decide(asys, sigma, _settings(args))
    print(f"inverse_positive: {report.inverse_positive}")
    if report.min_entry is not None:
        print(f"min entry: {report.min_entry!r}")
    print(f"boundary_monotone: {report.boundary_monotone} ({report.boundary_reason})")
    if report.counterexample is not None:
        print(f"counterexample: {report.counterexample.to_json_dict()}")
    if sigma is not None:
        print(f"gauge: {sigma}")
    return {
        "oracle": report.to_json_dict(),
        "gauge": list(sigma) if sigma else None,
        "gauge_reason": reason,
    }


def _cmd_solve(args, spec):
    ds = as_discrete(_linear_spec(spec, "solve"))
    asys = ds.assembled("full")
    if args.rhs_from_file:
        rhs_field = load_block(args.inputs["rhs_from_file"], ds.grid, ds.n_species)
        rhs = rhs_field.interior.reshape(-1)
        source = "file"
    else:
        rhs = None
        source = "builtin"
    u = oracle_mod.solve_system(asys, rhs=rhs)
    fld = block_from_solution(ds.grid, ds.n_species, u, asys.g_vec)
    save_fields(args.out, fld)
    f_vec = asys.f_vec if rhs is None else rhs
    residual = float(np.abs(asys.A @ u + asys.G @ asys.g_vec - f_vec).max())
    print(f"solved {asys.A.shape[0]} unknowns, residual {residual:.3e}")
    print(f"wrote {args.out}")
    return {
        "out": args.out,
        "rhs": source,
        "u_min": float(u.min()),
        "u_max": float(u.max()),
        "residual": residual,
    }


def _cmd_counterexample(args, spec):
    ds = as_discrete(_linear_spec(spec, "counterexample"))
    notes: list = []
    verdict = check_failure(ds, _settings(args), diagnostics=notes)
    if verdict is None:
        print("no verified failure certificate")
        return {
            "verdict": "Inconclusive",
            "notes": notes + ["no verified failure certificate"],
        }
    print(f"verdict: {verdict.kind} (species {verdict.j})")
    print(f"residual_max: {verdict.counterexample.residual_max:.3e}")
    if args.out:
        save_fields(args.out, verdict.counterexample.w)
        print(f"wrote {args.out}")
    out = verdict.to_json_dict()
    out["notes"] = out["notes"] + notes
    return out


def _cmd_gauge(args, spec):
    ds = as_discrete(_linear_spec(spec, "gauge"))
    sigma, reason = find_gauge(ds)
    if sigma is None:
        print(f"no gauge: {reason}")
    else:
        print(f"gauge: {sigma}")
    return {
        "gauge": list(sigma) if sigma is not None else None,
        "gauge_reason": reason,
    }


def _load_pair(args, qs):
    return [load_block(args.inputs[k], qs.grid, qs.n_species) for k in ("sub", "sup")]


def _cmd_linearize(args, spec):
    qs = _quasi_spec(spec, "linearize")
    u, v = _load_pair(args, qs)
    lin = linearize(qs, u, v)
    ds = lin.to_discrete()
    ell = ds.check_ellipticity()
    n = ds.n_species
    ids = ds.grid.interior_ids
    m_ranges = [
        [
            [float(ds.m_vals[k, l][ids].min()), float(ds.m_vals[k, l][ids].max())]
            for l in range(n)
        ]
        for k in range(n)
    ]
    structure = classify_structure(ds)
    print(f"ellipticity per species: {[[round(a, 6) for a in e] for e in ell]}")
    print(f"structure: {structure.kind}")
    return {
        "ellipticity": [[float(a), float(b)] for a, b in ell],
        "m_ranges": m_ranges,
        "structure": structure.to_json_dict(),
    }


def _cmd_thm8(args, spec):
    qs = _quasi_spec(spec, "thm8")
    u, v = _load_pair(args, qs)
    verdict = check_thm8(qs, u, v, _settings(args))
    print(f"verdict: {verdict.kind}")
    if verdict.theorem:
        print(f"theorem: {verdict.theorem}")
    return verdict.to_json_dict()


_COMMANDS = {
    "certify": _cmd_certify,
    "eigen": _cmd_eigen,
    "oracle": _cmd_oracle,
    "solve": _cmd_solve,
    "counterexample": _cmd_counterexample,
    "gauge": _cmd_gauge,
    "linearize": _cmd_linearize,
    "thm8": _cmd_thm8,
}


def main(argv=None) -> int:
    _log_to_stderr()
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    payload = {
        "command": args.command,
        "problem": args.problem,
        "tool_version": __version__,
        "errors": [],
    }
    exit_code = 0
    error = None
    try:
        # each input file is read once: its bytes, keyed by flag, are digested and parsed
        flags = [k for k in ("problem", "sub", "sup", "rhs_from_file") if getattr(args, k, None)]
        args.inputs = {k: Path(getattr(args, k)).read_bytes() for k in flags}
        payload["input_digest"] = _digest(args.inputs.values())
        spec = parse_problem(decode_text(args.inputs["problem"]))
        payload.update(_COMMANDS[args.command](args, spec))
    except ElcompError as err:
        error, exit_code = err, err.exit_code
    except OSError as err:
        error, exit_code = err, 2
    if error is not None:
        payload["errors"].append({"type": type(error).__name__, "message": str(error)})
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
    payload["timings"] = {"total_s": time.perf_counter() - started}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
