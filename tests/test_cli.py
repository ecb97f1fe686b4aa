"""Command line interface: exit codes, reports, file round trips."""

import argparse
import builtins
import contextlib
import hashlib
import io
import json
import logging
import math
import re
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from elcomp import cli, linalg
from elcomp.cli import main
from elcomp.errors import ElcompError
from elcomp.fields import block_from_solution, load_block, load_fields, save_fields
from elcomp.mesh import build_grid
from elcomp.problems import parse_problem

from helpers import system_text
from test_golden import DATA, _check

ROOT = Path(__file__).resolve().parents[1]

COOP = """
    [domain]
    dim = 1
    lo = 0
    hi = 1
    n = 16

    [species 1]
    f = 1

    [species 2]
    f = 1

    [coupling]
    m12 = -1
    m21 = -1
"""

# the species differ, and the weak coupling leaves the second eigenvalue
# close to the first
WEAK = """
    [domain]
    dim = 1
    lo = 0
    hi = 1
    n = 16

    [species 1]
    a11 = 1 + x

    [species 2]

    [coupling]
    m12 = -1e-4
    m21 = -1e-4
"""

COMPETITIVE = """
    [domain]
    dim = 1
    lo = 0
    hi = 3.141592653589793
    n = 24

    [species 1]

    [species 2]

    [coupling]
    m12 = 0.5
    m21 = 0.5
"""

FAILING = """
    [domain]
    dim = 1
    lo = 0
    hi = 3.141592653589793
    n = 32

    [species 1]
    c = -2

    [species 2]

    [coupling]
    m21 = -1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def data_text(name):
    return (resources.files("elcomp.data") / name).read_text()


def report(tmp_path, command, problem, *flags):
    out = tmp_path / "report.json"
    code = main([command, problem, "--json", str(out), *flags])
    return code, json.loads(out.read_text())


def test_certify_report_schema(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    code, payload = report(tmp_path, "certify", problem)
    assert code == 0
    assert payload["verdict"] == "HoldsThm1"
    assert payload["theorem"] == "Theorem 1"
    assert payload["command"] == "certify"
    assert payload["problem"] == problem
    assert payload["errors"] == []
    assert payload["input_digest"].startswith("sha256:")
    assert payload["tool_version"]
    assert "total_s" in payload["timings"]
    assert payload["structure"]["kind"] == "IrreducibleCooperativePart"
    assert payload["oracle"]["inverse_positive"] is True
    assert payload["lambda"] > 0
    assert payload["cw"][0] <= payload["lambda"] <= payload["cw"][1]


def test_certify_sharp_and_no_oracle(tmp_path):
    problem = write(tmp_path, "comp.prob", COMPETITIVE)
    code, payload = report(tmp_path, "certify", problem, "--mode", "sharp", "--no-oracle")
    assert code == 0
    assert payload["mode"] == "sharp"
    assert payload["oracle"] is None
    assert payload["verdict"] == "HoldsThm4"


def test_certify_gauged_oracle_disagrees_with_plain(tmp_path):
    problem = write(tmp_path, "comp.prob", COMPETITIVE)
    code, payload = report(tmp_path, "certify", problem)
    assert code == 0
    assert payload["gauge"] == [1, -1]
    assert payload["oracle_gauged"]["inverse_positive"] is True
    assert payload["oracle"]["inverse_positive"] is False


def test_exit_code_2_on_missing_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["certify", str(tmp_path / "nope.prob"), "--json", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["errors"][0]["type"] == "FileNotFoundError"
    assert "error:" in capsys.readouterr().err


def test_exit_code_2_on_parse_error(tmp_path):
    problem = write(tmp_path, "bad.prob", "[domain\n")
    code, payload = report(tmp_path, "certify", problem)
    assert code == 2
    assert payload["errors"][0]["type"] == "ParseError"


def test_exit_code_3_on_no_convergence(tmp_path):
    """The weakly coupled pair needs a second factorization, which
    --max-iter 1 does not allow."""
    problem = write(tmp_path, "weak.prob", WEAK)
    code, payload = report(tmp_path, "eigen", problem)
    assert code == 0 and payload["iterations"] > 1
    # the per-solve record of certify's eigen, and the command's own keys
    record = {"value", "cw", "iterations", "solves", "residual"}
    assert record | {"component", "dof"} <= set(payload) and "lambda" not in payload
    assert payload["component"] is None
    code, payload = report(tmp_path, "eigen", problem, "--max-iter", "1")
    assert code == 3
    assert payload["errors"][0]["type"] == "NoConvergence"
    assert "after 1 factorizations" in payload["errors"][0]["message"]


def test_fine_grids_stop_at_the_rounding_floor(tmp_path, capsys, caplog):
    """The n = 4096 Laplacian's sine, and the n = 8192 scalar problem's
    iterate after one LU, stop at the rounding floor above the width
    target: eigen prints it, and each of its runs logs one DEBUG record.
    Both used to exit 3 with a singular shift.  certify decides Holds where
    its run stops first: the Laplacian's sine at the floor, with a note and
    the same record, and the scalar problem's first solve, after one LU, on
    an enclosure far wider than the floor's (stopped decided, no note)."""
    caplog.set_level(logging.DEBUG, logger="elcomp.linalg")
    domain = "[domain]\ndim = 1\nlo = 0\nhi = 1\nn = {}\n[species 1]\nf = 1\n"
    lap = write(tmp_path, "lap.prob", domain.format(4096))
    scalar = write(tmp_path, "scalar.prob", domain.format(8192) + "a11 = 1 + 0.5*x\nc = 1\n")
    for problem, lus, stop in ((lap, 0, "floor"), (scalar, 1, "decided")):
        code, payload = report(tmp_path, "eigen", problem)
        assert code == 0 and (payload["stopped"], payload["iterations"]) == ("floor", lus)
        line = f"iterations: {lus}  solves: {payload['solves']}  stopped: floor"
        assert line in capsys.readouterr().out
        floor_width = payload["cw"][1] - payload["cw"][0]
        code, payload = report(tmp_path, "certify", problem)
        assert code == 0 and payload["verdict"] == "HoldsThm4"
        eigen = payload["eigen"]["j=1"]
        assert (eigen["stopped"], eigen["iterations"]) == (stop, lus)
        width = eigen["cw"][1] - eigen["cw"][0]
        note = f"eigen j=1 stopped at the rounding floor: width {width:.3e}"
        assert (note in payload["notes"]) == (stop == "floor")
        assert (width == floor_width) == (stop == "floor")
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.linalg"]
    assert len(messages) == 3
    for message, lus in zip(messages, (0, 0, 1)):
        assert message.startswith("enclosure stopped at the rounding floor: width ")
        assert message.endswith(f", {lus} LU(s)")


def test_exit_code_4_on_structure_errors(tmp_path):
    quasi = write(tmp_path, "q.prob", data_text("quasilinear_demo.prob"))
    code, payload = report(tmp_path, "certify", quasi)
    assert code == 4
    assert payload["errors"][0]["type"] == "StructureUnsupported"
    assert "thm8" in payload["errors"][0]["message"]
    # competitive pair with opposite signs has no gauge
    pred = write(tmp_path, "p.prob", data_text("predator_prey.prob"))
    code, payload = report(tmp_path, "oracle", pred, "--gauge")
    assert code == 4
    assert payload["errors"][0]["type"] == "StructureUnsupported"


def test_eigen_component_reports_z_position_as_certify_does(tmp_path, capsys):
    """eigen --component 2 names the non-Z entry by its species in the
    system, as certify's cooperative gate does, not by its place in the
    one-species block."""
    text = system_text((8, 8), [{}, {"a12": "0.9", "a21": "0.9"}])
    twisted = write(tmp_path, "twisted.prob", text)
    code, _ = report(tmp_path, "eigen", twisted, "--component", "2")
    assert code == 4
    assert "((2, 1), (2, 7))" in capsys.readouterr().err
    code, payload = report(tmp_path, "certify", twisted)
    assert code == 4
    assert "((2, 1), (2, 7))" in payload["errors"][0]["message"]


def test_eigen_closed_form(tmp_path, capsys, monkeypatch):
    """The grid's discrete sine is the Laplacian's eigenvector: the run
    closes on it before any LU, and the closed form lies in cw."""
    factorized = []
    init = linalg.LuFactor.__init__

    def counting(self, *args, **kwargs):
        factorized.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.LuFactor, "__init__", counting)
    problem = write(
        tmp_path,
        "lap.prob",
        """
        [domain]
        dim = 1
        lo = 0
        hi = 1
        n = 128

        [species 1]
        """,
    )
    code, payload = report(tmp_path, "eigen", problem, "--component", "1")
    assert code == 0
    h = 1.0 / 128
    exact = 4.0 / (h * h) * math.sin(math.pi * h / 2.0) ** 2
    assert payload["value"] == pytest.approx(exact, abs=1e-8)
    assert payload["cw"][0] <= payload["value"] <= payload["cw"][1]
    assert payload["cw"][0] <= exact <= payload["cw"][1]
    assert payload["component"] == 1
    assert payload["dof"] == 127
    assert payload["iterations"] == payload["solves"] == 0
    assert factorized == []
    assert payload["stopped"] == "target"
    counts = "iterations: 0  solves: 0  stopped: target"
    assert counts in capsys.readouterr().out


def test_eigen_flag_exclusivity(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    with pytest.raises(SystemExit):
        main(["eigen", problem, "--component", "1", "--cooperative"])


# a 9-point cooperative pair: A is Z in no order, for its cross terms, and
# G has positive values, so only the scan decides it
NINE_POINT = """
    [domain]
    dim = 2
    lo = 0 0
    hi = 1 1
    n = 8 8

    [species 1]
    a11 = 1 + x
    a12 = 0.1
    a21 = 0.1
    f = 1

    [species 2]
    a12 = 0.1
    a21 = 0.1
    f = 1

    [coupling]
    m12 = -1
    m21 = -1
"""


def test_oracle_prints_how_the_boundary_half_was_decided(tmp_path, capsys):
    """elcomp oracle prints boundary_monotone with its reason, which the
    JSON report carries as boundary_reason; above the dof budget a system
    that only the scan decides gets no boundary half, and the reason says
    so."""
    nine = write(tmp_path, "nine.prob", NINE_POINT)
    for problem, flags, line in (
        (str(DATA / "lap1d.prob"), [], "boundary_monotone: True (G <= 0 and A^-1 >= 0)"),
        (str(DATA / "thm6_failure.prob"), [], "boundary_monotone: None (A^-1 has a negative entry)"),
        (nine, [], "boundary_monotone: False (52 columns of -G solved)"),
        (nine, ["--oracle-max-dof", "0"],
         "boundary_monotone: None (A^-1 not scanned: 98 dof above the budget 0)"),
    ):
        code, payload = report(tmp_path, "oracle", problem, *flags)
        assert code == 0
        assert line in capsys.readouterr().out.splitlines()
        assert line.endswith(f"({payload['oracle']['boundary_reason']})")


def test_oracle_above_the_budget_searches_columns(tmp_path):
    """elcomp oracle climbs one ladder at any --oracle-max-dof: the gauged
    competitive pair is decided by the M-matrix check, and the plain one,
    Z in no order, is refuted by a middle column with a proven field
    (residual_max <= 0), below the budget and above it; exit 0 each.
    min_entry, the scan's, is null on both rungs.  The 9-point pair, which
    no column of A^{-1} refutes, is undecided above the budget (null, not a
    certificate); within it the scan finds A^{-1} >= 0 and refutes the
    boundary half with a proven field from a column of -G."""
    problem = str(DATA / "competitive17.prob")
    for budget in ("1057", "1058"):
        code, payload = report(tmp_path, "oracle", problem, "--oracle-max-dof", budget, "--gauge")
        oracle = payload["oracle"]
        assert code == 0 and oracle["method"] == "m-matrix" and oracle["dof"] == 1058
        assert oracle["inverse_positive"] is True and oracle["counterexample"] is None
        code, payload = report(tmp_path, "oracle", problem, "--oracle-max-dof", budget)
        oracle = payload["oracle"]
        assert code == 0 and oracle["method"] == "columns"
        assert oracle["inverse_positive"] is False
        assert (oracle["min_entry"], oracle["boundary_monotone"]) == (None, None)
        cex = oracle["counterexample"]
        assert cex["verified"] and cex["which"] == "oracle" and cex["residual_max"] <= 0.0
    nine = write(tmp_path, "nine.prob", NINE_POINT)
    code, payload = report(tmp_path, "oracle", nine, "--oracle-max-dof", "97")
    oracle = payload["oracle"]
    assert code == 0 and (oracle["method"], oracle["inverse_positive"]) == ("columns", None)
    assert oracle["min_entry"] is None and oracle["counterexample"] is None
    code, payload = report(tmp_path, "oracle", nine, "--oracle-max-dof", "98")
    oracle = payload["oracle"]
    assert code == 0 and oracle["method"] == "scan" and oracle["min_entry"] > 0.0
    assert (oracle["inverse_positive"], oracle["boundary_monotone"]) == (True, False)
    cex = oracle["counterexample"]
    assert cex["verified"] and cex["which"] == "oracle-boundary" and cex["residual_max"] <= 0.0


def test_solve_builtin_and_field_output(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    out_field = tmp_path / "u.field"
    out = tmp_path / "r.json"
    code = main(
        ["solve", problem, "--builtin", "--out", str(out_field), "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] < 1e-9
    assert payload["rhs"] == "builtin"
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    block = load_block(str(out_field), grid, 2)
    # cooperative coupling with f = 1 pushes the solution above the
    # uncoupled one, which is bounded by x(1-x)/2 peaks at 1/8
    assert block.values.max() > 0.125
    assert np.allclose(block.boundary, 0.0)


def test_solve_rhs_from_file(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    from elcomp.expressions import parse_expr
    from elcomp.fields import block_from_exprs, save_fields

    rhs = block_from_exprs(grid, [parse_expr("1"), parse_expr("0")])
    rhs_path = tmp_path / "rhs.field"
    save_fields(rhs_path, rhs)
    out_field = tmp_path / "u.field"
    out = tmp_path / "r.json"
    code = main(
        [
            "solve",
            problem,
            "--rhs-from-file",
            str(rhs_path),
            "--out",
            str(out_field),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rhs"] == "file"
    assert payload["residual"] < 1e-9
    # digest covers problem and rhs file
    assert payload["input_digest"].startswith("sha256:")


def test_solve_rhs_with_a_nan_is_an_input_error(tmp_path, capsys):
    """A nan in the right-hand side file is exit 2 at its line, not a
    singular matrix."""
    problem = write(tmp_path, "coop.prob", COOP)
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    from elcomp.expressions import parse_expr
    from elcomp.fields import block_from_exprs, save_fields

    rhs_path = tmp_path / "rhs.field"
    save_fields(rhs_path, block_from_exprs(grid, [parse_expr("1"), parse_expr("0")]))
    lines = rhs_path.read_text().splitlines()
    lines[5] = "nan"
    rhs_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    argv = ["solve", problem, "--rhs-from-file", str(rhs_path), "--out", str(tmp_path / "u.field")]
    code = main(argv + ["--json", str(out)])
    assert code == 2
    (error,) = json.loads(out.read_text())["errors"]
    assert error["type"] == "ParseError"
    assert "line 6" in capsys.readouterr().err


def test_solve_rhs_from_file_matches_builtin_on_a_2d_pair(tmp_path, caplog):
    """A 2D pair's own f, written as a field and read by --rhs-from-file,
    gives the field that --builtin writes, byte for byte; both runs take
    the species sweeps."""
    caplog.set_level(logging.DEBUG, logger="elcomp.oracle")
    species = [
        {"a11": "1 + x", "a12": "0.1", "a21": "0.1", "b1": "2", "c": "1", "f": "1 + x*y", "g": "x - y"},
        {"c": "2", "f": "sin(3*x)", "g": "y"},
    ]
    text = system_text((20, 16), species, {"m12": "-0.5", "m21": "0.3*x"})
    problem = tmp_path / "pair.prob"
    problem.write_text(text)
    asys = parse_problem(text).discretize().assembled("full")
    rhs = tmp_path / "f.field"
    save_fields(rhs, block_from_solution(asys.grid, asys.n_species, asys.f_vec, None))
    written = []
    for source in (["--builtin"], ["--rhs-from-file", str(rhs)]):
        out = tmp_path / f"u{len(written)}.field"
        assert main(["solve", str(problem), *source, "--out", str(out), "--json", str(tmp_path / "r.json")]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    messages = [r.getMessage() for r in caplog.records if r.name == "elcomp.oracle"]
    assert [m.startswith("solve reached the rounding floor in ") for m in messages] == [True, True]


def test_counterexample_writes_field(tmp_path):
    problem = write(tmp_path, "fail.prob", FAILING)
    out_field = tmp_path / "w.field"
    out = tmp_path / "r.json"
    code = main(
        ["counterexample", problem, "--out", str(out_field), "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "FailsThm6"
    assert payload["j"] == 1
    assert payload["counterexample"]["verified"] is True
    fields = load_fields(str(out_field))
    assert [f.name for f in fields] == ["u1", "u2"]
    assert fields[0].values.min() >= 0.0


def test_counterexample_none_found(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    code, payload = report(tmp_path, "counterexample", problem)
    assert code == 0
    assert payload["verdict"] == "Inconclusive"
    assert any("no verified failure" in n for n in payload["notes"])


def test_gauge_command(tmp_path):
    comp = write(tmp_path, "comp.prob", COMPETITIVE)
    code, payload = report(tmp_path, "gauge", comp)
    assert code == 0
    assert payload["gauge"] == [1, -1]
    assert payload["gauge_reason"] is None
    pred = write(tmp_path, "pred.prob", data_text("predator_prey.prob"))
    code, payload = report(tmp_path, "gauge", pred)
    assert code == 0
    assert payload["gauge"] is None
    assert payload["gauge_reason"].startswith("InconsistentPair")


def _demo_pair(tmp_path):
    problem = write(tmp_path, "q.prob", data_text("quasilinear_demo.prob"))
    sub = tmp_path / "sub.field"
    sup = tmp_path / "sup.field"
    sub.write_text(data_text("quasilinear_demo_sub.field"))
    sup.write_text(data_text("quasilinear_demo_super.field"))
    return problem, str(sub), str(sup)


def test_linearize_command(tmp_path):
    problem, sub, sup = _demo_pair(tmp_path)
    code, payload = report(
        tmp_path, "linearize", problem, "--sub", sub, "--super", sup
    )
    assert code == 0
    assert payload["structure"]["kind"] == "TriangularMinus"
    ell = payload["ellipticity"]
    assert len(ell) == 2
    assert ell[0][0] >= 1.0  # diffusion 1 + u^2 with u >= 0
    assert ell[1][0] == pytest.approx(1.0)
    assert payload["m_ranges"][1][0][1] <= 0.0


def test_thm8_command(tmp_path):
    problem, sub, sup = _demo_pair(tmp_path)
    code, payload = report(tmp_path, "thm8", problem, "--sub", sub, "--super", sup)
    assert code == 0
    assert payload["verdict"] == "HoldsThm5"
    assert payload["theorem"] == "Theorem 8 (via Theorem 5)"
    assert payload["epsilon"] > 0


def test_thm8_requires_quasilinear(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    grid = build_grid(1, (0.0,), (1.0,), (16,))
    from elcomp.expressions import parse_expr
    from elcomp.fields import block_from_exprs, save_fields

    f = tmp_path / "z.field"
    save_fields(f, block_from_exprs(grid, [parse_expr("0"), parse_expr("0")]))
    code, payload = report(
        tmp_path, "thm8", problem, "--sub", str(f), "--super", str(f)
    )
    assert code == 4
    assert payload["errors"][0]["type"] == "StructureUnsupported"


def test_report_determinism(tmp_path):
    problem = write(tmp_path, "comp.prob", COMPETITIVE)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["certify", problem, "--json", str(out1)]) == 0
    assert main(["certify", problem, "--json", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timings")
    b.pop("timings")
    assert a == b


@pytest.mark.parametrize(
    "value",
    ["\u00b3".encode(), "\u00b3".encode("latin-1")],
    ids=["superscript-digit", "not-utf8"],
)
def test_exit_code_2_on_bad_characters(tmp_path, value):
    problem = tmp_path / "bad.prob"
    head = "[domain]\ndim = 1\nlo = 0\nhi = 1\nn = 8\n[species 1]\nc = 2 + "
    problem.write_bytes(head.encode() + value + b"\n")
    code, payload = report(tmp_path, "certify", str(problem))
    assert code == 2
    assert payload["errors"][0]["type"] == "ParseError"


def test_problem_file_is_read_once(tmp_path, monkeypatch):
    """The digest and the parser take the same bytes from one read, and a
    byte that is not UTF-8 is still a ParseError at its offset."""
    problem = tmp_path / "bad.prob"
    head = b"[domain]\ndim = 1\nlo = 0\nhi = 1\nn = 8\n[species 1]\nc = 2 + "
    real, opened = io.open, []

    def counting(file, *args, **kwargs):
        opened.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    for tail, code in ((b"1\n", 0), (b"\xb3\n", 2)):
        problem.write_bytes(head + tail)
        opened.clear()
        rc, payload = report(tmp_path, "gauge", str(problem))
        assert rc == code
        assert opened.count(str(problem)) == 1
        digest = hashlib.sha256(head + tail).hexdigest()
        assert payload["input_digest"] == f"sha256:{digest}"
    assert payload["errors"][0]["message"].endswith(f"(line 7, offset {len(head)})")


def test_log_records_reach_stderr_formatted(capsys):
    """The cross-check's WARNING reaches stderr as one formatted line per
    run, from one handler, also when stderr was swapped in between, as an
    in-process caller that captures each run's output swaps it.  The
    competitive pair's Holds, claimed in its gauge order, agrees and logs
    nothing."""
    assert main(["certify", str(DATA / "competitive17.prob")]) == 0
    assert capsys.readouterr().err == ""
    problem = str(DATA / "predator_prey.prob")
    line = (
        "warning: elcomp.certify: HoldsThm5 disagrees with the oracle: "
        "inverse_positive False, boundary_monotone None (A^-1 has a negative entry)\n"
    )
    assert main(["certify", problem]) == 0
    assert capsys.readouterr().err == line
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        assert main(["certify", problem]) == 0
    assert sink.getvalue() == line
    assert capsys.readouterr().err == ""
    handlers = logging.getLogger("elcomp").handlers
    assert [type(h) for h in handlers] == [cli._StderrHandler]


def test_every_input_file_is_read_once(tmp_path, monkeypatch):
    """thm8's and linearize's --sub and --super and solve's --rhs-from-file
    are parsed from the bytes that the digest takes, each file opened once."""
    quasi = [str(DATA / f"quasilinear_demo{tail}") for tail in (".prob", "_sub.field", "_super.field")]
    coop = write(tmp_path, "coop.prob", COOP)
    rhs = tmp_path / "rhs.field"
    save_fields(rhs, block_from_solution(build_grid(1, (0.0,), (1.0,), (16,)), 2, np.ones(30), None))
    runs = [
        (["thm8", quasi[0], "--sub", quasi[1], "--super", quasi[2]], quasi),
        (["linearize", quasi[0], "--sub", quasi[1], "--super", quasi[2]], quasi),
        (["solve", coop, "--rhs-from-file", str(rhs), "--out", str(tmp_path / "u.field")], [coop, str(rhs)]),
    ]
    real, opened = io.open, []

    def counting(file, *args, **kwargs):
        opened.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    for argv, paths in runs:
        opened.clear()
        out = tmp_path / "r.json"
        assert main(argv + ["--json", str(out)]) == 0
        assert [opened.count(path) for path in paths] == [1] * len(paths)
        digest = hashlib.sha256(b"".join(Path(path).read_bytes() for path in paths))
        assert json.loads(out.read_text())["input_digest"] == f"sha256:{digest.hexdigest()}"


# the documented exit code of every error class; InfeasibleEpsilon never
# reaches the CLI (check_thm5 catches it) and counts as numerical
EXIT_CODES = {
    "ParseError": 2,
    "ValidationError": 2,
    "EvalDomainError": 2,
    "BadGridSpec": 2,
    "EmptySubdomain": 2,
    "DimMismatch": 2,
    "TooLarge": 2,
    "NoConvergence": 3,
    "SingularMatrix": 3,
    "InfeasibleEpsilon": 3,
    "StructureUnsupported": 4,
    "NotZMatrix": 4,
    "NotIrreducible": 4,
    "NonEllipticCoefficient": 4,
    "NonEllipticLinearization": 4,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_exits_with_its_code(tmp_path, monkeypatch, capsys):
    problem = write(tmp_path, "coop.prob", COOP)
    classes = list(_subclasses(ElcompError))
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:
        err = cls("injected")

        def fail(text, err=err):
            raise err

        monkeypatch.setattr(cli, "parse_problem", fail)
        code, payload = report(tmp_path, "gauge", problem)
        assert code == EXIT_CODES[cls.__name__], cls.__name__
        assert payload["errors"] == [{"type": cls.__name__, "message": str(err)}]
        assert f"error: {cls.__name__}: {err}" in capsys.readouterr().err


def test_readme_lists_every_error_class_under_its_code():
    rows = {
        int(code): row
        for code, row in re.findall(
            r"^\| `(\d)` \w+ \|(.*)$", (ROOT / "README.md").read_text(), re.M
        )
    }
    for name, code in EXIT_CODES.items():
        assert f"`{name}`" in rows[code], name


# the flags each command reads, besides the problem file and --json
READS = {
    "certify": ["--tol-eig", "--max-iter", "--tol-cond", "--oracle-max-dof", "--mode",
                "--no-oracle"],
    "eigen": ["--tol-eig", "--max-iter", "--component", "--cooperative"],
    "oracle": ["--oracle-max-dof", "--gauge"],
    "solve": ["--rhs-from-file", "--builtin", "--out"],
    "counterexample": ["--tol-eig", "--max-iter", "--tol-cond", "--out"],
    "gauge": [],
    "linearize": ["--sub", "--super"],
    "thm8": ["--sub", "--super", "--tol-eig", "--max-iter", "--tol-cond",
             "--oracle-max-dof", "--mode"],
}


def test_help_lists_only_the_flags_read(capsys):
    settable = 0
    for command, flags in READS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert shown == {"--help", "--json", *flags}, command
        settable += len(shown) - 1
    assert settable == 36


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "--mode", "sharp"],
        ["gauge", "--tol-eig", "1"],
        ["certify", "--seed", "1"],
        ["oracle", "--probe", "5", "--oracle-max-dof", "1"],
        ["oracle", "--seed", "5"],
    ],
)
def test_unread_flags_are_rejected(tmp_path, argv, capsys):
    problem = write(tmp_path, "coop.prob", COOP)
    with pytest.raises(SystemExit) as info:
        main([argv[0], problem, *argv[1:]])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


OUT_OF_RANGE = {
    "--tol-eig": ["nan", "inf", "-inf", "0", "-1e-3"],
    "--tol-cond": ["nan", "inf", "-1"],
    "--max-iter": ["0", "-3"],
    "--oracle-max-dof": ["-5"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        (command, flag, value)
        for command in ("certify", "eigen", "oracle", "counterexample", "thm8")
        for flag, values in OUT_OF_RANGE.items()
        if flag in READS[command]
        for value in values
    ],
)
def test_out_of_range_numbers_are_rejected(command, flag, value, capsys):
    """A non-finite or out-of-range tolerance, iteration cap or oracle dof
    budget is an input error (exit 2) on every command that reads it, never
    a verdict on it."""
    if command == "thm8":
        demo = [str(DATA / f"quasilinear_demo{part}") for part in
                (".prob", "_sub.field", "_super.field")]
        argv = ["thm8", demo[0], "--sub", demo[1], "--super", demo[2]]
    else:
        argv = [command, str(DATA / "competitive17.prob")]
    with pytest.raises(SystemExit) as info:
        main([*argv, f"{flag}={value}"])
    assert info.value.code == 2
    assert f"argument {flag}: '{value}' is not" in capsys.readouterr().err


def test_range_limits_are_inclusive_where_stated():
    args = cli.build_parser().parse_args(
        ["certify", "p", "--tol-cond", "0", "--max-iter", "1", "--tol-eig", "1e-300",
         "--oracle-max-dof", "0"]
    )
    limits = (args.tol_cond, args.max_iter, args.tol_eig, args.oracle_max_dof)
    assert limits == (0.0, 1, 1e-300, 0)


def test_flags_used_by_tests_and_benchmark_parse():
    parser = cli.build_parser()
    invocations = [
        ["certify", "p", "--mode", "sharp", "--no-oracle", "--tol-eig", "1e-9",
         "--tol-cond", "1e-9", "--max-iter", "9", "--oracle-max-dof", "9"],
        ["eigen", "p", "--max-iter", "2", "--component", "1"],
        ["eigen", "p", "--cooperative", "--tol-eig", "1e-9"],
        ["oracle", "p", "--gauge", "--oracle-max-dof", "0"],
        ["oracle", "p", "--oracle-max-dof", "9"],
        ["solve", "p", "--builtin", "--out", "u.field", "--json", "r.json"],
        ["solve", "p", "--rhs-from-file", "f.field", "--out", "u.field"],
        ["counterexample", "p", "--out", "w.field", "--tol-eig", "1e-9",
         "--tol-cond", "1e-9", "--max-iter", "9"],
        ["gauge", "p", "--json", "r.json"],
        ["linearize", "p", "--sub", "a", "--super", "b"],
        ["thm8", "p", "--sub", "a", "--sup", "b", "--mode", "sharp",
         "--oracle-max-dof", "9", "--tol-eig", "1e-9", "--tol-cond", "1e-9",
         "--max-iter", "9"],
    ]
    for argv in invocations:
        parser.parse_args(argv)
    sources = [*(ROOT / "tests").glob("*.py"), ROOT / "perfbench" / "workloads.py"]
    used = set()
    for path in sources:
        used |= set(re.findall(r"\"(--[a-z][a-z-]*)\"", path.read_text()))
    accepted = {flag for flags in READS.values() for flag in flags}
    accepted |= {"--help", "--json", "--sup"}
    # passed only by test_unread_flags_are_rejected, for argparse to refuse
    refused = {"--probe", "--seed"}
    assert not refused & accepted
    assert used - refused <= accepted
    assert {"--builtin", "--sub", "--super", "--out"} <= used


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    """After the first call, main builds no argparse parser: not for another
    command, --help or a usage error."""
    problem = write(tmp_path, "coop.prob", COOP)
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["gauge", problem]) == 0
    built.clear()
    assert main(["certify", problem, "--no-oracle"]) == 0
    assert main(["eigen", problem, "--component", "1"]) == 0
    assert main(["oracle", problem, "--oracle-max-dof", "0"]) == 0
    for argv, code in [
        (["certify", "--help"], 0),
        (["gauge", problem, "--tol-eig", "1"], 2),
        (["oracle", problem, "--seed", "2"], 2),
    ]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code, argv
    assert main(["gauge", problem]) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """Flags of one call do not carry over to the next."""
    lap1d = str(DATA / "lap1d.prob")
    code = main(["certify", lap1d, "--mode", "sharp", "--no-oracle",
                 "--tol-eig", "1e-6", "--max-iter", "5"])
    assert code == 0
    _check("lap1d.certify.json", ["certify", lap1d], tmp_path)
    problem = write(tmp_path, "nine.prob", NINE_POINT)
    code, payload = report(tmp_path, "oracle", problem, "--oracle-max-dof", "0")
    assert code == 0 and payload["oracle"]["method"] == "columns"
    code, payload = report(tmp_path, "oracle", problem)
    assert code == 0 and payload["oracle"]["method"] == "scan"
