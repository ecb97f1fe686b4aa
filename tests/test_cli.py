"""Command line interface: exit codes, reports, file round trips."""

import json
import math
import textwrap
from importlib import resources

import numpy as np
import pytest

from elcomp.cli import main, run
from elcomp.fields import load_block, load_fields
from elcomp.mesh import build_grid

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
    problem = write(tmp_path, "coop.prob", COOP)
    code, payload = report(tmp_path, "eigen", problem, "--max-iter", "2")
    assert code == 3
    assert payload["errors"][0]["type"] == "NoConvergence"


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


def test_eigen_closed_form(tmp_path):
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
    assert payload["lambda"] == pytest.approx(exact, abs=1e-8)
    assert payload["cw"][0] <= payload["lambda"] <= payload["cw"][1]
    assert payload["component"] == 1
    assert payload["dof"] == 127


def test_eigen_flag_exclusivity(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    with pytest.raises(SystemExit):
        main(["eigen", problem, "--component", "1", "--cooperative"])


def test_oracle_probe_mode(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    code, payload = report(tmp_path, "oracle", problem, "--probe", "25", "--seed", "7")
    assert code == 0
    assert payload["oracle"]["sampled"] is True
    assert payload["oracle"]["trials"] == 25
    assert payload["oracle"]["inverse_positive"] is True


def test_oracle_gauged_probe(tmp_path):
    problem = write(tmp_path, "comp.prob", data_text("competitive17.prob"))
    code, payload = report(
        tmp_path, "oracle", problem, "--gauge", "--probe", "25", "--seed", "7"
    )
    assert code == 0
    assert payload["gauge"] == [1, -1]
    oracle = payload["oracle"]
    assert oracle["gauge"] == [1, -1]
    assert oracle["sampled"] is True
    assert oracle["trials"] == 25
    assert oracle["inverse_positive"] is True
    assert oracle["min_entry"] == 0.0
    assert oracle["witness"] is None


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


def test_run_helper(tmp_path):
    problem = write(tmp_path, "coop.prob", COOP)
    assert run("gauge", [problem]) == 0
