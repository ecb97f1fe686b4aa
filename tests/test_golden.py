"""Regression checks against frozen CLI reports in tests/golden/.

The golden files were produced by the console entry point on the bundled
problems.  Comparison ignores wall-clock timings and the problem path;
floats are compared at a tight relative tolerance so a legitimate
algorithm change shows up as a diff instead of silent drift.
"""

import json
from pathlib import Path

import pytest
import scipy.sparse as sp

from elcomp import linalg
from elcomp.cli import main

from helpers import assert_report_views

GOLDEN_DIR = Path(__file__).parent / "golden"
PKG_ROOT = Path(__file__).resolve().parents[1]
DATA = PKG_ROOT / "src" / "elcomp" / "data"

SKIP_KEYS = {"timings", "problem"}
LINEAR = ["cooperative_pair", "competitive17", "predator_prey", "thm6_failure", "lap1d"]
THM8_ARGV = [
    "thm8",
    str(DATA / "quasilinear_demo.prob"),
    "--sub",
    str(DATA / "quasilinear_demo_sub.field"),
    "--sup",
    str(DATA / "quasilinear_demo_super.field"),
]
# golden file -> the CLI run that writes it
RUNS = {f"{name}.certify.json": ["certify", str(DATA / f"{name}.prob")] for name in LINEAR}
RUNS["quasilinear_demo.thm8.json"] = THM8_ARGV


def _assert_same(expected, actual, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert set(expected) == set(actual), (path, set(expected) ^ set(actual))
        for key in expected:
            if not path and key in SKIP_KEYS:
                continue
            _assert_same(expected[key], actual[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(expected) == len(actual), path
        for ix, (e, a) in enumerate(zip(expected, actual)):
            _assert_same(e, a, f"{path}[{ix}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert expected == actual, path


def _report(argv, tmp_path):
    out = tmp_path / "report.json"
    main(argv + ["--json", str(out)])
    return json.loads(out.read_text())


def _check(golden_name, argv, tmp_path):
    expected = json.loads((GOLDEN_DIR / golden_name).read_text())
    _assert_same(expected, _report(argv, tmp_path))


@pytest.mark.parametrize("name", LINEAR)
def test_certify_matches_golden(name, tmp_path):
    _check(f"{name}.certify.json", RUNS[f"{name}.certify.json"], tmp_path)


@pytest.mark.parametrize("golden", sorted(RUNS))
def test_report_views_match_the_eigen_record(golden, tmp_path):
    """Each bundled report's lambda, lambdas and cw are read off its eigen
    record, so no number in it can drift from the solve it reports."""
    assert_report_views(_report(RUNS[golden], tmp_path))


@pytest.mark.parametrize("name", LINEAR)
def test_certify_builds_no_block_or_identity_matrices(name, tmp_path, monkeypatch):
    """Assembly, slicing and shifts work on the CSR arrays: certify gives
    the golden report with sp.bmat, sp.diags, sp.identity and the triplet
    builder linalg.from_coo unavailable."""

    def refuse(*args, **kwargs):
        raise AssertionError("sparse constructor called on the certify path")

    for constructor in ("bmat", "diags", "identity"):
        monkeypatch.setattr(sp, constructor, refuse)
    monkeypatch.setattr(linalg, "from_coo", refuse)
    _check(f"{name}.certify.json", RUNS[f"{name}.certify.json"], tmp_path)


def test_thm8_matches_golden(tmp_path):
    _check("quasilinear_demo.thm8.json", THM8_ARGV, tmp_path)
