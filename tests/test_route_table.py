"""The structure class, gauge and certify route of every small constant
coupling, against the table frozen in tests/golden/route_table.json.

The couplings are constant on a 1D grid with n = 4 cells: for two species
the off-diagonals range over {-1, 0, 0.5, x - 0.5} (x - 0.5 changes sign
between the interior nodes) and the diagonals over {0, 0.5}; for three
species the off-diagonals range over {-1, 0, 0.5}.  The route is read
without eigen solves: the refutation scan finds nothing, and each theorem
check runs up to its first eigen solve, so its structure guard still
decides, and then returns a stub naming the theorem.

Regenerate the table (only when a route is meant to change) with
    PYTHONPATH=src python tests/test_route_table.py
"""

import itertools
import json
from pathlib import Path

import elcomp.certify as certify_mod
from elcomp.assembly import as_discrete
from elcomp.certify import Verdict, certify, classify_structure, find_gauge
from elcomp.mesh import build_grid
from elcomp.settings import Settings

from helpers import laplace_system

GOLDEN = Path(__file__).parent / "golden" / "route_table.json"
EIGEN_SOLVERS = ("_memo_eigenpair", "block_eigen", "component_eigen")
THEOREMS = {"check_thm1": 1, "check_thm3": 3, "check_thm4": 4, "check_thm5": 5}


def couplings():
    """Every coupling table of the enumeration, as expression strings."""
    for m12, m21 in itertools.product(["-1", "0", "0.5", "x - 0.5"], repeat=2):
        for m11, m22 in itertools.product(["0", "0.5"], repeat=2):
            yield [[m11, m12], [m21, m22]]
    for off in itertools.product(["-1", "0", "0.5"], repeat=6):
        it = iter(off)
        yield [["0" if k == l else next(it) for l in range(3)] for k in range(3)]


class _Reached(Exception):
    """An eigen solve was reached: the route got past its guards."""


def _stub(name, setattr_):
    real = getattr(certify_mod, name)

    def stub(ds, settings):
        try:
            return real(ds, settings)
        except _Reached:
            theorem = f"Theorem {THEOREMS[name]}"
            return Verdict("Routed", theorem=theorem, mode=settings.mode)

    setattr_(certify_mod, name, stub)


def table(setattr_):
    """One record per coupling: structure, gauge and route.  setattr_
    installs the stubs (monkeypatch.setattr in the test)."""

    def reached(*args, **kwargs):
        raise _Reached

    setattr_(certify_mod, "check_failure", lambda *args, **kwargs: None)
    for name in EIGEN_SOLVERS:
        setattr_(certify_mod, name, reached)
    for name in THEOREMS:
        _stub(name, setattr_)
    grid = build_grid(1, (0.0,), (1.0,), (4,))
    records = []
    for m in couplings():
        ds = as_discrete(laplace_system(grid, n_species=len(m), m=m))
        sigma, reason = find_gauge(ds)
        record = {
            "m": m,
            "structure": classify_structure(ds).to_json_dict(),
            "gauge": list(sigma) if sigma is not None else None,
            "gauge_reason": reason,
        }
        v = certify(ds, Settings(with_oracle=False))
        record["route"] = {"kind": v.kind, "theorem": v.theorem, "notes": v.notes}
        records.append(record)
    return records


def _dump(records) -> str:
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def test_route_table_matches_golden(monkeypatch):
    records = table(monkeypatch.setattr)
    golden = json.loads(GOLDEN.read_text())
    assert len(records) == len(golden) == 64 + 3**6
    for expected, actual in zip(golden, records):
        assert actual == expected, expected["m"]


if __name__ == "__main__":
    GOLDEN.write_text(_dump(table(setattr)))
