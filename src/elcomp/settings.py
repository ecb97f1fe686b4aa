"""The six settings of a run, validated once, in one record.

A bad tolerance does not fail a margin check, it decides it: tol_cond = nan
makes every comparison with tol_cond * (1 + |lambda|) false.  So the limits
are checked where a Settings is built, and every check, eigen solve, the
oracle and the command line read them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

TOL_EIG = 1e-9
TOL_COND = 1e-8
MAX_ITER = 100  # LU factorizations per Noda run; a run to its target needs 0-3
ORACLE_MAX_DOF = 2500
MODES = ("basic", "sharp")


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and math.isfinite(value)


@dataclass(frozen=True, kw_only=True)
class Settings:
    """Margin mode, eigen and condition tolerances, the LU cap of each eigen
    run, and whether and up to how many dof the dense oracle runs.

    Each eigen run stops once its enclosure is narrower than
    tol_eig (1 + |lambda|), or at the rounding floor when that lies above
    it; certify, in basic mode, stops a run earlier where its enclosure so
    far decides the verdict, so that tol_eig is the width to which only an
    undecided run refines.  A margin counts only beyond tol_cond (1 +
    |lambda|), with lambda at the end of its enclosure that the margin's
    decision needs.
    """

    mode: str = "basic"
    tol_eig: float = TOL_EIG
    tol_cond: float = TOL_COND
    max_iter: int = MAX_ITER
    with_oracle: bool = True
    oracle_max_dof: int = ORACLE_MAX_DOF

    def __post_init__(self):
        limits = {  # field: (accepts the value, what it must be)
            "mode": (lambda v: v in MODES, " or ".join(MODES)),
            "tol_eig": (lambda v: _finite(v) and v > 0, "finite and > 0"),
            "tol_cond": (lambda v: _finite(v) and v >= 0, "finite and >= 0"),
            "max_iter": (lambda v: _count(v) and v >= 1, "an int >= 1"),
            "with_oracle": (lambda v: isinstance(v, bool), "a bool"),
            "oracle_max_dof": (lambda v: _count(v) and v >= 0, "an int >= 0"),
        }
        for name, (ok, rule) in limits.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValidationError(f"{name}={value!r} is not {rule}")


DEFAULT = Settings()
