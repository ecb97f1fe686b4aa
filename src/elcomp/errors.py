"""Exception hierarchy shared by every module.

Each class carries the command-line exit code of its kind in `exit_code`:
2 input error, 3 numerical failure, 4 unsupported structure.
"""

from __future__ import annotations


class ElcompError(Exception):
    """Base class for all package errors; only subclasses are raised."""

    exit_code = 1


class ParseError(ElcompError):
    """Bad expression or problem-file syntax.

    Carries the offset into the source (for a problem-file value, the
    column in its file line) and the set of token kinds that would have
    been accepted at that point.
    """

    exit_code = 2

    def __init__(self, message, offset=None, expected=(), line=None):
        self.message = message
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.line = line
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"offset {offset}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        if self.expected:
            suffix += f"; expected one of: {', '.join(self.expected)}"
        super().__init__(message + suffix)


class EvalDomainError(ElcompError):
    """Expression evaluation left the real domain (log/sqrt/pow) or blew up."""

    exit_code = 2

    def __init__(self, message, point=None):
        self.point = point
        if point is not None:
            message += f" at {point}"
        super().__init__(message)


class ValidationError(ElcompError):
    """Structurally valid input with inconsistent content."""

    exit_code = 2


class BadGridSpec(ElcompError):
    """Grid axes are degenerate, too coarse, or dimensionally wrong."""

    exit_code = 2


class EmptySubdomain(ElcompError):
    """A sub-rectangle contains no interior grid node."""

    exit_code = 2


class DimMismatch(ElcompError):
    """Operand shapes do not line up."""

    exit_code = 2


class SingularMatrix(ElcompError):
    """A matrix is singular to working precision: its LU met an exactly
    zero pivot, or a solve with it gave a non-finite or too large result
    (linalg.LuFactor.solve)."""

    exit_code = 3


class TooLarge(ElcompError):
    """Dense work refused above the degree-of-freedom budget."""

    exit_code = 2


class NoConvergence(ElcompError):
    """An eigen run that could not close its enclosure: it needed more than
    max_iter factorizations, a shifted solve left the positive cone, or
    the shift was singular to working precision.  A run at the rounding
    floor does not raise; it returns its enclosure, stopped = "floor"."""

    exit_code = 3

    def __init__(self, message, iterations=None, width=None):
        self.iterations = iterations
        self.width = width
        super().__init__(message)


class NonEllipticCoefficient(ElcompError):
    """Sampled diffusion tensor lost positivity somewhere."""

    exit_code = 4


class NonEllipticLinearization(ElcompError):
    """Flux derivative lost positivity along the linearization segment."""

    exit_code = 4


class NotZMatrix(ElcompError):
    """Assembled matrix has a positive off-diagonal entry."""

    exit_code = 4

    def __init__(self, message, position=None, value=None):
        self.position = position
        self.value = value
        super().__init__(message)


class NotIrreducible(ElcompError):
    """Matrix digraph is not strongly connected."""

    exit_code = 4


class StructureUnsupported(ElcompError):
    """Coupling structure outside the requested certificate family."""

    exit_code = 4


class InfeasibleEpsilon(ElcompError):
    """No positive slack is available for the triangular construction."""

    exit_code = 3
