"""Certificates and refutations of the comparison principle for weakly
coupled second-order elliptic systems, including non-cooperative coupling.

The pipeline: parse a problem file, discretize with a monotone finite
difference scheme, split the coupling into cooperative and competitive
parts, compute principal eigenpairs with certified enclosures, and either
certify the comparison principle through one of the sufficient conditions,
refute it with a verified counterexample field, or report Inconclusive.
An independent dense inverse-positivity oracle cross-checks verdicts on
small grids.
"""

__version__ = "0.1.0"
