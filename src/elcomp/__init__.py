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

from .assembly import (
    AssembledSystem,
    DiscreteSystem,
    ScalarOperatorSpec,
    SystemSpec,
    as_discrete,
    assemble_system,
    check_z_matrix,
)
from .certify import (
    Counterexample,
    StructureClass,
    Verdict,
    build_counterexample,
    certify,
    check_failure,
    check_thm1,
    check_thm3,
    check_thm4,
    check_thm5,
    classify_structure,
    find_gauge,
)
from .errors import (
    BadGridSpec,
    DimMismatch,
    ElcompError,
    EmptySubdomain,
    EvalDomainError,
    InfeasibleEpsilon,
    NoConvergence,
    NonEllipticCoefficient,
    NonEllipticLinearization,
    NotIrreducible,
    NotNonnegative,
    NotZMatrix,
    ParseError,
    SingularMatrix,
    StructureUnsupported,
    TooLarge,
    ValidationError,
)
from .expressions import eval_expr, expr_to_str, parse_expr, sample_field
from .fields import (
    BlockField,
    SampledField,
    block_from_exprs,
    block_from_solution,
    load_block,
    load_fields,
    save_fields,
)
from .linalg import (
    dense_inverse,
    from_coo,
    inf_norm,
    lu_solve,
    power_iteration,
)
from .mesh import (
    Grid,
    SubdomainMask,
    build_grid,
    connected,
    full_mask,
    sub_rectangle_mask,
)
from .oracle import (
    OracleReport,
    inverse_positivity,
    random_probe,
    solve_system,
    verify_subsolution,
)
from .problems import load_problem, parse_problem
from .quasilinear import (
    LinearizedSystem,
    QuasiSpec,
    check_thm8,
    from_linear_system,
    linearize,
)
from .spectral import (
    EigenPair,
    ScanResult,
    block_eigen,
    component_eigen,
    cooperative_eigen,
    principal_eigenpair,
    subdomain_scan,
)
