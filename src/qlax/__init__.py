"""qlax: exact computer algebra for time-scaled operator flows.

The kernel works over pluggable coefficient algebras (exact-rational
matrices and formal operator symbols ship in the box), deforms a flow
equation dL/dt = [P, L] by the time scaling t -> q*t, integrates the
deformed equation order by order in q through time-ordered exponentials,
and verifies the results by recomputing every defining equation exactly.
"""

from .algebra import Algebra, TPoly, rational
from .diffpoly import DiffPoly
from .errors import (
    DegreeOverflow,
    ParseError,
    PrecisionExhausted,
    ProblemFileError,
    QlaxError,
    ShapeMismatch,
    TruncationMismatch,
    UnboundIdentifier,
    ValuationError,
)
from .expr import parse_diffpoly, parse_operator
from .laxflow import (
    LaxProblem,
    LaxSolution,
    defects,
    deform,
    dt_series,
    eval_tq,
    integrate_series,
    iterated_integrals,
    lax_residual,
    lax_solve,
    texp,
)
from .matrix import (
    ConvergencePoint,
    ConvergenceReport,
    MatrixAlgebra,
    RatMatrix,
    convergence_study,
    lcg,
    mat_random,
)
from .psdo import KdvPair, PsdoAlgebra, PsdoSymbol, commutator, compose, kdv_pair
from .qseries import QSeries
from .symops import (
    BiOp,
    BiOpAlgebra,
    ad,
    apply_series,
    apply_to_probe,
    exp_ad,
    lift_ad,
    residual_vanishes,
    symmetry3_residual,
    transport,
    transported_solution_check,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BiOp",
    "BiOpAlgebra",
    "ConvergencePoint",
    "ConvergenceReport",
    "DegreeOverflow",
    "DiffPoly",
    "KdvPair",
    "LaxProblem",
    "LaxSolution",
    "MatrixAlgebra",
    "ParseError",
    "PrecisionExhausted",
    "ProblemFileError",
    "PsdoAlgebra",
    "PsdoSymbol",
    "QSeries",
    "QlaxError",
    "RatMatrix",
    "ShapeMismatch",
    "TPoly",
    "TruncationMismatch",
    "UnboundIdentifier",
    "ValuationError",
    "ad",
    "apply_series",
    "apply_to_probe",
    "commutator",
    "compose",
    "convergence_study",
    "defects",
    "deform",
    "dt_series",
    "eval_tq",
    "exp_ad",
    "integrate_series",
    "iterated_integrals",
    "kdv_pair",
    "lax_residual",
    "lax_solve",
    "lcg",
    "lift_ad",
    "mat_random",
    "parse_diffpoly",
    "parse_operator",
    "rational",
    "residual_vanishes",
    "symmetry3_residual",
    "texp",
    "transport",
    "transported_solution_check",
]
