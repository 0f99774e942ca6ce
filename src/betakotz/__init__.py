"""Beta-Kotz tail-risk measures.

A distribution on [0, 1] driven by two Kotz-type generating factors,
with Value-at-Risk, Conditional Value-at-Risk and economic capital by
both closed forms and root finding, method-of-moments and maximum-
likelihood fitting, and a credit-portfolio reporting pipeline.
"""

from .distribution import (
    BetaKotzParams,
    ConfidenceLevel,
    KotzGeneratorParams,
    cdf,
    from_kotz,
    mean,
    moment,
    pdf,
    variance,
)
from .estimation import (
    FitResult,
    InfeasibleMomentsError,
    SampleStats,
    StepFailureError,
    fit_mle,
    fit_moments,
    log_likelihood,
    stats_from_samples,
)
from .risk import (
    InternalConsistencyError,
    RiskReport,
    SolveMethod,
    cvar,
    cvar_closed,
    cvar_normal,
    cvar_student,
    report,
    var_closed,
    var_normal,
    var_numeric,
    var_student,
)
from .specfun import ConvergenceError

__version__ = "0.1.0"

__all__ = [
    "BetaKotzParams",
    "ConfidenceLevel",
    "KotzGeneratorParams",
    "from_kotz",
    "pdf",
    "cdf",
    "moment",
    "mean",
    "variance",
    "RiskReport",
    "SolveMethod",
    "InternalConsistencyError",
    "var_numeric",
    "var_closed",
    "cvar",
    "cvar_closed",
    "report",
    "var_normal",
    "cvar_normal",
    "var_student",
    "cvar_student",
    "SampleStats",
    "FitResult",
    "InfeasibleMomentsError",
    "StepFailureError",
    "stats_from_samples",
    "fit_moments",
    "fit_mle",
    "log_likelihood",
    "ConvergenceError",
    "__version__",
]
