"""Beta-Kotz tail-risk measures.

A distribution on [0, 1] driven by two Kotz-type generating factors,
with Value-at-Risk, Conditional Value-at-Risk and economic capital by
both closed forms and root finding, method-of-moments and maximum-
likelihood fitting, and a credit-portfolio reporting pipeline.

`import betakotz` executes no layer module: each public name is looked
up in its layer on access (PEP 562), which imports the layer the first
time.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the layer module that defines it.
_LAYER_OF = {
    **dict.fromkeys((
        "BetaKotzParams", "ConfidenceLevel", "KotzGeneratorParams", "from_kotz",
        "pdf", "cdf", "moment", "mean", "variance", "InfeasibleMomentsError",
    ), "distribution"),
    **dict.fromkeys((
        "RiskReport", "SolveMethod", "InternalConsistencyError", "var_numeric",
        "var_closed", "cvar", "cvar_closed", "report", "var_normal",
        "cvar_normal", "var_student", "cvar_student",
    ), "risk"),
    **dict.fromkeys((
        "SampleStats", "FitResult", "StepFailureError",
        "stats_from_samples", "fit_moments", "fit_mle", "log_likelihood",
    ), "estimation"),
    "ConvergenceError": "specfun",
}
_LAYERS = frozenset(_LAYER_OF.values())

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name):
    # Looked up on every access, never cached here: a layer's attribute
    # may be replaced (by a test's monkeypatch, or a tracer's wrapper)
    # and later restored.  A layer already imported is taken from
    # sys.modules, as import_module's Python-level lookup costs far more.
    layer = _LAYER_OF.get(name)
    if layer is not None:
        module = f"{__name__}.{layer}"
        return getattr(_sys.modules.get(module) or _import_module(module), name)
    if name in _LAYERS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
