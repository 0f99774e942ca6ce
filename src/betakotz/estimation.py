"""Fitting Beta-Kotz shapes from data.

Method of moments inverts the mean/variance formulas in closed form;
maximum likelihood runs a damped Newton-Raphson on the two score
equations, with digamma/trigamma supplying the gradient and Hessian.
Both consume the same sufficient statistics, so a sample is reduced
once and fitted many ways.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import reduce

from .distribution import (BetaKotzParams, InfeasibleMomentsError,
                           _moment_shapes, _Record, _sample_moments)
from .specfun import digamma, trigamma

__all__ = [
    "SampleStats",
    "FitResult",
    "InfeasibleMomentsError",
    "StepFailureError",
    "stats_from_samples",
    "fit_moments",
    "log_likelihood",
    "fit_mle",
]

_GRAD_TOL = 1e-10
_MAX_ITERS = 100
_MAX_HALVINGS = 30


class StepFailureError(RuntimeError):
    """Newton-Raphson could not produce a usable step; carries the iterate."""

    def __init__(self, message, params):
        super().__init__(message)
        self.params = params


class SampleStats(_Record):
    """Sufficient statistics of a sample from (0, 1).

    Moment feasibility (variance < mean*(1-mean)) is deliberately not a
    construction invariant: degenerate samples must be representable so
    fit_moments can reject them with a meaningful error.
    """

    __slots__ = ("n", "mean", "variance", "sum_log_x", "sum_log_1mx")

    def __init__(self, n: int, mean: float, variance: float,
                 sum_log_x: float, sum_log_1mx: float):
        if n < 2:
            raise ValueError(f"need at least 2 observations, got n={n}")
        if not 0.0 < mean < 1.0:
            raise ValueError(f"sample mean must lie in (0, 1), got {mean}")
        if not (math.isfinite(variance) and variance >= 0.0):
            raise ValueError(f"sample variance must be >= 0, got {variance}")
        if not (math.isfinite(sum_log_x) and math.isfinite(sum_log_1mx)):
            raise ValueError("log-sums must be finite")
        self.__setstate__((n, mean, variance, sum_log_x, sum_log_1mx))


class FitResult(_Record):
    """Estimator output with convergence diagnostics."""

    __slots__ = ("params", "iterations", "converged", "log_likelihood",
                 "gradient_norm")

    def __init__(self, params: BetaKotzParams, iterations: int, converged: bool,
                 log_likelihood: float, gradient_norm: float):
        self.__setstate__(
            (params, iterations, converged, log_likelihood, gradient_norm)
        )


def stats_from_samples(xs: Sequence[float]) -> SampleStats:
    """Reduce a sample to SampleStats.

    Mean and variance (n-1 divisor) come from distribution._sample_moments,
    within 4u M and 8u (V + u M^2) of the exact M and V (u = 2**-53) above
    the subnormals; the log-sums are each added left to right.  A value
    at or outside (0, 1), where the log-likelihood is undefined, is
    refused with its index.
    """
    xs = list(xs)  # read more than once; a generator is accepted
    for i, x in enumerate(xs):
        # type() spares a float the isinstance call; the check is the same.
        if not ((type(x) is float or isinstance(x, (int, float))) and 0.0 < x < 1.0):
            raise ValueError(
                f"sample value at index {i} must lie strictly in (0, 1), got {x!r}"
            )
    n, mean, m2 = _sample_moments(xs)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    # reduce adds in order with no compensation, unlike sum() from 3.12 on
    return SampleStats(
        n=n,
        mean=mean,
        variance=m2 / (n - 1),
        sum_log_x=reduce(operator.add, map(math.log, xs), 0.0),
        sum_log_1mx=reduce(operator.add, map(math.log1p, map(operator.neg, xs)), 0.0),
    )


def fit_moments(stats: SampleStats) -> BetaKotzParams:
    """Method-of-moments shapes from the sample mean and variance.

    a = m (m(1-m)/s^2 - 1), b = (1-m) (m(1-m)/s^2 - 1); the inversion
    is exact, so the fitted distribution reproduces the sample moments.
    """
    return _moment_shapes(stats.mean, stats.variance)


def log_likelihood(p: BetaKotzParams, stats: SampleStats) -> float:
    """Sample log-likelihood from the sufficient statistics."""
    return (
        stats.n * p.log_norm_const
        + (p.a - 1.0) * stats.sum_log_x
        + (p.b - 1.0) * stats.sum_log_1mx
    )


def _score_and_hessian(a, b, stats):
    n = stats.n
    psi_ab = digamma(a + b)
    g1 = n * (psi_ab - digamma(a)) + stats.sum_log_x
    g2 = n * (psi_ab - digamma(b)) + stats.sum_log_1mx
    tri_ab = trigamma(a + b)
    h11 = n * (tri_ab - trigamma(a))
    h22 = n * (tri_ab - trigamma(b))
    h12 = n * tri_ab
    return (g1, g2), (h11, h12, h22)


def fit_mle(stats: SampleStats) -> FitResult:
    """Maximum-likelihood shapes by damped Newton-Raphson on the scores.

    Starts from the moment fit, or from (1, 1) when the sample is
    over-dispersed (variance >= mean(1-mean)).  A sample with no spread
    has an unbounded likelihood and no maximum: InfeasibleMomentsError.
    Convergence is declared on the per-observation-scaled score,
    max(|g1|, |g2|)/n <= 1e-10.  Steps that would leave
    (0, inf)^2 or lower the likelihood are halved (up to 30 times); an
    exhausted budget of 100 iterations returns converged=False rather
    than raising.
    """
    try:
        init = fit_moments(stats)
    except InfeasibleMomentsError:
        if not stats.variance > 0.0:
            raise InfeasibleMomentsError(
                f"sample variance is {stats.variance}: a sample with no spread "
                f"has no maximum-likelihood fit") from None
        init = BetaKotzParams(1.0, 1.0)
    a, b = init.a, init.b
    ll = log_likelihood(init, stats)

    iterations = 0
    (g1, g2), (h11, h12, h22) = _score_and_hessian(a, b, stats)
    gn = max(abs(g1), abs(g2)) / stats.n
    while gn > _GRAD_TOL and iterations < _MAX_ITERS:
        det = h11 * h22 - h12 * h12
        if det == 0.0 or not math.isfinite(det):
            raise StepFailureError(
                f"singular Hessian at (a={a}, b={b})", BetaKotzParams(a, b)
            )
        # Newton step: -H^{-1} g for the 2x2 symmetric Hessian.
        da = -(h22 * g1 - h12 * g2) / det
        db = -(h11 * g2 - h12 * g1) / det
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            a_new = a + scale * da
            b_new = b + scale * db
            if a_new > 0.0 and b_new > 0.0:
                ll_new = log_likelihood(BetaKotzParams(a_new, b_new), stats)
                # Plateau slack: a sub-rounding "decrease" is not a real one.
                if ll_new >= ll - 1e-13 * max(1.0, abs(ll)):
                    break
            scale *= 0.5
        else:
            raise StepFailureError(
                f"step damping floor reached at (a={a}, b={b})",
                BetaKotzParams(a, b),
            )
        a, b, ll = a_new, b_new, ll_new
        iterations += 1
        (g1, g2), (h11, h12, h22) = _score_and_hessian(a, b, stats)
        gn = max(abs(g1), abs(g2)) / stats.n

    params = BetaKotzParams(a, b)
    return FitResult(
        params=params,
        iterations=iterations,
        converged=gn <= _GRAD_TOL,
        log_likelihood=ll,
        gradient_norm=gn,
    )
