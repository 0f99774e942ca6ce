"""Scalar special-function kernel.

Log-gamma, digamma, trigamma, a restricted Gauss hypergeometric series
and the regularized incomplete beta function.  Everything downstream
(densities, CDFs, quantile root finding, likelihood scores) is built on
these primitives, so they are kept self-contained and pure: plain
floats in, plain floats out, no global state.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "ConvergenceError",
    "ln_gamma",
    "ln_beta",
    "digamma",
    "trigamma",
    "gauss_2f1",
    "reg_inc_beta",
]


class ConvergenceError(ArithmeticError):
    """An iterative evaluation exhausted its budget before converging.

    Carries the partial result and the number of terms/iterations spent
    so callers can diagnose the failure.
    """

    def __init__(self, message, partial_sum=None, terms=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


# Evaluation budgets of the series and continued-fraction kernels.
_SERIES_REL_TOL = 1e-15
_MAX_SERIES_TERMS = 10_000
_CF_MAX_ITERS = 500


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (isinstance(x, (int, float)) and 0.0 < x <= sys.float_info.max):
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:  # x above ~2.55e305: the value exceeds a double
        return math.inf


def _stirling_delta(x):
    # ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) for x >= 10: seven
    # terms of Stirling's series B_2k / (2k (2k - 1) x^(2k-1)); the next
    # is below 4e-17.
    r = 1.0 / x
    t = r * r
    return r * (1 / 12 + t * (-1 / 360 + t * (1 / 1260 + t * (
        -1 / 1680 + t * (1 / 1188 + t * (-691 / 360360 + t / 156))))))


_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b) for a, b > 0.

    Accurate relative to ln B itself, however large the ln-gammas it is
    the difference of (within 16 eps max(1, |ln B|) of mpmath on the
    test grid).  With a <= b, the sum of
    ln-gammas is used only for b < 10; above, the deviation forms of
    DiDonato & Morris (ACM TOMS 18(3), 1992) cancel the large Stirling
    terms analytically, so that only the small remainders _stirling_delta
    are differenced.  a + b must be a finite double.
    """
    if not (0.0 < a and 0.0 < b and a + b <= sys.float_info.max):
        raise ValueError(f"ln_beta requires a, b > 0 with a finite sum, "
                         f"got a={a!r}, b={b!r}")
    if a > b:
        a, b = b, a
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    corr = _stirling_delta(b) - _stirling_delta(a + b)
    if a >= 10.0:
        return (_HALF_LN_2PI - 0.5 * math.log(b) + (a - 0.5) * math.log(a / (a + b))
                - b * math.log1p(a / b) + _stirling_delta(a) + corr)
    return (math.lgamma(a) - a * math.log(b) - (a + b - 0.5) * math.log1p(a / b)
            + a + corr)


# Asymptotic tails: psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}) and
# psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n}/x^{2n+1}, valid to ~1e-16 once
# the argument has been pushed above 10 by the recurrences.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_PSI_ASYMPTOTIC_MIN = 10.0


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not 0.0 < x <= sys.float_info.max:
        raise ValueError(f"digamma requires finite x > 0, got {x!r}")
    # Recurrence psi(x) = psi(x+1) - 1/x until the asymptotic tail applies.
    shifts = []
    y = float(x)  # an int's exact y*y can exceed the largest double
    while y < _PSI_ASYMPTOTIC_MIN:
        shifts.append(-1.0 / y)
        y += 1.0
    inv2 = 1.0 / (y * y)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = tail * inv2 + c
    shifts.append(math.log(y) - 0.5 / y + tail * inv2)
    return math.fsum(shifts)


def trigamma(x: float) -> float:
    """psi'(x), the second logarithmic derivative of gamma, for x > 0."""
    if not 0.0 < x <= sys.float_info.max:
        raise ValueError(f"trigamma requires finite x > 0, got {x!r}")
    if x * x == 0.0:
        return math.inf  # psi'(x) ~ 1/x^2 exceeds the largest double
    shifts = []
    y = x
    while y < _PSI_ASYMPTOTIC_MIN:
        shifts.append(1.0 / (y * y))
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_TRIGAMMA_TAIL):
        tail = tail * inv2 + c
    shifts.append(inv + 0.5 * inv2 + tail * inv2 * inv)
    return math.fsum(shifts)


def _nonpositive_int(v: float) -> bool:
    return v <= 0.0 and v == math.floor(v)


def _series_2f1(m, n, p, x):
    """Sum the 2F1 series; returns (value, number_of_terms).

    Terminates after exactly q+1 terms when m or n is a non-positive
    integer -q; otherwise truncates on two consecutive terms below the
    relative tolerance.
    """
    poly_degree = None
    if _nonpositive_int(m):
        poly_degree = int(-m)
    if _nonpositive_int(n):
        q = int(-n)
        poly_degree = q if poly_degree is None else min(poly_degree, q)

    if _nonpositive_int(p):
        # (p)_k vanishes for k > -p; only a series that terminates at or
        # before the pole is meaningful.
        if poly_degree is None or poly_degree > int(-p):
            raise ValueError(
                f"gauss_2f1 pole: p={p} is a non-positive integer and the "
                "series does not terminate before it"
            )

    if poly_degree is None:
        if abs(x) >= 1.0:
            if x == 1.0 and (p - m - n) > 0.0:
                pass  # convergent boundary case, summed below
            else:
                raise ValueError(
                    f"gauss_2f1 diverges for x={x} with m={m}, n={n}, p={p}"
                )

    total = 1.0
    term = 1.0
    small_streak = 0
    k = 0
    budget = poly_degree if poly_degree is not None else _MAX_SERIES_TERMS
    while k < budget:
        term *= (m + k) * (n + k) / ((p + k) * (k + 1.0)) * x
        total += term
        k += 1
        if poly_degree is None:
            if abs(term) <= _SERIES_REL_TOL * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak >= 2:
                    return total, k + 1
            else:
                small_streak = 0
    if poly_degree is not None:
        return total, poly_degree + 1
    raise ConvergenceError(
        f"gauss_2f1 did not converge within {_MAX_SERIES_TERMS} terms "
        f"(m={m}, n={n}, p={p}, x={x})",
        partial_sum=total,
        terms=k + 1,
    )


def gauss_2f1(m: float, n: float, p: float, x: float) -> float:
    """Gauss hypergeometric series sum_k (m)_k (n)_k / ((p)_k k!) x^k.

    Supported domain: |x| < 1, or x = 1 with p - m - n > 0, or a
    terminating series (m or n a non-positive integer), which is summed
    exactly as a polynomial.
    """
    if not all(math.isfinite(v) for v in (m, n, p, x)):
        raise ValueError("gauss_2f1 requires finite arguments")
    value, _ = _series_2f1(m, n, p, x)
    return value


def _beta_contfrac(a, b, x):
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERS + 1):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SERIES_REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled after "
        f"{_CF_MAX_ITERS} iterations (a={a}, b={b}, x={x})",
        partial_sum=h,
        terms=_CF_MAX_ITERS,
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) applied past the crossover
    x > (a+1)/(a+b+2), which keeps the fraction in its
    fast-convergence region.
    """
    if not (0.0 < a <= sys.float_info.max and 0.0 < b <= sys.float_info.max):
        raise ValueError(f"reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _inc_beta_tails(a, b, x, 1.0 - x, ln_beta(a, b))[0]


def _inc_beta_tails(a, b, x, y, ln_b):
    """(I_x(a, b), 1 - I_x(a, b)) for 0 < x < 1, y = 1 - x and
    ln_b = ln B(a, b), unchecked: both logs come from the smaller of x and y,
    which the caller carries, and the side the continued fraction computes
    keeps full relative precision."""
    if x <= y:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = a * ln_x + b * ln_y - ln_b
    if x < (a + 1.0) / (a + b + 2.0):
        lower = math.exp(ln_front) * _beta_contfrac(a, b, x) / a
        return lower, 1.0 - lower
    upper = math.exp(ln_front) * _beta_contfrac(b, a, y) / b
    return 1.0 - upper, upper

