"""The Beta-Kotz distribution on [0, 1].

A Kotz-generator parameter set (n1, n2, t1, t2) maps to the shape pair
(a, b) = (t1 + n1/2 - 1, t2 + n2/2 - 1); density, CDF and moments are
those of a Beta-type law with those shapes.  All values are immutable
and the operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .specfun import ln_gamma, reg_inc_beta

__all__ = [
    "KotzGeneratorParams",
    "BetaKotzParams",
    "ConfidenceLevel",
    "from_kotz",
    "pdf",
    "cdf",
    "moment",
    "mean",
    "variance",
]


@dataclass(frozen=True)
class KotzGeneratorParams:
    """Degrees of freedom and Kotz shapes of the two generating factors."""

    n1: float
    n2: float
    t1: float
    t2: float

    def __post_init__(self):
        if not self.n1 > 0:
            raise ValueError(f"invariant n1 > 0 violated: n1={self.n1}")
        if not self.n2 > 0:
            raise ValueError(f"invariant n2 > 0 violated: n2={self.n2}")
        if not self.t1 + self.n1 / 2.0 - 1.0 > 0:
            raise ValueError(
                f"invariant t1 + n1/2 - 1 > 0 violated: "
                f"t1={self.t1}, n1={self.n1}"
            )
        if not self.t2 + self.n2 / 2.0 - 1.0 > 0:
            raise ValueError(
                f"invariant t2 + n2/2 - 1 > 0 violated: "
                f"t2={self.t2}, n2={self.n2}"
            )


@dataclass(frozen=True)
class BetaKotzParams:
    """Shape pair (a, b) with the derived log normalizing constant."""

    a: float
    b: float
    log_norm_const: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"shape a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"shape b must be finite and > 0, got {self.b}")
        object.__setattr__(
            self,
            "log_norm_const",
            ln_gamma(self.a + self.b) - ln_gamma(self.a) - ln_gamma(self.b),
        )


@dataclass(frozen=True)
class ConfidenceLevel:
    """Probability level for the tail measures, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"confidence level must lie in (0, 1), got {self.alpha}")


def from_kotz(k: KotzGeneratorParams) -> BetaKotzParams:
    """Map generator parameters to the shape pair (t1+n1/2-1, t2+n2/2-1)."""
    # (t - 1) + n/2 keeps the Gaussian case t = 1 exact in floating point.
    return BetaKotzParams((k.t1 - 1.0) + k.n1 / 2.0, (k.t2 - 1.0) + k.n2 / 2.0)


def pdf(p: BetaKotzParams, x: float) -> float:
    """Density C x^(a-1) (1-x)^(b-1) at x in [0, 1].

    Endpoint values are the one-sided limits; an infinite limit
    (exponent negative at that endpoint) is signalled as a range error
    rather than returned, keeping downstream arithmetic total.
    """
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"pdf requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        if p.a > 1.0:
            return 0.0
        if p.a == 1.0:
            return math.exp(p.log_norm_const)
        raise OverflowError(f"density diverges at x=0 for a={p.a} < 1")
    if x == 1.0:
        if p.b > 1.0:
            return 0.0
        if p.b == 1.0:
            return math.exp(p.log_norm_const)
        raise OverflowError(f"density diverges at x=1 for b={p.b} < 1")
    return math.exp(
        p.log_norm_const
        + (p.a - 1.0) * math.log(x)
        + (p.b - 1.0) * math.log1p(-x)
    )


def cdf(p: BetaKotzParams, x: float) -> float:
    """Distribution function F(x) = I_x(a, b)."""
    return reg_inc_beta(p.a, p.b, x)


def moment(p: BetaKotzParams, t: float) -> float:
    """Raw moment E(X^t) = Gamma(a+t) Gamma(a+b) / (Gamma(a+b+t) Gamma(a)).

    Evaluated in log space so large shapes cannot overflow.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"moment order must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    return math.exp(
        ln_gamma(p.a + t) + ln_gamma(p.a + p.b)
        - ln_gamma(p.a + p.b + t) - ln_gamma(p.a)
    )


def mean(p: BetaKotzParams) -> float:
    """E(X) = a / (a + b)."""
    return p.a / (p.a + p.b)


def variance(p: BetaKotzParams) -> float:
    """Var(X) = a b / ((a + b)^2 (a + b + 1))."""
    s = p.a + p.b
    return p.a * p.b / (s * s * (s + 1.0))
