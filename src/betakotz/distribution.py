"""The Beta-Kotz distribution on [0, 1].

A Kotz-generator parameter set (n1, n2, t1, t2) maps to the shape pair
(a, b) = (t1 + n1/2 - 1, t2 + n2/2 - 1); density, CDF and moments are
those of a Beta-type law with those shapes, and a mean and variance
invert to shapes in closed form.  All values are immutable and the
operations are pure.
"""

from __future__ import annotations

import math
import sys

from .specfun import ln_beta, reg_inc_beta

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


class _Record:
    """Immutable value whose fields are its `__slots__`, in order.

    Equality and hash run over every field, and the repr names each one
    as a frozen dataclass would.  `__init__` checks its arguments and
    passes the field values, in order, to `__setstate__`; after that,
    assignment and deletion raise.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # The state is the field values in order; copy, deepcopy and pickle
    # restore it through __setstate__ without re-checking.
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class InfeasibleMomentsError(ValueError):
    """Sample variance is incompatible with any Beta-Kotz shape pair."""


class KotzGeneratorParams(_Record):
    """Degrees of freedom and Kotz shapes of the two generating factors."""

    __slots__ = ("n1", "n2", "t1", "t2")

    def __init__(self, n1: float, n2: float, t1: float, t2: float):
        if not n1 > 0:
            raise ValueError(f"invariant n1 > 0 violated: n1={n1}")
        if not n2 > 0:
            raise ValueError(f"invariant n2 > 0 violated: n2={n2}")
        if not t1 + n1 / 2.0 - 1.0 > 0:
            raise ValueError(
                f"invariant t1 + n1/2 - 1 > 0 violated: t1={t1}, n1={n1}"
            )
        if not t2 + n2 / 2.0 - 1.0 > 0:
            raise ValueError(
                f"invariant t2 + n2/2 - 1 > 0 violated: t2={t2}, n2={n2}"
            )
        self.__setstate__((n1, n2, t1, t2))


class BetaKotzParams(_Record):
    """Shape pair (a, b) with the derived log normalizing constant."""

    __slots__ = ("a", "b", "log_norm_const")

    def __init__(self, a: float, b: float):
        if not 0.0 < a <= sys.float_info.max:
            raise ValueError(f"shape a must be finite and > 0, got {a}")
        if not 0.0 < b <= sys.float_info.max:
            raise ValueError(f"shape b must be finite and > 0, got {b}")
        # Finite whenever a + b is; ValueError if a + b overflows.
        self.__setstate__((a, b, -ln_beta(a, b)))

    def __repr__(self):
        # log_norm_const is derived from (a, b), so the repr leaves it out.
        return f"{type(self).__qualname__}(a={self.a!r}, b={self.b!r})"


class ConfidenceLevel(_Record):
    """Probability level for the tail measures, strictly inside (0, 1)."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"confidence level must lie in (0, 1), got {alpha}")
        self.__setstate__((alpha,))


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
    """Raw moment E(X^t) = B(a+t, b) / B(a, b).

    Evaluated in log space so large shapes cannot overflow.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"moment order must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    return math.exp(ln_beta(p.a + t, p.b) + p.log_norm_const)


def mean(p: BetaKotzParams) -> float:
    """E(X) = a / (a + b)."""
    return p.a / (p.a + p.b)


def variance(p: BetaKotzParams) -> float:
    """Var(X) = a b / ((a + b)^2 (a + b + 1))."""
    s = p.a + p.b
    return p.a * p.b / (s * s * (s + 1.0))


def _moment_shapes(mean: float, variance: float) -> BetaKotzParams:
    """The shapes whose mean and variance are those given, inverted in
    closed form; InfeasibleMomentsError outside 0 < variance < mean(1-mean)."""
    bound = mean * (1.0 - mean)
    if variance <= 0.0 or variance >= bound:
        raise InfeasibleMomentsError(
            f"sample variance {variance} must lie in (0, "
            f"{bound}) = (0, mean*(1-mean)) for a moment fit"
        )
    common = bound / variance - 1.0
    return BetaKotzParams(mean * common, (1.0 - mean) * common)
