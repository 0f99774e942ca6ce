"""Tail-risk measures for the Beta-Kotz distribution.

Quantiles come from two routes that must agree: one inversion of the
incomplete beta that carries the smaller of x and 1 - x (a quantile that
rounds to 0 or 1 is a ValueError), and closed forms for the shape pairs
that admit them: mirror identity, radicals and the leading term, then
Newton polish, within 1e-15 relative in both tails.  CVaR likewise: VaR
plus the expected excess over it, by one tanh-sinh rule on the density,
is what gets returned, and an elementary form in VaR, mean plus a
multiple of the density at VaR, cross-checks it on every call; neither
touches the incomplete beta.
Normal and Student-t baselines round out the surface.
"""

from __future__ import annotations

import enum
import math
import sys

from .distribution import BetaKotzParams, ConfidenceLevel, _Record, mean
from .specfun import ConvergenceError, _inc_beta_tails, ln_beta

__all__ = [
    "SolveMethod",
    "RiskReport",
    "InternalConsistencyError",
    "RootConvergenceError",
    "var_numeric",
    "var_closed",
    "cvar",
    "cvar_closed",
    "report",
    "var_normal",
    "cvar_normal",
    "var_student",
    "cvar_student",
]


class InternalConsistencyError(RuntimeError):
    """Two supposedly-equivalent computations disagreed: a kernel bug."""


class RootConvergenceError(ConvergenceError):
    """Root finder ran out of iterations; carries the best bracket."""

    def __init__(self, message, bracket, best):
        super().__init__(message, partial_sum=best)
        self.bracket = bracket


class SolveMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    NUMERIC = "numeric"
    BOTH_AGREEING = "both_agreeing"


# Stopping rules of the incomplete-beta inversion: residual relative to
# the smaller tail, relative Newton step, iteration cap.
_ROOT_REL_TOL = 1e-13
_ROOT_STEP_TOL = 1e-12
_ROOT_MAX_ITERS = 200
_TINY = math.ulp(0.0)
_CLOSED_VS_NUMERIC_TOL = 1e-10
_CVAR_CROSSCHECK_TOL = 1e-8


def _tanh_sinh_nodes():
    """Tanh-sinh rule on (0, 1) as (log w, log weight) pairs.

    w = 1 / (1 + e^-s) with s = pi sinh t, so that
    dw/dt = pi cosh t w (1 - w), at step 1/16 on t in [-14, 6.125]
    (Takahasi & Mori, Publ. RIMS 9, 1974): beyond 6.125, w rounds to 1.
    The logs keep nodes down to log w = -1.9e6 from underflowing; the
    density of large shapes has mass at log w in the thousands.
    """
    nodes = []
    for k in range(-224, 99):
        t = k / 16.0
        s = math.pi * math.sinh(t)
        soft = math.log1p(math.exp(-abs(s)))
        log_w, log_1mw = min(s, 0.0) - soft, min(-s, 0.0) - soft
        nodes.append((log_w, math.log(math.pi / 16.0 * math.cosh(t))
                      + log_w + log_1mw))
    return nodes


_TANH_SINH = _tanh_sinh_nodes()


def _alpha_value(alpha) -> float:
    if isinstance(alpha, ConfidenceLevel):
        return alpha.alpha
    return ConfidenceLevel(float(alpha)).alpha


def _inc_beta_inverse(a, b, p):
    """(x, 1 - x) with I_x(a, b) = p for 0 < p < 1.

    By I_x(a, b) = 1 - I_{1-x}(b, a), whichever of x and 1 - x is below
    1/2 is solved for, as u, to full relative precision; the residual is
    that of min(p, 1 - p), relative to it.  Newton steps on log u start
    from the leading term (p a B(a, b))^(1/a) and fall back to geometric
    bisection (on [0, 1], as rounding can put u a hair above 1/2); a tiny
    relative step, as kernel rounding makes at large shapes, ends the
    solve too.  A u below the smallest positive double is a ValueError.
    """
    ln_b = ln_beta(a, b)  # symmetric in a and b: the mirror keeps it
    half = _inc_beta_tails(a, b, 0.5, 0.5, ln_b)[0]
    small = min(p, 1.0 - p)
    if abs(half - p) <= _ROOT_REL_TOL * small:
        return 0.5, 0.5
    mirrored = p > half
    if mirrored:
        a, b = b, a
    # Whether small is the carried I_u(a, b) or its complement.
    lower = (p <= 0.5) != mirrored
    level = small if lower else 1.0 - small
    t = (math.log(level) + math.log(a) + ln_b) / a
    u = max(math.exp(min(t, math.log(0.5))), _TINY)
    lo, hi = 0.0, 1.0
    for _ in range(_ROOT_MAX_ITERS):
        below, above = _inc_beta_tails(a, b, u, 1.0 - u, ln_b)
        side = below if lower else above
        rel = (side - small) / small
        if abs(rel) <= _ROOT_REL_TOL:
            break
        lo, hi = (lo, u) if (rel > 0.0) == lower else (u, hi)
        try:
            # Newton on log(side / small), which the leading term makes
            # nearly linear in log u; d I_u / d log u = u^a (1-u)^(b-1) / B.
            step = math.log1p(rel) * side / math.exp(
                a * math.log(u) + (b - 1.0) * math.log1p(-u) - ln_b)
            u_new = u * math.exp(-step if lower else step)
        except (OverflowError, ZeroDivisionError, ValueError):
            u_new = lo  # a tail or the slope underflowed: bisect
        if not lo < u_new < hi:
            u_new = math.sqrt(max(lo, _TINY)) * math.sqrt(hi)
            if not lo < u_new < hi:  # adjacent doubles
                u = lo
                break
        u, u_old = u_new, u
        if abs(u - u_old) <= _ROOT_STEP_TOL * u_old:
            break
    else:
        raise RootConvergenceError(
            f"incomplete-beta inversion exhausted {_ROOT_MAX_ITERS} iterations",
            bracket=(1.0 - hi, 1.0 - lo) if mirrored else (lo, hi),
            best=1.0 - u if mirrored else u,
        )
    if u == 0.0:
        raise ValueError(f"the level-{p} quantile rounds to {float(mirrored)}: "
                         f"it lies within 5e-324 of it")
    return (1.0 - u, u) if mirrored else (u, 1.0 - u)


def _var_pair(p: BetaKotzParams, a_level: float):
    # (VaR, 1 - VaR), refusing a VaR that no double below 1 represents.
    q, tail = _inc_beta_inverse(p.a, p.b, a_level)
    if q == 1.0:
        raise ValueError(
            f"VaR rounds to 1: 1 - VaR = {tail:.3g} is below the spacing "
            f"of doubles under 1 (a={p.a}, b={p.b}, alpha={a_level})"
        )
    return q, tail


def var_numeric(p: BetaKotzParams, alpha) -> float:
    """Quantile of the Beta-Kotz law by inverting its CDF I_x(a, b)."""
    return _var_pair(p, _alpha_value(alpha))[0]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _as_small_int(v):
    r = round(v)
    if abs(v - r) <= 1e-12 and 0 <= r <= 1_000_000:
        return int(r)
    return None


def _polish_polynomial_root(x, poly, dpoly):
    # Three Newton iterations recover the digits the starting formulas
    # lose to cancellation; the starting point is already in the basin.
    for _ in range(3):
        d = dpoly(x)
        if d == 0.0:
            break
        x -= poly(x) / d
    return min(max(x, 0.0), 1.0)


def _ferrari_32(level):
    # Root in (0, 1) of the (3, 2) CDF 4x^3 - 3x^4 = level: Ferrari on
    # x = 1/y, where y^4 - (4/level) y + 3/level = 0, with z the real
    # root of its resolvent cubic.
    s = math.sqrt(1.0 - level)
    z = 2.0 * level ** (-2.0 / 3.0) * (
        (1.0 + s) ** (1.0 / 3.0) + (1.0 - s) ** (1.0 / 3.0))
    w = math.sqrt(z)
    return 1.0 / (0.5 * w + math.sqrt(2.0 / (level * w) - 0.25 * z))


# CDF polynomial F, density F' and leading coefficient c (F ~ c x^a at 0)
# of the integer pairs whose quantile has radicals.  Closed under swapping
# a and b, so that I_x(a, b) = 1 - I_{1-x}(b, a) sends every level to a
# lower-tail root, where it is well conditioned.
_POLYNOMIAL_CDFS = {
    (2, 2): (lambda x: (3.0 - 2.0 * x) * x * x,
             lambda x: 6.0 * x * (1.0 - x), 3.0),
    (3, 2): (lambda x: (4.0 - 3.0 * x) * x**3,
             lambda x: 12.0 * x * x * (1.0 - x), 4.0),
    (2, 3): (lambda x: ((3.0 * x - 8.0) * x + 6.0) * x * x,
             lambda x: 12.0 * x * (1.0 - x) ** 2, 6.0),
}
# Below this level the radicals lose the level's digits to cancellation,
# and the leading term (level / c)^(1/a) is the better start.
_LEADING_TERM_LEVEL = 1e-8


def _lower_tail_root(pair, level):
    """Root of F(x) = level for a pair of _POLYNOMIAL_CDFS and level <= 1/2."""
    poly, dpoly, c = _POLYNOMIAL_CDFS[pair]
    if level < _LEADING_TERM_LEVEL:
        # Root first, as level / c can underflow; at a subnormal level the
        # term is exact to rounding and the polish sees only subnormals.
        x = level ** (1.0 / pair[0]) / c ** (1.0 / pair[0])
        if level < sys.float_info.min:
            return x
    elif pair == (2, 2):
        x = 0.5 + math.cos((2.0 * math.pi - math.acos(1.0 - 2.0 * level)) / 3.0)
    elif pair == (3, 2):
        x = _ferrari_32(level)
    else:
        x = 1.0 - _ferrari_32(1.0 - level)
    return _polish_polynomial_root(x, lambda t: poly(t) - level, dpoly)


def var_closed(p: BetaKotzParams, alpha) -> float | None:
    """Closed-form quantile for the supported shape pairs, else None.

    Covered: integer a with b = 1 (pure power), (1,2), (2,2), (3,2),
    (1,3), (2,3), (1,4).  Through the mirror identity
    Q_{a,b}(alpha) = 1 - Q_{b,a}(1 - alpha), (1, b) is the mirrored power
    law, and (2,2), (3,2), (2,3) solve their CDF polynomial in the lower
    tail only: from radicals, or from the leading term below level 1e-8,
    then Newton polish.  Every quantile is within 1e-15 relative of the
    exact root, in both tails.
    """
    a_level = _alpha_value(alpha)
    ia = _as_small_int(p.a)
    ib = _as_small_int(p.b)
    if ib == 1 and ia is not None and ia >= 1:
        return a_level ** (1.0 / ia)
    if ia == 1 and ib in (2, 3, 4):
        return -math.expm1(math.log1p(-a_level) / ib)
    if (ia, ib) in _POLYNOMIAL_CDFS:
        if a_level <= 0.5:
            return _lower_tail_root((ia, ib), a_level)
        return 1.0 - _lower_tail_root((ib, ia), 1.0 - a_level)
    return None


# ---------------------------------------------------------------------------
# CVaR / EC
# ---------------------------------------------------------------------------

def _elementary_cvar(p, a_level, q, tail):
    # E[X | X > q] = mean + q^a (1 - q)^b / (B(a, b) (a + b) (1 - alpha)),
    # by I_q(a+1, b) = I_q(a, b) - q^a (1 - q)^b / (a B(a, b)) at
    # I_q(a, b) = alpha: exact up to q, with no incomplete beta.  Both
    # logs come from the carried side, as in _density_cvar.
    if q < 0.5:
        ln_q, ln_tail = math.log(q), math.log1p(-q)
    else:
        ln_q, ln_tail = math.log1p(-tail), math.log(tail)
    return mean(p) + math.exp(p.log_norm_const + p.a * ln_q + p.b * ln_tail) / (
        (p.a + p.b) * (1.0 - a_level))


def _density_cvar(p, a_level, q, tail):
    """CVaR as q + E[(X - q)+] / (1 - alpha), by quadrature of the density.

    This Rockafellar-Uryasev form is minimal, and flat, at the exact
    quantile q*, where it equals CVaR: a root off by dq moves it by
    O(dq^2), while the elementary form, which takes F(q) = alpha, moves
    to first order, by (q - mean) (alpha - F(q)) / (1 - alpha).

    E[(X - q)+] is the integral of (x - q) f(x) over [q, 1], of length
    tail = 1 - q; the incomplete beta is never called.  Substituting
    1 - x = tail w^(1/b) turns (1 - x)^(b-1) dx into (tail^b / b) dw,
    which absorbs the singularity at 1; what is left, (x - q) x^(a-1)
    with x - q = -tail expm1(log w / b), is integrated over w in (0, 1)
    by the tanh-sinh rule _TANH_SINH, in log form.
    """
    am1, inv_b = p.a - 1.0, 1.0 / p.b
    # ln(1 - q) from the carried side: b would scale the rounding of the other.
    ln_tail = math.log1p(-q) if q < 0.5 else math.log(tail)
    lead = p.log_norm_const + p.b * ln_tail - math.log(p.b)
    excess = 0.0
    try:
        for log_w, log_weight in _TANH_SINH:
            gap = -tail * math.expm1(log_w * inv_b)
            excess += gap * math.exp(lead + log_weight + am1 * math.log(q + gap))
    except OverflowError:
        raise ValueError(
            f"CVaR quadrature overflows a float for (a={p.a}, b={p.b}, "
            f"alpha={a_level})") from None
    return q + excess / (1.0 - a_level)


def cvar(p: BetaKotzParams, alpha) -> float:
    """Mean of the (1-alpha) tail, computed by two routes that must agree.

    VaR plus the expected excess over it, by tanh-sinh quadrature of the
    density, provides the returned value; the elementary form
    mean + q^a (1-q)^b / (B(a, b) (a+b) (1-alpha)) at q = VaR is a
    mandatory cross-check, and disagreement beyond 1e-8 signals a kernel
    bug.  Neither route calls the incomplete beta.
    """
    a_level = _alpha_value(alpha)
    return _checked_cvar(p, a_level, *_var_pair(p, a_level))


def _checked_cvar(p, a_level, q, tail):
    # cvar() given q and tail = 1 - q, which report() solves for once.
    density = _density_cvar(p, a_level, q, tail)
    elementary = _elementary_cvar(p, a_level, q, tail)
    # Written as `not <=` so that a nan from either route raises too.
    if not abs(density - elementary) <= _CVAR_CROSSCHECK_TOL:
        raise InternalConsistencyError(
            f"CVaR routes disagree: density={density!r}, "
            f"elementary={elementary!r} for (a={p.a}, b={p.b}, "
            f"alpha={a_level})"
        )
    return density


def cvar_closed(p: BetaKotzParams, alpha) -> float | None:
    """Closed-form CVaR for the analytic rows, else None.

    Covered: integer a with b = 1, plus (1,1), (1,2), (1,3), (1,4);
    each is the elementary integral of the closed-form quantile.
    """
    a_level = _alpha_value(alpha)
    ia = _as_small_int(p.a)
    ib = _as_small_int(p.b)
    if ib == 1 and ia is not None and ia >= 1:
        if ia == 1:
            return 0.5 * (1.0 + a_level)
        # expm1 keeps 1 - alpha^((ia+1)/ia) exact as alpha nears 1.
        return (
            ia * -math.expm1((ia + 1.0) / ia * math.log(a_level))
            / ((ia + 1.0) * (1.0 - a_level))
        )
    if ia == 1 and ib in (2, 3, 4):
        return 1.0 - ib / (ib + 1.0) * (1.0 - a_level) ** (1.0 / ib)
    return None


def report(p: BetaKotzParams, alpha,
           method: SolveMethod = SolveMethod.BOTH_AGREEING) -> "RiskReport":
    """Bundle VaR, CVaR, EC and the mean, with method provenance.

    `method` is CLOSED_FORM (closed forms only), NUMERIC (root solve and
    cross-checked CVaR) or BOTH_AGREEING: NUMERIC plus the closed-form
    quantile, checked against the root, wherever one exists.
    """
    a_level = _alpha_value(alpha)
    if method is SolveMethod.CLOSED_FORM:
        v, c = var_closed(p, a_level), cvar_closed(p, a_level)
        if v is None or c is None:
            raise ValueError(
                f"no closed form for (a={p.a}, b={p.b}); use --method numeric"
            )
    else:
        q, tail = _var_pair(p, a_level)
        v = var_closed(p, a_level) if method is SolveMethod.BOTH_AGREEING else None
        if v is None:
            v, method = q, SolveMethod.NUMERIC
        elif abs(v - q) > _CLOSED_VS_NUMERIC_TOL:
            raise InternalConsistencyError(
                f"closed-form and numeric quantiles disagree: "
                f"{v!r} vs {q!r} for (a={p.a}, b={p.b}, alpha={a_level})"
            )
        c = _checked_cvar(p, a_level, q, tail)
    m = mean(p)
    return RiskReport(
        alpha=ConfidenceLevel(a_level),
        var=v,
        cvar=c,
        ec=v - m,
        mean=m,
        method=method,
    )


class RiskReport(_Record):
    """Risk-measure bundle at one confidence level."""

    __slots__ = ("alpha", "var", "cvar", "ec", "mean", "method")

    def __init__(self, alpha: ConfidenceLevel, var: float, cvar: float,
                 ec: float, mean: float, method: SolveMethod):
        if not 0.0 < var < 1.0:
            raise ValueError(f"var must lie in (0, 1), got {var}")
        if cvar < var:
            raise ValueError(
                f"cvar must dominate var, got cvar={cvar} < var={var}"
            )
        if cvar > 1.0:
            raise ValueError(
                f"cvar must not exceed 1, the top of the support, got "
                f"cvar={cvar} (var={var}): with VaR this close to 1, the "
                f"tail mean rounds above it"
            )
        if ec != var - mean:
            raise ValueError("ec must equal var - mean exactly")
        self.__setstate__((alpha, var, cvar, ec, mean, method))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.alpha,
            "var": self.var,
            "cvar": self.cvar,
            "ec": self.ec,
            "mean": self.mean,
            "method": self.method.value,
        }


# ---------------------------------------------------------------------------
# location-scale baselines
# ---------------------------------------------------------------------------

# The normal baselines import `statistics` when called: at module level it
# would add its imports (`decimal`, `fractions`, `numbers`) to every CLI
# start-up, and no subcommand calls these two functions.

def var_normal(mu: float, sigma: float, alpha) -> float:
    """Normal quantile mu + sigma * Phi^{-1}(alpha)."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    import statistics

    return statistics.NormalDist(mu, sigma).inv_cdf(_alpha_value(alpha))


def cvar_normal(mu: float, sigma: float, alpha) -> float:
    """Normal expected shortfall mu + sigma * phi(z_alpha)/(1-alpha)."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    import statistics

    a_level = _alpha_value(alpha)
    std = statistics.NormalDist()
    return mu + sigma * std.pdf(std.inv_cdf(a_level)) / (1.0 - a_level)


def _t_pdf(x, nu):
    return math.exp(
        -ln_beta(0.5, 0.5 * nu) - 0.5 * math.log(nu)
        - 0.5 * (nu + 1.0) * math.log1p(x * x / nu)
    )


def _t_quantile(prob, nu):
    # P(|T| > t) = I_x(nu/2, 1/2) with x = nu / (nu + t^2), so that
    # t = sqrt(nu (1 - x) / x), both sides of x from one inversion.
    if prob == 0.5:
        return 0.0
    x, y = _inc_beta_inverse(0.5 * nu, 0.5, 2.0 * min(prob, 1.0 - prob))
    t = math.sqrt(nu) * math.sqrt(y) / math.sqrt(x)
    return t if prob > 0.5 else -t


def var_student(mu: float, sigma: float, nu: float, alpha) -> float:
    """Student-t quantile mu + sigma * t_nu^{-1}(alpha).

    The two-sided t tail is an incomplete beta, inverted by the same
    solver as the Beta-Kotz quantile.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not 0.0 < nu <= sys.float_info.max:
        raise ValueError(f"degrees of freedom must be finite and > 0, got {nu}")
    return mu + sigma * _t_quantile(_alpha_value(alpha), nu)


def cvar_student(mu: float, sigma: float, nu: float, alpha) -> float:
    """Student-t expected shortfall; requires nu > 1 for a finite mean."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not 1.0 < nu <= sys.float_info.max:
        raise ValueError(f"cvar_student requires finite nu > 1, got {nu}")
    a_level = _alpha_value(alpha)
    t = _t_quantile(a_level, nu)
    es = _t_pdf(t, nu) / (1.0 - a_level) * (nu + t * t) / (nu - 1.0)
    return mu + sigma * es
