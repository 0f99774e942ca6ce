"""Kernel tests: frozen known values, independent oracles, identities.

Oracles here are deliberately independent of the library code paths:
mpmath/scipy for gamma-family values and fixed-order quadrature for the
incomplete beta.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps

from betakotz import specfun
from betakotz.specfun import (
    ConvergenceError,
    digamma,
    gauss_2f1,
    ln_beta,
    ln_gamma,
    reg_inc_beta,
    trigamma,
)
from betakotz.specfun import _series_2f1

mp.mp.dps = 40

EULER_GAMMA = 0.5772156649015329


def log_grid(lo, hi, n=81):
    return np.logspace(math.log10(lo), math.log10(hi), n)


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------

def test_ln_gamma_known_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    # ln G(1e306) ~ 7e308 exceeds the largest double.
    assert ln_gamma(1e306) == math.inf


def test_ln_gamma_relative_accuracy_vs_mpmath():
    # Subnormal x: ln G(x) ~ -ln x is finite although 1/x overflows.
    for x in [*log_grid(1e-3, 1e6), 1e-310, 5e-324]:
        true = float(mp.loggamma(mp.mpf(float(x))))
        err = abs(ln_gamma(float(x)) - true)
        assert err <= 1e-13 * max(1.0, abs(true)), f"x={x}"


def test_ln_gamma_recurrence():
    # ln G(x+1) - ln G(x) = ln x; tolerance scaled by the operand size
    # because the difference of two O(1e5) logs cannot beat a few ulps.
    for x in log_grid(1e-2, 1e4):
        x = float(x)
        delta = ln_gamma(x + 1.0) - ln_gamma(x)
        scale = max(1.0, abs(ln_gamma(x + 1.0)))
        assert abs(delta - math.log(x)) <= 1e-12 * scale


def test_ln_beta_vs_mpmath():
    # The bound scales with ln B itself, however large the ln-gamma
    # terms that it is the difference of.
    eps = 2.0**-52
    grid = [float(v) for v in log_grid(0.05, 40000.0, 41)]
    for a in grid:
        for b in grid:
            true = float(mp.log(mp.beta(mp.mpf(a), mp.mpf(b))))
            assert abs(ln_beta(a, b) - true) <= 16 * eps * max(1.0, abs(true)), (a, b)


def test_ln_gamma_domain_errors():
    for bad in (0.0, -1.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            ln_gamma(bad)


# ---------------------------------------------------------------------------
# digamma / trigamma
# ---------------------------------------------------------------------------

def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)
    # recurrence oracle: psi(10) = psi(1) + sum_{k=1}^{9} 1/k
    expected = -EULER_GAMMA + math.fsum(1.0 / k for k in range(1, 10))
    assert digamma(10.0) == pytest.approx(expected, abs=1e-13)


def test_digamma_absolute_accuracy_vs_mpmath():
    for x in log_grid(1e-3, 1e6):
        true = float(mp.digamma(mp.mpf(float(x))))
        assert abs(digamma(float(x)) - true) <= 1e-12, f"x={x}"


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-13)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)
    # psi'(x) ~ 1/x^2 exceeds the largest double once x^2 underflows.
    assert trigamma(1e-200) == math.inf
    assert trigamma(5e-324) == math.inf


def test_trigamma_absolute_accuracy_vs_mpmath():
    # Below x ~ 2e-3 the value exceeds ~2.5e5 and a double's ulp alone
    # is larger than 1e-10, so the bound is checked where representable.
    for x in log_grid(2e-3, 1e6):
        true = float(mp.polygamma(1, mp.mpf(float(x))))
        assert abs(trigamma(float(x)) - true) <= 1e-10, f"x={x}"


def test_psi_recurrences_on_log_grid():
    for x in log_grid(1e-2, 1e4, 121):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) <= 1e-11


def test_psi_domain_errors():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-3.0)
    with pytest.raises(ValueError):
        trigamma(-0.5)


@pytest.mark.parametrize("func, args, message", [
    (digamma, (10**400,), "digamma requires finite x > 0"),
    (trigamma, (10**400,), "trigamma requires finite x > 0"),
    (reg_inc_beta, (10**400, 2.0, 0.5), "reg_inc_beta requires a > 0 and b > 0"),
    (reg_inc_beta, (2.0, 10**400, 0.5), "reg_inc_beta requires a > 0 and b > 0"),
    (reg_inc_beta, (2.0, 2.0, 10**400), "reg_inc_beta requires 0 <= x <= 1"),
    (digamma, (math.inf,), "digamma requires finite x > 0"),
    (reg_inc_beta, (2.0, 2.0, math.nan), "reg_inc_beta requires 0 <= x <= 1"),
], ids=["digamma", "trigamma", "reg_inc_beta-a", "reg_inc_beta-b", "reg_inc_beta-x",
        "digamma-inf", "reg_inc_beta-nan"])
def test_unrepresentable_arguments_are_value_errors(func, args, message):
    # An int above the largest double has no float: the same typed
    # refusal as ln_gamma's, not OverflowError from a float conversion.
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_psi_of_large_representable_int_matches_float():
    # The int's exact square exceeds the largest double; the float's does not.
    assert digamma(10**300) == digamma(1e300) == pytest.approx(300 * math.log(10))
    assert trigamma(10**300) == trigamma(1e300)


# ---------------------------------------------------------------------------
# gauss_2f1
# ---------------------------------------------------------------------------

def test_2f1_unit_when_second_parameter_zero():
    for m, p, x in [(1.3, 2.7, 0.5), (5.0, 0.4, -0.9), (0.2, 9.0, 0.99)]:
        assert gauss_2f1(m, 0.0, p, x) == 1.0


def test_2f1_log_identity():
    # 2F1(1,1;2;x) = -ln(1-x)/x
    x = 0.5
    assert gauss_2f1(1.0, 1.0, 2.0, x) == pytest.approx(
        -math.log1p(-x) / x, rel=1e-14
    )


def test_2f1_two_term_polynomial():
    # n = -1 terminates after two terms: 1 + m*(-1)/p * x
    assert gauss_2f1(1.0, -1.0, 2.0, 0.3) == pytest.approx(0.85, abs=1e-15)


def test_2f1_polynomial_term_count():
    for q in (1, 2, 3, 7, 12):
        value, terms = _series_2f1(2.5, -float(q), 4.0, 0.6)
        assert terms == q + 1
        assert value == pytest.approx(float(mp.hyp2f1(2.5, -q, 4.0, 0.6)), rel=1e-13)


def test_2f1_vs_mpmath_inside_disc():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = rng.uniform(0.1, 6.0)
        n = rng.uniform(-3.0, 3.0)
        p = rng.uniform(0.5, 8.0)
        x = rng.uniform(-0.85, 0.85)
        ours = gauss_2f1(m, n, p, x)
        true = float(mp.hyp2f1(m, n, p, x))
        assert ours == pytest.approx(true, rel=1e-12, abs=1e-13)


def test_2f1_domain_errors():
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 2.0, 2.0, 1.0)  # p - m - n = -1, divergent at x=1
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, -2.0, 0.5)  # pole before any termination
    with pytest.raises(ValueError):
        gauss_2f1(math.nan, 1.0, 2.0, 0.5)


def test_2f1_pole_after_termination_is_fine():
    # m = -2 terminates at k=2, before the pole of p = -3 at k=4.
    value = gauss_2f1(-2.0, 1.5, -3.0, 0.4)
    assert value == pytest.approx(float(mp.hyp2f1(-2, 1.5, -3, 0.4)), rel=1e-13)


def test_2f1_budget_exhaustion_carries_partial_sum(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_SERIES_TERMS", 200)
    with pytest.raises(ConvergenceError) as exc:
        gauss_2f1(0.25, 0.25, 1.0, 1.0)  # converges like k^", too slow
    assert exc.value.partial_sum is not None
    assert exc.value.terms == 201


def test_inc_beta_contfrac_stall_carries_partial_sum(monkeypatch):
    # (30, 40, 0.4) needs about 20 continued-fraction iterations.
    monkeypatch.setattr(specfun, "_CF_MAX_ITERS", 10)
    with pytest.raises(ConvergenceError) as exc:
        reg_inc_beta(30.0, 40.0, 0.4)
    assert math.isfinite(exc.value.partial_sum)
    assert exc.value.terms == 10


# ---------------------------------------------------------------------------
# reg_inc_beta
# ---------------------------------------------------------------------------

def test_inc_beta_uniform_case():
    assert reg_inc_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-15)


def test_inc_beta_one_two():
    # I_x(1,2) = 1 - (1-x)^2; x=0.9 -> 0.99
    assert reg_inc_beta(1.0, 2.0, 0.9) == pytest.approx(0.99, abs=1e-14)


def test_inc_beta_two_three_vs_quadrature():
    # 12-point Gauss-Legendre of the Beta(2,3) density over [0, 0.5];
    # the integrand is a quartic, so the rule is exact.
    nodes, weights = np.polynomial.legendre.leggauss(12)
    t = 0.25 * (nodes + 1.0)
    dens = 12.0 * t * (1.0 - t) ** 2
    oracle = 0.25 * float(np.sum(weights * dens))
    assert oracle == pytest.approx(0.6875, abs=1e-14)
    assert reg_inc_beta(2.0, 3.0, 0.5) == pytest.approx(0.6875, abs=1e-14)


def test_inc_beta_endpoints_and_monotonicity():
    assert reg_inc_beta(2.3, 4.5, 0.0) == 0.0
    assert reg_inc_beta(2.3, 4.5, 1.0) == 1.0
    xs = np.linspace(0.0, 1.0, 101)
    vals = [reg_inc_beta(2.3, 4.5, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_inc_beta_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.1, 50.0)
        x = rng.uniform(0.0, 1.0)
        assert abs(reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) - 1.0) <= 1e-12


def test_inc_beta_derivative_matches_density():
    rng = np.random.default_rng(31)
    h = 1e-6
    checked = 0
    while checked < 40:
        a = rng.uniform(0.5, 20.0)
        b = rng.uniform(0.5, 20.0)
        x = rng.uniform(0.05, 0.95)
        dens = math.exp(
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
            + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        )
        if dens < 1e-3:
            # Deep in a tail the central difference of two O(1) CDF
            # values is pure rounding noise; the identity is only
            # testable where the step resolves the density.
            continue
        deriv = (reg_inc_beta(a, b, x + h) - reg_inc_beta(a, b, x - h)) / (2.0 * h)
        assert deriv == pytest.approx(dens, rel=1e-5)
        checked += 1


def test_inc_beta_agrees_with_series_route():
    # Continued fraction vs the hypergeometric series form
    # I_x(a,b) = C x^a/a 2F1(a, 1-b; a+1; x).
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 60:
        a = rng.uniform(0.2, 8.0)
        b = rng.uniform(0.2, 8.0)
        x = rng.uniform(0.02, 0.9)
        if x >= (a + 1.0) / (a + b + 2.0):
            # Past the crossover the alternating series sheds digits to
            # cancellation; the kernel switches to the symmetric form
            # there for exactly that reason.
            continue
        series = (
            math.exp(ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b))
            * x**a / a * gauss_2f1(a, 1.0 - b, a + 1.0, x)
        )
        assert abs(reg_inc_beta(a, b, x) - series) <= 1e-12
        checked += 1


def test_inc_beta_vs_scipy():
    rng = np.random.default_rng(53)
    for _ in range(200):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.1, 50.0)
        x = rng.uniform(0.0, 1.0)
        assert abs(reg_inc_beta(a, b, x) - sps.betainc(a, b, x)) <= 1e-12


def test_inc_beta_domain_errors():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, -0.1)

