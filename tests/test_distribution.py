"""Distribution-layer tests: parameter mapping, density/CDF/moments."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from betakotz.distribution import (
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
from betakotz.specfun import ln_beta, ln_gamma


# ---------------------------------------------------------------------------
# parameter mapping
# ---------------------------------------------------------------------------

def test_from_kotz_gaussian_case():
    # t1 = t2 = 1 recovers the plain Beta(n1/2, n2/2)
    p = from_kotz(KotzGeneratorParams(n1=2, n2=4, t1=1, t2=1))
    assert (p.a, p.b) == (1.0, 2.0)


def test_from_kotz_boundary_violation():
    with pytest.raises(ValueError, match="t1"):
        KotzGeneratorParams(n1=1, n2=1, t1=0.5, t2=0.5)


def test_from_kotz_direct_substitution():
    p = from_kotz(KotzGeneratorParams(n1=3, n2=5, t1=2, t2=0.5))
    assert (p.a, p.b) == (2.5, 2.0)


def test_from_kotz_gaussian_case_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n1 = rng.uniform(0.5, 80.0)
        n2 = rng.uniform(0.5, 80.0)
        p = from_kotz(KotzGeneratorParams(n1=n1, n2=n2, t1=1.0, t2=1.0))
        assert p.a == n1 / 2.0
        assert p.b == n2 / 2.0


def test_norm_const_matches_definition():
    p = BetaKotzParams(2.0, 2.0)
    # Gamma(4)/(Gamma(2) Gamma(2)) = 6
    assert math.exp(p.log_norm_const) == pytest.approx(6.0, rel=1e-14)
    for a, b in [(0.05, 40000.0), (1.2, 11.4), (800.0, 800.0), (2.0, 2.0)]:
        assert BetaKotzParams(a, b).log_norm_const == -ln_beta(a, b)


@pytest.mark.parametrize("make, args, name", [
    (BetaKotzParams, (1.7e308, 1.7e308), "finite sum"),
    (BetaKotzParams, (10**400, 1.0), "shape a"),
    (BetaKotzParams, (1.0, 10**400), "shape b"),
    (ln_gamma, (10**400,), "ln_gamma requires"),
    (ConfidenceLevel, (10**400,), "confidence level"),
])
def test_unrepresentable_arguments_are_value_errors(make, args, name):
    # a + b = 3.4e308 and 10**400 have no double.
    with pytest.raises(ValueError, match=name):
        make(*args)


def test_extreme_shapes_have_finite_norm_const():
    # ln B(1e306, 1) = -ln(1e306); a sum of ln-gammas near 1e308 would
    # be inf - inf.  ln B stays finite wherever a + b is a double.
    assert BetaKotzParams(1e306, 1.0).log_norm_const == pytest.approx(
        math.log(1e306), rel=4e-16)
    with mpmath.workdps(400):  # the ln-gammas cancel in 300 digits
        for a, b in [(1e308, 7e307), (10.0, 1.7e308), (1.7e308, 5.0)]:
            a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
            exact = float(mpmath.loggamma(a_ + b_) - mpmath.loggamma(a_)
                          - mpmath.loggamma(b_))
            got = BetaKotzParams(a, b).log_norm_const
            assert math.isfinite(got) and got == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n1=0.0, n2=2.0, t1=1.0, t2=1.0), "n1 > 0"),
    (dict(n1=2.0, n2=-1.0, t1=1.0, t2=1.0), "n2 > 0"),
    (dict(n1=2.0, n2=2.0, t1=1.0, t2=0.0), r"t2 \+ n2/2 - 1 > 0"),
])
def test_kotz_generator_invariants(kwargs, name):
    with pytest.raises(ValueError, match=name):
        KotzGeneratorParams(**kwargs)


def test_invalid_shapes_rejected():
    for a, b in [(0.0, 1.0), (-2.0, 3.0), (1.0, 0.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            BetaKotzParams(a, b)


def test_confidence_level_validation():
    ConfidenceLevel(0.99)
    for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(ValueError):
            ConfidenceLevel(bad)


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------

def test_pdf_uniform():
    p = BetaKotzParams(1.0, 1.0)
    assert pdf(p, 0.42) == pytest.approx(1.0, rel=1e-14)


def test_pdf_symmetric_midpoint():
    # C = 6 for (2,2): 6 * 0.5 * 0.5 = 1.5
    assert pdf(BetaKotzParams(2.0, 2.0), 0.5) == pytest.approx(1.5, rel=1e-14)


def test_pdf_endpoint_limits():
    assert pdf(BetaKotzParams(1.0, 2.0), 0.0) == pytest.approx(2.0, rel=1e-14)
    assert pdf(BetaKotzParams(2.0, 2.0), 0.0) == 0.0
    assert pdf(BetaKotzParams(2.0, 2.0), 1.0) == 0.0
    assert pdf(BetaKotzParams(3.0, 1.0), 1.0) == pytest.approx(3.0, rel=1e-14)


def test_pdf_infinite_endpoint_is_range_error():
    with pytest.raises(OverflowError):
        pdf(BetaKotzParams(0.5, 2.0), 0.0)
    with pytest.raises(OverflowError):
        pdf(BetaKotzParams(2.0, 0.5), 1.0)


def test_pdf_domain_error():
    with pytest.raises(ValueError):
        pdf(BetaKotzParams(2.0, 2.0), 1.2)
    with pytest.raises(ValueError):
        pdf(BetaKotzParams(2.0, 2.0), -0.1)


def test_pdf_large_shapes_match_scipy():
    # The normalizing constant exp(log C) overflows here; only the
    # density itself has to be representable.
    for a, b, x in [(800, 800, 0.5), (1500, 600, 0.7), (300, 2000, 0.13)]:
        assert pdf(BetaKotzParams(a, b), x) == pytest.approx(
            scipy.stats.beta.pdf(x, a, b), rel=1e-10
        )


def test_pdf_integrates_to_one():
    rng = np.random.default_rng(5)
    for _ in range(12):
        p = BetaKotzParams(rng.uniform(0.5, 50.0), rng.uniform(0.5, 50.0))
        total, err = scipy.integrate.quad(
            lambda x: pdf(p, x), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200
        )
        assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------

def test_cdf_uniform():
    assert cdf(BetaKotzParams(1.0, 1.0), 0.99) == pytest.approx(0.99, abs=1e-14)


def test_cdf_is_square_for_two_one():
    p = BetaKotzParams(2.0, 1.0)
    for x in (0.1, 0.37, 0.5, 0.9):
        assert cdf(p, x) == pytest.approx(x * x, rel=1e-13)


def test_cdf_polynomial_oracle():
    # I_0.5(2,3) = 0.6875 by integrating 12 t (1-t)^2 exactly
    assert cdf(BetaKotzParams(2.0, 3.0), 0.5) == pytest.approx(0.6875, abs=1e-13)


def test_cdf_endpoints():
    p = BetaKotzParams(3.7, 0.4)
    assert cdf(p, 0.0) == 0.0
    assert cdf(p, 1.0) == 1.0


def test_cdf_monotone_on_grid():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(3):
        p = BetaKotzParams(rng.uniform(0.1, 50.0), rng.uniform(0.1, 50.0))
        vals = [cdf(p, float(x)) for x in grid]
        assert all(later >= earlier for earlier, later in zip(vals, vals[1:]))


def test_cdf_derivative_matches_pdf():
    rng = np.random.default_rng(9)
    h = 1e-6
    checked = 0
    while checked < 25:
        p = BetaKotzParams(rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0))
        x = rng.uniform(0.05, 0.95)
        dens = pdf(p, x)
        if dens < 1e-3:  # finite difference unconditioned in deep tails
            continue
        deriv = (cdf(p, x + h) - cdf(p, x - h)) / (2.0 * h)
        assert deriv == pytest.approx(dens, rel=1e-5)
        checked += 1


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_first_is_mean():
    p = BetaKotzParams(2.0, 3.0)
    assert moment(p, 1.0) == pytest.approx(0.4, rel=1e-14)


def test_moment_zero_is_one():
    for a, b in [(0.3, 40.0), (1.0, 1.0), (17.2, 0.9)]:
        assert moment(BetaKotzParams(a, b), 0.0) == 1.0


def test_moment_second_against_quadrature():
    p = BetaKotzParams(2.0, 2.0)
    # Gamma(4) Gamma(4) / (Gamma(6) Gamma(2)) = 36/120
    assert moment(p, 2.0) == pytest.approx(0.3, rel=1e-13)
    quad, _ = scipy.integrate.quad(lambda x: x * x * pdf(p, x), 0.0, 1.0)
    assert moment(p, 2.0) == pytest.approx(quad, rel=1e-10)


def test_moment_negative_order_rejected():
    with pytest.raises(ValueError):
        moment(BetaKotzParams(2.0, 2.0), -1.0)


def test_mean_variance_uniform():
    p = BetaKotzParams(1.0, 1.0)
    assert mean(p) == 0.5
    assert variance(p) == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_mean_table_one_row():
    # EC column 2/3 - sqrt(1-alpha) for (1,2) implies E(X) = 1/3
    assert mean(BetaKotzParams(1.0, 2.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_mean_credit_fit_parameters():
    p = BetaKotzParams(0.199, 30.63)
    assert mean(p) == pytest.approx(0.199 / 30.829, rel=1e-15)
    assert mean(p) == pytest.approx(0.0064554, abs=5e-6)


def test_variance_consistent_with_moments():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = BetaKotzParams(rng.uniform(0.1, 60.0), rng.uniform(0.1, 60.0))
        assert abs(variance(p) - (moment(p, 2.0) - mean(p) ** 2)) <= 1e-13
