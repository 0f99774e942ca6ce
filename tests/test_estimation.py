"""Estimator tests: sufficient statistics, method of moments, MLE."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betakotz
from betakotz import distribution, estimation
from betakotz.credit import Guarantee, Obligor, Rating, Segment, period_report
from betakotz.distribution import BetaKotzParams, mean, pdf, variance
from betakotz.estimation import (
    InfeasibleMomentsError,
    SampleStats,
    fit_mle,
    fit_moments,
    log_likelihood,
    stats_from_samples,
)
from betakotz.specfun import digamma, trigamma


def seeded_beta_sample(a, b, n, seed):
    return np.random.default_rng(seed).beta(a, b, size=n)


# ---------------------------------------------------------------------------
# stats_from_samples
# ---------------------------------------------------------------------------

def test_stats_two_point_sample():
    s = stats_from_samples([0.25, 0.75])
    assert s.n == 2
    assert s.mean == pytest.approx(0.5, abs=1e-15)
    assert s.variance == pytest.approx(0.125, abs=1e-15)
    assert s.sum_log_x == pytest.approx(math.log(0.25) + math.log(0.75), rel=1e-15)


def test_stats_degenerate_sample_flows_to_infeasible_fit():
    s = stats_from_samples([0.5, 0.5, 0.5])
    assert s.variance == 0.0
    with pytest.raises(InfeasibleMomentsError):
        fit_moments(s)


def test_stats_seeded_uniform_draws():
    xs = seeded_beta_sample(1.0, 1.0, 1000, seed=101)
    s = stats_from_samples(xs)
    assert abs(s.mean - 0.5) < 0.05
    assert s.n == 1000


def test_stats_matches_numpy_reference():
    xs = seeded_beta_sample(2.0, 7.0, 5000, seed=5)
    s = stats_from_samples(xs)
    assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
    assert s.variance == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-12)
    assert s.sum_log_x == pytest.approx(float(np.sum(np.log(xs))), rel=1e-12)
    assert s.sum_log_1mx == pytest.approx(float(np.sum(np.log1p(-xs))), rel=1e-12)


def test_stats_rejects_out_of_range_with_index():
    with pytest.raises(ValueError, match="index 2"):
        stats_from_samples([0.2, 0.4, 1.0, 0.3])
    with pytest.raises(ValueError, match="index 0"):
        stats_from_samples([0.0, 0.4])
    with pytest.raises(ValueError):
        stats_from_samples([0.4])


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400, True, "0.5", None,
            Fraction(1, 2), Decimal("0.5")],
    ids=["nan", "inf", "-inf", "10**400", "True", "str", "None",
         "Fraction", "Decimal"],
)
def test_stats_rejects_non_finite_and_non_numeric(bad):
    # A huge int is refused like any other out-of-range value, with the
    # documented ValueError rather than an OverflowError; numbers that
    # are neither int nor float are refused even inside (0, 1).
    with pytest.raises(ValueError) as err:
        stats_from_samples([0.2, bad, 0.3])
    assert str(err.value) == (
        f"sample value at index 1 must lie strictly in (0, 1), got {bad!r}"
    )


def test_stats_accepts_numpy_float64_bit_identically():
    # np.float64 subclasses float but is not a float by type(): it takes
    # the isinstance path and must reduce to the very same statistics.
    xs = [0.013, 0.2, 0.47, 0.0009, 1.0 / 3.0, 0.999, 0.05]
    ours = stats_from_samples([np.float64(x) for x in xs])
    ref = stats_from_samples(xs)
    assert ([float(v).hex() for v in ours.__getstate__()]
            == [float(v).hex() for v in ref.__getstate__()])


def exact_moments(xs):
    """The exact mean and variance (n-1 divisor) of the floats `xs`, each
    a whole multiple of 2**-1074, in integer arithmetic."""
    ints = [num * (2**1074 // den) for num, den in map(float.as_integer_ratio, xs)]
    n, total = len(ints), sum(ints)
    squares = sum(i * i for i in ints)
    return (Fraction(total, n * 2**1074),
            Fraction(n * squares - total * total, n * (n - 1) * 2**2148))


U = Fraction(1, 2**53)  # the unit roundoff
ETA = Fraction(1, 2**1074)  # the least subnormal


def assert_near_exact_moments(stats, xs):
    # Each chunk's mean is within about u M of the exact mean M, and
    # holding it in place of M adds about (u M)^2 to the variance V; the
    # least subnormal bounds what a subnormal sample's moments can
    # resolve.  Measured worst over these strategies: 1.9 and 3.2 of the
    # bounds' units, against 13.7 and 16.2 for Welford's recurrence.
    exact_mean, exact_variance = exact_moments(xs)
    assert abs(Fraction(stats.mean) - exact_mean) <= 4 * (U * exact_mean + ETA)
    assert abs(Fraction(stats.variance) - exact_variance) <= 8 * (
        U * exact_variance + U * U * exact_mean**2 + ETA)


def hexes(values):
    return [float(v).hex() for v in values]


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                        exclude_max=True)
unit_samples = st.lists(unit_floats, min_size=2, max_size=60)
# samples of 2 to 400 values, which cross the moment chunk's 128
chunked_samples = st.integers(2, 400).flatmap(
    lambda n: st.lists(unit_floats, min_size=n, max_size=n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(unit_samples, chunked_samples))
def test_stats_are_near_the_exact_moments_from_any_container(xs):
    stats = stats_from_samples(xs)
    assert stats.n == len(xs)
    assert_near_exact_moments(stats, xs)
    # the log-sums are added left to right
    sum_log_x = sum_log_1mx = 0.0
    for x in xs:
        sum_log_x += math.log(x)
        sum_log_1mx += math.log1p(-x)
    assert hexes((stats.sum_log_x, stats.sum_log_1mx)) == hexes((sum_log_x, sum_log_1mx))
    expected = hexes(stats.__getstate__())
    for sample in (tuple(xs), iter(xs), (x for x in xs), np.array(xs)):
        assert hexes(stats_from_samples(sample).__getstate__()) == expected


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(unit_samples)
def test_moment_fit_reads_only_the_mean_and_variance(xs):
    stats = stats_from_samples(xs)
    assert_near_exact_moments(stats, xs)
    # another count and other log-sums with the same mean and variance
    other = SampleStats(stats.n + 5, stats.mean, stats.variance, -1.0, -2.0)
    try:
        expected = fit_moments(stats)
    except InfeasibleMomentsError as err:
        for run in (lambda: fit_moments(other),
                    lambda: distribution._moment_shapes(stats.mean, stats.variance)):
            with pytest.raises(InfeasibleMomentsError, match=re.escape(str(err))):
                run()
    else:
        assert fit_moments(other) == expected
        assert distribution._moment_shapes(stats.mean, stats.variance) == expected


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(unit_floats, st.integers(2, 400))
def test_a_constant_sample_has_no_spread_at_any_length(x, n):
    # The mean of a chunk of one value is that value, across chunk
    # boundaries too: a variance a rounding above 0.0 would let the
    # moment fit and the likelihood fit through.
    stats = stats_from_samples([x] * n)
    assert (stats.mean, stats.variance) == (x, 0.0)
    # the same plain floats from a numpy array
    from_array = stats_from_samples(np.full(n, x)).__getstate__()
    assert from_array == stats.__getstate__()
    assert {type(v) for v in from_array[1:]} == {float}
    with pytest.raises(InfeasibleMomentsError, match=r"^sample variance 0\.0 must lie"):
        fit_moments(stats)
    with pytest.raises(InfeasibleMomentsError, match=r"^sample variance is 0\.0: "):
        fit_mle(stats)
    # n + 128 obligors of EAD x, PD 1 and LGD 1 have equal loss rates
    obligors = [Obligor(f"O{k}", Rating.AA, Segment.OTHER, x, Guarantee.NO_GUARANTEE,
                        pd_override=1.0, lgd_override=1.0) for k in range(n + 128)]
    with pytest.raises(InfeasibleMomentsError, match=r"^sample variance 0\.0 must lie"):
        period_report("m", obligors)


def test_infeasible_moments_error_is_one_class_defined_in_distribution():
    # The moment inversion lives beside mean and variance; estimation and
    # the package root name the same class.
    assert InfeasibleMomentsError is distribution.InfeasibleMomentsError
    assert betakotz.InfeasibleMomentsError is InfeasibleMomentsError
    assert estimation._moment_shapes is distribution._moment_shapes
    assert InfeasibleMomentsError.__module__ == "betakotz.distribution"


def test_sample_stats_validation():
    with pytest.raises(ValueError):
        SampleStats(n=1, mean=0.5, variance=0.1, sum_log_x=-1.0, sum_log_1mx=-1.0)
    with pytest.raises(ValueError):
        SampleStats(n=5, mean=1.5, variance=0.1, sum_log_x=-1.0, sum_log_1mx=-1.0)
    with pytest.raises(ValueError):
        SampleStats(n=5, mean=0.5, variance=-0.1, sum_log_x=-1.0, sum_log_1mx=-1.0)
    with pytest.raises(ValueError, match="log-sums"):
        SampleStats(n=5, mean=0.5, variance=0.1, sum_log_x=-math.inf, sum_log_1mx=-1.0)


# ---------------------------------------------------------------------------
# method of moments
# ---------------------------------------------------------------------------

def test_fit_moments_uniform():
    s = SampleStats(n=10, mean=0.5, variance=1.0 / 12.0,
                    sum_log_x=-10.0, sum_log_1mx=-10.0)
    p = fit_moments(s)
    assert p.a == pytest.approx(1.0, rel=1e-14)
    assert p.b == pytest.approx(1.0, rel=1e-14)


def test_fit_moments_hand_inverted_case():
    # mean 1/3, variance 1/18 inverts to (1, 2)
    s = SampleStats(n=10, mean=1.0 / 3.0, variance=1.0 / 18.0,
                    sum_log_x=-10.0, sum_log_1mx=-5.0)
    p = fit_moments(s)
    assert p.a == pytest.approx(1.0, rel=1e-13)
    assert p.b == pytest.approx(2.0, rel=1e-13)


def test_fit_moments_credit_parameters_round_trip():
    # Table-10-style shapes: forward moments, then invert.
    target = BetaKotzParams(0.199, 30.63)
    s = SampleStats(n=14000, mean=mean(target), variance=variance(target),
                    sum_log_x=-1.0, sum_log_1mx=-1.0)
    p = fit_moments(s)
    assert p.a == pytest.approx(0.199, rel=1e-12)
    assert p.b == pytest.approx(30.63, rel=1e-12)


def test_fit_moments_round_trip_random_shapes():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = rng.uniform(0.1, 60.0)
        b = rng.uniform(0.1, 60.0)
        target = BetaKotzParams(a, b)
        s = SampleStats(n=50, mean=mean(target), variance=variance(target),
                        sum_log_x=-1.0, sum_log_1mx=-1.0)
        p = fit_moments(s)
        assert abs(p.a - a) <= 1e-10 * a
        assert abs(p.b - b) <= 1e-10 * b


def test_fit_moments_reproduces_sample_moments():
    xs = seeded_beta_sample(3.0, 9.0, 2000, seed=9)
    s = stats_from_samples(xs)
    p = fit_moments(s)
    assert mean(p) == pytest.approx(s.mean, abs=1e-12)
    assert variance(p) == pytest.approx(s.variance, abs=1e-12)


def test_fit_moments_infeasible():
    s = SampleStats(n=10, mean=0.5, variance=0.3,  # 0.3 >= 0.25
                    sum_log_x=-10.0, sum_log_1mx=-10.0)
    with pytest.raises(InfeasibleMomentsError):
        fit_moments(s)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def test_log_likelihood_uniform_is_zero():
    s = stats_from_samples([0.1, 0.2, 0.9])
    assert log_likelihood(BetaKotzParams(1, 1), s) == 0.0


def test_log_likelihood_single_density_value():
    # Beta(2,1) density at 0.5 is 2*0.5 = 1, so the log-likelihood of
    # the two-copy sample is 0.
    s = stats_from_samples([0.5, 0.5])
    assert log_likelihood(BetaKotzParams(2, 1), s) == pytest.approx(0.0, abs=1e-14)


def test_log_likelihood_matches_pointwise_density():
    xs = [0.2, 0.4, 0.6]
    p = BetaKotzParams(2, 3)
    s = stats_from_samples(xs)
    direct = sum(math.log(pdf(p, x)) for x in xs)
    assert log_likelihood(p, s) == pytest.approx(direct, rel=1e-13)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def test_fit_mle_uniform_fixed_point():
    # Population sufficient statistics of Beta(1,1): E log X = -1.
    n = 100
    s = SampleStats(n=n, mean=0.5, variance=1.0 / 12.0,
                    sum_log_x=-float(n), sum_log_1mx=-float(n))
    r = fit_mle(s)
    assert r.converged
    assert r.params.a == pytest.approx(1.0, abs=1e-9)
    assert r.params.b == pytest.approx(1.0, abs=1e-9)
    assert r.gradient_norm <= 1e-10


def test_fit_mle_seeded_beta_2_5():
    xs = seeded_beta_sample(2.0, 5.0, 10_000, seed=42)
    s = stats_from_samples(xs)
    r = fit_mle(s)
    assert r.converged
    assert r.gradient_norm <= 1e-10
    # Sampling envelope from the inverse Fisher information at (2,5):
    # I = [[psi'(a)-psi'(a+b), -psi'(a+b)], [-psi'(a+b), psi'(b)-psi'(a+b)]]
    tri_ab = trigamma(7.0)
    i11 = trigamma(2.0) - tri_ab
    i22 = trigamma(5.0) - tri_ab
    det = i11 * i22 - tri_ab * tri_ab
    se_a = math.sqrt(i22 / det / 10_000)
    se_b = math.sqrt(i11 / det / 10_000)
    assert abs(r.params.a - 2.0) <= 4.0 * se_a
    assert abs(r.params.b - 5.0) <= 4.0 * se_b
    # which sits inside the coarser published envelope
    assert 1.85 < r.params.a < 2.15
    assert 4.6 < r.params.b < 5.4


def test_fit_mle_score_vanishes_at_optimum():
    xs = seeded_beta_sample(0.8, 3.5, 4000, seed=13)
    s = stats_from_samples(xs)
    r = fit_mle(s)
    assert r.converged
    a, b = r.params.a, r.params.b
    g1 = s.n * (digamma(a + b) - digamma(a)) + s.sum_log_x
    g2 = s.n * (digamma(a + b) - digamma(b)) + s.sum_log_1mx
    assert max(abs(g1), abs(g2)) / s.n <= 1e-10


def test_fit_mle_hessian_negative_definite_at_optimum():
    xs = seeded_beta_sample(1.4, 6.0, 3000, seed=29)
    r = fit_mle(stats_from_samples(xs))
    a, b = r.params.a, r.params.b
    t_a, t_b, t_ab = trigamma(a), trigamma(b), trigamma(a + b)
    assert t_a - t_ab > 0.0
    assert (t_a - t_ab) * (t_b - t_ab) - t_ab * t_ab > 0.0


def test_fit_mle_beats_moments_likelihood():
    for seed, (a, b) in [(1, (2.0, 5.0)), (2, (0.5, 0.5)), (3, (8.0, 1.3))]:
        s = stats_from_samples(seeded_beta_sample(a, b, 3000, seed=seed))
        mom = fit_moments(s)
        r = fit_mle(s)
        assert r.log_likelihood >= log_likelihood(mom, s) - 1e-9


def _infeasible_moments(stats):
    raise InfeasibleMomentsError("forced (1, 1) start")


def test_fit_mle_init_independence(monkeypatch):
    s = stats_from_samples(seeded_beta_sample(2.0, 5.0, 5000, seed=55))
    from_mom = fit_mle(s)
    monkeypatch.setattr(estimation, "fit_moments", _infeasible_moments)
    from_unit = fit_mle(s)
    assert from_mom.params.a == pytest.approx(from_unit.params.a, abs=1e-8)
    assert from_mom.params.b == pytest.approx(from_unit.params.b, abs=1e-8)


def test_fit_mle_infeasible_moments_start_from_unit_shapes():
    # Sample variance 0.4802 exceeds mean*(1-mean) = 0.25, so the moment
    # start is refused and Newton starts from (1, 1); scipy's
    # beta.fit(..., floc=0, fscale=1) gives 0.24418732507 for both.
    s = stats_from_samples([0.01, 0.99])
    with pytest.raises(InfeasibleMomentsError):
        fit_moments(s)
    r = fit_mle(s)
    assert r.converged
    assert r.params.a == pytest.approx(0.24418732506, abs=1e-10)
    assert r.params.b == pytest.approx(0.24418732506, abs=1e-10)


@pytest.mark.parametrize("xs", [[0.5, 0.5], [0.3, 0.3, 0.3]])
def test_fit_mle_refuses_a_sample_with_no_spread(xs):
    # Equal values have a likelihood that grows without bound as a and b
    # do at a fixed mean, so there is no maximum to report.
    s = stats_from_samples(xs)
    assert s.variance == 0.0
    with pytest.raises(InfeasibleMomentsError, match=(
            r"^sample variance is 0\.0: a sample with no spread has no "
            r"maximum-likelihood fit$")):
        fit_mle(s)


def test_fit_mle_budget_exhaustion_returns_unconverged(monkeypatch):
    s = stats_from_samples(seeded_beta_sample(2.0, 5.0, 2000, seed=3))
    monkeypatch.setattr(estimation, "fit_moments",
                        lambda stats: BetaKotzParams(40.0, 40.0))
    monkeypatch.setattr(estimation, "_MAX_ITERS", 2)
    r = fit_mle(s)
    assert not r.converged
    assert r.iterations == 2


def test_fit_mle_small_shape_damping_stays_positive():
    # Heavily bathtub-shaped data pulls shapes toward zero; damping must
    # keep every iterate strictly positive.
    xs = seeded_beta_sample(0.15, 0.2, 2000, seed=111)
    r = fit_mle(stats_from_samples(xs))
    assert r.converged
    assert r.params.a > 0.0 and r.params.b > 0.0
    assert abs(r.params.a - 0.15) < 0.05
    assert abs(r.params.b - 0.2) < 0.05


@pytest.mark.parametrize("a, b, seed", [(0.7, 5000.0, 0), (2.0, 800.0, 6),
                                        (0.7, 5000.0, 16)])
def test_fit_mle_converges_on_loss_rate_like_samples(a, b, seed):
    # With ln B as a difference of ln-gamma values near 4e4, its rounding
    # stalled these fits: one step failure and two unconverged.
    r = fit_mle(stats_from_samples(seeded_beta_sample(a, b, 500, seed=seed)))
    assert r.converged
    assert r.gradient_norm <= 1e-10
