"""Risk-measure tests: quantile roots, closed forms, CVaR routes,
economic capital, and the location-scale baselines."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from scipy.special import betaincinv

from betakotz import cli, specfun
from betakotz.distribution import BetaKotzParams, ConfidenceLevel, cdf, mean
from betakotz.risk import (
    InternalConsistencyError,
    RiskReport,
    RootConvergenceError,
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
from betakotz import risk as risk_mod
from cvar_oracle import identity_cvar, quadrature_cvar

# The ten shape pairs with closed-form quantiles.
CLOSED_FORM_CASES = [
    (1, 1), (2, 1), (3, 1), (4, 1),
    (1, 2), (2, 2), (3, 2),
    (1, 3), (2, 3),
    (1, 4),
]


# ---------------------------------------------------------------------------
# numeric quantile
# ---------------------------------------------------------------------------

def test_var_numeric_uniform_is_alpha():
    p = BetaKotzParams(1.0, 1.0)
    for alpha in (0.1, 0.5, 0.99):
        assert var_numeric(p, alpha) == pytest.approx(alpha, abs=1e-12)


def test_var_numeric_table_values():
    assert var_numeric(BetaKotzParams(1, 2), 0.99) == pytest.approx(0.900, abs=5e-4)
    assert var_numeric(BetaKotzParams(5.1, 5.1), 0.99) == pytest.approx(0.827, abs=5e-4)


def test_var_numeric_accepts_confidence_level():
    p = BetaKotzParams(2, 3)
    assert var_numeric(p, ConfidenceLevel(0.9)) == var_numeric(p, 0.9)


def test_var_numeric_root_residuals_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        p = BetaKotzParams(rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0))
        alpha = rng.uniform(0.01, 0.999)
        v = var_numeric(p, alpha)
        assert abs(cdf(p, v) - alpha) <= 1e-12


def test_var_numeric_unique_sign_change():
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, 1.0, 2001)[1:-1]
    for _ in range(6):
        p = BetaKotzParams(rng.uniform(0.3, 20.0), rng.uniform(0.3, 20.0))
        alpha = rng.uniform(0.05, 0.95)
        signs = np.sign([cdf(p, float(x)) - alpha for x in grid])
        flips = int(np.sum(signs[:-1] != signs[1:]))
        assert flips == 1


def test_var_numeric_monotone_in_alpha():
    p = BetaKotzParams(1.7, 6.3)
    levels = np.linspace(0.02, 0.98, 25)
    values = [var_numeric(p, float(a)) for a in levels]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_var_numeric_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(risk_mod, "_ROOT_REL_TOL", 1e-16)
    monkeypatch.setattr(risk_mod, "_ROOT_MAX_ITERS", 1)
    with pytest.raises(RootConvergenceError) as exc:
        var_numeric(BetaKotzParams(6.2, 3.3), 0.7)
    lo, hi = exc.value.bracket
    assert 0.0 <= lo < hi <= 1.0


def test_report_over_risk_sweep_domain_matches_scipy():
    # a, b log-uniform on [0.05, 2000] and 1 - alpha log-uniform on
    # [1e-6, 0.5], as the risk-sweep benchmark draws them.  Each triple is
    # answered or refused with a ValueError (a representation limit),
    # never an InternalConsistencyError; in an answer, the smaller of VaR
    # and 1 - VaR, as the solver carries it, is within 1e-10 of scipy's
    # inverse on that side.
    rng = np.random.default_rng(7)
    answered = 0
    for _ in range(300):
        a, b = np.exp(rng.uniform(math.log(0.05), math.log(2000.0), 2))
        alpha = 1.0 - math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
        p = BetaKotzParams(float(a), float(b))
        try:
            r = report(p, alpha)
        except ValueError:
            continue
        answered += 1
        q, tail = risk_mod._var_pair(p, alpha)
        assert r.var == q
        if q <= tail:
            got, ref = q, betaincinv(p.a, p.b, alpha)
        else:
            got, ref = tail, betaincinv(p.b, p.a, 1.0 - alpha)
        assert abs(got - ref) <= 1e-10 * ref, (p.a, p.b, alpha)
    assert answered >= 250


# ---------------------------------------------------------------------------
# closed-form quantile
# ---------------------------------------------------------------------------

def test_var_closed_power_family():
    assert var_closed(BetaKotzParams(3, 1), 0.99) == pytest.approx(
        0.99 ** (1.0 / 3.0), rel=1e-15
    )
    assert var_closed(BetaKotzParams(1, 1), 0.37) == pytest.approx(0.37, rel=1e-15)


def test_var_closed_radical_rows():
    assert var_closed(BetaKotzParams(1, 2), 0.99) == pytest.approx(
        1.0 - math.sqrt(0.01), rel=1e-15
    )
    assert var_closed(BetaKotzParams(1, 3), 0.99) == pytest.approx(
        1.0 - 0.01 ** (1.0 / 3.0), rel=1e-14
    )
    assert var_closed(BetaKotzParams(1, 4), 0.99) == pytest.approx(
        1.0 - 0.01 ** 0.25, rel=1e-14
    )


def test_var_closed_resolvent_rows():
    # Cubic (2,2) and quartics (3,2), (2,3): check the defining polynomial.
    v = var_closed(BetaKotzParams(2, 2), 0.99)
    assert v == pytest.approx(0.941, abs=5e-4)
    assert abs(-2.0 * v**3 + 3.0 * v**2 - 0.99) <= 1e-13

    v = var_closed(BetaKotzParams(3, 2), 0.99)
    assert abs(-3.0 * v**4 + 4.0 * v**3 - 0.99) <= 1e-13

    v = var_closed(BetaKotzParams(2, 3), 0.99)
    assert abs(3.0 * v**4 - 8.0 * v**3 + 6.0 * v**2 - 0.99) <= 1e-13


def test_var_closed_residual_tolerance():
    for a, b in CLOSED_FORM_CASES:
        p = BetaKotzParams(a, b)
        for alpha in (0.01, 0.3, 0.5, 0.77, 0.99):
            v = var_closed(p, alpha)
            assert v is not None
            assert abs(cdf(p, v) - alpha) <= 1e-12


def test_var_closed_unsupported_shapes():
    assert var_closed(BetaKotzParams(4, 2), 0.9) is None
    assert var_closed(BetaKotzParams(2.5, 3.0), 0.9) is None
    assert var_closed(BetaKotzParams(1.0000001, 2.0), 0.9) is None
    assert var_closed(BetaKotzParams(1, 5), 0.9) is None


def test_closed_matches_numeric_everywhere():
    levels = [round(0.01 + 0.05 * k, 2) for k in range(20)] + [0.99]
    for a, b in CLOSED_FORM_CASES:
        p = BetaKotzParams(a, b)
        for alpha in levels:
            vc = var_closed(p, alpha)
            vn = var_numeric(p, alpha)
            assert abs(vc - vn) <= 1e-10, (a, b, alpha)


# Both tails down to 1e-15, the sixteenths, and the extremes 2^-60 and
# 1 - 2^-53, the largest level below 1.
CLOSED_FORM_LEVELS = sorted(
    {10.0**-k for k in range(1, 16)}
    | {1.0 - 10.0**-k for k in range(1, 16)}
    | {j / 16 for j in range(1, 16)}
    | {2.0**-60, 1.0 - 2.0**-53}
)

# Exact CDFs of the closed-form pairs that are not power laws.
POLYNOMIAL_CDFS = {
    (2, 2): lambda x: 3 * x**2 - 2 * x**3,
    (3, 2): lambda x: 4 * x**3 - 3 * x**4,
    (2, 3): lambda x: 6 * x**2 - 8 * x**3 + 3 * x**4,
}


def _exact_quantile(a, b, alpha):
    level = mp.mpf(alpha)
    if b == 1:
        return level ** (mp.mpf(1) / a)
    if a == 1:
        return 1 - (1 - level) ** (mp.mpf(1) / b)
    F = POLYNOMIAL_CDFS[(a, b)]
    x = mp.findroot(lambda x: F(x) - level,
                    mp.mpf(scipy.stats.beta.ppf(alpha, a, b)))
    # F is increasing on (0, 1), so a root there is the quantile.
    assert 0 < x < 1
    return x


@pytest.mark.parametrize("a,b", CLOSED_FORM_CASES)
def test_var_closed_accurate_in_both_tails(a, b):
    p = BetaKotzParams(a, b)
    worst = []
    with mp.workdps(50):
        for alpha in CLOSED_FORM_LEVELS:
            v = var_closed(p, alpha)
            assert v is not None, alpha
            exact = _exact_quantile(a, b, alpha)
            rel = float(abs(mp.mpf(v) - exact) / exact)
            if rel > 1e-15:
                worst.append((alpha, rel))
    assert not worst


@pytest.mark.parametrize("a,b", CLOSED_FORM_CASES)
def test_report_closed_form_pairs_in_far_tails(a, b):
    # The numeric root meets the closed form within the 1e-10 gate at
    # 10^-k and 1 - 10^-k; a level, VaR or CVaR that no double represents
    # is a ValueError, never an InternalConsistencyError.
    p = BetaKotzParams(a, b)
    answered = 0
    for k in range(1, 19):
        for alpha in (10.0**-k, 1.0 - 10.0**-k):
            try:
                report(p, alpha)
            except ValueError:
                continue
            answered += 1
    assert answered >= 30


@pytest.mark.parametrize("a,b,c", [(2, 2, 3), (3, 2, 4), (2, 3, 6)])
def test_report_at_subnormal_levels(a, b, c):
    # F(x) = c x^a (1 + O(x)), and x is below 1e-100 here, so the mpmath
    # leading term is the quantile to far more digits than a double has.
    for alpha in (5e-324, 1e-320, 1e-310):
        with mp.workdps(30):
            exact = (mp.mpf(alpha) / c) ** (mp.mpf(1) / a)
        var = report(BetaKotzParams(a, b), alpha).var
        assert abs(var - exact) <= 1e-13 * exact, alpha


def test_closed_form_supported_sets_are_pinned():
    # The mirror identity must not add pairs: (1, 5) and (4, 2) stay out.
    quantile_pairs = {(1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (2, 3)}
    cvar_pairs = {(1, 2), (1, 3), (1, 4)}
    for a in range(1, 7):
        for b in range(1, 7):
            p = BetaKotzParams(a, b)
            for alpha in (0.3, 0.7):
                has_var = var_closed(p, alpha) is not None
                has_cvar = cvar_closed(p, alpha) is not None
                assert has_var == (b == 1 or (a, b) in quantile_pairs), (a, b)
                assert has_cvar == (b == 1 or (a, b) in cvar_pairs), (a, b)


# ---------------------------------------------------------------------------
# CVaR
# ---------------------------------------------------------------------------

def test_cvar_uniform():
    assert cvar(BetaKotzParams(1, 1), 0.99) == pytest.approx(0.995, abs=1e-10)


def test_cvar_one_three_analytic():
    expected = 1.0 - 0.75 * 0.01 ** (1.0 / 3.0)
    assert cvar(BetaKotzParams(1, 3), 0.99) == pytest.approx(expected, abs=1e-9)


def test_cvar_two_three_exact_recomputation():
    # High-precision oracle value 0.8951813863 (the paper prints 0.929
    # for this cell, which fails its own tail-integral definition; see
    # the acceptance suite's documented-discrepancy list).
    assert cvar(BetaKotzParams(2, 3), 0.99) == pytest.approx(0.8951813863, abs=1e-8)


def test_cvar_dominates_var():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = BetaKotzParams(rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0))
        alpha = rng.uniform(0.01, 0.999)
        assert cvar(p, alpha) > var_numeric(p, alpha)


def test_cvar_dual_route_agreement():
    rng = np.random.default_rng(42)
    for _ in range(40):
        p = BetaKotzParams(rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0))
        alpha = rng.uniform(0.01, 0.999)
        q, tail = risk_mod._var_pair(p, alpha)
        identity = identity_cvar(p, alpha, q, tail)
        assert abs(identity - quadrature_cvar(p, alpha)) <= 1e-8
        assert abs(identity - risk_mod._density_cvar(p, alpha, q, tail)) <= 1e-8


def test_tanh_sinh_nodes_integrate_endpoint_singularities():
    # 1, w^(-1/2) and -log w over (0, 1), the last two singular at 0;
    # w^(c-1) for small c puts its mass near log w = -1/c, as large
    # shapes put the density's, so the rule must reach far below it.
    rule = risk_mod._TANH_SINH
    assert abs(math.fsum(math.exp(lwt) for lw, lwt in rule) - 1.0) <= 1e-15
    assert abs(math.fsum(math.exp(lwt - 0.5 * lw) for lw, lwt in rule) - 2.0) <= 2e-15
    assert abs(math.fsum(-lw * math.exp(lwt) for lw, lwt in rule) - 1.0) <= 1e-15
    c = 1e-4
    total = math.fsum(math.exp(lwt + (c - 1.0) * lw) for lw, lwt in rule)
    assert abs(c * total - 1.0) <= 1e-13


def _mpmath_density_cvar(a, b, alpha, q):
    # q + E[(X - q)+] / (1 - alpha) at the same q, with
    # E[(X - q)+] = mean * P_{a+1,b}(X > q) - q * P_{a,b}(X > q).
    with mp.workdps(40):
        ma, mb, mq = mp.mpf(a), mp.mpf(b), mp.mpf(q)
        excess = (ma / (ma + mb) * mp.betainc(ma + 1, mb, mq, 1, regularized=True)
                  - mq * mp.betainc(ma, mb, mq, 1, regularized=True))
        return mq + excess / (1 - mp.mpf(alpha))


@pytest.mark.parametrize("a, b, alpha", [
    (0.03, 19000.0, 0.99), (0.6, 0.6, 0.999), (800.0, 800.0, 0.99),
    (0.5, 30.0, 0.9999),
    # Graded Gauss-Legendre panels missed these by 1.2e-8 and 1.0e-9.
    (0.02956770181703601, 35948.50447315845, 0.3258805652006198),
    (0.017617868011376447, 2594.0157936021624, 0.6758288189707213),
])
def test_density_cvar_matches_mpmath(a, b, alpha):
    p = BetaKotzParams(a, b)
    q, tail = risk_mod._var_pair(p, alpha)
    exact = _mpmath_density_cvar(a, b, alpha, q)
    assert abs(risk_mod._density_cvar(p, alpha, q, tail) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("a, b, alpha", [
    (2.0, 2000.0, 0.99), (5.0, 3000.0, 0.999), (0.05, 40000.0, 0.99),
])
def test_density_cvar_reads_the_carried_side(a, b, alpha):
    # VaR is carried below 1/2 here; b ln(1 - VaR) from the rounded
    # 1 - VaR put the route 6.7e-15 to 7.9e-13 off.
    p = BetaKotzParams(a, b)
    q, tail = risk_mod._var_pair(p, alpha)
    exact = _mpmath_density_cvar(a, b, alpha, q)
    assert abs(risk_mod._density_cvar(p, alpha, q, tail) - exact) <= 2e-15 * exact
    assert abs(report(p, alpha).cvar - exact) <= 2e-15 * exact


@pytest.mark.parametrize("a, b, alpha", [
    (0.01, 1e8, 0.99), (0.5, 1e6, 0.9), (0.05, 40000.0, 0.99),
])
def test_identity_cvar_reads_the_carried_side(a, b, alpha):
    # VaR is carried below 1/2 here; b ln(1 - VaR) from the rounded
    # 1 - VaR put the identity 2.0e-12 to 4.6e-9 off.
    p = BetaKotzParams(a, b)
    q, tail = risk_mod._var_pair(p, alpha)
    assert q < tail
    with mp.workdps(40):
        ma, mb = mp.mpf(a), mp.mpf(b)
        exact = (ma / (ma + mb) * mp.betainc(ma + 1, mb, mp.mpf(q), 1, regularized=True)
                 / (1 - mp.mpf(alpha)))
    got = identity_cvar(p, alpha, q, tail)
    assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("a, b, alpha", [
    (0.01, 1e8, 0.99), (0.5, 1e6, 0.9), (0.05, 40000.0, 0.99),
])
def test_elementary_cvar_reads_the_carried_side(a, b, alpha):
    # Logs from the rounded 1 - VaR put the cross-check 2.0e-12 to 4.6e-9
    # off here, at the same VaR.
    p = BetaKotzParams(a, b)
    q, tail = risk_mod._var_pair(p, alpha)
    assert q < tail
    with mp.workdps(40):
        ma, mb, mq = mp.mpf(a), mp.mpf(b), mp.mpf(q)
        exact = ma / (ma + mb) + mq**ma * (1 - mq)**mb / (
            mp.beta(ma, mb) * (ma + mb) * (1 - mp.mpf(alpha)))
    got = risk_mod._elementary_cvar(p, alpha, q, tail)
    assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("a, b, alpha", [
    (1000.0, 1000.0, 1e-6), (1000.0, 1000.0, 1e-12), (400.0, 400.0, 1e-12),
])
def test_report_answers_large_symmetric_shapes_in_the_lower_tail(a, b, alpha):
    # Graded Gauss-Legendre panels put the density route 2.2e-8 to 1.8e-6
    # off here, so report() raised InternalConsistencyError.
    p = BetaKotzParams(a, b)
    r = report(p, alpha)
    assert abs(r.cvar - _mpmath_density_cvar(a, b, alpha, r.var)) <= 1e-12
    q, tail = risk_mod._var_pair(p, alpha)
    assert abs(risk_mod._density_cvar(p, alpha, q, tail) - r.cvar) <= 1e-12


def test_report_refuses_quantile_that_rounds_to_zero():
    # F(x) = x^0.05 puts the 1e-300 quantile at 1e-6000, below every double.
    with pytest.raises(ValueError, match="rounds to 0"):
        report(BetaKotzParams(0.05, 1.0), 1e-300)


@pytest.mark.parametrize("a, b, alpha", [
    (4.950322073413684, 0.10482113413757903, 0.9999967117052275),
    (0.09725873888739012, 0.09402820902167595, 0.9999850805598538),
])
def test_report_refuses_saturated_quantile(a, b, alpha):
    # mpmath puts 1 - VaR at 6.6e-54 and 5.4e-49: no double in (0, 1)
    # represents the VaR, a representation limit and not a kernel fault.
    with pytest.raises(ValueError, match="VaR rounds to 1"):
        report(BetaKotzParams(a, b), alpha)


def test_report_lower_clamp_keeps_identity():
    # F(1e-15) is about 0.09 here, so the 1e-4 quantile lies far below
    # 1e-15 (mpmath: 9.7118236027201e-75); all tail mass but a sliver
    # lies above it, and CVaR is mean / (1 - alpha) up to 1e-15.  A tail
    # mean normalized by the quadrature's own mass above q would refuse it.
    p = BetaKotzParams(0.05, 0.05)
    r = report(p, 1e-4)
    assert r.var == pytest.approx(9.7118236027201e-75, rel=1e-12)
    assert r.cvar == pytest.approx(mean(p) / (1.0 - 1e-4), abs=1e-14)


def test_cvar_inconsistency_guard(monkeypatch):
    monkeypatch.setattr(
        risk_mod, "_elementary_cvar", lambda p, a, q, tail: 123.0
    )
    with pytest.raises(InternalConsistencyError):
        cvar(BetaKotzParams(2, 2), 0.9)


def test_cvar_density_inconsistency_guard(monkeypatch):
    monkeypatch.setattr(risk_mod, "_density_cvar", lambda p, a, q, tail: 123.0)
    with pytest.raises(InternalConsistencyError):
        cvar(BetaKotzParams(2, 2), 0.9)


def _count_contfrac(monkeypatch):
    # Every incomplete-beta evaluation, through reg_inc_beta or the
    # inverse's _inc_beta_tails, runs one continued fraction.
    calls = [0]
    kernel = specfun._beta_contfrac

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(specfun, "_beta_contfrac", counted)
    return calls


def test_report_reg_inc_beta_count(monkeypatch):
    # The side-of-1/2 call and six evaluations of the inversion; neither
    # CVaR route adds one.
    calls = _count_contfrac(monkeypatch)
    report(BetaKotzParams(1.2, 11.4), 0.99)
    assert calls[0] == 7


def test_tables_numeric_reg_inc_beta_count(monkeypatch, capsys):
    # 21 rows at the default alpha, about five evaluations each.
    monkeypatch.delenv(cli.ALPHA_ENV_VAR, raising=False)
    calls = _count_contfrac(monkeypatch)
    assert cli.main(["tables", "numeric"]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls[0] == 98


def test_var_student_reg_inc_beta_count(monkeypatch):
    # One inversion of I_x(nu/2, 1/2): the side-of-1/2 call and four more.
    calls = _count_contfrac(monkeypatch)
    var_student(0.0, 1.0, 5.0, 0.99)
    assert calls[0] == 5


def test_cvar_closed_rows():
    # (2,1): 2 (1 - alpha^{3/2}) / (3 (1 - alpha))
    expected = 2.0 * (1.0 - 0.99**1.5) / (3.0 * 0.01)
    assert cvar_closed(BetaKotzParams(2, 1), 0.99) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.997, abs=5e-3)

    assert cvar_closed(BetaKotzParams(1, 2), 0.99) == pytest.approx(
        1.0 - (2.0 / 3.0) * 0.1, rel=1e-13
    )
    assert cvar_closed(BetaKotzParams(1, 1), 0.5) == 0.75
    assert cvar_closed(BetaKotzParams(1, 4), 0.99) == pytest.approx(
        1.0 - 0.8 * 0.01**0.25, rel=1e-13
    )


def test_cvar_closed_power_rows_near_one():
    # 1 - alpha^((a+1)/a) must not cancel as alpha approaches 1.
    for ia in (2, 3):
        for tail in (1e-3, 1e-6, 1e-10, 1e-12):
            alpha = 1.0 - tail
            with mp.workdps(50):
                al = mp.mpf(alpha)
                exact = ia * (1 - al ** (mp.mpf(ia + 1) / ia)) / ((ia + 1) * (1 - al))
            got = cvar_closed(BetaKotzParams(ia, 1), alpha)
            assert abs(got - exact) <= 1e-13 * exact, (ia, tail)


def test_cvar_closed_unsupported():
    assert cvar_closed(BetaKotzParams(2, 3), 0.99) is None
    assert cvar_closed(BetaKotzParams(2, 2), 0.99) is None
    assert cvar_closed(BetaKotzParams(0.7, 1.0), 0.99) is None


def test_cvar_closed_matches_dual_route():
    for a, b in [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4)]:
        p = BetaKotzParams(a, b)
        for alpha in (0.1, 0.5, 0.9, 0.99):
            assert cvar(p, alpha) == pytest.approx(cvar_closed(p, alpha), abs=1e-9)


# ---------------------------------------------------------------------------
# EC and the report bundle
# ---------------------------------------------------------------------------

def test_ec_values():
    assert report(BetaKotzParams(1, 1), 0.99).ec == pytest.approx(0.49, abs=1e-12)
    assert report(BetaKotzParams(1, 2), 0.99).ec == pytest.approx(0.56667, abs=5e-6)
    # printed Table value rounds a true 0.08911; 5e-3 is the table tolerance
    assert report(BetaKotzParams(0.5, 30.0), 0.99).ec == pytest.approx(0.090, abs=5e-3)


def test_report_uniform():
    r = report(BetaKotzParams(1, 1), 0.99)
    assert r.var == pytest.approx(0.99, abs=1e-12)
    assert r.cvar == pytest.approx(0.995, abs=1e-9)
    assert r.ec == pytest.approx(0.49, abs=1e-12)
    assert r.method is SolveMethod.BOTH_AGREEING


def test_report_numeric_only_row():
    r = report(BetaKotzParams(1.2, 11.4), 0.99)
    assert r.method is SolveMethod.NUMERIC
    assert r.var == pytest.approx(0.355, abs=5e-4)
    assert r.ec == pytest.approx(0.260, abs=5e-4)


def test_report_method_selects_route():
    p = BetaKotzParams(2, 1)
    closed = report(p, 0.99, method=SolveMethod.CLOSED_FORM)
    assert closed.method is SolveMethod.CLOSED_FORM
    assert (closed.var, closed.cvar) == (var_closed(p, 0.99), cvar_closed(p, 0.99))
    numeric = report(p, 0.99, method=SolveMethod.NUMERIC)
    assert numeric.method is SolveMethod.NUMERIC
    assert (numeric.var, numeric.cvar) == (var_numeric(p, 0.99), cvar(p, 0.99))
    both = report(p, 0.99)
    assert both.method is SolveMethod.BOTH_AGREEING
    assert (both.var, both.cvar) == (closed.var, numeric.cvar)
    with pytest.raises(ValueError, match="no closed form"):
        report(BetaKotzParams(2, 3), 0.99, method=SolveMethod.CLOSED_FORM)


def test_report_symmetric_median():
    r = report(BetaKotzParams(2, 2), 0.5)
    assert r.var == pytest.approx(0.5, abs=1e-12)


def test_report_invariants_hold():
    rng = np.random.default_rng(99)
    for _ in range(10):
        p = BetaKotzParams(rng.uniform(0.3, 30.0), rng.uniform(0.3, 30.0))
        alpha = rng.uniform(0.05, 0.99)
        r = report(p, alpha)
        assert r.cvar >= r.var
        assert r.ec == r.var - r.mean
        assert 0.0 < r.var < 1.0
        assert r.mean == mean(p)


def test_report_saturated_tail_shapes():
    # b < 1 pushes the 0.99 quantile to within 8.6e-4 of 1, which the
    # solver carries as 1 - VaR; dominance must survive.
    r = report(BetaKotzParams(0.6, 0.6), 0.99)
    assert r.cvar >= r.var > 0.99


def test_risk_report_validation():
    level = ConfidenceLevel(0.9)
    with pytest.raises(ValueError):
        RiskReport(alpha=level, var=0.8, cvar=0.7, ec=0.3, mean=0.5,
                   method=SolveMethod.NUMERIC)
    with pytest.raises(ValueError):
        RiskReport(alpha=level, var=1.2, cvar=1.3, ec=0.7, mean=0.5,
                   method=SolveMethod.NUMERIC)
    with pytest.raises(ValueError):
        RiskReport(alpha=level, var=0.8, cvar=0.9, ec=0.25, mean=0.5,
                   method=SolveMethod.NUMERIC)
    with pytest.raises(ValueError, match="cvar must not exceed 1"):
        RiskReport(alpha=level, var=0.75, cvar=1.0 + 2**-52, ec=0.25, mean=0.5,
                   method=SolveMethod.NUMERIC)
    assert RiskReport(alpha=level, var=0.75, cvar=1.0, ec=0.25, mean=0.5,
                      method=SolveMethod.NUMERIC).cvar == 1.0


def test_report_refuses_cvar_above_the_support():
    # At alpha = 1 - 2^-52, (2, 1)'s closed-form tail mean rounds to 1 + 1
    # ulp; a CVaR above the support's top is refused, with the reason.
    with pytest.raises(ValueError, match="cvar must not exceed 1.*rounds above it"):
        report(BetaKotzParams(2, 1), 1 - 2**-52, method=SolveMethod.CLOSED_FORM)
    # The identity put (3, 1)'s tail mean at 1 + 7 ulps there; the density
    # route, VaR plus the excess over it, stays in the support.
    assert report(BetaKotzParams(3, 1), 1 - 2**-52).cvar == 0.9999999999999999


# ---------------------------------------------------------------------------
# normal / Student-t baselines
# ---------------------------------------------------------------------------

def _quantile_bisection_oracle(p, iters=200):
    """Bisection on the erf-based normal CDF, independent of the library."""
    cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    lo, hi = -40.0, 40.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_median():
    assert var_normal(0.0, 1.0, 0.5) == 0.0


def test_normal_quantile_against_bisection_oracle():
    for p, frozen in [(0.975, 1.959963985), (0.99, 2.326347874)]:
        oracle = _quantile_bisection_oracle(p)
        assert oracle == pytest.approx(frozen, abs=1e-9)
        assert var_normal(0.0, 1.0, p) == pytest.approx(oracle, abs=1e-9)


def test_normal_quantile_accuracy_sweep():
    for p in (1e-9, 1e-6, 0.01, 0.02425, 0.3, 0.7, 0.97575, 0.999, 1.0 - 1e-7):
        oracle = _quantile_bisection_oracle(p)
        assert abs(var_normal(0.0, 1.0, p) - oracle) <= 1e-9


def test_normal_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.4, math.nan):
        with pytest.raises(ValueError):
            var_normal(0.0, 1.0, bad)


@pytest.mark.parametrize("alpha", [0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
def test_normal_baselines_upper_tail_vs_mpmath(alpha):
    # mp.mpf(alpha) is the exact value of the double, so both sides use one level.
    with mp.workdps(60):
        z = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(alpha) - 1)
        es = mp.npdf(z) / (1 - mp.mpf(alpha))
        var_rel = abs((var_normal(0.0, 1.0, alpha) - z) / z)
        cvar_rel = abs((cvar_normal(0.0, 1.0, alpha) - es) / es)
    assert var_rel <= 1e-15
    assert cvar_rel <= 2e-14


def test_var_normal():
    assert var_normal(0.0, 1.0, 0.5) == 0.0
    assert var_normal(0.0, 1.0, 0.99) == pytest.approx(2.326347874, abs=1e-9)
    assert var_normal(1.0, 2.0, 0.99) == pytest.approx(1.0 + 2.0 * 2.326347874, abs=1e-8)


def test_cvar_normal():
    z = 2.3263478740408408
    expected = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / 0.01
    assert cvar_normal(0.0, 1.0, 0.99) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.665214, abs=1e-6)


def test_var_student_symmetry_and_cauchy():
    assert var_student(0.0, 1.0, 5.0, 0.5) == 0.0
    assert var_student(0.0, 1.0, 1.0, 0.75) == pytest.approx(1.0, abs=1e-12)


def test_var_student_vs_scipy():
    for nu in (2.0, 5.0, 12.5):
        for alpha in (0.05, 0.5, 0.9, 0.99):
            ours = var_student(0.0, 1.0, nu, alpha)
            assert ours == pytest.approx(scipy.stats.t.ppf(alpha, nu), abs=1e-9)
    assert var_student(0.0, 1.0, 5.0, 0.99) == pytest.approx(3.3649, abs=5e-5)


def test_cvar_student_vs_quadrature():
    import scipy.integrate as si

    for nu in (2.5, 5.0, 9.0):
        alpha = 0.99
        q = scipy.stats.t.ppf(alpha, nu)
        val, _ = si.quad(lambda x: x * scipy.stats.t.pdf(x, nu), q, math.inf)
        assert cvar_student(0.0, 1.0, nu, alpha) == pytest.approx(val / 0.01, rel=1e-8)


def _t_quantile_mpmath(nu, alpha):
    # Root of log I_x(nu/2, 1/2) = log(2 min(alpha, 1 - alpha)) in
    # s = log|t|, x = nu / (nu + t^2), started from scipy.
    with mp.workdps(40):
        half_nu, al = mp.mpf(nu) / 2, mp.mpf(alpha)
        level = mp.log(2 * min(al, 1 - al))
        s = mp.findroot(
            lambda s: mp.log(mp.betainc(half_nu, mp.mpf(1) / 2, 0,
                                        nu / (nu + mp.exp(2 * s)),
                                        regularized=True)) - level,
            mp.log(abs(scipy.stats.t.ppf(alpha, nu))))
        return float(mp.exp(s) if alpha > 0.5 else -mp.exp(s))


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 5.0, 30.0, 100.0, 1e4])
def test_var_student_vs_mpmath(nu):
    # Both tails, and next to the median, where t comes from 1 - x.
    for alpha in (1e-12, 1e-6, 0.01, 0.3, 0.5 - 1e-12, 0.5 + 1e-9, 0.7, 0.99,
                  1.0 - 1e-6, 1.0 - 1e-12):
        exact = _t_quantile_mpmath(nu, alpha)
        got = var_student(0.0, 1.0, nu, alpha)
        assert abs(got - exact) <= 1e-10 * abs(exact), alpha


def test_student_scaling():
    base = var_student(0.0, 1.0, 5.0, 0.95)
    assert var_student(2.0, 3.0, 5.0, 0.95) == pytest.approx(2.0 + 3.0 * base, rel=1e-12)


@pytest.mark.parametrize("func, nu, message", [
    (var_student, 10**400, "degrees of freedom must be finite and > 0"),
    (cvar_student, 10**400, "cvar_student requires finite nu > 1"),
    (var_student, math.inf, "degrees of freedom must be finite and > 0"),
    (cvar_student, math.inf, "cvar_student requires finite nu > 1"),
], ids=["var-10**400", "cvar-10**400", "var-inf", "cvar-inf"])
def test_student_unrepresentable_nu_is_value_error(func, nu, message):
    with pytest.raises(ValueError, match=message):
        func(0.0, 1.0, nu, 0.99)


def test_baseline_domain_errors():
    with pytest.raises(ValueError):
        var_normal(0.0, 0.0, 0.9)
    with pytest.raises(ValueError):
        var_student(0.0, 1.0, 0.0, 0.9)
    with pytest.raises(ValueError):
        cvar_student(0.0, 1.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        cvar_normal(0.0, -1.0, 0.9)
    with pytest.raises(ValueError, match="sigma"):
        var_student(0.0, 0.0, 5.0, 0.9)
    with pytest.raises(ValueError, match="sigma"):
        cvar_student(0.0, -1.0, 5.0, 0.9)
