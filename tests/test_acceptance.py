"""Acceptance suite: the seven exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in the
verbose test listing) and asserts at the stated tolerance.  Reference
values printed in the source tables are frozen here; exact recomputation
uses independent oracles (mpmath root finding and quadrature, literal
radical formulas, scipy where noted).
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from betakotz import cli, risk
from betakotz.credit import (
    Guarantee,
    Obligor,
    Rating,
    SFC_LGD_SCHEDULE,
    SFC_PD_TABLE,
    Segment,
    expected_loss,
    period_report,
)
from betakotz.distribution import BetaKotzParams, cdf, mean, variance
from betakotz.estimation import (
    SampleStats,
    fit_mle,
    fit_moments,
    log_likelihood,
    stats_from_samples,
)
from betakotz.specfun import (
    digamma,
    ln_gamma,
    reg_inc_beta,
    trigamma,
)
from betakotz.specfun import _series_2f1
from cvar_oracle import identity_cvar, quadrature_cvar

mp.mp.dps = 30

# Printed reference cells, frozen from the source tables (3 decimals).
TABLE2_PRINTED = {
    (1.0, 1.0): (0.99, 0.995, 0.490),
    (2.0, 1.0): (0.995, 0.997, 0.325),
    (3.0, 1.0): (0.997, 0.998, 0.248),
    (1.0, 2.0): (0.900, 0.933, 0.567),
    (2.0, 2.0): (0.941, 0.960, 0.442),
    (3.0, 2.0): (0.958, 0.979, 0.357),
    (1.0, 3.0): (0.785, 0.838, 0.534),
    (2.0, 3.0): (0.859, 0.929, 0.460),
    (1.0, 4.0): (0.684, 0.747, 0.484),
}

# VaR and EC columns of the extended numeric table (its CVaR column is
# Monte-Carlo output in the source and is excluded; see criterion 4).
TABLE3_VAR_EC_PRINTED = {
    (1.0, 1.0): (0.990, 0.490),
    (2.0, 1.0): (0.995, 0.328),
    (3.0, 1.0): (0.997, 0.246),
    (1.0, 2.0): (0.900, 0.566),
    (2.0, 2.0): (0.941, 0.442),
    (3.0, 2.0): (0.958, 0.357),
    (1.0, 3.0): (0.785, 0.534),
    (2.0, 3.0): (0.859, 0.459),
    (1.0, 4.0): (0.684, 0.484),
    (4.1, 1.0): (0.998, 0.194),
    (5.1, 1.5): (0.989, 0.216),
    (4.1, 4.1): (0.855, 0.355),
    (5.1, 5.1): (0.827, 0.327),
    (6.0, 6.0): (0.806, 0.307),
    (0.6, 0.6): (0.999, 0.499),
    (0.8, 0.8): (0.996, 0.495),
    (1.2, 11.4): (0.355, 0.260),
    (1.3, 13.0): (0.330, 0.239),
    (1.5, 14.1): (0.327, 0.231),
    (2.0, 19.0): (0.289, 0.193),
    (0.5, 30.0): (0.106, 0.090),
}

# Cells whose printed value provably contradicts the tail-integral
# definition (checked against the oracle below): the source computed its
# non-analytic CVaR cells by tail-sample averaging, and these two carry
# second-decimal Monte-Carlo error.  Frozen so new discrepancies fail.
DOCUMENTED_PRINT_ERRORS = {("cvar", 2.0, 3.0), ("cvar", 3.0, 2.0)}

CLOSED_FORM_CASES = [
    (1, 1), (2, 1), (3, 1), (4, 1),
    (1, 2), (2, 2), (3, 2),
    (1, 3), (2, 3),
    (1, 4),
]

PRINT_TOL = 5e-3
EXACT_TOL = 1e-9


def _criterion(number, ok, detail):
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _oracle_var(a, b, alpha):
    q = mp.findroot(
        lambda x: mp.betainc(a, b, 0, x, regularized=True) - mp.mpf(repr(alpha)),
        mp.mpf("0.9"),
    )
    return q


def _oracle_cvar(a, b, alpha):
    q = _oracle_var(a, b, alpha)
    c = mp.gamma(a + b) / (mp.gamma(a) * mp.gamma(b))
    tail = mp.quad(lambda x: x * c * x ** (a - 1) * (1 - x) ** (b - 1), [q, 1])
    return tail / (1 - mp.mpf(repr(alpha)))


def _exact_cells(a, b, alpha=0.99):
    """Exact recomputation: radicals where they exist, else mpmath."""
    ia, ib = round(a), round(b)
    if (a, b) == (ia, ib) and ib == 1:
        var = alpha ** (1.0 / ia)
        cvar = (
            0.5 * (1 + alpha) if ia == 1
            else ia * (1 - alpha ** ((ia + 1) / ia)) / ((ia + 1) * (1 - alpha))
        )
    elif (a, b) == (1.0, 2.0):
        var = 1 - math.sqrt(1 - alpha)
        cvar = 1 - (2.0 / 3.0) * math.sqrt(1 - alpha)
    elif (a, b) == (1.0, 3.0):
        var = 1 - (1 - alpha) ** (1.0 / 3.0)
        cvar = 1 - 0.75 * (1 - alpha) ** (1.0 / 3.0)
    elif (a, b) == (1.0, 4.0):
        var = 1 - (1 - alpha) ** 0.25
        cvar = 1 - 0.8 * (1 - alpha) ** 0.25
    else:
        var = float(_oracle_var(a, b, alpha))
        cvar = float(_oracle_cvar(a, b, alpha))
    return var, cvar, var - a / (a + b)


def _numeric_table_rows(capsys):
    code = cli.main(["tables", "numeric", "--alpha", "0.99",
                     "--output-format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return {(r["a"], r["b"]): r for r in json.loads(out)}


def test_criterion_1_table2_reproduction(capsys):
    started = time.perf_counter()
    rows = _numeric_table_rows(capsys)
    elapsed = time.perf_counter() - started

    discrepancies = []
    for (a, b), (var_p, cvar_p, ec_p) in TABLE2_PRINTED.items():
        got = rows[(a, b)]
        exact = _exact_cells(a, b)
        for column, ours, printed, true in zip(
            ("var", "cvar", "ec"),
            (got["var"], got["cvar"], got["ec"]),
            (var_p, cvar_p, ec_p),
            exact,
        ):
            assert abs(ours - true) <= EXACT_TOL, (
                f"{column}({a},{b}): ours {ours} vs exact {true}"
            )
            if abs(printed - true) <= PRINT_TOL:
                assert abs(ours - printed) <= PRINT_TOL, (
                    f"{column}({a},{b}): ours {ours} vs printed {printed}"
                )
            else:
                # The print itself fails the definition; record it and
                # require it to be a known, documented defect.
                discrepancies.append((column, a, b, printed, true))

    assert {(c, a, b) for c, a, b, _, _ in discrepancies} == DOCUMENTED_PRINT_ERRORS
    notes = "; ".join(
        f"{c}({a:g},{b:g}) printed {p} vs exact {t:.5f}"
        for c, a, b, p, t in discrepancies
    )
    ok = elapsed < 5.0
    assert _criterion(
        1, ok,
        f"table-2 grid reproduced in {elapsed:.2f}s; every cell within "
        f"{EXACT_TOL:g} of exact recomputation; documented print "
        f"discrepancies: {notes}",
    )


def test_criterion_2_table3_var_ec(capsys):
    rows = _numeric_table_rows(capsys)
    worst = 0.0
    for (a, b), (var_p, ec_p) in TABLE3_VAR_EC_PRINTED.items():
        got = rows[(a, b)]
        dev = max(abs(got["var"] - var_p), abs(got["ec"] - ec_p))
        worst = max(worst, dev)
        assert dev <= PRINT_TOL, f"({a},{b}): VaR/EC deviates {dev:.2e}"
    assert _criterion(
        2, True,
        f"all {len(TABLE3_VAR_EC_PRINTED)} VaR/EC pairs within "
        f"{PRINT_TOL:g} (worst {worst:.2e}); CVaR column excluded as "
        "documented",
    )


def test_criterion_3_closed_vs_numeric():
    levels = [0.01] + [round(0.05 * k, 2) for k in range(1, 20)] + [0.99]
    worst_gap = 0.0
    worst_resid = 0.0
    for a, b in CLOSED_FORM_CASES:
        p = BetaKotzParams(a, b)
        for alpha in levels:
            vc = risk.var_closed(p, alpha)
            vn = risk.var_numeric(p, alpha)
            worst_gap = max(worst_gap, abs(vc - vn))
            worst_resid = max(
                worst_resid, abs(cdf(p, vc) - alpha), abs(cdf(p, vn) - alpha)
            )
    assert worst_gap <= 1e-10
    assert worst_resid <= 1e-12
    assert _criterion(
        3, True,
        f"{len(CLOSED_FORM_CASES)} closed-form cases x {len(levels)} levels: "
        f"worst closed-numeric gap {worst_gap:.2e}, worst residual "
        f"{worst_resid:.2e}",
    )


def test_criterion_4_cvar_dual_method():
    rng = np.random.default_rng(42)
    worst = {"quadrature": 0.0, "density": 0.0}
    worst_resid = 0.0
    for _ in range(200):
        p = BetaKotzParams(rng.uniform(0.2, 40.0), rng.uniform(0.2, 40.0))
        alpha = rng.uniform(0.01, 0.999)
        q, tail = risk._var_pair(p, alpha)
        worst_resid = max(worst_resid, abs(cdf(p, q) - alpha))
        assert abs(cdf(p, q) - alpha) <= 1e-12
        identity = identity_cvar(p, alpha, q, tail)
        for route, other in (("quadrature", quadrature_cvar(p, alpha)),
                             ("density", risk._density_cvar(p, alpha, q, tail))):
            gap = abs(identity - other)
            worst[route] = max(worst[route], gap)
            assert gap <= 1e-8, (
                f"{route} (a={p.a}, b={p.b}, alpha={alpha}): gap {gap:.2e}"
            )
        assert identity > q, "tail mean must dominate the quantile"
    assert _criterion(
        4, True,
        f"200 random triples: worst quadrature-vs-identity gap "
        f"{worst['quadrature']:.2e}, worst density-vs-identity gap "
        f"{worst['density']:.2e}, worst root residual {worst_resid:.2e}, "
        f"CVaR > VaR throughout",
    )


def test_criterion_5_estimator_suite():
    started = time.perf_counter()

    # MoM round trip at 1e-10 relative on random shapes.
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform(0.1, 60.0)
        b = rng.uniform(0.1, 60.0)
        target = BetaKotzParams(a, b)
        stats = SampleStats(n=100, mean=mean(target), variance=variance(target),
                            sum_log_x=-1.0, sum_log_1mx=-1.0)
        fitted = fit_moments(stats)
        assert abs(fitted.a - a) <= 1e-10 * a
        assert abs(fitted.b - b) <= 1e-10 * b

    # MLE on 10,000 seeded Beta(2,5) draws.
    xs = np.random.default_rng(42).beta(2.0, 5.0, size=10_000)
    stats = stats_from_samples(xs)
    mle = fit_mle(stats)
    assert mle.converged and mle.gradient_norm <= 1e-10

    tri_ab = trigamma(7.0)
    i11 = trigamma(2.0) - tri_ab
    i22 = trigamma(5.0) - tri_ab
    det = i11 * i22 - tri_ab * tri_ab
    se_a = math.sqrt(i22 / det / 10_000)
    se_b = math.sqrt(i11 / det / 10_000)
    assert abs(mle.params.a - 2.0) <= 4.0 * se_a
    assert abs(mle.params.b - 5.0) <= 4.0 * se_b

    mom = fit_moments(stats)
    assert mle.log_likelihood >= log_likelihood(mom, stats) - 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    assert _criterion(
        5, True,
        f"MoM round trip exact to 1e-10; MLE ({mle.iterations} iterations, "
        f"scaled score {mle.gradient_norm:.1e}) inside 4 standard errors; "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_6_credit_pipeline():
    # Byte-exact SFC constants.
    assert SFC_PD_TABLE[(Rating.AA, Segment.AUTOMOBILES)] == 0.0097
    assert SFC_PD_TABLE[(Rating.AA, Segment.OTHER)] == 0.0210
    assert SFC_PD_TABLE[(Rating.CC, Segment.CFC_AUTOMOBILES)] == 0.4332
    assert all(
        SFC_PD_TABLE[(Rating.DEFAULT, seg)] == 1.0 for seg in Segment
    )
    assert SFC_LGD_SCHEDULE[Guarantee.NO_GUARANTEE][0] == 0.75
    assert SFC_LGD_SCHEDULE[Guarantee.COMMERCIAL_RESIDENTIAL_REAL_ESTATE][1] == (
        (360, 0.70), (720, 1.00)
    )
    assert SFC_LGD_SCHEDULE[Guarantee.ADMISSIBLE_FINANCIAL_COLLATERAL][0] == 0.12

    # Expected-loss rows reproduce the printed losses within one unit.
    row1 = Obligor(id="r1", rating=Rating.CC, segment=Segment.OTHER,
                   ead=391_967.0, guarantee=Guarantee.NON_ADMISSIBLE)
    row2 = Obligor(id="r2", rating=Rating.AA, segment=Segment.OTHER,
                   ead=9_725_044.0, guarantee=Guarantee.NON_ADMISSIBLE)
    el1 = expected_loss(row1)
    el2 = expected_loss(row2)
    assert abs(el1 - 53_080.0) <= 1.0
    assert abs(el2 - 122_536.0) <= 1.0

    # Synthetic portfolio satisfies every report invariant.
    rng = np.random.default_rng(2017)
    ratings = [r for r in Rating if r is not Rating.DEFAULT]
    segments = list(Segment)
    guarantees = list(Guarantee)
    portfolio = [
        Obligor(
            id=f"S{i}",
            rating=ratings[int(rng.integers(len(ratings)))],
            segment=segments[int(rng.integers(len(segments)))],
            ead=float(rng.lognormal(13.0, 1.0)),
            guarantee=guarantees[int(rng.integers(len(guarantees)))],
            days_past_due=int(rng.integers(0, 900)),
        )
        for i in range(200)
    ]
    rep = period_report("synthetic", portfolio, alpha=0.99)
    assert rep.cvar >= rep.var >= 0.0
    assert rep.ec == rep.var - rep.expected_loss
    assert rep.var >= rep.expected_loss

    # Consistency probe at the published January fit: the published
    # monetary VaR/EL ratio is 3.055.  The fitted law reproduces it,
    # but at the 0.90 quantile, not 0.99: F(3.055 * mean) = 0.9000,
    # confirmed by scipy/mpmath, while the true 0.99 ratio is 10.86.
    # The published monetary table therefore sits at the 90% level
    # despite its 99% caption; the probe asserts consistency at the
    # level the table actually embodies and records the mislabel.
    january = BetaKotzParams(0.199, 30.63)
    published_ratio = 3.055
    implied_level = cdf(january, published_ratio * mean(january))
    assert abs(implied_level - 0.90) <= 0.005, (
        f"published ratio no longer maps to the 0.90 quantile: "
        f"{implied_level}"
    )
    ratio_at_label_level = risk.var_numeric(january, implied_level) / mean(january)
    assert abs(ratio_at_label_level - published_ratio) / published_ratio <= 0.05
    ratio_at_99 = risk.var_numeric(january, 0.99) / mean(january)
    assert _criterion(
        6, True,
        f"SFC constants byte-exact; row losses {el1:,.2f}/{el2:,.2f} within "
        f"1 unit; synthetic report invariants hold; published VaR/EL ratio "
        f"{published_ratio} reproduced within 5% at its implied level "
        f"alpha={implied_level:.4f} (documented mislabel: the true "
        f"alpha=0.99 ratio is {ratio_at_99:.2f})",
    )


def test_criterion_7_special_function_suite(request):
    # Recurrence identities on the log grid.
    for x in np.logspace(-2, 4, 121):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) <= 1e-11
        delta = ln_gamma(x + 1.0) - ln_gamma(x)
        scale = max(1.0, abs(ln_gamma(x + 1.0)))
        assert abs(delta - math.log(x)) <= 1e-12 * scale

    # Incomplete-beta symmetry.
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.uniform(0.1, 50.0)
        b = rng.uniform(0.1, 50.0)
        x = rng.uniform(0.0, 1.0)
        assert abs(reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) - 1.0) <= 1e-12

    # Derivative matches the density where the finite difference resolves it.
    h = 1e-6
    checked = 0
    while checked < 25:
        a = rng.uniform(0.5, 20.0)
        b = rng.uniform(0.5, 20.0)
        x = rng.uniform(0.05, 0.95)
        dens = math.exp(
            ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
            + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        )
        if dens < 1e-3:
            continue
        deriv = (reg_inc_beta(a, b, x + h) - reg_inc_beta(a, b, x - h)) / (2.0 * h)
        assert abs(deriv - dens) <= 1e-5 * dens
        checked += 1

    # Terminating hypergeometric series sums exactly q+1 terms.
    for q in (1, 4, 9):
        _, terms = _series_2f1(1.7, -float(q), 3.2, 0.5)
        assert terms == q + 1

    elapsed = time.perf_counter() - request.config._suite_started_at
    assert elapsed < 60.0
    assert _criterion(
        7, True,
        f"kernel identities at stated tolerances; suite elapsed "
        f"{elapsed:.1f}s (< 60s budget)",
    )
