"""Credit-pipeline tests: SFC table constants, per-obligor losses,
loss rates, period reports, and the CSV wire format."""

import enum
import itertools
import json
import math
import pathlib
import random
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

import betakotz
from betakotz import credit
from betakotz.credit import (
    Guarantee,
    Obligor,
    Portfolio,
    PortfolioReport,
    Rating,
    SFC_LGD_SCHEDULE,
    SFC_PD_TABLE,
    Segment,
    expected_loss,
    lgd_lookup,
    loss_rates,
    pd_lookup,
    period_report,
    read_portfolio_csv,
    report_to_csv,
    report_to_json,
)
from betakotz.distribution import ConfidenceLevel, mean
from betakotz.estimation import fit_moments, stats_from_samples

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "portfolio_synthetic.csv"

# Golden copy of the SFC probability-of-default matrix; columns are
# Automobiles, Other, CreditCard, CFCAutomobiles, CFCOther.
GOLDEN_PD = {
    Rating.AA: (0.0097, 0.0210, 0.0158, 0.0102, 0.0354),
    Rating.A: (0.0312, 0.0388, 0.0535, 0.0288, 0.0719),
    Rating.BB: (0.0748, 0.1268, 0.0953, 0.1234, 0.1586),
    Rating.B: (0.1576, 0.1416, 0.1417, 0.2427, 0.3118),
    Rating.CC: (0.3101, 0.2257, 0.1706, 0.4332, 0.4101),
    Rating.DEFAULT: (1.0, 1.0, 1.0, 1.0, 1.0),
}

# Golden copy of the SFC loss-given-default schedule:
# guarantee -> (base, ((days, lgd), ...)).
GOLDEN_LGD = {
    Guarantee.ADMISSIBLE_FINANCIAL_COLLATERAL: (0.12, ()),
    Guarantee.COMMERCIAL_RESIDENTIAL_REAL_ESTATE: (0.40, ((360, 0.70), (720, 1.00))),
    Guarantee.REAL_ESTATE_LEASING: (0.35, ((360, 0.70), (720, 1.00))),
    Guarantee.OTHER_LEASING: (0.45, ((270, 0.70), (540, 1.00))),
    Guarantee.RECEIVABLES: (0.45, ((360, 0.80), (720, 1.00))),
    Guarantee.OTHER_ADMISSIBLE: (0.50, ((270, 0.70), (540, 1.00))),
    Guarantee.NON_ADMISSIBLE: (0.60, ((210, 0.70), (420, 1.00))),
    Guarantee.NO_GUARANTEE: (0.75, ((30, 0.85), (90, 1.00))),
}


def make_obligor(**kwargs):
    defaults = dict(
        id="X",
        rating=Rating.AA,
        segment=Segment.OTHER,
        ead=1000.0,
        guarantee=Guarantee.NON_ADMISSIBLE,
        days_past_due=0,
    )
    defaults.update(kwargs)
    return Obligor(**defaults)


# ---------------------------------------------------------------------------
# table constants
# ---------------------------------------------------------------------------

def test_pd_table_golden():
    for rating, row in GOLDEN_PD.items():
        for segment, pd in zip(Segment, row):
            assert pd_lookup(rating, segment) == pd


def test_nested_pd_table_is_the_pd_table():
    # the PD table that the loss rates look up, by the index of the
    # rating and then of the segment, each in definition order
    nested = {(list(Rating)[r], list(Segment)[s]): pd
              for r, row in enumerate(credit._PD_BY_RATING)
              for s, pd in enumerate(row)}
    assert nested == SFC_PD_TABLE and len(nested) == 30


def test_pd_lookup_examples():
    assert pd_lookup(Rating.AA, Segment.OTHER) == 0.0210
    assert pd_lookup(Rating.DEFAULT, Segment.CREDIT_CARD) == 1.0
    assert pd_lookup(Rating.CC, Segment.CFC_AUTOMOBILES) == 0.4332


def test_lgd_schedule_golden():
    for guarantee, (base, tiers) in GOLDEN_LGD.items():
        assert SFC_LGD_SCHEDULE[guarantee] == (base, tiers)


def test_lgd_lookup_examples():
    assert lgd_lookup(Guarantee.NO_GUARANTEE, 0) == 0.75
    assert lgd_lookup(Guarantee.COMMERCIAL_RESIDENTIAL_REAL_ESTATE, 400) == 0.70
    assert lgd_lookup(Guarantee.RECEIVABLES, 900) == 1.00
    with pytest.raises(ValueError, match="days_past_due must be >= 0"):
        lgd_lookup(Guarantee.NO_GUARANTEE, -1)


def test_lgd_thresholds_are_inclusive_lower_bounds():
    real_estate = Guarantee.COMMERCIAL_RESIDENTIAL_REAL_ESTATE
    assert lgd_lookup(real_estate, 359) == 0.40
    assert lgd_lookup(real_estate, 360) == 0.70
    assert lgd_lookup(real_estate, 719) == 0.70
    assert lgd_lookup(real_estate, 720) == 1.00


def test_lgd_financial_collateral_is_flat():
    afc = Guarantee.ADMISSIBLE_FINANCIAL_COLLATERAL
    for days in (0, 90, 360, 5000):
        assert lgd_lookup(afc, days) == 0.12


# Every int day through the end of the by-day tables and past it, and
# days of other types that operator.index takes, as an Obligor may hold.
TABLE_DAYS = [*range(1501), 10**30, True, np.int64(719), np.int64(720)]


def test_lgd_tables_agree_with_the_tiers():
    # The by-day tables, lgd_lookup and the loss rates give the tier
    # lgds[bisect_right(thresholds, d)] at every day.
    assert len(credit._LGD_BY_DAY) == len(Guarantee) == 8
    for guarantee, (base, tiers) in SFC_LGD_SCHEDULE.items():
        thresholds = [day for day, _ in tiers]
        lgds = [base, *(lgd for _, lgd in tiers)]
        table = credit._LGD_BY_DAY[list(Guarantee).index(guarantee)]
        assert len(table) == credit._LAST_DAY + 1 == 721
        obligors = [Obligor("X", Rating.DEFAULT, Segment.OTHER, 1.0, guarantee, d)
                    for d in TABLE_DAYS]
        rates = loss_rates(obligors)  # each EAD * PD 1.0 * LGD / total
        for d, o, rate in zip(TABLE_DAYS, obligors, rates):
            expected = lgds[bisect_right(thresholds, d)]
            assert expected == golden_lgd(guarantee, d)
            assert lgd_lookup(guarantee, d) == expected
            assert expected_loss(o) == expected
            assert rate == expected / len(TABLE_DAYS)
            if type(d) is int:
                assert table[min(d, credit._LAST_DAY)] == expected


@pytest.mark.parametrize("days", [5.0, 5.5, 720.5, math.nan, math.inf, "5"], ids=repr)
def test_days_that_are_not_integers_are_refused(days):
    # A day count is an integer, as the reader reads one: no float, even
    # a whole one, and no string.
    message = f"days_past_due is not an integer: {days!r}"
    with pytest.raises(ValueError) as err:
        make_obligor(id="X", days_past_due=days)
    assert str(err.value) == f"obligor 'X': {message}"
    for guarantee in Guarantee:
        with pytest.raises(ValueError) as err:
            lgd_lookup(guarantee, days)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# expected loss / loss rates
# ---------------------------------------------------------------------------

def test_expected_loss_table9_row1():
    # CC/Other at 22.57% PD with a 60% LGD: $391,967 -> $53,080
    o = make_obligor(rating=Rating.CC, ead=391_967.0)
    assert expected_loss(o) == pytest.approx(
        53_080.0, abs=1.0
    )


def test_expected_loss_table9_row2():
    # AA/Other at 2.10% PD with a 60% LGD: $9,725,044 -> $122,536
    o = make_obligor(rating=Rating.AA, ead=9_725_044.0)
    assert expected_loss(o) == pytest.approx(
        122_536.0, abs=1.0
    )


def test_expected_loss_zero_exposure():
    o = make_obligor(ead=0.0, rating=Rating.CC)
    assert expected_loss(o) == 0.0


def test_expected_loss_overrides_win():
    o = make_obligor(ead=1000.0, pd_override=0.5, lgd_override=0.5)
    assert expected_loss(o) == 250.0


def golden_lgd(guarantee, days_past_due):
    # The schedule's definition: the last tier whose threshold is reached.
    lgd, tiers = GOLDEN_LGD[guarantee]
    for days, tier_lgd in tiers:
        if days_past_due >= days:
            lgd = tier_lgd
    return lgd


# Every tier threshold of the schedule, one day either side, and current.
GRID_DAYS = sorted({0} | {
    days + step
    for _, tiers in GOLDEN_LGD.values() for days, _ in tiers for step in (-1, 0, 1)
})


@pytest.mark.parametrize("pd_override", [None, 0.37], ids=["table-pd", "pd-override"])
@pytest.mark.parametrize("lgd_override", [None, 0.61], ids=["table-lgd", "lgd-override"])
def test_expected_loss_is_exactly_ead_pd_lgd_on_grid(pd_override, lgd_override):
    # expected_loss reads the tables itself; it must give exactly the
    # product of the public lookups, in the same order, everywhere.
    for rating, segment, guarantee, days in itertools.product(
            Rating, Segment, Guarantee, GRID_DAYS):
        assert lgd_lookup(guarantee, days) == golden_lgd(guarantee, days)
        o = Obligor("X", rating, segment, 7_654.33, guarantee, days,
                    pd_override, lgd_override)
        pd_value = pd_lookup(rating, segment) if pd_override is None else pd_override
        lgd_value = (lgd_lookup(guarantee, days) if lgd_override is None
                     else lgd_override)
        assert expected_loss(o) == o.ead * pd_value * lgd_value


@pytest.mark.parametrize("run", [lambda p: len(loss_rates(p)),
                                 lambda p: period_report("m", p).obligor_count],
                         ids=["loss_rates", "period_report"])
@pytest.mark.parametrize("container", [Portfolio, list])
def test_loss_rates_make_no_python_call_per_obligor(container, run):
    # The machine-independent cost of forming rates: no Python function
    # of credit runs once per obligor, on a Portfolio's columns or on a
    # plain list.  period_report forms the rates a chunk at a time, so
    # its calls may grow per chunk; risk's solve, whose iterations vary
    # with the fitted shapes, is not counted.
    chunk = credit._CHUNK_ROWS

    def calls_for(count):
        rng = random.Random(50)
        portfolio = container(
            make_obligor(id=f"O{k}", rating=rng.choice(list(Rating)),
                         segment=rng.choice(list(Segment)), ead=rng.uniform(1, 1e6),
                         guarantee=rng.choice(list(Guarantee)),
                         days_past_due=rng.choice(GRID_DAYS),
                         pd_override=0.2 if k % 7 == 0 else None,
                         lgd_override=0.4 if k % 5 == 0 else None)
            for k in range(count)
        )
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == credit.__file__:
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            obligors_read = run(portfolio)
        finally:
            sys.setprofile(None)
        assert obligors_read == count
        return calls

    three, six = calls_for(3 * chunk), calls_for(6 * chunk)
    # one obligor fewer in as many chunks makes the same calls
    assert calls_for(6 * chunk - 1) == six
    # Three chunks more add at most one call per chunk to any function
    # (none to loss_rates), not one per obligor.
    growth = {name: six[name] - three[name] for name in six | three}
    assert set(growth.values()) <= {0, 3}, growth
    assert "expected_loss" not in six
    assert "pd_lookup" not in six and "lgd_lookup" not in six
    assert sum(six.values()) < 50, six


def test_loss_rates_hand_case():
    # losses 60 and 40 on total exposure 10,000 -> rates 0.006 and 0.004
    portfolio = [
        make_obligor(id="a", ead=6000.0, pd_override=0.05, lgd_override=0.2),
        make_obligor(id="b", ead=4000.0, pd_override=0.05, lgd_override=0.2),
    ]
    rates = loss_rates(portfolio)
    assert rates[0] == pytest.approx(0.006, rel=1e-12)
    assert rates[1] == pytest.approx(0.004, rel=1e-12)
    assert math.fsum(rates) == pytest.approx(100.0 / 10_000.0, rel=1e-12)


def test_loss_rates_single_obligor_is_pd_times_lgd():
    o = make_obligor(rating=Rating.B, ead=123_456.0)  # PD 14.16%, LGD 60%
    rates = loss_rates([o])
    assert rates[0] == pytest.approx(0.1416 * 0.60, rel=1e-12)


def test_loss_rates_table9_backsolved_denominator():
    # With total EAD back-solved to ~729M, row 2's printed loss rate of
    # 0.01681% is reproduced.  Fixture only; the paper never states the
    # denominator.
    total = 728_945_000.0
    row2 = make_obligor(rating=Rating.AA, ead=9_725_044.0)
    filler = make_obligor(id="rest", ead=total - row2.ead, pd_override=0.1,
                          lgd_override=0.5)
    rates = loss_rates([row2, filler])
    assert rates[0] == pytest.approx(0.0001681, abs=2e-8)


def test_loss_rates_make_no_python_level_enum_hash(monkeypatch):
    # The SFC tables are keyed by enum members; Enum's own __hash__ is a
    # Python function, and a month of rows costs thousands of its calls.
    calls = []
    enum_hash = enum.Enum.__hash__

    def counting_hash(member):
        calls.append(member)
        return enum_hash(member)

    portfolio = read_portfolio_csv(FIXTURE)
    monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)

    class Probe(enum.Enum):
        X = 1

    calls.clear()
    hash(Probe.X)
    assert calls == [Probe.X]  # an Enum that inherits the hash is counted
    calls.clear()
    loss_rates(portfolio)
    assert calls == []


def test_loss_rates_zero_total_exposure():
    with pytest.raises(ValueError):
        loss_rates([make_obligor(ead=0.0)])


def test_obligor_validation():
    with pytest.raises(ValueError):
        make_obligor(ead=-1.0)
    with pytest.raises(ValueError):
        make_obligor(days_past_due=-3)
    with pytest.raises(ValueError):
        make_obligor(pd_override=1.2)


def test_obligor_ead_is_a_finite_float_value():
    # An int EAD beyond the largest float is refused as inf is, with a
    # ValueError, not the OverflowError of converting it to a float.
    for ead in (10**400, -10**400, math.inf, math.nan, -1.0, -5e-324):
        with pytest.raises(ValueError, match="ead must be >= 0"):
            make_obligor(ead=ead)
    for ead in (0, -0.0, 5e-324, 10**308, sys.float_info.max):
        assert make_obligor(ead=ead).ead == ead


def test_obligor_ead_beyond_the_largest_float_is_described_not_printed():
    # 10**5000 has more digits than the interpreter converts to text.
    for ead in (10**400, 10**5000, -10**400, -10**5000):
        with pytest.raises(ValueError) as err:
            make_obligor(id="big", ead=ead)
        assert str(err.value) == (
            "obligor 'big': ead must be >= 0 and at most the largest float, "
            "1.7976931348623157e+308, got an int larger in magnitude")


def test_obligor_formats_its_id_only_to_refuse():
    # A valid obligor never renders its id; a refused one names it once.
    class CountingId(str):
        reprs = 0

        def __repr__(self):
            CountingId.reprs += 1
            return super().__repr__()

    make_obligor(id=CountingId("O1"), days_past_due=45)
    assert CountingId.reprs == 0
    for days, reason in [(-3, "days_past_due must be >= 0, got -3"),
                         (5.0, "days_past_due is not an integer: 5.0")]:
        CountingId.reprs = 0
        with pytest.raises(ValueError) as err:
            make_obligor(id=CountingId("O1"), days_past_due=days)
        assert (str(err.value), CountingId.reprs) == (f"obligor 'O1': {reason}", 1)
        assert err.value.__cause__ is None and err.value.__suppress_context__


# ---------------------------------------------------------------------------
# period report
# ---------------------------------------------------------------------------

def synthetic_portfolio(n=80, seed=7):
    rng = np.random.default_rng(seed)
    ratings = list(Rating)[:-1]  # skip Default for the bulk
    segments = list(Segment)
    guarantees = list(Guarantee)
    portfolio = []
    for i in range(n):
        portfolio.append(Obligor(
            id=f"SYN-{i:03d}",
            rating=ratings[int(rng.integers(len(ratings)))],
            segment=segments[int(rng.integers(len(segments)))],
            ead=float(np.round(rng.lognormal(13.0, 1.1), 2)),
            guarantee=guarantees[int(rng.integers(len(guarantees)))],
            days_past_due=int(rng.integers(0, 900)),
        ))
    return portfolio


def test_period_report_invariants():
    r = period_report("synthetic", synthetic_portfolio(), alpha=0.99)
    assert r.cvar >= r.var >= 0.0
    assert r.var >= r.expected_loss
    assert r.ec == r.var - r.expected_loss
    assert r.obligor_count == 80
    assert r.alpha == ConfidenceLevel(0.99)


def test_period_report_composition_contract():
    portfolio = synthetic_portfolio(seed=21)
    rates = [r for r in loss_rates(portfolio) if r > 0]
    expected_fit = fit_moments(stats_from_samples(rates))
    r = period_report("composition", portfolio)
    assert r.fitted.a == expected_fit.a
    assert r.fitted.b == expected_fit.b
    assert mean(r.fitted) == pytest.approx(
        math.fsum(rates) / len(rates), rel=1e-12
    )


def varied_portfolio(kinds, n=600, seed=5):
    """synthetic_portfolio(n, seed) with rows varied by each of `kinds`:
    "overrides" (PD and LGD overrides, some on one row), "late-days"
    (days below, at and past the LGD table's last day, 720, and past
    999), "-0.0 ead" and "zero-lgd"."""
    obligors = []
    for i, o in enumerate(synthetic_portfolio(n=n, seed=seed)):
        fields = {name: getattr(o, name) for name in Obligor.__slots__}
        if "overrides" in kinds:
            if i % 3 == 0:
                fields["pd_override"] = (i % 97 + 1) / 100
            if i % 5 == 0:
                fields["lgd_override"] = (i % 89 + 1) / 100
        if "late-days" in kinds:
            fields["days_past_due"] = (719, 720, 721, 999, 1000, 10**6)[i % 6]
        if "-0.0 ead" in kinds and i % 4 == 1:
            fields["ead"] = -0.0
        if "zero-lgd" in kinds and i % 4 == 2:
            fields["lgd_override"] = 0.0
        obligors.append(Obligor(**fields))
    return obligors


def write_obligors_csv(path, obligors):
    """`obligors` in the portfolio CSV wire format, at `path`."""
    def cell(value):
        return "" if value is None else repr(value)
    path.write_text("id,rating,segment,ead,guarantee,days_past_due,pd_override,"
                    "lgd_override\n" + "".join(
                        f"{o.id},{o.rating.value},{o.segment.value},{o.ead!r},"
                        f"{o.guarantee.value},{o.days_past_due},"
                        f"{cell(o.pd_override)},{cell(o.lgd_override)}\n"
                        for o in obligors))
    return path


VARIED = ("overrides", "late-days", "-0.0 ead", "zero-lgd")


@pytest.mark.parametrize("source", ["fixture", 21, 33, 60, *VARIED, "read(all)"])
def test_period_report_fit_is_the_moment_fit_bit_for_bit(source, tmp_path):
    # period_report fits from the sample's mean and variance alone, with
    # no log-sum; its shapes are the moment fit of the full statistics,
    # through a Portfolio and through a plain list alike.
    if source == "fixture":
        obligors = list(read_portfolio_csv(FIXTURE))
    elif source in VARIED:
        obligors = varied_portfolio({source})
    elif source == "read(all)":
        # every variation, read back: its days past 999 take the reader's
        # int() route
        written = write_obligors_csv(tmp_path / "all.csv", varied_portfolio(VARIED))
        obligors = list(read_portfolio_csv(written))
        assert obligors == varied_portfolio(VARIED)
    else:
        obligors = synthetic_portfolio(seed=source, n=2000)
    expected = fit_moments(stats_from_samples([r for r in loss_rates(obligors)
                                               if r > 0.0]))
    for portfolio in (Portfolio(obligors), obligors):
        fitted = period_report("m", portfolio).fitted
        assert (fitted.a.hex(), fitted.b.hex()) == (expected.a.hex(), expected.b.hex())


def test_period_report_refusals_and_their_order():
    # A rate of 1.0 (a Default obligor of LGD 1 and nearly all the
    # exposure) is outside (0, 1), but too few positive rates are
    # refused first, and it is counted among them.  Positive rates that
    # are all equal have variance 0, which no shape pair has.
    whole = make_obligor(id="whole", rating=Rating.DEFAULT, ead=1e300,
                         lgd_override=1.0)
    cases = [
        ([whole, make_obligor(pd_override=0.0)], ValueError,
         "need at least 2 obligors with positive expected loss, got 1"),
        ([whole, make_obligor(rating=Rating.DEFAULT, ead=1e-20)], ValueError,
         "sample value at index 0 must lie strictly in (0, 1), got 1.0"),
        ([make_obligor(id="a"), make_obligor(id="b")], betakotz.InfeasibleMomentsError,
         "sample variance 0.0 must lie in (0, 0.00626031) = (0, mean*(1-mean))"
         " for a moment fit"),
    ]
    for obligors, kind, message in cases:
        for portfolio in (Portfolio(obligors), obligors):
            with pytest.raises(kind) as err:
                period_report("m", portfolio)
            assert str(err.value) == message


def test_period_report_refuses_a_rate_of_one_from_an_int_ead():
    # An int EAD above 2**53 rounds to the total exposure that its own
    # exact sum with a tiny one rounds to, though the two are not equal:
    # its rate is still 1.0, and still refused.
    portfolio = [make_obligor(id="whale", rating=Rating.DEFAULT, ead=2**53 + 3,
                              lgd_override=1.0),
                 make_obligor(id="tiny", rating=Rating.DEFAULT, ead=1e-20)]
    assert loss_rates(portfolio)[0] == 1.0
    with pytest.raises(ValueError) as err:
        period_report("m", portfolio)
    assert str(err.value) == (
        "sample value at index 0 must lie strictly in (0, 1), got 1.0")


def test_period_report_keeps_no_list_per_obligor():
    # The transient peak above the report stays flat in the row count:
    # a list of 5,000 rates and their floats would take about 160 KB.
    portfolio = Portfolio(synthetic_portfolio(n=5000, seed=8))
    period_report("m", portfolio)  # one-off allocations of a first call
    tracemalloc.start()
    try:
        report = period_report("m", portfolio)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.obligor_count == 5000
    assert peak - current < 16 * 1024


def test_period_report_linear_in_exposure():
    portfolio = synthetic_portfolio(seed=33)
    doubled = [
        Obligor(id=o.id, rating=o.rating, segment=o.segment, ead=2.0 * o.ead,
                guarantee=o.guarantee, days_past_due=o.days_past_due,
                pd_override=o.pd_override, lgd_override=o.lgd_override)
        for o in portfolio
    ]
    base = period_report("base", portfolio)
    scaled = period_report("scaled", doubled)
    assert scaled.fitted == base.fitted  # rates are scale-free
    assert scaled.total_exposure == 2.0 * base.total_exposure
    assert scaled.expected_loss == 2.0 * base.expected_loss
    assert scaled.var == 2.0 * base.var
    assert scaled.cvar == 2.0 * base.cvar


def test_period_report_permutation_invariant():
    portfolio = synthetic_portfolio(seed=55)
    rng = np.random.default_rng(1)
    shuffled = list(portfolio)
    rng.shuffle(shuffled)
    a = period_report("p", portfolio)
    b = period_report("p", shuffled)
    for field_name in ("total_exposure", "expected_loss", "var", "ec", "cvar"):
        va, vb = getattr(a, field_name), getattr(b, field_name)
        assert vb == pytest.approx(va, rel=1e-12)


def test_period_report_zero_loss_rows_keep_exposure():
    portfolio = synthetic_portfolio(seed=60, n=40)
    with_zero = portfolio + [make_obligor(id="zero", ead=5_000_000.0,
                                          pd_override=0.0)]
    r = period_report("z", with_zero)
    assert r.total_exposure == pytest.approx(
        math.fsum(o.ead for o in with_zero), rel=1e-15
    )
    assert r.obligor_count == 41


def test_period_report_leaves_zero_rates_out_of_the_fit():
    # A -0.0 EAD gives a -0.0 rate and a 0.0 LGD override a 0.0 rate: both
    # obligors count and add their exposure, and neither rate is fitted.
    portfolio = synthetic_portfolio(seed=60, n=40) + [
        make_obligor(id="minus-zero", ead=-0.0),
        make_obligor(id="no-loss", ead=5_000_000.0, lgd_override=0.0)]
    rates = loss_rates(portfolio)
    assert [math.copysign(1.0, r) for r in rates[-2:] if r == 0.0] == [-1.0, 1.0]
    r = period_report("z", portfolio)
    assert r.obligor_count == 42
    assert r.total_exposure == math.fsum(o.ead for o in portfolio)
    expected = fit_moments(stats_from_samples([x for x in rates if x > 0.0]))
    assert (r.fitted.a.hex(), r.fitted.b.hex()) == (expected.a.hex(), expected.b.hex())


def test_period_report_needs_two_positive_rates():
    only_one = [
        make_obligor(id="live", ead=1000.0),
        make_obligor(id="dead", ead=500.0, pd_override=0.0),
    ]
    with pytest.raises(ValueError, match="at least 2"):
        period_report("p", only_one)
    with pytest.raises(ValueError, match="non-empty"):
        period_report("p", [])


def test_period_report_needs_positive_total_exposure():
    no_exposure = [make_obligor(id="a", ead=0.0), make_obligor(id="b", ead=0.0)]
    with pytest.raises(ValueError, match="total exposure must be positive"):
        period_report("p", no_exposure)


def test_portfolio_report_validation():
    from betakotz.distribution import BetaKotzParams

    fitted = BetaKotzParams(0.2, 30.0)
    with pytest.raises(ValueError):
        PortfolioReport(label="x", total_exposure=100.0, expected_loss=5.0,
                        var=4.0, ec=-1.0, cvar=3.0, fitted=fitted,
                        alpha=ConfidenceLevel(0.99), obligor_count=10)
    with pytest.raises(ValueError):
        PortfolioReport(label="x", total_exposure=100.0, expected_loss=5.0,
                        var=10.0, ec=5.5, cvar=12.0, fitted=fitted,
                        alpha=ConfidenceLevel(0.99), obligor_count=10)


def test_portfolio_report_needs_an_obligor():
    from betakotz.distribution import BetaKotzParams

    with pytest.raises(ValueError, match="obligor_count must be positive"):
        PortfolioReport(label="x", total_exposure=100.0, expected_loss=5.0,
                        var=10.0, ec=5.0, cvar=12.0, fitted=BetaKotzParams(0.2, 30.0),
                        alpha=ConfidenceLevel(0.99), obligor_count=0)


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def test_read_bundled_fixture():
    obligors = read_portfolio_csv(FIXTURE)
    assert len(obligors) == 59
    assert obligors[0].id == "OBL-0001"
    assert obligors[0].rating is Rating.AA
    assert obligors[6].pd_override == 0.05
    r = period_report("fixture", obligors, alpha=0.99)
    assert r.cvar >= r.var >= r.expected_loss


def test_csv_case_insensitive_enums(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,aa,OTHER,1000,noguarantee,0\n"
        "b,CC,creditcard,2000,NOGUARANTEE,45\n"
    )
    obligors = read_portfolio_csv(path)
    assert obligors[0].rating is Rating.AA
    assert obligors[0].segment is Segment.OTHER
    assert obligors[1].guarantee is Guarantee.NO_GUARANTEE
    assert obligors[1].days_past_due == 45


@pytest.mark.parametrize("column, value, expected", [
    ("rating", "AAA", "['A', 'AA', 'B', 'BB', 'CC', 'Default']"),
    ("segment", "Nowhere", "['Automobiles', 'CFCAutomobiles', 'CFCOther', "
                           "'CreditCard', 'Other']"),
    ("guarantee", " Gold ", "['AdmissibleFinancialCollateral', "
                            "'CommercialResidentialRealEstate', 'NoGuarantee', "
                            "'NonAdmissible', 'OtherAdmissible', 'OtherLeasing', "
                            "'RealEstateLeasing', 'Receivables']"),
])
def test_csv_unknown_enum_message(tmp_path, column, value, expected):
    row = {"id": "a", "rating": "AA", "segment": "Other", "ead": "1000",
           "guarantee": "NoGuarantee", "days_past_due": "0"}
    row[column] = value
    path = tmp_path / "p.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError) as err:
        read_portfolio_csv(path)
    assert str(err.value) == (
        f"row 2, column '{column}': unknown value {value!r}; "
        f"expected one of {expected}"
    )


def test_csv_override_columns(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due,pd_override,lgd_override\n"
        "a,AA,Other,1000,NoGuarantee,0,0.25,\n"
        "b,AA,Other,1000,NoGuarantee,0,,0.5\n"
    )
    obligors = read_portfolio_csv(path)
    assert obligors[0].pd_override == 0.25
    assert obligors[0].lgd_override is None
    assert expected_loss(obligors[0]) == pytest.approx(
        1000 * 0.25 * 0.75
    )
    assert obligors[1].lgd_override == 0.5


def test_csv_header_normalization_short_and_extra_cells(tmp_path):
    # Header names are stripped and lower-cased, and of two that collide
    # the last column wins; cells beyond the header are ignored, and a
    # short row reads its missing cells as empty.
    path = tmp_path / "p.csv"
    path.write_text(
        " ID ,Rating,SEGMENT,ead,Guarantee,Days_Past_Due,PD_Override, EAD\n"
        "a,AA,Other,1000,NoGuarantee,0,0.25,3000\n"
        "b,AA,Other,1000,NoGuarantee,30,,5000,extra,cells\n"
    )
    a, b = read_portfolio_csv(path)
    assert (a.id, a.ead, a.pd_override) == ("a", 3000.0, 0.25)
    assert (b.ead, b.days_past_due, b.pd_override) == (5000.0, 30, None)

    header = "id,rating,segment,guarantee,ead,days_past_due,pd_override\n"
    path.write_text(header + "c,AA,Other,NoGuarantee,1000\n")
    (c,) = read_portfolio_csv(path)
    assert (c.ead, c.days_past_due, c.pd_override) == (1000.0, 0, None)
    path.write_text(header + "c,AA,Other,NoGuarantee,1000\nd,AA,Other,NoGuarantee\n")
    with pytest.raises(ValueError) as err:
        read_portfolio_csv(path)
    assert str(err.value) == "row 3, column 'ead': not a number: ''"


def test_csv_schema_errors_name_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,1000,NoGuarantee,0\n"
        "b,ZZ,Other,1000,NoGuarantee,0\n"
    )
    with pytest.raises(ValueError, match="row 3.*rating"):
        read_portfolio_csv(path)

    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,not_a_number,NoGuarantee,0\n"
    )
    with pytest.raises(ValueError, match="row 2.*ead"):
        read_portfolio_csv(path)

    # An empty id is quoted, so the message still shows which obligor.
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,1000,NoGuarantee,0\n"
        ",AA,Other,inf,NoGuarantee,0\n"
    )
    with pytest.raises(ValueError) as err:
        read_portfolio_csv(path)
    assert str(err.value) == "row 3: obligor '': ead must be >= 0, got inf"


def test_csv_missing_columns_and_empty(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("id,rating\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_portfolio_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_portfolio_csv(path)
    path.write_text("id,rating,segment,ead,guarantee,days_past_due\n")
    with pytest.raises(ValueError, match="no obligor rows"):
        read_portfolio_csv(path)


def test_report_rendering_precision():
    r = period_report("render", synthetic_portfolio(seed=88))
    payload = json.loads(report_to_json(r))
    assert payload["var"] == round(r.var, 2)
    assert payload["fitted_a"] == float(f"{r.fitted.a:.9g}")
    lines = report_to_csv(r).strip().splitlines()
    assert lines[0].startswith("label,")
    values = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert values["expected_loss"] == f"{round(r.expected_loss, 2):.2f}"
    assert values["alpha"] == "0.99"


def test_report_rate_fields_render_at_nine_digits():
    # 9 significant digits of 2.0 and 1234567890.5 print differently
    # from the floats they round to.
    from betakotz.distribution import BetaKotzParams

    r = PortfolioReport(label="rates", total_exposure=1000.0, expected_loss=5.0,
                        var=10.0, ec=5.0, cvar=12.0,
                        fitted=BetaKotzParams(2.0, 1234567890.5),
                        alpha=ConfidenceLevel(0.99), obligor_count=3)
    rendered = r.to_rendered_dict()
    assert (rendered["fitted_a"], rendered["fitted_b"]) == (2.0, 1234567890.0)
    text = report_to_json(r)
    assert '"fitted_a": 2.0,' in text and '"fitted_b": 1234567890.0,' in text
    header, row = report_to_csv(r).splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert (values["fitted_a"], values["fitted_b"]) == ("2", "1.23456789e+09")
