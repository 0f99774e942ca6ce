"""Value semantics of the eight immutable record types: repr, equality,
hash, immutability, copy and pickle.  The literal reprs and messages are
those that the types gave as frozen dataclasses."""

import copy
import pickle

import pytest

from betakotz.credit import Guarantee, Obligor, PortfolioReport, Rating, Segment
from betakotz.distribution import BetaKotzParams, ConfidenceLevel, KotzGeneratorParams
from betakotz.estimation import FitResult, SampleStats
from betakotz.risk import RiskReport, SolveMethod

# (type, constructor keywords in field order, repr).  Keywords left out
# take their defaults.
CASES = [
    (KotzGeneratorParams, dict(n1=2.0, n2=3.0, t1=1.5, t2=0.75),
     "KotzGeneratorParams(n1=2.0, n2=3.0, t1=1.5, t2=0.75)"),
    (BetaKotzParams, dict(a=1.2, b=11.4),
     "BetaKotzParams(a=1.2, b=11.4)"),
    (ConfidenceLevel, dict(alpha=0.99),
     "ConfidenceLevel(alpha=0.99)"),
    (SampleStats, dict(n=5, mean=0.1, variance=0.01, sum_log_x=-12.5,
                       sum_log_1mx=-0.5),
     "SampleStats(n=5, mean=0.1, variance=0.01, sum_log_x=-12.5, sum_log_1mx=-0.5)"),
    (FitResult, dict(params=BetaKotzParams(1.2, 11.4), iterations=7,
                     converged=True, log_likelihood=12.25, gradient_norm=3e-11),
     "FitResult(params=BetaKotzParams(a=1.2, b=11.4), iterations=7, "
     "converged=True, log_likelihood=12.25, gradient_norm=3e-11)"),
    (RiskReport, dict(alpha=ConfidenceLevel(0.99), var=0.5, cvar=0.75, ec=0.25,
                      mean=0.25, method=SolveMethod.NUMERIC),
     "RiskReport(alpha=ConfidenceLevel(alpha=0.99), var=0.5, cvar=0.75, ec=0.25, "
     "mean=0.25, method=<SolveMethod.NUMERIC: 'numeric'>)"),
    (Obligor, dict(id="", rating=Rating.AA, segment=Segment.OTHER, ead=10.0,
                   guarantee=Guarantee.NO_GUARANTEE),
     "Obligor(id='', rating=<Rating.AA: 'AA'>, segment=<Segment.OTHER: 'Other'>, "
     "ead=10.0, guarantee=<Guarantee.NO_GUARANTEE: 'NoGuarantee'>, "
     "days_past_due=0, pd_override=None, lgd_override=None)"),
    (PortfolioReport, dict(label="2024-01", total_exposure=1000.0,
                           expected_loss=10.0, var=50.0, ec=40.0, cvar=60.0,
                           fitted=BetaKotzParams(1.2, 11.4),
                           alpha=ConfidenceLevel(0.99), obligor_count=3),
     "PortfolioReport(label='2024-01', total_exposure=1000.0, expected_loss=10.0, "
     "var=50.0, ec=40.0, cvar=60.0, fitted=BetaKotzParams(a=1.2, b=11.4), "
     "alpha=ConfidenceLevel(alpha=0.99), obligor_count=3)"),
]


@pytest.mark.parametrize("cls, kwargs, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, kwargs, text):
    value = cls(*kwargs.values())
    twin = cls(**kwargs)
    assert repr(value) == text
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)

    others = [other(**other_kwargs) for other, other_kwargs, _ in CASES
              if other is not cls]
    assert all(value != other for other in others)
    assert value.__eq__(tuple(kwargs.values())) is NotImplemented

    for name in kwargs:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == twin and repr(value) == text

    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is cls
        assert other == value and hash(other) == hash(value)
        assert repr(other) == text
