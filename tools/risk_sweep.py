"""Sweep `report()` over the risk-sweep pool: outcomes, accuracy, kernel work.

Runs `risk.report` on every (a, b, alpha) of the risk-sweep workload's
seeded pool (`bench/workloads.py`: a, b log-uniform on [0.05, 2000],
1 - alpha log-uniform on [1e-6, 0.5], every tenth op a closed-form pair)
and prints:

- the outcomes: successes, and failures by exception type with one
  example each;
- the VaR error of the successes in the smaller of x and 1 - x: the
  relative error of whichever of VaR and 1 - VaR the solver carries
  below 1/2, against `scipy.special.betaincinv` on that side (skipped
  when scipy is not installed);
- the CVaR cross-check residual |identity - density| of the successes,
  the figure `report()` gates at 1e-8 and then drops;
- the relative error against mpmath, at the same VaR, of the density
  route and of the identity route, whose value `report()` returns, over
  a fixed sample of 128 successes, counting the draws where mpmath's
  `betainc` does not converge (skipped when mpmath is not installed);
- `specfun._beta_contfrac` evaluations per `report()`, the
  machine-independent count of incomplete-beta work, over the pool and
  over the fitted shapes of the portfolio-month pool
  (`portfolio_pool(1, 32)`) at each month's level.

    python tools/risk_sweep.py [--seed 7] [--size 1024]

It imports betakotz from the `src/` next to it, so a copy of the script
in another checkout sweeps that checkout.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import portfolio_pool, risk_pool  # noqa: E402
from betakotz import credit, risk, specfun  # noqa: E402
from betakotz.distribution import BetaKotzParams  # noqa: E402
from tools.time_credit import counted  # noqa: E402


def counted_report(params, alpha):
    """(`risk.report(params, alpha)` or the exception it raises, its
    `_beta_contfrac` calls)."""
    def run():
        try:
            return risk.report(params, alpha)
        except Exception as exc:  # noqa: BLE001 - outcomes are what we count
            return exc
    return counted(specfun, "_beta_contfrac", run)


def var_error(a, b, alpha):
    """Relative error of the carried smaller side of the VaR against scipy."""
    from scipy.special import betaincinv

    q, tail = risk._var_pair(BetaKotzParams(a, b), alpha)
    if q <= tail:
        got, ref = q, betaincinv(a, b, alpha)
    else:
        got, ref = tail, betaincinv(b, a, 1.0 - alpha)
    return abs(got - ref) / ref


def crosscheck_residual(a, b, alpha):
    """|identity - density| of the two CVaR routes at the solved VaR."""
    p = BetaKotzParams(a, b)
    q, tail = risk._var_pair(p, alpha)
    return abs(risk._tail_expectation_cvar(p, alpha, q, tail)
               - risk._density_cvar(p, alpha, q, tail))


def route_errors(a, b, alpha):
    """Relative errors of the density and identity routes against mpmath,
    each at the VaR the solver carries (the identity moves with VaR to
    first order, so its reference is taken at the same point)."""
    import mpmath as mp

    p = BetaKotzParams(a, b)
    q, tail = risk._var_pair(p, alpha)
    with mp.workdps(40):
        ma, mb = mp.mpf(a), mp.mpf(b)
        mq = mp.mpf(q) if q <= tail else 1 - mp.mpf(tail)
        level = 1 - mp.mpf(alpha)
        # E[X; X > q] = mean P_{a+1,b}(X > q), and
        # E[(X - q)+] = E[X; X > q] - q P_{a,b}(X > q).
        tail_mean = ma / (ma + mb) * mp.betainc(ma + 1, mb, mq, 1, regularized=True)
        density = mq + (tail_mean - mq * mp.betainc(ma, mb, mq, 1, regularized=True)) / level
        identity = tail_mean / level
        return (float(abs(risk._density_cvar(p, alpha, q, tail) - density) / density),
                float(abs(risk._tail_expectation_cvar(p, alpha, q, tail) - identity)
                      / identity))


def quantiles(values, probs=(0.5, 0.99, 1.0)):
    ordered = sorted(values)
    return [ordered[min(int(p * len(ordered)), len(ordered) - 1)] for p in probs]


def fitted_shapes():
    """(fitted params, alpha) of every month of portfolio_pool(1, 32)."""
    with tempfile.TemporaryDirectory() as tmp:
        return [(credit.period_report(m.label, credit.read_portfolio_csv(m.path),
                                      alpha=m.alpha).fitted, m.alpha)
                for m in portfolio_pool(1, 32, tmp)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=1024)
    args = parser.parse_args(argv)

    pool = risk_pool(args.seed, args.size, None)
    outcomes, examples, cf_calls, successes = Counter(), {}, 0, []
    for a, b, alpha in pool:
        result, calls = counted_report(BetaKotzParams(a, b), alpha)
        cf_calls += calls
        kind = type(result).__name__
        outcomes[kind] += 1
        if isinstance(result, Exception):
            examples.setdefault(kind, f"({a!r}, {b!r}, {alpha!r}): {result}")
        else:
            successes.append((a, b, alpha))
    print(f"risk_pool(seed={args.seed}, size={args.size}): report() outcomes")
    for kind, n in outcomes.most_common():
        print(f"  {kind:<26} {n:5d}")
    for kind, text in examples.items():
        print(f"  e.g. {kind}: {text}")
    print(f"_beta_contfrac evaluations per op: {cf_calls / len(pool):.2f}")

    try:
        errors = [var_error(*t) for t in successes]
    except ImportError:
        print("VaR error: scipy not installed, skipped")
    else:
        p50, p99, worst = quantiles(errors)
        print(f"VaR error vs scipy betaincinv, smaller of x and 1 - x, over "
              f"{len(errors)} successes: p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")

    p50, p99, worst = quantiles([crosscheck_residual(*t) for t in successes])
    print(f"CVaR cross-check |identity - density| over {len(successes)} "
          f"successes: p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")

    sample = successes[::max(1, len(successes) // 128)][:128]
    try:
        from mpmath.libmp import NoConvergence
    except ImportError:
        print("CVaR route errors: mpmath not installed, skipped")
    else:
        errors, stalled = [], 0
        for t in sample:
            try:
                errors.append(route_errors(*t))
            except NoConvergence:
                stalled += 1
        print(f"CVaR route errors vs mpmath over {len(errors)} of {len(sample)} "
              f"sampled successes ({stalled} mpmath betainc did not converge):")
        for name, route in zip(("density", "identity (returned)"), zip(*errors)):
            p50, p99, worst = quantiles(route)
            print(f"  {name:<20} p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")

    shapes = fitted_shapes()
    month_calls = sum(counted_report(p, alpha)[1] for p, alpha in shapes)
    print(f"portfolio_pool(1, 32) fitted shapes: {month_calls / len(shapes):.2f} "
          f"_beta_contfrac evaluations per report() over {len(shapes)} months")


if __name__ == "__main__":
    main()
