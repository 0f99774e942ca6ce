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
- the CVaR cross-check residual |density - elementary| of the
  successes, the figure `report()` gates at 1e-8 and then drops;
- the relative error against mpmath, at the same VaR, of the density
  route, whose value `report()` returns, and of the elementary form
  that checks it, over the answered triples among a fixed sample of 128
  of the pool, counting the draws where mpmath's `betainc` does not
  converge (skipped when mpmath is not installed);
- `specfun._beta_contfrac` evaluations per `report()`, the
  machine-independent count of incomplete-beta work, over the pool and
  over the fitted shapes of the portfolio-month pool
  (`portfolio_pool(1, 32)`) at each month's level, and the relative
  error of the returned CVaR against mpmath over those shapes.

    python tools/risk_sweep.py [--seed 7] [--size 1024]

It imports betakotz from the `src/` next to it, so a copy of the script
in another checkout sweeps that checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from itertools import compress
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
    """|density - elementary| of the two CVaR routes at the solved VaR."""
    p = BetaKotzParams(a, b)
    q, tail = risk._var_pair(p, alpha)
    return abs(risk._density_cvar(p, alpha, q, tail)
               - risk._elementary_cvar(p, alpha, q, tail))


def mpmath_routes(p, alpha, q, tail):
    """The density route and the elementary form in 40-digit mpmath, at
    the VaR q = 1 - tail the solver carries: the elementary form moves
    with VaR to first order, so its reference is taken at the same
    point."""
    import mpmath as mp

    with mp.workdps(40):
        ma, mb, level = mp.mpf(p.a), mp.mpf(p.b), 1 - mp.mpf(alpha)
        mq, mtail = ((mp.mpf(q), 1 - mp.mpf(q)) if q <= tail
                     else (1 - mp.mpf(tail), mp.mpf(tail)))
        mean = ma / (ma + mb)
        # E[(X - q)+] = mean P_{a+1,b}(X > q) - q P_{a,b}(X > q).
        excess = (mean * mp.betainc(ma + 1, mb, mq, 1, regularized=True)
                  - mq * mp.betainc(ma, mb, mq, 1, regularized=True))
        return (mq + excess / level,
                mean + mq**ma * mtail**mb / (mp.beta(ma, mb) * (ma + mb) * level))


def relative_error(got, ref):
    return float(abs(got - ref) / ref)


def route_errors(a, b, alpha):
    """Relative errors of the density route and the elementary form
    against mpmath."""
    p = BetaKotzParams(a, b)
    q, tail = risk._var_pair(p, alpha)
    density, elementary = mpmath_routes(p, alpha, q, tail)
    return (relative_error(risk._density_cvar(p, alpha, q, tail), density),
            relative_error(risk._elementary_cvar(p, alpha, q, tail), elementary))


def returned_error(p, alpha):
    """Relative error of `report(p, alpha).cvar` against mpmath."""
    density, _ = mpmath_routes(p, alpha, *risk._var_pair(p, alpha))
    return relative_error(risk.report(p, alpha).cvar, density)


def without_stalls(error, cases):
    """([error(*case) for case in cases] without the cases where mpmath's
    `betainc` does not converge, their number)."""
    from mpmath.libmp import NoConvergence

    errors, stalled = [], 0
    for case in cases:
        try:
            errors.append(error(*case))
        except NoConvergence:
            stalled += 1
    return errors, stalled


def mpmath_sample(pool, answered, size=128):
    """The triples among every k-th of `pool`, `size` of them, that are
    `answered` (a bool per triple): which others are answered does not
    move the sample."""
    step = max(1, len(pool) // size)
    return [t for t, ok in zip(pool[::step][:size], answered[::step]) if ok]


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
    if args.size < 1:
        parser.error("--size must be at least 1")

    pool = risk_pool(args.seed, args.size, None)
    outcomes, examples, cf_calls, answered = Counter(), {}, 0, []
    for a, b, alpha in pool:
        result, calls = counted_report(BetaKotzParams(a, b), alpha)
        cf_calls += calls
        kind = type(result).__name__
        outcomes[kind] += 1
        refused = isinstance(result, Exception)
        if refused:
            examples.setdefault(kind, f"({a!r}, {b!r}, {alpha!r}): {result}")
        answered.append(not refused)
    successes = list(compress(pool, answered))
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
    print(f"CVaR cross-check |density - elementary| over {len(successes)} "
          f"successes: p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")

    sample = mpmath_sample(pool, answered)
    try:
        errors, stalled = without_stalls(route_errors, sample)
    except ImportError:
        print("CVaR route errors: mpmath not installed, skipped")
    else:
        print(f"CVaR route errors vs mpmath over {len(errors)} of {len(sample)} "
              f"sampled successes ({stalled} mpmath betainc did not converge):")
        for name, route in zip(("density (returned)", "elementary"), zip(*errors)):
            p50, p99, worst = quantiles(route)
            print(f"  {name:<20} p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")

    shapes = fitted_shapes()
    month_calls = sum(counted_report(p, alpha)[1] for p, alpha in shapes)
    print(f"portfolio_pool(1, 32) fitted shapes: {month_calls / len(shapes):.2f} "
          f"_beta_contfrac evaluations per report() over {len(shapes)} months")
    try:
        errors, stalled = without_stalls(returned_error, shapes)
    except ImportError:
        print("returned CVaR error: mpmath not installed, skipped")
    else:
        p50, p99, worst = quantiles(errors)
        print(f"portfolio_pool(1, 32) fitted shapes: returned CVaR error vs mpmath "
              f"over {len(errors)} of {len(shapes)} months ({stalled} mpmath betainc "
              f"did not converge): p50 {p50:.2g}  p99 {p99:.2g}  max {worst:.2g}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (`| head`): send the rest to devnull so
        # the flush at exit cannot raise again, and exit 1 as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
