"""Time the credit layer per 10,000-row generated month.

Writes one month with the portfolio-month workload's generator
(`bench/workloads.py`, seeded), then times four runs on it:
`read_portfolio_csv`; `period_report` on the Portfolio that the read
returns, and on a plain list of the same obligors; and the benchmark's
whole portfolio-month op on the month (read, `period_report`,
`report_to_json` and `report_to_csv`).  Each time is the minimum of N
`timeit` repeats, in ms per month, µs per row and rows/s.  Next to the
times it prints the machine-independent counts for each run: the
Python-level calls it makes per row, from `sys.setprofile` call
events, with the four most frequent callees; its transient memory, the
`tracemalloc` peak above what it returns, in KB; and the garbage
collections it sets off, by generation.

    python tools/time_credit.py [--rows 10000] [--repeats 7] [--seed 1]

It imports betakotz from the `src/` next to it, so a copy of the script
in another checkout times that checkout.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tempfile
import timeit
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import portfolio_op, write_portfolio  # noqa: E402
from betakotz.credit import period_report, read_portfolio_csv  # noqa: E402


def python_calls(run) -> Counter:
    """Python-level call events inside one `run()`, by name."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def transient_kb(run) -> float:
    """The `tracemalloc` peak inside one `run()` above what it leaves
    allocated (its result), in KB."""
    tracemalloc.start()
    try:
        kept = run()
        current, peak = tracemalloc.get_traced_memory()
        del kept
    finally:
        tracemalloc.stop()
    return (peak - current) / 1024


def collections(run) -> list[int]:
    """Garbage collections of each generation during one `run()`."""
    before = [g["collections"] for g in gc.get_stats()]
    run()
    return [g["collections"] - b for g, b in zip(gc.get_stats(), before)]


def _line(name, seconds, rows):
    return (f"{name:<20} {seconds * 1e3:8.2f} ms  {seconds * 1e6 / rows:6.2f} µs/row"
            f"  {rows / seconds:9,.0f} rows/s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "month.csv"
        month = write_portfolio(path, args.rows,
                                random.Random(f"time-credit-{args.seed}"),
                                label="M", alpha=0.99)
        portfolio = read_portfolio_csv(path)
        obligors = list(portfolio)
        runs = {"read_portfolio_csv": lambda: read_portfolio_csv(path),
                "period_report": lambda: period_report("M", portfolio, 0.99),
                "period_report(list)": lambda: period_report("M", obligors, 0.99),
                "portfolio_op": lambda: portfolio_op(month)}
        print(f"{args.rows:,} rows, min of {args.repeats} repeats")
        for name, run in runs.items():
            print(_line(name, min(timeit.repeat(run, number=1,
                                                repeat=args.repeats)), args.rows))
        for name, run in runs.items():
            calls = python_calls(run)
            top = ", ".join(f"{k} {v}" for k, v in calls.most_common(4))
            print(f"{name}: {sum(calls.values()) / args.rows:.4f} Python-level"
                  f" calls per row ({top})")
            gcs = collections(run)
            print(f"{name}: {transient_kb(run):.1f} KB transient peak,"
                  f" {sum(gcs)} GC collections ({'/'.join(map(str, gcs))})")


if __name__ == "__main__":
    main()
