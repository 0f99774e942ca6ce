"""Time the credit layer per 10,000-row generated month.

Writes one month with the portfolio-month workload's generator
(`bench/workloads.py`, seeded), then times nine runs on it:
`read_portfolio_csv`; the same read of five more spellings of the
month, with every header name quoted as R's `write.csv` writes them
(`read(R-header)`), with a blank second line (`read(blank-2nd-line)`),
with every nonzero day count 1,000 more (`read(late-days)`, whose
days the reader's table of spellings below 1,000 misses), with a
leading space on every id (`read(padded-ids)`, whose ids the reader
strips, as every block holds a space) and with the rating, segment and
guarantee cells upper-cased (`read(upper-enums)`, whose spellings the
reader's table misses, so it looks each distinct spelling up once);
`period_report` on the Portfolio that the read returns, and on a plain
list of the same obligors; and the benchmark's whole portfolio-month op
on the month (read, `period_report`, `report_to_json` and
`report_to_csv`).  Each time is the minimum of N `timeit` repeats, in
ms per month, µs per row and rows/s.  Next to the
times it prints the machine-independent counts for each run: the
Python-level calls it makes per row, from `sys.setprofile` call
events, with the four most frequent callees; the `math.log` and
`math.log1p` calls per row that Python code makes, from `c_call` events
(a C-level `map` over them makes none); the chunks that the reader
converts, per read of the month; the `str.count` calls that Python code
makes per read, from `c_call` events too; the rows that `csv.reader`
yields per row (the header is one of them); its transient memory, the
`tracemalloc` peak above what it returns, in KB; and the garbage
collections it sets off, by generation.

    python tools/time_credit.py [--rows 10000] [--repeats 7] [--seed 1]
                                [--parent DIR]

It imports betakotz from the `src/` next to it, so a copy of the script
in another checkout times that checkout.  With `--parent DIR` it also
imports `DIR/src/betakotz` under another package name and times both
in the one process, the two trees taking turns within each repeat, as
the host's speed drifts too much between processes for two separate
runs to compare.  It checks that both trees give equal outputs (by
repr) and prints, next to each time, the parent's time, the ratio of
this tree's minimum to the parent's, and the median and the range of
the paired ratios: this tree's time over the parent's in each repeat,
the two timed back to back.  A host that slows for part of a run shows
as a wide range.  The parent's counts follow this tree's.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import importlib
import importlib.util
import math
import os
import random
import statistics
import sys
import tempfile
import timeit
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import write_portfolio  # noqa: E402
from betakotz import credit as this_credit  # noqa: E402


def load_credit(tree, name):
    """The credit module of `tree`/src/betakotz, imported as the package
    `name`."""
    package = Path(tree).resolve() / "src" / "betakotz"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.credit")


def late_days(line):
    """A generated month's data `line` with its nonzero day count 1,000
    more."""
    cells = line.split(",")
    if cells[5] != "0":
        cells[5] = str(int(cells[5]) + 1000)
    return ",".join(cells)


def upper_enums(line):
    """A generated month's data `line` with its rating, segment and
    guarantee cells upper-cased."""
    cells = line.split(",")
    for k in (1, 2, 4):
        cells[k] = cells[k].upper()
    return ",".join(cells)


def write_spellings(month, directory):
    """The paths, by run name, of `month` spelled with every header name
    quoted, with a blank second line, with late days, with padded ids and
    with upper-case enum cells, written to `directory`."""
    head, body = Path(month.path).read_text(encoding="utf-8").split("\n", 1)
    lines = body.splitlines(keepends=True)
    spellings = {"R-header": '"' + head.replace(",", '","') + '"\n' + body,
                 "blank-2nd-line": head + "\n\n" + body,
                 "late-days": head + "\n" + "".join(map(late_days, lines)),
                 "padded-ids": head + "\n" + "".join(" " + line for line in lines),
                 "upper-enums": head + "\n" + "".join(map(upper_enums, lines))}
    paths = {}
    for name, text in spellings.items():
        paths[f"read({name})"] = path = Path(directory) / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
    return paths


def timed_runs(credit, month, spellings):
    """The nine timed runs on `month` and its `spellings`, through the
    module `credit`."""
    portfolio = credit.read_portfolio_csv(month.path)
    obligors = list(portfolio)

    def portfolio_op():
        # bench/workloads.py's portfolio_op, on this credit module
        rep = credit.period_report(month.label, credit.read_portfolio_csv(month.path),
                                   alpha=month.alpha)
        return (rep.fitted.a, rep.fitted.b,
                credit.report_to_json(rep), credit.report_to_csv(rep))

    return {"read_portfolio_csv": lambda: credit.read_portfolio_csv(month.path),
            **{name: functools.partial(credit.read_portfolio_csv, path)
               for name, path in spellings.items()},
            "period_report": lambda: credit.period_report("M", portfolio, 0.99),
            "period_report(list)": lambda: credit.period_report("M", obligors, 0.99),
            "portfolio_op": portfolio_op}


LOGARITHMS = (math.log, math.log1p)


def python_calls(run) -> tuple[Counter, int, int]:
    """Python-level call events inside one `run()`, by name, and the
    `c_call` events of its logarithms and of `str.count`."""
    calls = Counter()
    logarithms = str_counts = 0

    def profile(frame, event, arg):
        nonlocal logarithms, str_counts
        if event == "call":
            calls[frame.f_code.co_name] += 1
        elif event == "c_call":
            if arg in LOGARITHMS:
                logarithms += 1
            # a str's count method, bound to it
            elif (getattr(arg, "__name__", None) == "count"
                  and type(getattr(arg, "__self__", None)) is str):
                str_counts += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, logarithms, str_counts


def counted(owner, name, run, items=False):
    """(run(), n), where n counts the calls to `owner.name` inside
    `run()`, or with `items` the items that the iterables it returns
    yield."""
    original = getattr(owner, name)
    n = 0

    def tally(iterable):
        nonlocal n
        for item in iterable:
            n += 1
            yield item

    def counting(*args, **kwargs):
        nonlocal n
        if items:
            return tally(original(*args, **kwargs))
        n += 1
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        return run(), n
    finally:
        setattr(owner, name, original)


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


def print_counts(prefix, credit, runs, rows):
    for name, run in runs.items():
        calls, logarithms, str_counts = python_calls(run)
        top = ", ".join(f"{k} {v}" for k, v in calls.most_common(4))
        _, chunks = counted(credit, "_field_chunks", run, items=True)
        _, csv_rows = counted(csv, "reader", run, items=True)
        print(f"{prefix}{name}: {sum(calls.values()) / rows:.4f} Python-level"
              f" calls per row ({top}); {logarithms / rows:.4f} log/log1p calls"
              f" per row; {chunks} chunks per read; {str_counts} str.count"
              f" calls per read;"
              f" {csv_rows / rows:.4f} csv.reader rows per row")
        gcs = collections(run)
        print(f"{prefix}{name}: {transient_kb(run):.1f} KB transient peak,"
              f" {sum(gcs)} GC collections ({'/'.join(map(str, gcs))})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout to time alongside this one")
    args = parser.parse_args(argv)
    credits = {"this": this_credit}
    if args.parent is not None:
        credits["parent"] = load_credit(args.parent, "betakotz_parent")
    with tempfile.TemporaryDirectory() as tmp:
        month = write_portfolio(Path(tmp) / "month.csv", args.rows,
                                random.Random(f"time-credit-{args.seed}"),
                                label="M", alpha=0.99)
        spellings = write_spellings(month, tmp)
        runs = {tree: timed_runs(credit, month, spellings)
                for tree, credit in credits.items()}
        names = list(runs["this"])
        for name in names:
            if len({repr(tree_runs[name]()) for tree_runs in runs.values()}) != 1:
                sys.exit(f"{name}: the outputs of this tree and the parent differ")
        times = {tree: {name: [] for name in names} for tree in runs}
        order = list(runs)
        for _ in range(args.repeats):
            for name in names:
                for tree in order:
                    times[tree][name].append(timeit.timeit(runs[tree][name], number=1))
            order.reverse()  # each tree goes first in every other repeat
        heading = f"{args.rows:,} rows, min of {args.repeats} repeats"
        if args.parent is not None:
            heading += f", alternating with the parent {args.parent} (equal outputs)"
        print(heading)
        for name in names:
            ours = times["this"][name]
            line = _line(name, min(ours), args.rows)
            if args.parent is not None:
                parents = times["parent"][name]
                paired = [t / p for t, p in zip(ours, parents)]
                line += (f"  parent {min(parents) * 1e3:8.2f} ms"
                         f"  ratio {min(ours) / min(parents):.3f}"
                         f"  paired median {statistics.median(paired):.3f}"
                         f" range {min(paired):.3f}-{max(paired):.3f}")
            print(line)
        for tree, tree_runs in runs.items():
            print_counts("parent " if tree == "parent" else "", credits[tree],
                         tree_runs, args.rows)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (`| head`): send the rest to devnull so
        # the flush at exit cannot raise again, and exit 1 as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
