"""Command-line surface: measures, fit, portfolio, tables.

Exit codes: 0 success, 2 input error, 3 internal inconsistency,
4 numerical failure.  measures, portfolio and tables take a confidence
level, 0.99 by default (the setting of the reference tables); it can
also be set through the BETAKOTZ_ALPHA environment variable, with the
--alpha flag winning.

`credit`, `estimation` and `risk` are bound lazily: a layer's module is
executed on the first use of one of its attributes, so a subcommand
compiles only the layers it runs (`measures` and `tables` never run
`credit` or `estimation`, `fit` never runs `credit` or `risk`, and
`portfolio` never runs `estimation`).  The first use is not
thread-safe on Python 3.11; the CLI is single-threaded.
They are bound here, not imported inside the handlers, because
`bench/tracer.py` reads all six layers from `sys.modules` after it
imports `betakotz.cli`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from .distribution import BetaKotzParams, ConfidenceLevel
from .specfun import ConvergenceError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_NUMERIC = 4

ALPHA_ENV_VAR = "BETAKOTZ_ALPHA"


def _lazy(layer):
    """The module `betakotz.<layer>`, executed on its first attribute
    access rather than now, unless it is imported already.  Like an
    import, it goes into `sys.modules` and onto the package."""
    name = f"{__package__}.{layer}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], layer, module)
    return module


credit, estimation, risk = map(_lazy, ("credit", "estimation", "risk"))

# --method choices, each naming a risk.SolveMethod member.
_METHODS = {"closed": "CLOSED_FORM", "numeric": "NUMERIC", "both": "BOTH_AGREEING"}

# Reference (a, b) grids: the closed-form table rows and the numeric
# grid (integer rows plus the non-integer extension rows).
ANALYTIC_ROWS = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]
NUMERIC_ROWS = [
    (1.0, 1.0), (2.0, 1.0), (3.0, 1.0),
    (1.0, 2.0), (2.0, 2.0), (3.0, 2.0),
    (1.0, 3.0), (2.0, 3.0), (1.0, 4.0),
    (4.1, 1.0), (5.1, 1.5), (4.1, 4.1), (5.1, 5.1), (6.0, 6.0),
    (0.6, 0.6), (0.8, 0.8),
    (1.2, 11.4), (1.3, 13.0), (1.5, 14.1), (2.0, 19.0), (0.5, 30.0),
]


def _alpha(args) -> ConfidenceLevel:
    """The --alpha flag, else $BETAKOTZ_ALPHA, else 0.99."""
    if args.alpha is not None:
        return ConfidenceLevel(args.alpha)
    env = os.environ.get(ALPHA_ENV_VAR)
    if not env:
        return ConfidenceLevel(0.99)
    try:
        return ConfidenceLevel(float(env))
    except ValueError:
        raise ValueError(
            f"{ALPHA_ENV_VAR}={env!r} is not a confidence level in (0, 1)"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betakotz",
        description="Beta-Kotz tail-risk measures, fitting, and credit reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # main builds the parser on each call and runs args.run(args, out),
    # so a patched cmd_* is the one that runs.
    measures = sub.add_parser("measures", help="VaR/CVaR/EC for a shape pair")
    measures.set_defaults(run=cmd_measures)
    measures.add_argument("--a", type=float, required=True, dest="shape_a")
    measures.add_argument("--b", type=float, required=True, dest="shape_b")
    measures.add_argument(
        "--method", choices=tuple(_METHODS), default="both",
        help="closed form only, numeric only, or both with cross-check",
    )

    fit = sub.add_parser("fit", help="fit shapes from a sample file")
    fit.set_defaults(run=cmd_fit)
    fit.add_argument("input", help="newline-separated or single-column CSV of "
                                   "values strictly inside (0,1)")
    fit.add_argument("--method", choices=("mom", "mle"), default="mle")

    portfolio = sub.add_parser("portfolio", help="credit-portfolio risk report")
    portfolio.set_defaults(run=cmd_portfolio)
    portfolio.add_argument("input", help="portfolio CSV (see docs for columns)")
    portfolio.add_argument("--label", default="portfolio",
                           help="period label for the report")

    tables = sub.add_parser("tables", help="reproduce the reference tables")
    tables.set_defaults(run=cmd_tables)
    tables.add_argument("which", choices=("analytic", "numeric"))

    # fit uses no confidence level, so it takes no --alpha.
    for name, command in sub.choices.items():
        if name != "fit":
            command.add_argument(
                "--alpha", type=float, default=None,
                help=f"confidence level in (0,1); default 0.99 or ${ALPHA_ENV_VAR}",
            )
        command.add_argument(
            "--output-format", choices=("table", "csv", "json"), default="table",
            help="rendering of the result (default: table)",
        )
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _write(payload, columns, fmt, out):
    """Write a record, or a list of records, in the requested format.

    JSON carries full precision: a record with sorted keys, a list of
    records in column order.  Table and CSV write one row per record,
    each declared (key, format spec) column formatted for eyes.
    """
    if fmt == "json":
        out.write(json.dumps(payload, indent=2,
                             sort_keys=isinstance(payload, dict)) + "\n")
        return
    records = [payload] if isinstance(payload, dict) else payload
    lines = [[key for key, _ in columns]]
    lines += [[format(r[key], spec) for key, spec in columns] for r in records]
    if fmt == "csv":
        widths = [0] * len(columns)
        sep = ","
    else:
        widths = [max(map(len, column)) for column in zip(*lines)]
        sep = "  "
    for line in lines:
        out.write(sep.join(v.rjust(w) for v, w in zip(line, widths)) + "\n")


def cmd_measures(args, out) -> int:
    alpha = _alpha(args)
    result = risk.report(BetaKotzParams(args.shape_a, args.shape_b), alpha,
                         risk.SolveMethod[_METHODS[args.method]])
    _write(result.to_dict(), (("alpha", ".9g"), ("var", ".9f"), ("cvar", ".9f"),
                              ("ec", ".9f"), ("mean", ".9f"), ("method", "")),
           args.output_format, out)
    return EXIT_OK


def _read_sample_file(path):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise ValueError(f"cannot read sample file: {err}") from None
    # UTF-8, a byte-order mark dropped by hand, as read_portfolio_csv reads
    try:
        lines = data.decode("utf-8").removeprefix("\ufeff").splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(
            f"not UTF-8 at byte offset {err.start}: {err.reason}") from None
    values = []
    for line_num, line in enumerate(lines, start=1):
        text = line.strip().rstrip(",")
        if not text:
            continue
        try:
            x = float(text)
        except ValueError:
            if line_num == 1 and text.isidentifier():  # a column name
                continue
            raise ValueError(f"line {line_num}: not a number: {text!r}") from None
        if not 0.0 < x < 1.0:
            raise ValueError(
                f"line {line_num}: value {x} outside the open interval (0, 1)"
            )
        values.append(x)
    if len(values) < 2:
        raise ValueError("sample file must hold at least 2 usable values")
    return values


def cmd_fit(args, out) -> int:
    values = _read_sample_file(args.input)
    stats = estimation.stats_from_samples(values)
    try:
        if args.method == "mom":
            params, iterations = estimation.fit_moments(stats), 0
            ll = estimation.log_likelihood(params, stats)
        else:
            result = estimation.fit_mle(stats)
            if not result.converged:
                sys.stderr.write(
                    f"fit did not converge in {result.iterations} iterations "
                    f"(scaled score {result.gradient_norm:.3e})\n"
                )
                return EXIT_NUMERIC
            params, iterations, ll = (result.params, result.iterations,
                                      result.log_likelihood)
    except (estimation.InfeasibleMomentsError, estimation.StepFailureError) as err:
        sys.stderr.write(f"fit failed: {err}\n")
        return EXIT_NUMERIC
    payload = {
        "a": params.a,
        "b": params.b,
        "n": stats.n,
        "method": args.method,
        "iterations": iterations,
        "converged": True,
        "log_likelihood": ll,
    }
    _write(payload, (("a", ".9g"), ("b", ".9g"), ("n", ""), ("method", ""),
                     ("iterations", ""), ("converged", ""),
                     ("log_likelihood", ".6f")), args.output_format, out)
    return EXIT_OK


def cmd_portfolio(args, out) -> int:
    alpha = _alpha(args)
    obligors = credit.read_portfolio_csv(args.input)
    try:
        result = credit.period_report(args.label, obligors, alpha=alpha)
    except ValueError as err:
        sys.stderr.write(f"portfolio pipeline failed: {err}\n")
        return EXIT_NUMERIC
    if args.output_format == "json":
        out.write(credit.report_to_json(result) + "\n")
    elif args.output_format == "csv":
        out.write(credit.report_to_csv(result))
    else:
        # Money with thousands separators, every other field as rendered.
        rendered = result.to_rendered_dict()
        fields = [{"field": key,
                   "value": format(rendered[key], ",.2f" if spec == ".2f" else "")}
                  for key, spec in credit.REPORT_COLUMNS]
        _write(fields, (("field", ""), ("value", "")), args.output_format, out)
    return EXIT_OK


def cmd_tables(args, out) -> int:
    alpha = _alpha(args)
    if args.which == "analytic":
        shapes, method = ANALYTIC_ROWS, risk.SolveMethod.CLOSED_FORM
    else:
        shapes, method = NUMERIC_ROWS, risk.SolveMethod.NUMERIC
    rows = []
    for a, b in shapes:
        r = risk.report(BetaKotzParams(a, b), alpha, method)
        rows.append({"a": a, "b": b, "var": r.var, "cvar": r.cvar, "ec": r.ec})
    _write(rows, (("a", "g"), ("b", "g"), ("var", ".6f"), ("cvar", ".6f"),
                  ("ec", ".6f")), args.output_format, out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except ConvergenceError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    # Last, as naming the class executes `risk`; the three hierarchies
    # are disjoint, so the order decides nothing else.
    except risk.InternalConsistencyError as err:
        sys.stderr.write(f"internal consistency failure: {err}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
