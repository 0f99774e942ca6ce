"""Command-line surface: measures, fit, portfolio, tables.

Exit codes: 0 success, 2 input error, 3 internal inconsistency,
4 numerical failure.  measures, portfolio and tables take a confidence
level, 0.99 by default (the setting of the reference tables); it can
also be set through the BETAKOTZ_ALPHA environment variable, with the
--alpha flag winning.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import credit, estimation, risk
from .distribution import BetaKotzParams, ConfidenceLevel
from .specfun import ConvergenceError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_NUMERIC = 4

ALPHA_ENV_VAR = "BETAKOTZ_ALPHA"

_METHODS = {"closed": risk.SolveMethod.CLOSED_FORM, "numeric": risk.SolveMethod.NUMERIC,
            "both": risk.SolveMethod.BOTH_AGREEING}

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


def _add_alpha_option(parser):
    parser.add_argument(
        "--alpha", type=float, default=None,
        help=f"confidence level in (0,1); default 0.99 or ${ALPHA_ENV_VAR}",
    )


def _add_format_option(parser):
    parser.add_argument(
        "--output-format", choices=("table", "csv", "json"), default="table",
        help="rendering of the result (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betakotz",
        description="Beta-Kotz tail-risk measures, fitting, and credit reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measures = sub.add_parser("measures", help="VaR/CVaR/EC for a shape pair")
    measures.add_argument("--a", type=float, required=True, dest="shape_a")
    measures.add_argument("--b", type=float, required=True, dest="shape_b")
    measures.add_argument(
        "--method", choices=tuple(_METHODS), default="both",
        help="closed form only, numeric only, or both with cross-check",
    )
    _add_alpha_option(measures)
    _add_format_option(measures)

    fit = sub.add_parser("fit", help="fit shapes from a sample file")
    fit.add_argument("input", help="newline-separated or single-column CSV of "
                                   "values strictly inside (0,1)")
    fit.add_argument("--method", choices=("mom", "mle"), default="mle")
    _add_format_option(fit)

    portfolio = sub.add_parser("portfolio", help="credit-portfolio risk report")
    portfolio.add_argument("input", help="portfolio CSV (see docs for columns)")
    portfolio.add_argument("--label", default="portfolio",
                           help="period label for the report")
    _add_alpha_option(portfolio)
    _add_format_option(portfolio)

    tables = sub.add_parser("tables", help="reproduce the reference tables")
    tables.add_argument("which", choices=("analytic", "numeric"))
    _add_alpha_option(tables)
    _add_format_option(tables)

    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_rows(header, rows, fmt, out):
    """Deterministic table/CSV rendering of uniform rows."""
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    else:
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(header)
        ]
        out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n")
        for row in rows:
            out.write("  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n")


def cmd_measures(alpha: ConfidenceLevel, shape_a: float, shape_b: float,
                 method: str, output_format: str, out) -> int:
    result = risk.report(BetaKotzParams(shape_a, shape_b), alpha, _METHODS[method])
    if output_format == "json":
        out.write(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    else:
        header = ["alpha", "var", "cvar", "ec", "mean", "method"]
        row = [
            f"{result.alpha.alpha:.9g}",
            f"{result.var:.9f}",
            f"{result.cvar:.9f}",
            f"{result.ec:.9f}",
            f"{result.mean:.9f}",
            result.method.value,
        ]
        _render_rows(header, [row], output_format, out)
    return EXIT_OK


def _read_sample_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        raise ValueError(f"cannot read sample file: {err}") from None
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


def cmd_fit(path: str, method: str, output_format: str, out) -> int:
    values = _read_sample_file(path)
    stats = estimation.stats_from_samples(values)
    try:
        if method == "mom":
            params = estimation.fit_moments(stats)
            result = estimation.FitResult(
                params=params, iterations=0, converged=True,
                log_likelihood=estimation.log_likelihood(params, stats),
                gradient_norm=float("nan"),
            )
        else:
            result = estimation.fit_mle(stats)
    except (estimation.InfeasibleMomentsError, estimation.StepFailureError) as err:
        sys.stderr.write(f"fit failed: {err}\n")
        return EXIT_NUMERIC
    if not result.converged:
        sys.stderr.write(
            f"fit did not converge in {result.iterations} iterations "
            f"(scaled score {result.gradient_norm:.3e})\n"
        )
        return EXIT_NUMERIC
    payload = {
        "a": result.params.a,
        "b": result.params.b,
        "n": stats.n,
        "method": method,
        "iterations": result.iterations,
        "converged": result.converged,
        "log_likelihood": result.log_likelihood,
    }
    if output_format == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        header = list(payload.keys())
        row = [
            f"{payload['a']:.9g}", f"{payload['b']:.9g}", str(stats.n), method,
            str(result.iterations), str(result.converged),
            f"{result.log_likelihood:.6f}",
        ]
        _render_rows(header, [row], output_format, out)
    return EXIT_OK


def cmd_portfolio(alpha: ConfidenceLevel, path: str, label: str,
                  output_format: str, out) -> int:
    obligors = credit.read_portfolio_csv(path)
    try:
        result = credit.period_report(label, obligors, alpha=alpha)
    except ValueError as err:
        sys.stderr.write(f"portfolio pipeline failed: {err}\n")
        return EXIT_NUMERIC
    if output_format == "json":
        out.write(credit.report_to_json(result) + "\n")
    elif output_format == "csv":
        out.write(credit.report_to_csv(result))
    else:
        d = result.to_rendered_dict()
        header = ["field", "value"]
        rows = [[k, credit._format_currency(v, ",") if k in credit.CURRENCY_FIELDS
                 else str(v)]
                for k, v in d.items()]
        _render_rows(header, rows, "table", out)
    return EXIT_OK


def cmd_tables(alpha: ConfidenceLevel, which: str, output_format: str, out) -> int:
    header = ["a", "b", "var", "cvar", "ec"]
    if which == "analytic":
        shapes, method = ANALYTIC_ROWS, risk.SolveMethod.CLOSED_FORM
    else:
        shapes, method = NUMERIC_ROWS, risk.SolveMethod.NUMERIC
    values = []
    for a, b in shapes:
        r = risk.report(BetaKotzParams(a, b), alpha, method)
        values.append((a, b, r.var, r.cvar, r.ec))
    if output_format == "json":
        # Machine form carries full precision; text forms round for eyes.
        out.write(json.dumps([dict(zip(header, row)) for row in values],
                             indent=2) + "\n")
    else:
        rows = [
            [f"{a:g}", f"{b:g}", f"{v:.6f}", f"{c:.6f}", f"{e:.6f}"]
            for a, b, v, c, e in values
        ]
        _render_rows(header, rows, output_format, out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        fmt = args.output_format
        if args.command == "fit":
            return cmd_fit(args.input, args.method, fmt, out)
        alpha = _alpha(args)
        if args.command == "measures":
            return cmd_measures(alpha, args.shape_a, args.shape_b, args.method,
                                fmt, out)
        if args.command == "portfolio":
            return cmd_portfolio(alpha, args.input, args.label, fmt, out)
        if args.command == "tables":
            return cmd_tables(alpha, args.which, fmt, out)
        raise AssertionError(f"unhandled command {args.command}")
    except risk.InternalConsistencyError as err:
        sys.stderr.write(f"internal consistency failure: {err}\n")
        return EXIT_INCONSISTENT
    except ConvergenceError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
