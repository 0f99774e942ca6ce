"""CLI tests: subcommand output, exit codes, env overrides, determinism."""

import argparse
import gc
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from betakotz import cli, credit, estimation, risk, specfun
from betakotz.cli import EXIT_INCONSISTENT, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from betakotz.distribution import BetaKotzParams, ConfidenceLevel

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "portfolio_synthetic.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_measures_table_row(capsys):
    code, out, _ = run_cli(capsys, "measures", "--a", "1", "--b", "2",
                           "--alpha", "0.99")
    assert code == EXIT_OK
    values = out.splitlines()[1].split()
    assert float(values[1]) == pytest.approx(0.900, abs=5e-4)
    assert float(values[2]) == pytest.approx(0.933, abs=5e-4)
    assert float(values[3]) == pytest.approx(0.567, abs=5e-4)
    assert values[5] == "both_agreeing"


def test_measures_median_uniform(capsys):
    code, out, _ = run_cli(capsys, "measures", "--a", "1", "--b", "1",
                           "--alpha", "0.5", "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["var"] == pytest.approx(0.5, abs=1e-12)


def test_measures_table3_row(capsys):
    code, out, _ = run_cli(capsys, "measures", "--a", "6", "--b", "6",
                           "--alpha", "0.99", "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["var"] == pytest.approx(0.806, abs=5e-3)
    assert payload["ec"] == pytest.approx(0.307, abs=5e-3)


def test_measures_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "measures", "--a", "2", "--b", "3",
                           "--alpha", "0.95", "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == risk.report(BetaKotzParams(2, 3), 0.95).to_dict()


def test_measures_closed_vs_numeric_agree(capsys):
    for a, b in [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4)]:
        _, out_closed, _ = run_cli(
            capsys, "measures", "--a", str(a), "--b", str(b),
            "--method", "closed", "--output-format", "json",
        )
        _, out_numeric, _ = run_cli(
            capsys, "measures", "--a", str(a), "--b", str(b),
            "--method", "numeric", "--output-format", "json",
        )
        closed = json.loads(out_closed)
        numeric = json.loads(out_numeric)
        assert abs(closed["var"] - numeric["var"]) <= 1e-10
        assert closed["method"] == "closed_form"
        assert numeric["method"] == "numeric"


def test_measures_closed_without_closed_form(capsys):
    code, _, err = run_cli(capsys, "measures", "--a", "5.5", "--b", "7.7",
                           "--method", "closed")
    assert code == EXIT_INPUT
    assert "no closed form" in err


def test_measures_invalid_shapes(capsys):
    code, _, err = run_cli(capsys, "measures", "--a", "-1", "--b", "2")
    assert code == EXIT_INPUT
    assert "shape" in err


@pytest.mark.parametrize("alpha", ["1e-300", "0.5", "0.99"])
def test_measures_density_overflow_is_an_input_error(capsys, alpha):
    # One stderr line and exit 2, not an OverflowError traceback (exit 1).
    code, out, err = run_cli(capsys, "measures", "--a", "1e30", "--b", "1e15",
                             "--alpha", alpha)
    assert code == EXIT_INPUT and out == ""
    assert err == (f"error: CVaR quadrature overflows a float for "
                   f"(a=1e+30, b=1000000000000000.0, alpha={float(alpha)})\n")


def test_measures_inconsistency_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(risk, "var_closed", lambda p, alpha: 0.123)
    code, _, err = run_cli(capsys, "measures", "--a", "1", "--b", "2")
    assert code == EXIT_INCONSISTENT
    assert "consistency" in err


def test_measures_deterministic(capsys):
    _, first, _ = run_cli(capsys, "measures", "--a", "1.7", "--b", "9.2")
    _, second, _ = run_cli(capsys, "measures", "--a", "1.7", "--b", "9.2")
    assert first == second


def test_measures_contfrac_stall_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(specfun, "_CF_MAX_ITERS", 10)
    code, out, err = run_cli(capsys, "measures", "--a", "30", "--b", "40")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "continued fraction stalled" in err


def test_alpha_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.ALPHA_ENV_VAR, "0.5")
    _, out, _ = run_cli(capsys, "measures", "--a", "1", "--b", "1",
                        "--output-format", "json")
    assert json.loads(out)["var"] == pytest.approx(0.5, abs=1e-12)
    # the flag wins over the environment
    _, out, _ = run_cli(capsys, "measures", "--a", "1", "--b", "1",
                        "--alpha", "0.99", "--output-format", "json")
    assert json.loads(out)["var"] == pytest.approx(0.99, abs=1e-12)


@pytest.mark.parametrize("value", ["bogus", "2", "nan"])
def test_alpha_env_errors_name_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv(cli.ALPHA_ENV_VAR, value)
    code, out, err = run_cli(capsys, "measures", "--a", "1", "--b", "2")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (f"error: BETAKOTZ_ALPHA={value!r} is not a confidence "
                   "level in (0, 1)\n")
    # the flag wins, so a bad environment value is never read
    code, _, _ = run_cli(capsys, "measures", "--a", "1", "--b", "2",
                         "--alpha", "0.99")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["measures", "--a", "-1", "--b", "2"],
    ["portfolio", "missing.csv"],
    ["tables", "analytic"],
], ids=["measures-bad-shape", "portfolio-missing-file", "tables"])
def test_alpha_environment_is_read_before_any_other_input(capsys, monkeypatch,
                                                          tmp_path, argv):
    # A bad BETAKOTZ_ALPHA is reported ahead of a bad shape or a missing
    # file; fit never reads it (test_fit_ignores_alpha_environment).
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.ALPHA_ENV_VAR, "bogus")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("error: BETAKOTZ_ALPHA='bogus' is not a confidence "
                   "level in (0, 1)\n")


def test_main_runs_the_handler_found_on_the_module(monkeypatch):
    # bench/tracer.py wraps betakotz.cli's functions before it calls main,
    # so main must run whatever cmd_* the module holds at call time.
    calls = []

    def stub(*args):
        calls.append(args)
        return EXIT_OK

    monkeypatch.setattr(cli, "cmd_tables", stub)
    assert main(["tables", "analytic"]) == EXIT_OK
    assert len(calls) == 1


def test_alpha_flag_error_unchanged(capsys):
    code, _, err = run_cli(capsys, "measures", "--a", "1", "--b", "2",
                           "--alpha", "2")
    assert code == EXIT_INPUT
    assert err == "error: confidence level must lie in (0, 1), got 2.0\n"


def test_measures_quantile_that_rounds_to_zero_is_input_error(capsys):
    # F(x) = x^0.05 puts the 1e-300 quantile at 1e-6000, below every double.
    code, out, err = run_cli(capsys, "measures", "--a", "0.05", "--b", "1",
                             "--alpha", "1e-300")
    assert (code, out) == (EXIT_INPUT, "")
    assert "rounds to 0" in err


def test_measures_large_shape_routes_agree(capsys):
    # A sum of ln-gammas near 1.5e8 put the identity route 2e-8 off, and
    # the command exited 3; mpmath's CVaR is 0.999999992867408.
    code, out, _ = run_cli(capsys, "measures", "--a", "1e7", "--b", "0.5",
                           "--alpha", "0.5", "--output-format", "json")
    assert code == EXIT_OK
    assert abs(json.loads(out)["cvar"] - 0.999999992867408) <= 1e-14


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@pytest.fixture()
def beta_2_5_file(tmp_path):
    xs = np.random.default_rng(42).beta(2.0, 5.0, size=10_000)
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(f"{x:.17g}" for x in xs) + "\n")
    return path


def test_fit_mle_envelope(capsys, beta_2_5_file):
    code, out, _ = run_cli(capsys, "fit", str(beta_2_5_file),
                           "--method", "mle", "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert 1.85 < payload["a"] < 2.15
    assert 4.6 < payload["b"] < 5.4
    assert payload["converged"] is True


def test_fit_ignores_alpha_environment(capsys, monkeypatch, beta_2_5_file):
    # fit uses no confidence level, so a bad BETAKOTZ_ALPHA is never read.
    _, expected, _ = run_cli(capsys, "fit", str(beta_2_5_file),
                             "--output-format", "json")
    monkeypatch.setenv(cli.ALPHA_ENV_VAR, "bogus")
    code, out, err = run_cli(capsys, "fit", str(beta_2_5_file),
                             "--output-format", "json")
    assert (code, out, err) == (EXIT_OK, expected, "")


def test_fit_mom_within_ten_percent(capsys, beta_2_5_file):
    code, out, _ = run_cli(capsys, "fit", str(beta_2_5_file),
                           "--method", "mom", "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["a"] - 2.0) <= 0.2
    assert abs(payload["b"] - 5.0) <= 0.5


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_fit_renders_the_json_values(capsys, beta_2_5_file, fmt):
    _, out, _ = run_cli(capsys, "fit", str(beta_2_5_file), "--output-format", "json")
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, "fit", str(beta_2_5_file), "--output-format", fmt)
    assert code == EXIT_OK
    lines = out.splitlines()
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    assert split(lines[0]) == ["a", "b", "n", "method", "iterations", "converged",
                               "log_likelihood"]
    assert split(lines[1]) == [
        f"{payload['a']:.9g}", f"{payload['b']:.9g}", "10000", "mle",
        str(payload["iterations"]), "True", f"{payload['log_likelihood']:.6f}",
    ]
    assert len(lines) == 2


def test_fit_unconverged_is_numeric_failure(capsys, monkeypatch, beta_2_5_file):
    monkeypatch.setattr(estimation, "_MAX_ITERS", 1)
    code, out, err = run_cli(capsys, "fit", str(beta_2_5_file))
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("fit did not converge in 1 iterations (scaled score ")


def test_fit_singular_hessian_is_numeric_failure(capsys, monkeypatch, beta_2_5_file):
    monkeypatch.setattr(estimation, "_score_and_hessian",
                        lambda a, b, stats: ((1.0, 1.0), (1.0, 1.0, 1.0)))
    code, out, err = run_cli(capsys, "fit", str(beta_2_5_file))
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("fit failed: singular Hessian at (a=")


def test_fit_damping_floor_is_numeric_failure(capsys, monkeypatch, beta_2_5_file):
    # Every trial step lowers the likelihood below its starting value.
    calls = []

    def falling(p, stats):
        calls.append(p)
        return 0.0 if len(calls) == 1 else -1.0

    monkeypatch.setattr(estimation, "log_likelihood", falling)
    code, out, err = run_cli(capsys, "fit", str(beta_2_5_file))
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("fit failed: step damping floor reached at (a=")
    assert len(calls) == 1 + estimation._MAX_HALVINGS + 1


@pytest.mark.parametrize("text", ["0.5\n", "x\n0.5\n", "\n\n"])
def test_fit_needs_two_usable_values(capsys, tmp_path, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "fit", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: sample file must hold at least 2 usable values\n"


def test_fit_rejects_boundary_value(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n0.25\n1.0\n0.75\n")
    code, _, err = run_cli(capsys, "fit", str(path))
    assert code == EXIT_INPUT
    assert "line 3" in err


def test_fit_accepts_single_column_csv_with_header(capsys, tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("x\n0.2\n0.4\n0.6\n")
    code, out, _ = run_cli(capsys, "fit", str(path), "--method", "mom",
                           "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 3


def test_fit_skips_a_rate_header(capsys, tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("rate\n0.2\n0.4\n0.6\n")
    code, out, _ = run_cli(capsys, "fit", str(path), "--method", "mom",
                           "--output-format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 3


def test_fit_reads_a_byte_order_mark_as_nothing(capsys, tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("rate\n0.2\n0.4\n0.6\n", encoding="utf-8")
    marked.write_text("rate\n0.2\n0.4\n0.6\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    outputs = [run_cli(capsys, "fit", str(path), "--method", "mom",
                       "--output-format", "json") for path in (plain, marked)]
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_fit_reads_a_byte_order_mark_without_the_utf_8_sig_codec(child_env, tmp_path):
    # The mark is dropped by hand: a "utf-8-sig" handle imports
    # encodings.utf_8_sig and decodes through its Python-level methods.
    path = tmp_path / "rates.csv"
    path.write_bytes(b"\xef\xbb\xbfrate\n0.2\n0.4\n0.6\n")
    code = ("import contextlib, io, sys; from betakotz import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['fit', {str(path)!r}, '--method', 'mom']) == 0\n"
            "print('encodings.utf_8_sig' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_fit_byte_that_is_not_utf8_names_its_offset(capsys, tmp_path, mark):
    # The offset counts from the start of the file, byte-order mark included.
    path = tmp_path / "rates.txt"
    path.write_bytes(mark + b"0.1\n0.2\n\xff\n")
    code, out, err = run_cli(capsys, "fit", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: not UTF-8 at byte offset {len(mark) + 8}: invalid start byte\n"


def test_fit_names_a_malformed_first_value(capsys, tmp_path):
    # Only a bare column name counts as a header; any other first line
    # that is not a number is an error on line 1, not a skipped header.
    path = tmp_path / "reprs.txt"
    path.write_text("np.float64(0.44)\nnp.float64(0.21)\n0.3\n0.5\n")
    code, out, err = run_cli(capsys, "fit", str(path), "--method", "mom")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: line 1: not a number: 'np.float64(0.44)'\n"


def test_fit_unreadable_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", str(tmp_path / "missing.txt"))
    assert code == EXIT_INPUT


def test_fit_infeasible_moments_is_numeric_failure(capsys, tmp_path):
    # Bimodal two-point data: variance exceeds mean(1-mean) is impossible,
    # but equal points give zero variance, which is also infeasible.
    path = tmp_path / "flat.txt"
    path.write_text("0.5\n0.5\n0.5\n")
    code, _, err = run_cli(capsys, "fit", str(path), "--method", "mom")
    assert code == EXIT_NUMERIC
    assert "variance" in err


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------

def test_portfolio_fixture_json(capsys):
    code, out, _ = run_cli(capsys, "portfolio", str(FIXTURE),
                           "--output-format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cvar"] >= payload["var"] >= payload["expected_loss"]
    assert payload["obligor_count"] == 59


def test_portfolio_reads_a_byte_order_mark_as_nothing(capsys, tmp_path):
    path = tmp_path / "marked.csv"
    path.write_text(FIXTURE.read_text(encoding="utf-8"), encoding="utf-8-sig")
    outputs = [run_cli(capsys, "portfolio", str(p), "--output-format", "json")
               for p in (FIXTURE, path)]
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_portfolio_schema_violation(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Nowhere,1000,NoGuarantee,0\n"
    )
    code, _, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_INPUT
    assert "row 2" in err and "segment" in err


def test_portfolio_empty_csv(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_INPUT


@pytest.fixture()
def one_positive_loss_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due,pd_override,lgd_override\n"
        "a,AA,Other,1000,NoGuarantee,0,,\n"
        "b,AA,Other,500,NoGuarantee,0,0.0,\n"
    )
    return path


def test_portfolio_pipeline_failure(capsys, one_positive_loss_file):
    code, _, err = run_cli(capsys, "portfolio", str(one_positive_loss_file))
    assert code == EXIT_NUMERIC
    assert "pipeline" in err


def test_portfolio_zero_total_exposure(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,0,NoGuarantee,0\n"
        "b,B,Other,0.0,NoGuarantee,5\n"
    )
    code, out, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "portfolio pipeline failed: total exposure must be positive\n"


def test_portfolio_of_equal_rates_is_numeric_failure(capsys, tmp_path):
    # Two identical obligors: their rates' variance 0 has no moment fit.
    path = tmp_path / "twins.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,100,NoGuarantee,0\n"
        "a,AA,Other,100,NoGuarantee,0\n"
    )
    code, out, err = run_cli(capsys, "portfolio", str(path))
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == ("portfolio pipeline failed: sample variance 0.0 must lie in"
                   " (0, 0.007812984375) = (0, mean*(1-mean)) for a moment fit\n")


def test_portfolio_overflowing_total_exposure(capsys, tmp_path):
    # Two finite exposures whose sum overflows: a refusal that says so,
    # not an OverflowError traceback.
    path = tmp_path / "overflow.csv"
    path.write_text(
        "id,rating,segment,ead,guarantee,days_past_due\n"
        "a,AA,Other,1e308,NoGuarantee,0\n"
        "b,B,Other,1e308,NoGuarantee,5\n"
    )
    code, out, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "portfolio pipeline failed: total exposure must be finite, got inf\n"


def test_portfolio_byte_that_is_not_utf8_names_its_offset(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    data = FIXTURE.read_bytes()
    path.write_bytes(data[:2000] + b"\xff" + data[2001:])
    code, out, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: not UTF-8 at byte offset 2000: invalid start byte\n"


@pytest.mark.parametrize("row", [1, 3, 2 + credit._CHUNK_ROWS])
def test_portfolio_field_over_the_csv_limit_names_the_row(capsys, tmp_path, row):
    # csv.reader refuses a field over csv.field_size_limit(): an input
    # error naming the row, not a traceback.  Past row 3, a quoted first
    # row sends the file to csv.reader, and the malformed line is the
    # first line of its second chunk, which then has no row before it.
    lines = ["id,rating,segment,ead,guarantee,days_past_due",
             "a,AA,Other,1000,NoGuarantee,0",
             "b,AA,Other,500,NoGuarantee,0"]
    if row > 3:
        lines[1] = '"a",AA,Other,1000,NoGuarantee,0'
        lines += lines[2:] * (row - 3)
    lines[row - 1] += "," + "5" * 200_000
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "portfolio", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: row {row}: field larger than field limit (131072)\n"


def test_portfolio_table_prints_rate_fields_as_rendered(capsys, monkeypatch):
    # The table prints each rate field's rendered float, where the CSV
    # prints its 9 significant digits ("2", "1.23456789e+09").
    report = credit.PortfolioReport(
        label="rates", total_exposure=1000.0, expected_loss=5.0, var=10.0,
        ec=5.0, cvar=12.0, fitted=BetaKotzParams(2.0, 1234567890.5),
        alpha=ConfidenceLevel(0.99), obligor_count=3)
    monkeypatch.setattr(credit, "period_report", lambda label, obligors, alpha: report)
    code, out, _ = run_cli(capsys, "portfolio", str(FIXTURE))
    assert code == EXIT_OK
    rows = dict(line.split() for line in out.splitlines()[1:])
    assert rows["fitted_a"] == "2.0"
    assert rows["fitted_b"] == "1234567890.0"
    assert rows["total_exposure"] == "1,000.00"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_analytic_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "analytic", "--alpha", "0.99",
                           "--output-format", "json")
    assert code == EXIT_OK
    rows = {(r["a"], r["b"]): r for r in json.loads(out)}
    row13 = rows[(1.0, 3.0)]
    assert row13["var"] == pytest.approx(0.785, abs=5e-3)
    assert row13["cvar"] == pytest.approx(0.838, abs=5e-3)
    assert row13["ec"] == pytest.approx(0.534, abs=5e-3)


def test_tables_analytic_alpha_half(capsys):
    code, out, _ = run_cli(capsys, "tables", "analytic", "--alpha", "0.5",
                           "--output-format", "json")
    rows = {(r["a"], r["b"]): r for r in json.loads(out)}
    row11 = rows[(1.0, 1.0)]
    assert row11["var"] == 0.5
    assert row11["cvar"] == 0.75
    assert row11["ec"] == 0.0


def test_tables_numeric_grid(capsys):
    code, out, _ = run_cli(capsys, "tables", "numeric", "--alpha", "0.99",
                           "--output-format", "json")
    assert code == EXIT_OK
    rows = {(r["a"], r["b"]): r for r in json.loads(out)}
    assert len(rows) == 21
    assert rows[(1.5, 14.1)]["var"] == pytest.approx(0.327, abs=5e-3)
    assert rows[(1.5, 14.1)]["ec"] == pytest.approx(0.231, abs=5e-3)
    assert rows[(0.5, 30.0)]["var"] == pytest.approx(0.106, abs=5e-3)


def test_tables_refuse_cvar_above_one(capsys):
    # At the last double below 1, (2, 1)'s closed-form CVaR rounds to
    # 1.0000000000000002; the table is refused instead of printing it.
    code, out, err = run_cli(capsys, "tables", "analytic", "--alpha",
                             "0.9999999999999998", "--output-format", "json")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cvar must not exceed 1, the top of the support")


def test_tables_deterministic(capsys):
    _, first, _ = run_cli(capsys, "tables", "numeric")
    _, second, _ = run_cli(capsys, "tables", "numeric")
    assert first == second


def test_tables_csv_format(capsys):
    code, out, _ = run_cli(capsys, "tables", "analytic", "--output-format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,var,cvar,ec"
    assert len(lines) == 1 + 6


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

def test_option_surface():
    # Read from the parser, not from --help, whose layout varies across
    # Python versions.  Solver budgets are constants, not flags.
    # fit uses no confidence level, so it takes no --alpha.
    common = {"-h", "--help", "--output-format"}
    expected = {
        "measures": common | {"--alpha", "--a", "--b", "--method"},
        "fit": common | {"--method"},
        "portfolio": common | {"--alpha", "--label"},
        "tables": common | {"--alpha"},
    }
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(expected)
    for name, subparser in sub.choices.items():
        options = {s for a in subparser._actions for s in a.option_strings}
        assert options == expected[name], name


def test_cli_import_does_not_load_numpy(child_env):
    # Every CLI process pays for these at start-up: `dataclasses` alone
    # pulls in `inspect`, `ast`, `dis` and `tokenize`, and `statistics`
    # pulls in `decimal` and `fractions`.
    code = ("import sys, betakotz.cli; print(sorted({'numpy', 'dataclasses', "
            "'inspect', 'statistics'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env)
    assert done.stdout.strip() == "[]"
    # `site` may load `typing` itself; without it (-S), betakotz must not.
    code = "import sys, betakotz.cli; print('typing' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env=child_env)
    assert done.stdout.strip() == "False"


# Run in a fresh interpreter: the betakotz modules that executed, the
# package root aside.  A module bound lazily and not yet used is in
# sys.modules but is not a plain module.
_EXECUTED_LAYERS = """
import contextlib, io, sys, types
if sys.argv[1:]:
    from betakotz import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
else:
    import betakotz
print(" ".join(sorted(k[len("betakotz."):] for k, m in sys.modules.items()
                      if k.startswith("betakotz.")
                      and type(m) is types.ModuleType)))
"""


@pytest.mark.parametrize("argv, layers", [
    ((), ""),
    (("measures", "--a", "1.2", "--b", "11.4"), "cli distribution risk specfun"),
    (("tables", "analytic"), "cli distribution risk specfun"),
    (("fit", "SAMPLE"), "cli distribution estimation specfun"),
    (("portfolio", str(FIXTURE)), "cli credit distribution risk specfun"),
], ids=("import", "measures", "tables", "fit", "portfolio"))
def test_subcommand_executes_only_its_layers(child_env, beta_2_5_file, argv, layers):
    # Each process compiles only the layers its subcommand runs.
    argv = [str(beta_2_5_file) if a == "SAMPLE" else a for a in argv]
    done = subprocess.run([sys.executable, "-c", _EXECUTED_LAYERS, *argv],
                          capture_output=True, text=True, check=True, env=child_env)
    assert done.stdout.strip() == layers


def test_infeasible_moments_error_executes_only_its_layer(child_env):
    # The class is defined in `distribution`, beside the moment inversion
    # that raises it: naming it through the package root leaves
    # `estimation` unexecuted, and it is the class `estimation` imports.
    code = """
import sys, types, betakotz
error = betakotz.InfeasibleMomentsError
print(" ".join(sorted(k[len("betakotz."):] for k, m in sys.modules.items()
                      if k.startswith("betakotz.")
                      and type(m) is types.ModuleType)))
import betakotz.estimation
print(error is betakotz.estimation.InfeasibleMomentsError)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=child_env)
    assert done.stdout.splitlines() == ["distribution specfun", "True"]


def test_layers_are_reachable_as_the_tracer_reads_them(child_env):
    # What the benchmark's tracer relies on: after `import betakotz.cli`
    # every layer is in sys.modules, and vars() of it holds its public
    # functions.  A bare `import betakotz` still reaches its submodules.
    code = """
import sys
import betakotz.cli
public = {"specfun": "ln_beta", "distribution": "cdf", "risk": "report",
          "estimation": "fit_mle", "credit": "read_portfolio_csv", "cli": "main"}
for layer, name in public.items():
    module = sys.modules[f"betakotz.{layer}"]
    assert callable(vars(module)[name]), layer
    assert vars(module)[name].__module__ == module.__name__, layer
import betakotz.credit
assert betakotz.credit.read_portfolio_csv is vars(sys.modules["betakotz.credit"])["read_portfolio_csv"]
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)
    code = """
import betakotz
assert betakotz.risk.report is betakotz.report
assert betakotz.distribution.cdf is betakotz.cdf
assert betakotz.estimation.fit_mle is betakotz.fit_mle
assert betakotz.specfun.ConvergenceError is betakotz.ConvergenceError
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


# ---------------------------------------------------------------------------
# the process entry
# ---------------------------------------------------------------------------

def run_process(child_env, *argv):
    """`python -m betakotz.cli <argv>` in a fresh interpreter, as cli-mix
    runs it: (exit code, stdout, stderr)."""
    env = {k: v for k, v in child_env.items() if k != cli.ALPHA_ENV_VAR}
    done = subprocess.run([sys.executable, "-m", "betakotz.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, expected", [
    (("fit", "SAMPLE"), EXIT_OK),
    (("measures", "--a", "1", "--b", "2", "--alpha", "2"), EXIT_INPUT),
    (("portfolio", "ONE_POSITIVE_LOSS"), EXIT_NUMERIC),
], ids=("fit", "input-error", "numeric-failure"))
def test_process_gives_what_main_gives(capsys, monkeypatch, child_env, beta_2_5_file,
                                       one_positive_loss_file, argv, expected):
    files = {"SAMPLE": str(beta_2_5_file), "ONE_POSITIVE_LOSS": str(one_positive_loss_file)}
    argv = [files.get(a, a) for a in argv]
    monkeypatch.delenv(cli.ALPHA_ENV_VAR, raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and (out if code == EXIT_OK else err)
    assert run_process(child_env, *argv) == (code, out, err)


def test_main_leaves_the_collector_as_it_was(capsys):
    # Only the process entry freezes the heap: in-process callers (these
    # tests, the benchmark's tracer) keep collecting every later cycle.
    before = gc.get_freeze_count()
    assert run_cli(capsys, "measures", "--a", "1.2", "--b", "11.4")[0] == EXIT_OK
    assert run_cli(capsys, "measures", "--a", "1", "--b", "2", "--alpha", "2")[0] == EXIT_INPUT
    with pytest.raises(SystemExit):
        main(["measures"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# Run in a fresh interpreter: at exit, whether the heap is frozen and the
# tracked objects left for the interpreter's exit-time collections.
_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0, len(gc.get_objects()),
                              file=sys.stderr))
"""


def test_console_script_and_module_run_the_same_entry(child_env):
    # The console script named in pyproject.toml and `python -m
    # betakotz.cli` both run `console_main`, which freezes the heap once
    # the command returns: the exit collections then have next to nothing
    # left to scan, where an unfrozen process leaves about 12,000 objects.
    pyproject = (FIXTURE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    (entry,) = re.findall(r'^betakotz = "(.+)"$', pyproject, flags=re.MULTILINE)
    assert entry == "betakotz.cli:console_main"
    module, name = entry.split(":")
    argv = ["measures", "--a", "1.2", "--b", "11.4"]
    outputs = set()
    for run in ("import runpy\nrunpy._run_module_as_main('betakotz.cli')",  # as `-m`
                f"from {module} import {name}\nsys.exit({name}())"):  # as the script
        done = subprocess.run([sys.executable, "-c", _AT_EXIT + run, *argv],
                              capture_output=True, text=True, check=True,
                              env=child_env)
        frozen, left = done.stderr.split()
        assert frozen == "True" and int(left) < 100, run
        outputs.add(done.stdout)
    assert len(outputs) == 1
