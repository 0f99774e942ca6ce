"""Golden CLI outputs: the table, CSV and rendered JSON forms, byte for byte.

Full-precision JSON of `measures` and `tables` is left out on purpose:
its last digits follow the platform's libm.  To rewrite the golden files
after a deliberate output change, run `python tests/test_cli_golden.py`
from the repository root.
"""

import contextlib
import io
import pathlib
import subprocess
import sys

import pytest

from betakotz import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PORTFOLIO = str(ROOT / "fixtures" / "portfolio_synthetic.csv")

CASES = {
    "tables_analytic": ["tables", "analytic"],
    "tables_analytic_csv": ["tables", "analytic", "--output-format", "csv"],
    "tables_numeric": ["tables", "numeric"],
    "tables_numeric_csv": ["tables", "numeric", "--output-format", "csv"],
    "measures_1.2_11.4": ["measures", "--a", "1.2", "--b", "11.4"],
    "measures_1.2_11.4_csv": ["measures", "--a", "1.2", "--b", "11.4",
                              "--output-format", "csv"],
    "measures_1_2_closed": ["measures", "--a", "1", "--b", "2",
                            "--method", "closed"],
    "measures_1_2_closed_csv": ["measures", "--a", "1", "--b", "2",
                                "--method", "closed", "--output-format", "csv"],
    "measures_1_2_numeric": ["measures", "--a", "1", "--b", "2",
                             "--method", "numeric"],
    "measures_1_2_numeric_csv": ["measures", "--a", "1", "--b", "2",
                                 "--method", "numeric", "--output-format", "csv"],
    "portfolio": ["portfolio", PORTFOLIO],
    "portfolio_csv": ["portfolio", PORTFOLIO, "--output-format", "csv"],
    "portfolio_json": ["portfolio", PORTFOLIO, "--output-format", "json"],
}


def render(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv(cli.ALPHA_ENV_VAR, raising=False)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(CASES[name]) == expected


@pytest.mark.parametrize("name", ["measures_1.2_11.4", "tables_analytic",
                                  "portfolio_json"])
def test_cli_process_output_matches_golden(name, child_env):
    # The path that users and the cli-mix benchmark take: one
    # `python -m betakotz.cli` process per command.
    env = {k: v for k, v in child_env.items() if k != cli.ALPHA_ENV_VAR}
    done = subprocess.run([sys.executable, "-m", "betakotz.cli", *CASES[name]],
                          capture_output=True, env=env)
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_OK, expected, b"")


if __name__ == "__main__":
    import os

    os.environ.pop(cli.ALPHA_ENV_VAR, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
