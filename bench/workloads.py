"""Seeded inputs and the timed op of each benchmark workload.

Each workload turns a seed into a fixed pool of inputs.  The run cycles
through the pool, one op at a time, until its time is up, so every
version of the program sees the same inputs in the same order.

Shapes and levels come from a Halton sequence under a seeded random
shift: every prefix of the pool covers the input domain evenly, so the
mix a run measures depends little on the seed, while each seed still
draws different inputs.  Marginals follow the documented distributions
(log-uniform where stated), and no input is chosen to avoid a failure.

The ops reach betakotz only through its public API (``betakotz``,
``betakotz.credit``) or its CLI, and look every function up at call
time, so a tracer that patches module attributes sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "fixtures" / "portfolio_synthetic.csv"

_PRIMES = (2, 3, 5, 7, 11)

# The ten shape pairs with closed-form quantiles, as in the acceptance suite.
CLOSED_FORM_PAIRS = [
    (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0),
    (1.0, 2.0), (2.0, 2.0), (3.0, 2.0),
    (1.0, 3.0), (2.0, 3.0),
    (1.0, 4.0),
]
# Pairs that also have a closed-form CVaR (the `measures --method closed` rows).
CLOSED_CVAR_PAIRS = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0),
                     (1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def quasi_points(seed: int, count: int, dims: int,
                 stream: str = "") -> list[list[float]]:
    """`count` points of a randomly shifted Halton sequence in [0, 1)^dims;
    each (seed, stream) has its own shift."""
    rng = random.Random(f"shift-{stream}-{seed}")
    shift = [rng.random() for _ in range(dims)]
    return [
        [(_radical_inverse(i, b) + s) % 1.0 for b, s in zip(_PRIMES, shift)]
        for i in range(1, count + 1)
    ]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * math.log(hi / lo))


def child_env() -> dict:
    """Environment for child interpreters: betakotz from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Workload:
    pool_size: int
    # make_pool(seed, size, workdir) -> list of inputs (each carries what
    # the oracle needs to check its output).
    make_pool: Callable
    # op(argument) -> output; raises on failure.
    op: Callable
    # prepare(input) -> the op's argument, made before the op is timed.
    prepare: Callable = None
    # Arguments for setup_probe.py after the workload name.
    probe_args: Callable = field(default=lambda workdir: [])
    # False: untraced runs start one CLI process per op (cli_op).
    in_process: bool = True
    # False: no op fails on this workload today, so a run with a failed
    # op is not correct.  True: failures are counted as measured.
    fails_today: bool = False


# ---------------------------------------------------------------------------
# risk-sweep: risk.report over the documented domain
# ---------------------------------------------------------------------------

def risk_pool(seed, size, workdir):
    """(a, b) log-uniform on [0.05, 2000]^2, 1 - alpha log-uniform on
    [1e-6, 0.5]; every tenth op takes one of the closed-form pairs.

    The two kinds draw from separate sequences, so that leaving points
    out of one sequence cannot thin a region of the domain."""
    sweep = iter(quasi_points(seed, size, 3))
    closed = iter(quasi_points(seed, size // 10 + 1, 1, "closed"))
    pool = []
    for i in range(size):
        if i % 10 == 9:
            a, b = CLOSED_FORM_PAIRS[(i // 10) % len(CLOSED_FORM_PAIRS)]
            (ut,) = next(closed)
        else:
            ua, ub, ut = next(sweep)
            a, b = log_uniform(ua, 0.05, 2000.0), log_uniform(ub, 0.05, 2000.0)
        pool.append((a, b, 1.0 - log_uniform(ut, 1e-6, 0.5)))
    return pool


def risk_op(inp):
    import betakotz as bk
    a, b, alpha = inp
    r = bk.report(bk.BetaKotzParams(a, b), alpha)
    return (r.var, r.cvar, r.ec, r.mean, r.method.value)


# ---------------------------------------------------------------------------
# portfolio-month: CSV parse, period report, JSON and CSV rendering
# ---------------------------------------------------------------------------

_RATINGS = ("AA", "A", "BB", "B", "CC", "Default")
_RATING_WEIGHTS = (0.30, 0.30, 0.20, 0.10, 0.07, 0.03)
_SEGMENTS = ("Automobiles", "Other", "CreditCard", "CFCAutomobiles", "CFCOther")
_GUARANTEES = (
    "AdmissibleFinancialCollateral", "CommercialResidentialRealEstate",
    "RealEstateLeasing", "OtherLeasing", "Receivables", "OtherAdmissible",
    "NonAdmissible", "NoGuarantee",
)
_MONTH_ALPHAS = (0.99, 0.995, 0.999, 0.95)
PORTFOLIO_HEADER = ("id,rating,segment,ead,guarantee,days_past_due,"
                    "pd_override,lgd_override\n")


@dataclass(frozen=True)
class PortfolioFile:
    path: str
    label: str
    alpha: float
    rows: int
    total_exposure: float  # math.fsum of the EADs exactly as written


def write_portfolio(path, rows, rng, label, alpha) -> PortfolioFile:
    """A synthetic obligor CSV.  Days past due run from current to beyond
    every LGD tier threshold; about 4% of rows carry each override."""
    eads = []
    lines = [PORTFOLIO_HEADER]
    for r in range(rows):
        ead = round(rng.lognormvariate(10.5, 1.3), 2)
        eads.append(ead)
        days = 0 if rng.random() < 0.6 else rng.randint(1, 900)
        pd = f"{rng.uniform(0.001, 0.6):.6f}" if rng.random() < 0.04 else ""
        lgd = f"{rng.uniform(0.05, 1.0):.6f}" if rng.random() < 0.04 else ""
        rating = rng.choices(_RATINGS, _RATING_WEIGHTS)[0]
        lines.append(
            f"OBL-{r + 1:06d},{rating},{rng.choice(_SEGMENTS)},{ead:.2f},"
            f"{rng.choice(_GUARANTEES)},{days},{pd},{lgd}\n"
        )
    Path(path).write_text("".join(lines), encoding="utf-8")
    return PortfolioFile(str(path), label, alpha, rows, math.fsum(eads))


def portfolio_pool(seed, size, workdir):
    """Monthly portfolios of 1,000 to 20,000 obligors (log-uniform).

    The obligor counts are the midpoints of `size` equal strata of the
    log-uniform law, taken in bit-reversed order, so every seed gives
    the same counts and every prefix of the pool spans small and large
    months alike; the seed draws the rows and each month's alpha."""
    strata = 1 << max(size - 1, 1).bit_length()
    pool = []
    for k, (ua,) in enumerate(quasi_points(seed, size, 1)):
        un = (_radical_inverse(k, 2) * strata + 0.5) / strata
        rows = int(log_uniform(un, 1000, 20000))
        rng = random.Random(f"portfolio-{seed}-{k}")
        pool.append(write_portfolio(
            Path(workdir) / f"month-{k:03d}.csv", rows, rng, label=f"M{k + 1:03d}",
            alpha=_MONTH_ALPHAS[int(ua * len(_MONTH_ALPHAS))],
        ))
    return pool


def portfolio_op(month: PortfolioFile):
    from betakotz import credit
    obligors = credit.read_portfolio_csv(month.path)
    rep = credit.period_report(month.label, obligors, alpha=month.alpha)
    return (rep.fitted.a, rep.fitted.b,
            credit.report_to_json(rep), credit.report_to_csv(rep))


def portfolio_probe_args(workdir):
    path = Path(workdir) / "warmup-month.csv"
    if not path.exists():
        write_portfolio(path, 200, random.Random("warm-up"), "warm-up", 0.99)
    return [str(path)]


# ---------------------------------------------------------------------------
# fit-samples: sufficient statistics, method of moments, MLE
# ---------------------------------------------------------------------------

def beta_sample(rng, a, b, n):
    """n Beta(a, b) variates; a variate that rounds to 0 or 1 is drawn
    again, since the fitters take values strictly inside (0, 1)."""
    out = []
    while len(out) < n:
        x = rng.betavariate(a, b)
        if 0.0 < x < 1.0:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class SampleRef:
    """A Beta(a, b) sample of n float64 values stored in a file."""
    a: float
    b: float
    n: int
    path: str
    offset: int

    def load(self) -> list:
        values = array("d")
        with open(self.path, "rb") as handle:
            handle.seek(8 * self.offset)
            values.fromfile(handle, self.n)
        return values.tolist()

    def load_array(self):
        """The values as a numpy array, for the oracle."""
        import numpy as np
        return np.fromfile(self.path, dtype="<f8", count=self.n,
                           offset=8 * self.offset)


def fit_pool(seed, size, workdir):
    """n log-uniform on [50, 20000].  Three entries in four: (a, b)
    log-uniform on [0.5, 2000]^2; every fourth is loss-rate-like, a on
    [0.05, 1] and b on [1000, 40000], where fit_mle fails today on about
    a quarter of samples.  Upper-side shapes below 0.5 would put a share
    of the variates at exactly 1.0 in double precision.  With one
    loss-rate-like sample in four, the 90th percentile falls among
    large-n fits rather than on the edge of the slower failing ones.

    Whether fit_mle converges depends on the sample drawn, not only on
    its shapes, so the pool holds thousands of samples.  gen_samples.py
    draws them in a child process, which keeps the generator's memory
    out of this process's peak RSS."""
    generic = iter(quasi_points(seed, size, 3))
    loss_rate = iter(quasi_points(seed, size, 3, "loss-rate"))
    design = []
    for k in range(size):
        if k % 4 != 3:
            ua, ub, un = next(generic)
            a, b = log_uniform(ua, 0.5, 2000.0), log_uniform(ub, 0.5, 2000.0)
        else:
            ua, ub, un = next(loss_rate)
            a, b = log_uniform(ua, 0.05, 1.0), log_uniform(ub, 1000.0, 40000.0)
        design.append((a, b, int(log_uniform(un, 50, 20000))))
    path = Path(workdir) / "samples.f64"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gen_samples.py"))],
        input=json.dumps({"seed": seed, "design": design, "out": str(path)}),
        text=True, check=True,
    )
    pool, offset = [], 0
    for a, b, n in design:
        pool.append(SampleRef(a, b, n, str(path), offset))
        offset += n
    return pool


def fit_op(values):
    import betakotz as bk
    stats = bk.stats_from_samples(values)
    mom = bk.fit_moments(stats)
    fit = bk.fit_mle(stats)
    return (mom.a, mom.b, fit.params.a, fit.params.b, fit.iterations,
            fit.converged)


# ---------------------------------------------------------------------------
# cli-mix: one `python -m betakotz.cli` process per op
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliCommand:
    argv: tuple
    kind: str           # one of CLI_ROUND
    params: tuple = ()  # (a, b, alpha) or (alpha,) for the oracle
    data: object = None  # sample values or PortfolioFile behind the command


# One round of the CLI mix: each invocation the mix covers, once.  No
# usage data exists to weight them, so every one has an equal share.
CLI_ROUND = (
    "measures-both", "fit-mle", "portfolio-fixture", "tables-analytic",
    "measures-numeric", "portfolio-generated", "measures-closed",
    "tables-numeric", "fit-mom",
)
CLI_PORTFOLIO_ROWS = 3000


def cli_pool(seed, size, workdir):
    """`size` commands, cycling through CLI_ROUND with fresh parameters.

    `measures` shapes lie in the span of the reference tables (a on
    [0.5, 6], b on [0.6, 30]), with 1 - alpha log-uniform on [1e-3, 0.1],
    where no command fails today; risk-sweep draws from the whole
    documented domain and counts its failures.  `fit`
    reads 200 to 2,000 Beta values, `portfolio` the committed fixture or
    a generated 3,000-row CSV.  Every command asks for JSON output."""
    fixture_rows, fixture_total = _fixture_rows_and_total()
    pool = []
    for k, (ua, ub, ul, uc) in enumerate(quasi_points(seed, size, 4)):
        kind = CLI_ROUND[k % len(CLI_ROUND)]
        alpha = float(f"{1.0 - log_uniform(ul, 1e-3, 0.1):.6g}")
        al = ("--alpha", repr(alpha), "--output-format", "json")
        rng = random.Random(f"cli-{seed}-{k}")
        if kind in ("measures-both", "measures-numeric"):
            a, b = log_uniform(ua, 0.5, 6.0), log_uniform(ub, 0.6, 30.0)
            method = kind.split("-")[1]
            cmd = CliCommand(("measures", "--a", repr(a), "--b", repr(b),
                              "--method", method) + al, kind, (a, b, alpha))
        elif kind == "measures-closed":
            a, b = CLOSED_CVAR_PAIRS[int(uc * len(CLOSED_CVAR_PAIRS))]
            cmd = CliCommand(("measures", "--a", repr(a), "--b", repr(b),
                              "--method", "closed") + al, kind, (a, b, alpha))
        elif kind.startswith("fit"):
            values = beta_sample(rng, log_uniform(ua, 0.5, 5.0),
                                 log_uniform(ub, 1.0, 50.0),
                                 int(log_uniform(uc, 200, 2000)))
            path = Path(workdir) / f"sample-{k:03d}.txt"
            path.write_text("".join(f"{x!r}\n" for x in values),
                            encoding="utf-8")
            cmd = CliCommand(("fit", str(path), "--method", kind[4:],
                              "--output-format", "json"), kind, data=values)
        elif kind == "portfolio-fixture":
            month = PortfolioFile(str(FIXTURE), "portfolio", alpha,
                                  fixture_rows, fixture_total)
            cmd = CliCommand(("portfolio", str(FIXTURE)) + al, kind,
                             (alpha,), month)
        elif kind == "portfolio-generated":
            month = write_portfolio(Path(workdir) / f"portfolio-{k:03d}.csv",
                                    CLI_PORTFOLIO_ROWS, rng, f"P{k:03d}",
                                    alpha)
            cmd = CliCommand(("portfolio", month.path, "--label", month.label)
                             + al, kind, (alpha,), month)
        else:
            cmd = CliCommand(("tables", kind[7:]) + al, kind, (alpha,))
        pool.append(cmd)
    return pool


def _fixture_rows_and_total():
    import csv
    with open(FIXTURE, newline="", encoding="utf-8") as handle:
        eads = [float(row["ead"]) for row in csv.DictReader(handle)]
    return len(eads), math.fsum(eads)


def cli_op(cmd: CliCommand, workdir):
    """Run one CLI process; returns (exit code, stdout, stderr, maxrss KiB)."""
    out_path = Path(workdir) / "cli.out"
    err_path = Path(workdir) / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "betakotz.cli", *cmd.argv],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def cli_inprocess_op(cmd: CliCommand):
    """The same command through `betakotz.cli.main`, in this process."""
    import contextlib
    import io
    from betakotz import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
    return (rc, out.getvalue(), err.getvalue(), 0)


WORKLOADS = {
    "risk-sweep": Workload(1024, risk_pool, risk_op, fails_today=True),
    "portfolio-month": Workload(32, portfolio_pool, portfolio_op,
                                probe_args=portfolio_probe_args),
    "cli-mix": Workload(3 * len(CLI_ROUND), cli_pool, cli_inprocess_op,
                        in_process=False),
    "fit-samples": Workload(2048, fit_pool, fit_op, prepare=SampleRef.load,
                            fails_today=True),
}
