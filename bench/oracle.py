"""Independent checks of betakotz outputs, built on scipy.

Imported only after the timed phase and after peak RSS is read, so
neither its import time nor its memory shows in the metrics.  Every
check returns a list of problems; an empty list means the output passed.

Stated accuracy:

- VaR: some number within the output's rounding has a tail-probability
  residual |P(X > x) - (1 - alpha)| of at most `residual_tol`: the 1e-12
  to which the library's own tests hold its incomplete beta, plus 4 ulp
  of the log-prefactor lnG(a+b) - lnG(a) - lnG(b) + a ln x + b ln(1-x),
  whose rounding any double-precision evaluation through it carries
  (about 1e-12 at b = 1,500, 3e-10 at b = 36,700).
- CVaR: within max(q, mean) * residual_tol / (1 - alpha) of
  mean * P_{a+1,b}(X > q) / (1 - alpha) at the oracle quantile q, which
  is how far the allowed residual can move the tail mean, plus 1e-12
  relative.
- Method of moments: within 1e-9 relative of the moment inversion of a
  two-pass mean and variance (numpy's pairwise sums).
- MLE: the per-observation score recomputed with
  `scipy.special.digamma` and pairwise log-sums is at most 1e-9.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import special

CDF_ABS_TOL = 1e-12
EPS = 2.0 ** -52
CVAR_REL_TOL = 1e-12
MOM_REL_TOL = 1e-9
MLE_SCORE_TOL = 1e-9
LOGLIK_REL_TOL = 1e-9
CURRENCY_SLACK = 0.0051   # reports round money to cents
SHAPE_REL_SLACK = 5e-9    # reports round shapes to 9 significant digits


def _close(x, y, rel, abs_tol=0.0):
    return abs(x - y) <= rel * max(abs(x), abs(y)) + abs_tol


def _beta():
    # scipy.stats takes about a second to import; fit checks never need it.
    from scipy.stats import beta
    return beta


def risk_reference(a, b, alpha):
    """(quantile, CVaR) of Beta(a, b) at level alpha, from scipy."""
    t = 1.0 - alpha
    beta = _beta()
    q = float(beta.isf(t, a, b))
    cvar = (a / (a + b)) * float(beta.sf(q, a + 1.0, b)) / t
    return q, cvar


def _shape_slack(a, b, alpha, q, c, rel):
    """Largest move of (quantile, CVaR) when a and b move by `rel`."""
    dq = dc = 0.0
    for fa, fb in ((1 + rel, 1), (1 - rel, 1), (1, 1 + rel), (1, 1 - rel)):
        q2, c2 = risk_reference(a * fa, b * fb, alpha)
        dq, dc = max(dq, abs(q2 - q)), max(dc, abs(c2 - c))
    return dq, dc


def residual_tol(a, b, x):
    """Accuracy to expect of a Beta(a, b) tail probability at x."""
    x = min(max(x, 1e-300), 1.0 - EPS)
    size = (abs(special.gammaln(a + b)) + abs(special.gammaln(a))
            + abs(special.gammaln(b)) + abs(a * math.log(x))
            + abs(b * math.log1p(-x)))
    return CDF_ABS_TOL + 4.0 * EPS * size


def check_var(x, a, b, alpha, slack=0.0):
    t = 1.0 - alpha
    slack += 8.0 * math.ulp(x)
    lo, hi = max(x - slack, 0.0), min(x + slack, 1.0)
    # P(X > .) falls as x rises: accept if t is reachable within the slack.
    beta = _beta()
    sf_lo = float(beta.sf(lo, a, b))
    sf_hi = float(beta.sf(hi, a, b))
    tol = residual_tol(a, b, x)
    if sf_hi - tol <= t <= sf_lo + tol:
        return []
    return [f"var {x!r} misses the level: P(X > var) = {sf_hi:.6e}..{sf_lo:.6e}"
            f", want {t:.6e} (a={a!r}, b={b!r})"]


def check_cvar(c, a, b, alpha, slack=0.0, reference=None):
    q, ref = reference or risk_reference(a, b, alpha)
    tol = (max(q, a / (a + b)) * residual_tol(a, b, q) / (1.0 - alpha)
           + CVAR_REL_TOL * ref + slack)
    if abs(c - ref) <= tol:
        return []
    return [f"cvar {c!r} differs from {ref!r} by {abs(c - ref):.3e} > "
            f"{tol:.3e} (a={a!r}, b={b!r}, alpha={alpha!r})"]


def check_risk(a, b, alpha, var, cvar, ec, mean, method=None, want_method=None):
    """A RiskReport's fields against scipy and its own identities."""
    problems = check_var(var, a, b, alpha) + check_cvar(cvar, a, b, alpha)
    m = a / (a + b)
    if not _close(mean, m, 4e-16):
        problems.append(f"mean {mean!r} != a/(a+b) = {m!r}")
    if not _close(ec, var - mean, 4e-16, 1e-300):
        problems.append(f"ec {ec!r} != var - mean = {var - mean!r}")
    if want_method is not None and method not in want_method:
        problems.append(f"method {method!r}, want one of {want_method}")
    return problems


def risk_method(a, b, closed_form_pairs):
    """The report provenance betakotz promises for a shape pair."""
    if (a, b) in closed_form_pairs:
        return ("both_agreeing",)
    return ("numeric",)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def moment_inversion(values):
    x = np.asarray(values, dtype=float)
    n = len(x)
    m = float(np.sum(x)) / n
    v = float(np.sum((x - m) ** 2)) / (n - 1)
    common = m * (1.0 - m) / v - 1.0
    return m * common, (1.0 - m) * common


def check_moments(values, a, b):
    ra, rb = moment_inversion(values)
    if _close(a, ra, MOM_REL_TOL) and _close(b, rb, MOM_REL_TOL):
        return []
    return [f"moment fit ({a!r}, {b!r}) != inversion ({ra!r}, {rb!r})"]


def _log_sums(values):
    x = np.asarray(values, dtype=float)
    return float(np.sum(np.log(x))), float(np.sum(np.log1p(-x)))


def check_mle(values, a, b, log_sums=None):
    n = len(values)
    slx, sl1mx = log_sums or _log_sums(values)
    psi_ab = special.digamma(a + b)
    g1 = psi_ab - special.digamma(a) + slx / n
    g2 = psi_ab - special.digamma(b) + sl1mx / n
    score = max(abs(g1), abs(g2))
    if score <= MLE_SCORE_TOL:
        return []
    return [f"MLE ({a!r}, {b!r}) has per-observation score {score:.3e}"]


def check_loglik(values, a, b, ll, log_sums=None):
    n = len(values)
    slx, sl1mx = log_sums or _log_sums(values)
    ref = (n * (special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b))
           + (a - 1.0) * slx + (b - 1.0) * sl1mx)
    if _close(ll, ref, LOGLIK_REL_TOL, 1e-9):
        return []
    return [f"log-likelihood {ll!r} != {ref!r}"]


# ---------------------------------------------------------------------------
# credit reports
# ---------------------------------------------------------------------------

def check_portfolio_json(d, month, a, b, shape_rel_slack=0.0):
    """A rendered period report against the oracles at shapes (a, b).

    `month` knows the row count, level and total exposure of the input;
    `shape_rel_slack` widens the bounds when (a, b) themselves are only
    known to the report's rounding."""
    problems = []
    total = month.total_exposure
    if d["obligor_count"] != month.rows:
        problems.append(f"obligor_count {d['obligor_count']} != {month.rows}")
    if d["alpha"] != month.alpha:
        problems.append(f"alpha {d['alpha']!r} != {month.alpha!r}")
    if d["label"] != month.label:
        problems.append(f"label {d['label']!r} != {month.label!r}")
    if abs(d["total_exposure"] - total) > CURRENCY_SLACK:
        problems.append(f"total_exposure {d['total_exposure']!r} != {total!r}")
    for key, value in (("fitted_a", a), ("fitted_b", b)):
        if not _close(d[key], value, 5e-9):
            problems.append(f"{key} {d[key]!r} is not {value!r} to 9 digits")
    q, c = risk_reference(a, b, month.alpha)
    dq = dc = 0.0
    if shape_rel_slack:
        dq, dc = _shape_slack(a, b, month.alpha, q, c, shape_rel_slack)
    slack = CURRENCY_SLACK / total
    problems += check_var(d["var"] / total, a, b, month.alpha, slack + dq)
    problems += check_cvar(d["cvar"] / total, a, b, month.alpha,
                           slack + 4e-16 + dc, (q, c))
    m = a / (a + b)
    dm = m * 2 * shape_rel_slack
    if abs(d["expected_loss"] - m * total) > CURRENCY_SLACK + (dm + 4e-16) * total:
        problems.append(f"expected_loss {d['expected_loss']!r} != {m * total!r}")
    if abs(d["ec"] - (d["var"] - d["expected_loss"])) > 2 * CURRENCY_SLACK:
        problems.append("ec != var - expected_loss")
    return problems


def check_portfolio_csv(text, d):
    """The CSV rendering carries the same values as the JSON one."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1 or set(rows[0]) != set(d):
        return [f"CSV report has fields {list(rows[0]) if rows else []}"]
    problems = []
    for key, value in rows[0].items():
        want = d[key]
        got = value if isinstance(want, str) else type(want)(value)
        if got != want:
            problems.append(f"CSV {key}={value!r}, JSON {want!r}")
    return problems


# ---------------------------------------------------------------------------
# per-workload output checks
# ---------------------------------------------------------------------------

def check_risk_op(inp, out, closed_form_pairs):
    a, b, alpha = inp
    var, cvar, ec, mean, method = out
    return check_risk(a, b, alpha, var, cvar, ec, mean, method,
                      risk_method(a, b, closed_form_pairs))


def check_portfolio_op(month, out):
    a, b, json_text, csv_text = out
    d = json.loads(json_text)
    return check_portfolio_json(d, month, a, b) + check_portfolio_csv(csv_text, d)


def check_fit_op(values, out):
    mom_a, mom_b, a, b, _iterations, _converged = out
    return check_moments(values, mom_a, mom_b) + check_mle(values, a, b)


def check_cli_output(cmd, stdout, closed_form_pairs):
    """A CLI command's JSON output; `cmd` is a workloads.CliCommand."""
    try:
        d = json.loads(stdout)
    except ValueError:
        return [f"{cmd.kind}: output is not JSON: {stdout[:80]!r}"]
    kind = cmd.kind
    if kind.startswith("measures"):
        a, b, alpha = cmd.params
        want = {
            "measures-both": risk_method(a, b, closed_form_pairs),
            "measures-numeric": ("numeric",),
            "measures-closed": ("closed_form",),
        }[kind]
        problems = check_risk(a, b, alpha, d["var"], d["cvar"], d["ec"],
                              d["mean"], d["method"], want)
        if d["alpha"] != alpha:
            problems.append(f"alpha {d['alpha']!r} != {alpha!r}")
        return problems
    if kind.startswith("fit"):
        values = cmd.data
        problems = []
        if d["n"] != len(values) or d["converged"] is not True:
            problems.append(f"fit reports n={d['n']}, converged={d['converged']}")
        sums = _log_sums(values)
        if kind == "fit-mom":
            problems += check_moments(values, d["a"], d["b"])
        else:
            problems += check_mle(values, d["a"], d["b"], log_sums=sums)
        return problems + check_loglik(values, d["a"], d["b"],
                                       d["log_likelihood"], sums)
    if kind.startswith("portfolio"):
        return check_portfolio_json(d, cmd.data, d["fitted_a"], d["fitted_b"],
                                    SHAPE_REL_SLACK)
    if kind.startswith("tables"):
        (alpha,) = cmd.params
        problems = []
        for row in d:
            a, b = row["a"], row["b"]
            problems += check_var(row["var"], a, b, alpha)
            problems += check_cvar(row["cvar"], a, b, alpha)
            if not _close(row["ec"], row["var"] - a / (a + b), 4e-16, 1e-300):
                problems.append(f"tables ec {row['ec']!r} for ({a}, {b})")
        return problems
    raise ValueError(f"unknown CLI command kind {kind!r}")


def mle_reference(values, a, b, steps=50):
    """MLE by Newton's method on the scores, from a start near the
    optimum, with scipy's digamma and trigamma."""
    n = len(values)
    slx, sl1mx = _log_sums(values)
    for _ in range(steps):
        psi_ab, tri_ab = special.digamma(a + b), special.polygamma(1, a + b)
        g1 = psi_ab - special.digamma(a) + slx / n
        g2 = psi_ab - special.digamma(b) + sl1mx / n
        h11 = tri_ab - special.polygamma(1, a)
        h22 = tri_ab - special.polygamma(1, b)
        det = h11 * h22 - tri_ab * tri_ab
        a -= (h22 * g1 - tri_ab * g2) / det
        b -= (h11 * g2 - tri_ab * g1) / det
    return float(a), float(b)


def self_test(workload, closed_form_pairs):
    """Problems with the oracle itself: it must pass a known-good answer
    and reject one moved by one part in 1e6.  Risk workloads use a report
    at (1.2, 11.4, 0.99), fit-samples a fixed Beta(2, 30) sample."""
    problems = []
    if workload == "fit-samples":
        import random
        rng = random.Random(0)
        values = [rng.betavariate(2.0, 30.0) for _ in range(500)]
        mom = moment_inversion(values)
        mle = mle_reference(values, *mom)
        for name, check, good in (("moment fit", check_moments, mom),
                                  ("MLE", check_mle, mle)):
            if check(values, *good):
                problems.append(f"oracle rejects the reference {name}")
            if not check(values, good[0] * (1.0 + 1e-6), good[1]):
                problems.append(f"oracle accepts a {name} perturbed by 1e-6")
        return problems
    q, c = risk_reference(1.2, 11.4, 0.99)
    m = 1.2 / 12.6
    good = (q, c, q - m, m, "numeric")
    inp = (1.2, 11.4, 0.99)
    if check_risk_op(inp, good, closed_form_pairs):
        problems.append("oracle rejects the scipy reference at (1.2, 11.4, 0.99)")
    for i, name in ((0, "var"), (1, "cvar")):
        bad = list(good)
        bad[i] *= 1.0 + 1e-6
        bad[2] = bad[0] - m
        if not check_risk_op(inp, tuple(bad), closed_form_pairs):
            problems.append(f"oracle accepts a {name} perturbed by 1e-6")
    return problems
