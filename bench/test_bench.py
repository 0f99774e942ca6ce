"""Smoke test of the benchmark itself, at a tiny size.

    python -m pytest bench/test_bench.py -q

It checks that every workload runs and reports exactly the metrics and
units BENCHMARK.json names, that the oracle rejects a perturbed VaR or
CVaR, that the tracer sees every call, and that the benchmark fails
without a source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result = json.loads(json.dumps(
        run.run_workload(workload, 3, 1, trace, pool_size=4)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_oracle_accepts_betakotz_and_rejects_perturbed_var_and_cvar():
    import betakotz as bk
    inp = (1.2, 11.4, 0.99)
    r = bk.report(bk.BetaKotzParams(1.2, 11.4), 0.99)
    good = (r.var, r.cvar, r.ec, r.mean, r.method.value)
    pairs = set(wl.CLOSED_FORM_PAIRS)
    assert oracle.check_risk_op(inp, good, pairs) == []
    for field in (0, 1):
        bad = list(good)
        bad[field] *= 1.0 + 1e-6
        bad[2] = bad[0] - bad[3]
        assert oracle.check_risk_op(inp, tuple(bad), pairs)
    assert oracle.self_test("risk-sweep", wl.CLOSED_FORM_PAIRS) == []
    assert oracle.self_test("fit-samples", wl.CLOSED_FORM_PAIRS) == []


def test_tracer_sees_every_call_of_report():
    import betakotz as bk
    import tracer
    counts, missed = tracer.Tracer().probe(
        lambda inp: bk.report(*inp), (bk.BetaKotzParams(1.2, 11.4), 0.99))
    assert missed == 0
    assert counts["risk.report"] == 1
    assert counts["specfun.reg_inc_beta"] >= counts["distribution.cdf"] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    done = bench("--workload", "risk-sweep", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
