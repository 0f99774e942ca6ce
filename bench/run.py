"""betakotz benchmark: end-to-end metrics per workload, or a traced run
that gives per-layer metrics.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28

Workloads (workloads.py): risk-sweep, portfolio-month, cli-mix and
fit-samples.  BENCHMARK.json gates only portfolio-month and cli-mix,
on which no op fails today; a share of the risk-sweep and fit-samples
ops fails, and four gated workloads would leave each run too short to
be steady.
One caller drives the program in a closed loop: the next op starts
when the previous one has returned.
A run cycles through a seeded pool of inputs until `--seconds` have
passed, keeps every op's output, and after timing checks each output
against scipy oracles (oracle.py).  An op fails when it raises, exits
non-zero, or gives an output the oracle rejects.

With `--trace 0` the run reports, by name and unit:

  setup_s          fresh interpreter -> import betakotz -> one warm-up op,
                   at the reference machine speed (below); median of
                   eleven probes (input generation excluded)
  ops_per_s_ref    ops_per_s at the reference machine speed (below)
  op_p50_ms_ref    op_p50_ms at the reference machine speed
  op_p90_ms_ref    op_p90_ms at the reference machine speed
  peak_rss_mb      peak RSS of the process doing the work (this process,
                   or the largest CLI child for cli-mix), read before
                   the oracle is imported

and prints, without carrying them in the result line:

  ops_per_s        ops that passed the oracle per second of timed op time
  op_p50_ms        median latency over all attempted ops
  op_p90_ms        90th percentile latency over all attempted ops
  setup_s_raw      setup_s as measured
  machine_slowdown mean time of the calibration loop over its time at
                   the reference speed
  failed_op_ratio  failed / attempted (in the result line as `failed`
                   and `attempted`)

The speed of a shared host drifts by a fifth or more, within seconds
and over minutes, in step for all pure-Python work, so the same code
reads differently from one run to the next.  Before and after every op
and every set-up probe the run times a fixed pure-Python calibration
loop that does not touch betakotz, and the gated metrics scale each
op's or probe's time by the reference loop time over the mean of the
loop times around it: a change to betakotz moves them as it moves the
raw times, while the host's drift cancels.  The run and its CLI
children keep to one core, the one the calibration loop samples.

With `--trace 1` the run takes the pool in chunks of 16 inputs, each run
untraced and then traced, and reports per-layer metrics from the traced
ops (tracer.py),
plus `trace.overhead_pct`, the traced over the untraced time of the
same ops.  Spans go to bench/out/spans-<workload>-<seed>.csv.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`correct` is false when any output that the program returned is wrong,
and on portfolio-month and cli-mix, where no op fails today, also when
any op fails; on risk-sweep and fit-samples failed ops count in
`failed` only.  The run exits 3 without a
result if the oracle's self-test fails, and 2 if there is no betakotz
source tree next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
CALIBRATION_LOOPS = 20_000
CALIBRATION_REPEATS = 3
# The calibration loop's time at the reference speed, a round figure
# near its time on one core of a 2-core Xeon VM under CPython 3.11.
CALIBRATION_REFERENCE_S = 1.5e-3
TRACE_CHUNK = 16
CLI_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s_ref", "ops/s"),
    ("op_p50_ms_ref", "ms"),
    ("op_p90_ms_ref", "ms"),
    ("peak_rss_mb", "MB"),
]
# Printed with the end-to-end metrics but not in the result line.
RAW_TIMES = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s_raw", "s"),
    ("machine_slowdown", "1"),
]

TRACED_FUNCTIONS = [
    ("specfun", "reg_inc_beta"), ("specfun", "ln_gamma"),
    ("specfun", "digamma"), ("specfun", "trigamma"),
    ("distribution", "cdf"), ("distribution", "pdf"),
    ("risk", "report"), ("risk", "var_numeric"), ("risk", "var_closed"),
    ("risk", "cvar"),
    ("estimation", "stats_from_samples"), ("estimation", "fit_moments"),
    ("estimation", "fit_mle"), ("estimation", "log_likelihood"),
    ("credit", "read_portfolio_csv"), ("credit", "loss_rates"),
    ("credit", "period_report"), ("credit", "report_to_json"),
    ("credit", "report_to_csv"),
    ("cli", "main"),
]
# Exception types, by the layer that raised them, that these workloads
# meet today or that betakotz documents for these calls; anything else is
# summed in errors.other.
TRACED_ERRORS = [
    "risk.errors.InternalConsistencyError", "risk.errors.ValueError",
    "distribution.errors.OverflowError", "specfun.errors.ConvergenceError",
    "estimation.errors.StepFailureError",
    "estimation.errors.InfeasibleMomentsError",
]
REFUSALS = {"NotConverged": "fit_mle returned converged=False"}
PROBE_POINT = (1.2, 11.4, 0.99)
PROBE_FUNCTIONS = [("specfun", "reg_inc_beta"), ("distribution", "cdf"),
                   ("distribution", "pdf"), ("specfun", "ln_gamma")]


def per_layer_spec():
    spec = []
    for layer, name in TRACED_FUNCTIONS:
        spec += [(f"{layer}.{name}.calls_per_op", "calls/op"),
                 (f"{layer}.{name}.busy_ms_per_op", "ms/op")]
    spec += [(f"{layer}.self_ms_per_op", "ms/op") for layer in
             ("specfun", "distribution", "risk", "estimation", "credit", "cli")]
    spec += [
        ("estimation.fit_mle.iterations_per_op", "iter/op"),
        ("credit.read_portfolio_csv.rows_per_s", "rows/s"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    spec += [(name, "errors/op") for name in TRACED_ERRORS]
    spec += [("errors.other", "errors/op"),
             ("risk.runtime_warnings", "warnings/op"),
             ("warnings.other", "warnings/op")]
    spec += [(f"probe.{layer}.{name}.calls", "calls")
             for layer, name in PROBE_FUNCTIONS]
    spec += [("trace.unwrapped_calls", "calls"), ("trace.overhead_pct", "%")]
    return spec


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Record:
    __slots__ = ("index", "traced", "seconds", "output", "error")

    def __init__(self, index, traced, seconds, output, error):
        self.index = index
        self.traced = traced
        self.seconds = seconds
        self.output = output
        self.error = error   # exception type name, or None


def timed_op(call, pool, index, traced, examples, prepare):
    """Run one op; returns its Record."""
    inp = pool[index]
    arg = inp if prepare is None else prepare(inp)
    start = time.perf_counter()
    try:
        output, error = call(arg, traced), None
    except Exception as exc:  # counted per type, run goes on
        output, error = None, type(exc).__name__
        examples.setdefault(error, f"{exc}"[:160])
    return Record(index, traced, time.perf_counter() - start, output, error)


def _calibration_loop():
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def slowdown():
    """How slow the host is now: the median time of a fixed pure-Python
    loop that does not touch betakotz, over its reference time."""
    return statistics.median(_calibration_loop()
                             for _ in range(CALIBRATION_REPEATS)
                             ) / CALIBRATION_REFERENCE_S


def drive(pool, call, seconds, examples, prepare=None):
    """Cycle through `pool` with `call(argument, traced=False)` until
    `seconds` have passed; returns the records and, for each op, the
    mean of the slowdowns sampled just before and just after it.
    `prepare(input)`, if given, makes the op's argument before timing."""
    records, slowdowns = [], []
    deadline = time.perf_counter() + seconds
    before = slowdown()
    while True:
        for index in range(len(pool)):
            if records and time.perf_counter() >= deadline:
                return records, slowdowns
            records.append(timed_op(call, pool, index, False, examples,
                                    prepare))
            after = slowdown()
            slowdowns.append((before + after) / 2)
            before = after


def drive_traced(pool, call, seconds, tracer, examples, prepare=None):
    """Like drive, but runs each chunk of TRACE_CHUNK inputs untraced and
    then traced, so both modes see the same inputs."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        for start in range(0, len(pool), TRACE_CHUNK):
            for traced in (False, True):
                if traced:
                    tracer.install()
                try:
                    for index in range(start, min(start + TRACE_CHUNK,
                                                  len(pool))):
                        if len(records) > 1 and time.perf_counter() >= deadline:
                            return records
                        records.append(timed_op(call, pool, index, traced,
                                                examples, prepare))
                finally:
                    if traced:
                        tracer.uninstall()


def measure_setup(name, workdir):
    """Seconds from spawning a fresh interpreter until it has imported
    betakotz and run one warm-up op: the median as measured and the
    median at the reference speed, each probe scaled by the slowdowns
    sampled just before and just after it."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), name,
            *wl.WORKLOADS[name].probe_args(workdir)]
    times, scaled = [], []
    before = slowdown()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=wl.child_env(),
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed "
                               f"(exit {proc.returncode})")
        after = slowdown()
        scaled.append(times[-1] / ((before + after) / 2))
        before = after
    return statistics.median(times), statistics.median(scaled)


def measure_cli_floor():
    """(bare interpreter ms, `import betakotz.cli` ms), medians."""
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import betakotz.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
        interp.append(time.perf_counter() - start)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=wl.child_env(), check=True,
                              capture_output=True, text=True)
        imports.append(float(done.stdout))
    return 1e3 * statistics.median(interp), 1e3 * statistics.median(imports)


def make_call(workload, workdir, tracer, warning_log):
    """call(argument, traced) for the workload's op.  A traced run calls
    the CLI in this process, through `betakotz.cli.main`."""
    op = workload.op
    if not (workload.in_process or tracer is not None):
        return lambda cmd, traced: wl.cli_op(cmd, workdir)

    def call(inp, traced):
        if traced:
            return tracer.run_op(op, inp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return op(inp)
            finally:
                for w in caught:
                    warning_log[f"{w.category.__name__} at "
                                f"{Path(w.filename).name}:{w.lineno}"] += 1
    return call


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def check_outputs(name, pool, records, examples):
    """Apply the oracle to every returned output; marks failed records.

    Returns the number of wrong outputs.  Identical outputs for the same
    input are checked once."""
    import oracle
    problems = oracle.self_test(name, wl.CLOSED_FORM_PAIRS)
    if problems:
        sys.stderr.write("oracle self-test failed:\n  "
                         + "\n  ".join(problems) + "\n")
        raise SystemExit(3)
    pairs = set(wl.CLOSED_FORM_PAIRS)
    verdicts = {}
    wrong = 0
    for rec in records:
        if rec.error is not None:
            continue
        key = (rec.index, rec.output)
        if key not in verdicts:
            inp = pool[rec.index]
            if name == "risk-sweep":
                found = oracle.check_risk_op(inp, rec.output, pairs)
            elif name == "portfolio-month":
                found = oracle.check_portfolio_op(inp, rec.output)
            elif name == "fit-samples":
                found = (oracle.check_fit_op(inp.load_array(), rec.output)
                         if rec.output[5] else "NotConverged")
            else:
                found = _check_cli(oracle, inp, rec.output, pairs)
            verdicts[key] = found
        found = verdicts[key]
        if isinstance(found, str):  # no output to check: a refusal
            rec.error = found
            examples.setdefault(found, REFUSALS.get(found, ""))
        elif found:
            rec.error = "WrongAnswer"
            wrong += 1
            examples.setdefault("WrongAnswer", "; ".join(found)[:300])
    return wrong


def _check_cli(oracle, cmd, output, pairs):
    rc, stdout, stderr, _rss = output
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {rc}: {last[0].split(':')[0]}"
    return oracle.check_cli_output(cmd, stdout, pairs)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(records, slowdowns, setup, rss_mb):
    passed = sum(1 for r in records if r.error is None)
    latencies = [r.seconds * 1e3 for r in records]
    scaled = [ms / s for ms, s in zip(latencies, slowdowns)]
    setup_raw, setup_ref = setup
    return {
        "ops_per_s": 1e3 * passed / sum(latencies),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "setup_s_raw": setup_raw,
        "machine_slowdown": statistics.fmean(slowdowns),
        "setup_s": setup_ref,
        "ops_per_s_ref": 1e3 * passed / sum(scaled),
        "op_p50_ms_ref": percentile(scaled, 50),
        "op_p90_ms_ref": percentile(scaled, 90),
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(tracer, records, probe_counts, missed, cli_floor):
    traced_ops = max(tracer.ops, 1)
    out = {}
    for layer, name in TRACED_FUNCTIONS:
        label = f"{layer}.{name}"
        out[f"{label}.calls_per_op"] = tracer.calls[label] / traced_ops
        out[f"{label}.busy_ms_per_op"] = tracer.busy_ns[label] / 1e6 / traced_ops
    for layer in ("specfun", "distribution", "risk", "estimation", "credit",
                  "cli"):
        out[f"{layer}.self_ms_per_op"] = tracer.self_ns[layer] / 1e6 / traced_ops
    out["estimation.fit_mle.iterations_per_op"] = (
        tracer.fit_iterations / traced_ops)
    read_ns = tracer.busy_ns["credit.read_portfolio_csv"]
    out["credit.read_portfolio_csv.rows_per_s"] = (
        tracer.rows_parsed / (read_ns / 1e9) if read_ns else 0.0)
    out["cli.interpreter_ms"], out["cli.import_ms"] = cli_floor
    for name in TRACED_ERRORS:
        out[name] = tracer.errors[name] / traced_ops
    out["errors.other"] = sum(
        n for k, n in tracer.errors.items() if k not in TRACED_ERRORS
    ) / traced_ops
    out["risk.runtime_warnings"] = (
        tracer.warnings["risk.runtime_warnings"] / traced_ops)
    out["warnings.other"] = sum(
        n for k, n in tracer.warnings.items() if k != "risk.runtime_warnings"
    ) / traced_ops
    for layer, name in PROBE_FUNCTIONS:
        out[f"probe.{layer}.{name}.calls"] = probe_counts.get(
            f"{layer}.{name}", 0)
    out["trace.unwrapped_calls"] = missed
    out["trace.overhead_pct"] = overhead_pct(records)
    return out


def overhead_pct(records):
    """Traced over untraced time of the same inputs, per-input medians."""
    times = defaultdict(lambda: ([], []))
    for r in records:
        times[r.index][r.traced].append(r.seconds)
    both = [(statistics.median(u), statistics.median(t))
            for u, t in times.values() if u and t]
    if not both:
        return 0.0
    return 100.0 * (sum(t for _, t in both) / sum(u for u, _ in both) - 1.0)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "betakotz").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_metadata(name, seed, seconds, trace, pool, records):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
        "pool_size": len(pool), "ops": len(records),
        "ops_failed_by_type": dict(Counter(
            r.error for r in records if r.error is not None)),
    }


def run_workload(name, seed, seconds, trace, pool_size=None):
    """One benchmark run; prints its report and returns the result dict."""
    workload = wl.WORKLOADS[name]
    size = pool_size or workload.pool_size
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work")
    try:
        pool = workload.make_pool(seed, size, workdir)
        setup = None if trace else measure_setup(name, workdir)
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            import betakotz as bk
            a, b, alpha = PROBE_POINT
            probe_counts, missed = tracer.probe(
                lambda inp: bk.report(*inp), (bk.BetaKotzParams(a, b), alpha))
        warning_log = Counter()
        examples = {}
        call = make_call(workload, workdir, tracer, warning_log)
        try:  # warm-up, untimed
            call(pool[0] if workload.prepare is None
                 else workload.prepare(pool[0]), False)
        except Exception:
            pass
        warning_log.clear()
        if trace:
            records = drive_traced(pool, call, seconds, tracer, examples,
                                   workload.prepare)
        else:
            records, slowdowns = drive(pool, call, seconds, examples,
                                       workload.prepare)
        if workload.in_process or trace:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = max(r.output[3] for r in records if r.output)
        cli_floor = measure_cli_floor() if trace else None
        wrong = check_outputs(name, pool, records, examples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(tracer, records, probe_counts, missed,
                                    cli_floor)
        spec = per_layer_spec()
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write_spans(BENCH / "out" / f"spans-{name}-{seed}.csv")
    else:
        metrics = end_to_end_metrics(records, slowdowns, setup,
                                     rss_kib * 1024 / 1e6)
        spec = END_TO_END
    attempted = len(records)
    failed = sum(1 for r in records if r.error is not None)

    print(f"# betakotz benchmark: workload {name}, seed {seed}, "
          f"{seconds} s, trace {trace}")
    for metric, unit in spec + ([] if trace else RAW_TIMES):
        print(f"{metric:48s} {metrics[metric]:14.6g} {unit}")
    print(f"{'failed_op_ratio':48s} {failed / max(attempted, 1):14.6g} 1")
    for error, count in sorted(Counter(
            r.error for r in records if r.error is not None).items()):
        print(f"# failed {error}: {count} ({examples.get(error, '')})")
    if workload.in_process or trace:
        for where, count in sorted(warning_log.items()):
            print(f"# warning {where}: {count}")
    else:
        stderr_warnings = sum(r.output[2].count("Warning:")
                              for r in records if r.output)
        print(f"# warnings in CLI stderr: {stderr_warnings}")
    if trace:
        extra = sorted(k for k in tracer.errors if k not in TRACED_ERRORS)
        for key in extra:
            print(f"# traced {key}: {tracer.errors[key]}")
        print(f"# spans kept {len(tracer.spans)}, dropped {tracer.spans_dropped}")
    print("# meta " + json.dumps(run_metadata(name, seed, seconds, trace,
                                              pool, records)))
    return {
        "correct": wrong == 0 and (workload.fails_today or failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in spec},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints a summary table."""
    results = {}
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print("# summary")
    for name, res in results.items():
        cells = [f"{m}={v['value']:.6g} {v['unit']}"
                 for m, v in res["metrics"].items()] if not trace else []
        ratio = res["failed"] / res["attempted"]
        print(f"{name:16s} " + "  ".join(cells)
              + f"  failed_op_ratio={ratio:.4g} 1")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "betakotz" / "__init__.py").is_file():
        sys.stderr.write(f"error: no betakotz source at {SRC / 'betakotz'}; "
                         "run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    # One core for the run and the processes it starts, so that the
    # calibration loop samples the core the ops ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
