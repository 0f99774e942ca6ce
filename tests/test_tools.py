"""The measurement scripts in tools/ run and report consistent counts."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
COMPILE_COST = TOOLS / "compile_cost.py"
TIME_CREDIT = TOOLS / "time_credit.py"
RISK_SWEEP = TOOLS / "risk_sweep.py"


def compile_tables(modules, subcommands, prefix=""):
    """The bytecode size of each module and the modules each subcommand
    executes, from compile_cost's two tables."""
    # module rows: name, lines, compile ms, bytecode B
    sizes = {}
    for line in modules.splitlines()[-8:]:
        assert line.startswith(prefix), line
        fields = line[len(prefix):].split()
        sizes[fields[0]] = int(fields[3].replace(",", ""))
    total = sizes.pop("total")
    assert set(sizes) == {"__init__", "cli", "credit", "distribution",
                          "estimation", "risk", "specfun"}
    assert total == sum(sizes.values())
    # subcommand rows: name, compile ms, bytecode B, modules executed
    executed = {}
    for line in subcommands.splitlines()[1:]:
        assert line.startswith(prefix), line
        name, _, size, *stems = line[len(prefix):].split()
        assert int(size.replace(",", "")) == sum(sizes[s] for s in stems), line
        executed[name] = set(stems)
    common = {"__init__", "cli", "distribution", "specfun"}
    assert executed == {
        "measures": common | {"risk"},
        "fit": common | {"estimation"},
        "portfolio": common | {"credit", "risk"},
        "tables": common | {"risk"},
    }
    return sizes


SUBCOMMANDS = ["measures", "fit", "portfolio", "tables"]


def test_compile_cost_reports_each_subcommand(child_env):
    done = subprocess.run([sys.executable, str(COMPILE_COST), "--repeats", "2"],
                          capture_output=True, text=True, check=True, env=child_env)
    modules, subcommands, processes = done.stdout.split("\n\n")
    compile_tables(modules, subcommands)
    # process rows: name, min ms, median ms, exit objects.  The process
    # entry freezes the heap, so the exit collections find next to
    # nothing to scan, where an unfrozen process leaves about 12,000.
    lines = processes.splitlines()
    assert lines[0] == "python -m betakotz.cli, min and median of 2 processes"
    assert [line.split()[0] for line in lines[2:]] == SUBCOMMANDS
    for line in lines[2:]:
        found = re.fullmatch(r"\w+ +([\d.]+) +([\d.]+) +([\d,]+)", line)
        assert found, line
        assert 0.0 < float(found[1]) <= float(found[2]), line
        assert int(found[3].replace(",", "")) < 100, line


def test_compile_cost_compares_with_a_parent_tree(child_env):
    # Its own tree as the parent: the parent's tables repeat this tree's
    # counts under the `parent` prefix, the two trees give equal outputs,
    # and each process row carries the parent's times, its exit-time
    # objects and the paired ratios.
    root = TOOLS.parent
    done = subprocess.run([sys.executable, str(COMPILE_COST), "--repeats", "2",
                           "--parent", str(root)],
                          capture_output=True, text=True, check=True, env=child_env)
    modules, subcommands, parent_modules, parent_subcommands, processes = (
        done.stdout.split("\n\n"))
    assert (compile_tables(modules, subcommands)
            == compile_tables(parent_modules, parent_subcommands, "parent "))
    lines = processes.splitlines()
    assert lines[0] == ("python -m betakotz.cli, min and median of 2 processes,"
                        f" alternating with the parent {root} (equal outputs)")
    assert [line.split()[0] for line in lines[2:]] == SUBCOMMANDS
    for line in lines[2:]:
        found = re.fullmatch(r"\w+ +[\d.]+ +[\d.]+ +([\d,]+)  parent ([\d.]+) / ([\d.]+)"
                             r" ms ([\d,]+) objects  paired median ([\d.]+)"
                             r" range ([\d.]+)-([\d.]+)", line)
        assert found, line
        ours, parents = (int(found[k].replace(",", "")) for k in (1, 4))
        assert ours == parents < 100, line
        assert 0.0 < float(found[2]) <= float(found[3]), line
        median, low, high = map(float, found.groups()[4:])
        assert 0.0 < low <= median <= high, line


def test_time_credit_times_and_counts_each_run(child_env):
    done = subprocess.run([sys.executable, str(TIME_CREDIT), "--rows", "500",
                           "--repeats", "1"],
                          capture_output=True, text=True, check=True, env=child_env)
    lines = done.stdout.splitlines()
    assert lines[0] == "500 rows, min of 1 repeats"
    reads = ["read_portfolio_csv", "read(R-header)", "read(blank-2nd-line)",
             "read(late-days)", "read(padded-ids)", "read(upper-enums)", "read(CRLF)"]
    runs = [*reads, "period_report", "period_report(list)", "portfolio_op"]
    # time rows: name, ms, µs/row, rows/s
    assert [line.split()[0] for line in lines[1:11]] == runs
    assert all(float(line.split()[1]) > 0.0 for line in lines[1:11])
    calls, logarithms, chunks, str_counts, readers = {}, {}, {}, {}, {}
    transient, collections = {}, {}
    for line in lines[11:]:
        name, rest = line.split(": ", 1)
        if "Python-level calls per row" in rest:
            calls[name] = float(rest.split()[0])
            found = re.search(r"; (\S+) log/log1p calls per row; (\d+) chunks per read;"
                              r" (\d+) str.count calls per read;", rest)
            assert found, line
            logarithms[name], chunks[name] = float(found[1]), int(found[2])
            str_counts[name] = int(found[3])
            readers[name] = rest.split("; ")[-1]
        else:
            found = re.fullmatch(r"(\S+) KB transient peak, (\d+) GC collections "
                                 r"\((\d+)/(\d+)/(\d+)\)", rest)
            assert found, line
            transient[name] = float(found[1])
            collections[name] = int(found[2])
            assert collections[name] == sum(map(int, found.groups()[2:]))
    assert list(calls) == list(transient) == runs
    # Neither report makes a Python call per obligor: on 500 rows they
    # make fewer calls than there are rows, the fit's and risk's own.
    assert calls["period_report"] * 500 < 500
    assert calls["period_report(list)"] * 500 < 500
    # the whole op reads and reports the month, and renders the report
    assert calls["portfolio_op"] > calls["read_portfolio_csv"] + calls["period_report"]
    # The report takes no logarithm per obligor, only risk's own; the read
    # takes none, in a few chunks.
    assert logarithms["read_portfolio_csv"] == 0.0
    assert 0.0 < logarithms["period_report"] * 500 < 500
    assert logarithms["portfolio_op"] == logarithms["period_report"]
    assert chunks["period_report"] == chunks["period_report(list)"] == 0
    # No run scans a block with str.count: a quote-free block without a
    # "\r" is not counted, and the splitter knows its lines from its commas.
    assert set(str_counts.values()) == {0}
    assert 1 <= chunks["read_portfolio_csv"] == chunks["portfolio_op"] < 500 // 50
    # Each spelling of the month is read in a few chunks, with no
    # logarithm.  All but the one with a blank line are split throughout,
    # as the plain one is, and csv.reader reads only the header; the blank
    # line hands the whole body to csv.reader, which yields it too.
    for name in reads:
        assert logarithms[name] == 0.0 and 1 <= chunks[name] < 500 // 50
        lines_read = 1 + 500 + 1 if name == "read(blank-2nd-line)" else 1
        assert readers[name] == f"{lines_read / 500:.4f} csv.reader rows per row"


def test_time_credit_counts_the_str_count_calls(child_env):
    # a str's count, called as a method or through str, and not bytes.count
    run = "lambda: ('a\\nb'.count('\\n'), str.count('ab', 'a'), b'ab'.count(b'a'))"
    done = subprocess.run([sys.executable, "-c",
                           f"import time_credit; print(time_credit.python_calls({run})[2])"],
                          cwd=TOOLS, capture_output=True, text=True, check=True,
                          env=child_env)
    assert done.stdout == "2\n"


def test_time_credit_compares_with_a_parent_tree(child_env):
    # Its own tree as the parent: both trees give equal outputs, each time
    # row carries the parent's time and the ratio, and the two trees make
    # the same calls.
    root = TOOLS.parent
    done = subprocess.run([sys.executable, str(TIME_CREDIT), "--rows", "500",
                           "--repeats", "2", "--parent", str(root)],
                          capture_output=True, text=True, check=True, env=child_env)
    lines = done.stdout.splitlines()
    assert lines[0] == (f"500 rows, min of 2 repeats, alternating with the parent"
                        f" {root} (equal outputs)")
    # and the median and range of the two repeats' paired ratios
    for line in lines[1:11]:
        found = re.fullmatch(r"\S+ +([\d.]+) ms .* parent +([\d.]+) ms  ratio ([\d.]+)"
                             r"  paired median ([\d.]+) range ([\d.]+)-([\d.]+)", line)
        assert found and all(float(value) > 0.0 for value in found.groups()), line
        median, low, high = map(float, found.groups()[3:])
        assert low <= median <= high, line
    counts = lines[11:]
    assert len(counts) == 40
    ours, parents = counts[:20], counts[20:]
    assert parents[0::2] == ["parent " + line for line in ours[0::2]]
    for line, parent in zip(ours[1::2], parents[1::2]):
        assert parent.startswith("parent " + line.split(": ", 1)[0] + ": ")
    # csv.reader reads only the header of the generated month and of five
    # of its six spellings, whose chunks are all split with str.split, and
    # the whole of the one with a blank second line
    for line in ours[0:14:2] + parents[0:14:2]:
        lines_read = 1 + 500 + 1 if "read(blank-2nd-line)" in line else 1
        assert line.split("; ")[-1] == f"{lines_read / 500:.4f} csv.reader rows per row"


def test_time_credit_times_a_parent_whose_outputs_differ(child_env, tmp_path):
    # A parent whose reports carry another label: each run whose outputs
    # differ prints both, every run is still timed, and the exit is 1.
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    credit = tmp_path / "src" / "betakotz" / "credit.py"
    source = credit.read_text(encoding="utf-8")
    assert source.count("label=label,") == 1
    credit.write_text(source.replace("label=label,", "label=label + '!',"),
                      encoding="utf-8")
    done = subprocess.run([sys.executable, str(TIME_CREDIT), "--rows", "500",
                           "--repeats", "1", "--parent", str(tmp_path)],
                          capture_output=True, text=True, env=child_env)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == (f"500 rows, min of 1 repeats, alternating with the parent"
                        f" {tmp_path} (outputs differ in 3 of 10 runs)")
    for k, name in enumerate(["period_report", "period_report(list)", "portfolio_op"]):
        heading, ours, parents = lines[1 + 3 * k:4 + 3 * k]
        assert heading == f"{name}: outputs differ"
        assert ours.startswith("  this   ") and "M!" not in ours
        assert parents.startswith("  parent ") and "M!" in parents
    timed = lines[10:20]
    assert [line.split()[0] for line in timed] == [
        "read_portfolio_csv", "read(R-header)", "read(blank-2nd-line)",
        "read(late-days)", "read(padded-ids)", "read(upper-enums)", "read(CRLF)",
        "period_report", "period_report(list)", "portfolio_op"]
    assert all(" parent " in line and " ratio " in line for line in timed)
    assert len(lines[20:]) == 40


def test_risk_sweep_samples_the_pool_not_the_successes(child_env):
    # The mpmath sample is every 8th triple of a 1,024-triple pool, less
    # the refused: answering or refusing any other triple leaves it as it is.
    run = ("pool = list(range(1024)); step = set(range(0, 1024, 8))\n"
           "some = [t % 3 != 0 for t in pool]\n"
           "more = [ok or t not in step for t, ok in zip(pool, some)]\n"
           "fewer = [ok and t in step for t, ok in zip(pool, some)]\n"
           "print(json.dumps([risk_sweep.mpmath_sample(pool, a)"
           " for a in (some, more, fewer)]))")
    done = subprocess.run([sys.executable, "-c", f"import json, risk_sweep\n{run}"],
                          cwd=TOOLS, capture_output=True, text=True, check=True,
                          env=child_env)
    some, more, fewer = json.loads(done.stdout)
    assert some == more == fewer == [t for t in range(0, 1024, 8) if t % 3 != 0]


def test_risk_sweep_counts_outcomes_and_kernel_work(child_env):
    done = subprocess.run([sys.executable, str(RISK_SWEEP), "--seed", "7",
                           "--size", "16"],
                          capture_output=True, text=True, check=True, env=child_env)
    lines = done.stdout.splitlines()
    assert lines[0] == "risk_pool(seed=7, size=16): report() outcomes"
    # outcome rows: an answer or an exception type, and its count
    outcomes = {}
    for line in lines[1:]:
        found = re.fullmatch(r"  (\w+) +(\d+)", line)
        if not found:
            break
        outcomes[found[1]] = int(found[2])
    assert "RiskReport" in outcomes and sum(outcomes.values()) == 16
    # the shared counter sees the kernel's work in both passes
    per_op = [re.fullmatch(r"_beta_contfrac evaluations per op: ([\d.]+)", line)
              for line in lines]
    per_month = [re.fullmatch(r"portfolio_pool\(1, 32\) fitted shapes: ([\d.]+)"
                              r" _beta_contfrac evaluations per report\(\) over 32"
                              r" months", line) for line in lines]
    (per_op,) = filter(None, per_op)
    (per_month,) = filter(None, per_month)
    assert 1.0 < float(per_op[1]) < 50.0 and 1.0 < float(per_month[1]) < 50.0
    # each month's fitted shapes against the moment fit of its exact
    # moments: 9.6e-16 at most, where Welford's recurrence gave 2.4e-14
    (fits,) = filter(None, (re.fullmatch(
        r"portfolio_pool\(1, 32\) fitted shapes: relative error vs the exact moment"
        r" fit over 32 months: p50 (\S+)  p99 (\S+)  max (\S+)", line) for line in lines))
    assert float(fits[1]) <= float(fits[2]) <= float(fits[3]) <= 2e-15
    # CVaR: the cross-check residual of every answer, within report()'s
    # gate, and the mpmath errors of both routes and of the returned value
    stats = r"p50 (\S+)  p99 (\S+)  max (\S+)"
    (residual,) = filter(None, (re.fullmatch(
        r"CVaR cross-check \|density - elementary\| over (\d+) successes: "
        + stats, line) for line in lines))
    assert int(residual[1]) == outcomes["RiskReport"]
    assert float(residual[2]) <= float(residual[3]) <= float(residual[4]) <= 1e-8
    routes = {found[1]: float(found[4]) for found in (
        re.fullmatch(r"  (density \(returned\)|elementary) +" + stats, line)
        for line in lines) if found}
    assert set(routes) == {"density (returned)", "elementary"}
    assert routes["density (returned)"] <= 2e-15 and routes["elementary"] <= 1e-8
    (months,) = filter(None, (re.fullmatch(
        r"portfolio_pool\(1, 32\) fitted shapes: returned CVaR error vs mpmath"
        r" over (\d+) of 32 months \((\d+) mpmath betainc did not converge\): "
        + stats, line) for line in lines))
    assert int(months[1]) + int(months[2]) == 32 and float(months[5]) <= 2e-15


@pytest.mark.parametrize("tool, args", [
    (COMPILE_COST, ["--repeats", "1"]),
    (TIME_CREDIT, ["--rows", "500", "--repeats", "1"]),
    (RISK_SWEEP, ["--size", "16"]),
], ids=["compile_cost", "time_credit", "risk_sweep"])
def test_tool_exits_quietly_when_its_reader_leaves(child_env, tool, args):
    # As under `| head -1`: the reader closes the pipe after the first
    # line, and the next write ends the tool with exit 1, not a traceback.
    env = {**child_env, "PYTHONUNBUFFERED": "1"}  # each line written at once
    with subprocess.Popen([sys.executable, str(tool), *args], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (1, "")


@pytest.mark.parametrize("tool, option", [
    (COMPILE_COST, "--repeats"),
    (TIME_CREDIT, "--rows"),
    (TIME_CREDIT, "--repeats"),
    (RISK_SWEEP, "--size"),
], ids=["compile_cost-repeats", "time_credit-rows", "time_credit-repeats",
        "risk_sweep-size"])
def test_tool_refuses_an_empty_run(child_env, tool, option):
    # A run of nothing is refused when the options are parsed, with
    # argparse's usage error and exit 2, not a traceback from the run.
    done = subprocess.run([sys.executable, str(tool), option, "0"],
                          capture_output=True, text=True, env=child_env)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: ")
    assert f"error: {option} must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr
