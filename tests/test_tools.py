"""The measurement scripts in tools/ run and report consistent counts."""

import pathlib
import re
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
COMPILE_COST = TOOLS / "compile_cost.py"
TIME_CREDIT = TOOLS / "time_credit.py"
RISK_SWEEP = TOOLS / "risk_sweep.py"


def test_compile_cost_reports_each_subcommand(child_env):
    done = subprocess.run([sys.executable, str(COMPILE_COST), "--repeats", "1"],
                          capture_output=True, text=True, check=True, env=child_env)
    modules, subcommands = done.stdout.split("\n\n")
    # module rows: name, lines, compile ms, bytecode B
    sizes = {line.split()[0]: int(line.split()[3].replace(",", ""))
             for line in modules.splitlines()[2:]}
    total = sizes.pop("total")
    assert set(sizes) == {"__init__", "cli", "credit", "distribution",
                          "estimation", "risk", "specfun"}
    assert total == sum(sizes.values())
    # subcommand rows: name, compile ms, bytecode B, modules executed
    executed = {}
    for line in subcommands.splitlines()[1:]:
        name, _, size, *stems = line.split()
        assert int(size.replace(",", "")) == sum(sizes[s] for s in stems), line
        executed[name] = set(stems)
    common = {"__init__", "cli", "distribution", "specfun"}
    assert executed == {
        "measures": common | {"risk"},
        "fit": common | {"estimation"},
        "portfolio": set(sizes),
        "tables": common | {"risk"},
    }


def test_time_credit_times_and_counts_each_run(child_env):
    done = subprocess.run([sys.executable, str(TIME_CREDIT), "--rows", "500",
                           "--repeats", "1"],
                          capture_output=True, text=True, check=True, env=child_env)
    lines = done.stdout.splitlines()
    assert lines[0] == "500 rows, min of 1 repeats"
    reads = ["read_portfolio_csv", "read(R-header)", "read(blank-2nd-line)"]
    runs = [*reads, "period_report", "period_report(list)", "portfolio_op"]
    # time rows: name, ms, µs/row, rows/s
    assert [line.split()[0] for line in lines[1:7]] == runs
    assert all(float(line.split()[1]) > 0.0 for line in lines[1:7])
    calls, logarithms, chunks, readers, transient, collections = {}, {}, {}, {}, {}, {}
    for line in lines[7:]:
        name, rest = line.split(": ", 1)
        if "Python-level calls per row" in rest:
            calls[name] = float(rest.split()[0])
            found = re.search(r"; (\S+) log/log1p calls per row; (\d+) chunks per read;",
                              rest)
            assert found, line
            logarithms[name], chunks[name] = float(found[1]), int(found[2])
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
    assert 1 <= chunks["read_portfolio_csv"] == chunks["portfolio_op"] < 500 // 50
    # Each spelling of the month is read as the plain one: in chunks that
    # are all split, with no logarithm, and csv.reader reads only the header.
    for name in reads:
        assert logarithms[name] == 0.0 and 1 <= chunks[name] < 500 // 50
        assert readers[name] == f"{1 / 500:.4f} csv.reader rows per row"


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
    for line in lines[1:7]:
        found = re.fullmatch(r"\S+ +([\d.]+) ms .* parent +([\d.]+) ms  ratio ([\d.]+)",
                             line)
        assert found and all(float(value) > 0.0 for value in found.groups()), line
    counts = lines[7:]
    assert len(counts) == 24
    ours, parents = counts[:12], counts[12:]
    assert parents[0::2] == ["parent " + line for line in ours[0::2]]
    for line, parent in zip(ours[1::2], parents[1::2]):
        assert parent.startswith("parent " + line.split(": ", 1)[0] + ": ")
    # csv.reader reads only the header of the generated month and of its
    # two spellings, whose chunks are all split with str.split
    for line in ours[0:6:2] + parents[0:6:2]:
        assert line.split("; ")[-1] == f"{1 / 500:.4f} csv.reader rows per row"


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
    per_month = re.fullmatch(r"portfolio_pool\(1, 32\) fitted shapes: ([\d.]+)"
                             r" _beta_contfrac evaluations per report\(\) over 32"
                             r" months", lines[-1])
    (per_op,) = filter(None, per_op)
    assert per_month, lines[-1]
    assert 1.0 < float(per_op[1]) < 50.0 and 1.0 < float(per_month[1]) < 50.0
