"""The measurement scripts in tools/ run and report consistent counts."""

import pathlib
import subprocess
import sys

COMPILE_COST = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compile_cost.py"


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
