"""Compile cost of each betakotz module, and of each CLI subcommand.

For every module of the package it prints the source lines, the time to
compile the source to bytecode (the minimum of N `compile()` runs, in
ms) and the size of the marshalled code object in bytes, which is what a
`.pyc` file holds.  The byte count depends on the Python version but not
on the machine.  A process run with `PYTHONDONTWRITEBYTECODE=1` and no
cached `.pyc` pays the compile time on every import.

Then, for each subcommand, it runs the subcommand once in a fresh
interpreter and prints the modules that process executed, with the sum
of their compile times and of their bytecode sizes.

    python tools/compile_cost.py [--repeats 20]

It reads the `src/` next to it, so a copy of the script in another
checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import marshal
import os
import platform
import random
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "betakotz"

# Run in the child: one subcommand through cli.main, its output dropped,
# then the file stems of the betakotz modules that executed.  A module
# bound lazily and not yet used is in sys.modules, but not as a plain
# module.
CHILD = """
import contextlib, io, pathlib, sys, types
from betakotz import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
if code:
    sys.exit(f"exit {code}")
print(*sorted(pathlib.Path(m.__file__).stem for k, m in sys.modules.items()
              if k.split(".")[0] == "betakotz" and type(m) is types.ModuleType))
"""


def subcommands(workdir):
    """{subcommand: argv}, with a fit sample written into `workdir`."""
    rng = random.Random(0)
    sample = Path(workdir) / "sample.txt"
    sample.write_text("".join(f"{rng.betavariate(2.0, 30.0)!r}\n"
                              for _ in range(200)))
    return {
        "measures": ["measures", "--a", "1.2", "--b", "11.4"],
        "fit": ["fit", str(sample)],
        "portfolio": ["portfolio", str(ROOT / "fixtures" / "portfolio_synthetic.csv")],
        "tables": ["tables", "analytic"],
    }


def executed_modules(argv):
    """The file stems of the betakotz modules a fresh interpreter
    executes to run `betakotz <argv>`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"betakotz {' '.join(argv)} failed:\n{done.stderr}")
    return done.stdout.split()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    print(f"Python {platform.python_version()}, min of {args.repeats} compile() runs")
    print(f"{'module':<14} {'lines':>6} {'compile ms':>11} {'bytecode B':>11}")
    cost = {}  # module file stem -> (compile seconds, bytecode bytes)
    total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        # A relative file name keeps the marshalled size independent of
        # where the checkout lives.
        name = path.relative_to(ROOT).as_posix()
        code = compile(source, name, "exec", dont_inherit=True)
        seconds = min(timeit.repeat(
            lambda: compile(source, name, "exec", dont_inherit=True),
            number=1, repeat=args.repeats))
        lines, size = source.count("\n"), len(marshal.dumps(code))
        total_lines += lines
        cost[path.stem] = seconds, size
        print(f"{path.stem:<14} {lines:>6} {seconds * 1e3:>11.2f} {size:>11,}")
    seconds, size = map(sum, zip(*cost.values()))
    print(f"{'total':<14} {total_lines:>6} {seconds * 1e3:>11.2f} {size:>11,}")
    print()
    print(f"{'subcommand':<14} {'compile ms':>11} {'bytecode B':>11}  modules executed")
    with tempfile.TemporaryDirectory() as workdir:
        for command, command_argv in subcommands(workdir).items():
            stems = executed_modules(command_argv)
            seconds, size = map(sum, zip(*(cost[s] for s in stems)))
            print(f"{command:<14} {seconds * 1e3:>11.2f} {size:>11,}  {' '.join(stems)}")


if __name__ == "__main__":
    main()
