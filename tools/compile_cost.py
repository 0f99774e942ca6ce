"""Compile cost of each betakotz module, and time of each CLI process.

For every module of the package it prints the source lines, the time to
compile the source to bytecode (the minimum of N `compile()` runs, in
ms) and the size of the marshalled code object in bytes, which is what a
`.pyc` file holds.  The byte count depends on the Python version but not
on the machine.  A process run with `PYTHONDONTWRITEBYTECODE=1` and no
cached `.pyc` pays the compile time on every import.

Then, for each subcommand, it runs the subcommand once in a fresh
interpreter and prints the modules that process executed, with the sum
of their compile times and of their bytecode sizes.

Last, for each subcommand, it times N whole `python -m betakotz.cli`
processes, as the cli-mix benchmark runs them, and prints the minimum
and the median in ms.  Next to them it prints the machine-independent
count: the GC-tracked objects that one more such process leaves, when
its atexit handlers run, for the full collections the interpreter makes
at exit.

    python tools/compile_cost.py [--repeats 20] [--parent DIR]

It reads the `src/` next to it, so a copy of the script in another
checkout measures that checkout.  With `--parent DIR` it also prints
the modules and subcommands of the checkout DIR, each row prefixed
`parent`, and times the two trees' processes taking turns, as the
host's speed drifts too much between separate runs to compare.  It
checks that both trees give equal stdout and stderr, and prints next
to each process time the parent's, its exit-time object count, and
the median and the range of the paired ratios: this tree's time over
the parent's in each repeat, the two run back to back.  Every child
process must exit 0.
"""

from __future__ import annotations

import argparse
import marshal
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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

# Run in the child: `python -m betakotz.cli`, through the function that
# `-m` calls, with an atexit handler that writes the GC-tracked objects
# left for the exit-time collections as the last line of stderr.
EXIT_OBJECTS = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(len(gc.get_objects()), file=sys.stderr))
runpy._run_module_as_main("betakotz.cli")
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


def run_child(tree, args, argv):
    """(stdout, stderr) of a fresh interpreter run with `args` + `argv`,
    betakotz imported from `tree`/src; exits if the run fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tree) / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"betakotz {' '.join(argv)} failed in {tree}:\n{done.stderr}")
    return done.stdout, done.stderr


def executed_modules(tree, argv):
    """The file stems of the betakotz modules a fresh interpreter
    executes to run `betakotz <argv>` from `tree`."""
    return run_child(tree, ["-c", CHILD], argv)[0].split()


def exit_objects(tree, argv):
    """The GC-tracked objects that a `python -m betakotz.cli <argv>`
    process from `tree` leaves for the collections at exit."""
    return int(run_child(tree, ["-c", EXIT_OBJECTS], argv)[1].splitlines()[-1])


def print_compile_cost(tree, commands, repeats, prefix=""):
    """The module and subcommand tables of `tree`, each row after the
    header prefixed with `prefix`."""
    print(f"{prefix}{'module':<14} {'lines':>6} {'compile ms':>11} {'bytecode B':>11}")
    cost = {}  # module file stem -> (compile seconds, bytecode bytes)
    total_lines = 0
    for path in sorted((Path(tree) / "src" / "betakotz").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        # A relative file name keeps the marshalled size independent of
        # where the checkout lives.
        name = path.relative_to(tree).as_posix()
        code = compile(source, name, "exec", dont_inherit=True)
        seconds = min(timeit.repeat(
            lambda: compile(source, name, "exec", dont_inherit=True),
            number=1, repeat=repeats))
        lines, size = source.count("\n"), len(marshal.dumps(code))
        total_lines += lines
        cost[path.stem] = seconds, size
        print(f"{prefix}{path.stem:<14} {lines:>6} {seconds * 1e3:>11.2f} {size:>11,}")
    seconds, size = map(sum, zip(*cost.values()))
    print(f"{prefix}{'total':<14} {total_lines:>6} {seconds * 1e3:>11.2f} {size:>11,}")
    print()
    print(f"{prefix}{'subcommand':<14} {'compile ms':>11} {'bytecode B':>11}"
          f"  modules executed")
    for command, argv in commands.items():
        stems = executed_modules(tree, argv)
        seconds, size = map(sum, zip(*(cost[s] for s in stems)))
        print(f"{prefix}{command:<14} {seconds * 1e3:>11.2f} {size:>11,}"
              f"  {' '.join(stems)}")


def time_processes(trees, commands, repeats):
    """{tree: {subcommand: [seconds of each process]}}, the trees taking
    turns; exits if their outputs differ or a process fails."""
    times = {tree: {command: [] for command in commands} for tree in trees}
    order = list(trees)
    for _ in range(repeats):
        for command, argv in commands.items():
            outputs = set()
            for tree in order:
                start = time.perf_counter()
                outputs.add(run_child(trees[tree], ["-m", "betakotz.cli"], argv))
                times[tree][command].append(time.perf_counter() - start)
            if len(outputs) != 1:
                sys.exit(f"{command}: the outputs of this tree and the parent differ")
        order.reverse()  # each tree goes first in every other repeat
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="a checkout to measure alongside this one")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {"this": ROOT}
    if args.parent is not None:
        trees["parent"] = args.parent.resolve()
    print(f"Python {platform.python_version()}, min of {args.repeats} compile() runs")
    with tempfile.TemporaryDirectory() as workdir:
        commands = subcommands(workdir)
        for tree, root in trees.items():
            print_compile_cost(root, commands, args.repeats,
                               "parent " if tree == "parent" else "")
            print()
        times = time_processes(trees, commands, args.repeats)
        heading = (f"python -m betakotz.cli, min and median of {args.repeats}"
                   f" processes")
        if args.parent is not None:
            heading += f", alternating with the parent {args.parent} (equal outputs)"
        print(heading)
        print(f"{'subcommand':<14} {'min ms':>8} {'median ms':>10} {'exit objects':>13}")
        for command, argv in commands.items():
            ours = times["this"][command]
            line = (f"{command:<14} {min(ours) * 1e3:>8.2f}"
                    f" {statistics.median(ours) * 1e3:>10.2f}"
                    f" {exit_objects(ROOT, argv):>13,}")
            if args.parent is not None:
                parents = times["parent"][command]
                paired = [t / p for t, p in zip(ours, parents)]
                line += (f"  parent {min(parents) * 1e3:.2f}"
                         f" / {statistics.median(parents) * 1e3:.2f} ms"
                         f" {exit_objects(trees['parent'], argv):,} objects"
                         f"  paired median {statistics.median(paired):.3f}"
                         f" range {min(paired):.3f}-{max(paired):.3f}")
            print(line)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader left early (`| head`): send the rest to devnull so
        # the flush at exit cannot raise again, and exit 1 as on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
