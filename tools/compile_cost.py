"""Compile cost of each betakotz module.

For every module of the package it prints the source lines, the time to
compile the source to bytecode (the minimum of N `compile()` runs, in
ms) and the size of the marshalled code object in bytes, which is what a
`.pyc` file holds.  The byte count depends on the Python version but not
on the machine.  A process run with `PYTHONDONTWRITEBYTECODE=1` and no
cached `.pyc` pays the compile time on every import.

    python tools/compile_cost.py [--repeats 20]

It reads the `src/` next to it, so a copy of the script in another
checkout measures that checkout.
"""

from __future__ import annotations

import argparse
import marshal
import platform
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "betakotz"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    print(f"Python {platform.python_version()}, min of {args.repeats} compile() runs")
    print(f"{'module':<14} {'lines':>6} {'compile ms':>11} {'bytecode B':>11}")
    total_lines = total_s = total_bytes = 0
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
        total_lines, total_s, total_bytes = (
            total_lines + lines, total_s + seconds, total_bytes + size)
        print(f"{path.stem:<14} {lines:>6} {seconds * 1e3:>11.2f} {size:>11,}")
    print(f"{'total':<14} {total_lines:>6} {total_s * 1e3:>11.2f} {total_bytes:>11,}")


if __name__ == "__main__":
    main()
