"""Time one command line and count its page faults, repeated in one process.

Runs ``zeno-ent`` with the given arguments once as a warm-up, then ``-n``
more times in the same process, and prints the median wall time per run
and the minor page faults per run (the total over the timed runs over
their count), as ``resource.getrusage`` reports them for this process; so
it runs on Unix only.  A run's table goes to ``os.devnull`` unless the
command names ``--out``.  Run from the root of a checkout as::

    python tools/faults.py [-n RUNS] -- solver-xcheck --big-r 10 --r1 0.87

Memory that a run takes fresh from the operating system shows as minor
faults, so a count that stays high after the warm-up is memory that the
program hands back and takes again on every run.  Set
``OPENBLAS_NUM_THREADS=1`` to keep BLAS worker threads out of the count.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zeno_ent import cli  # noqa: E402


def measure(argv: list[str], runs: int) -> tuple[float, float, int]:
    """``(median wall s, minor faults per run, exit code)`` of ``runs``
    calls of ``cli.main(argv)`` after one untimed call; a run whose exit
    code differs from the warm-up's is refused."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
        walls = []
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(runs):
            start = time.perf_counter()
            got = cli.main(list(argv))
            walls.append(time.perf_counter() - start)
            if got != code:
                raise RuntimeError(f"exit code {got} after a warm-up that gave {code}")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return statistics.median(walls), faults / runs, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="faults.py", description=__doc__.split("\n\n")[0],
        usage="%(prog)s [-n RUNS] -- ZENO_ENT_ARGS ...")
    parser.add_argument("-n", "--runs", type=int, default=20,
                        help="timed runs after the warm-up (default: 20)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the zeno-ent arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.runs < 1:
        parser.error("need at least one run and a zeno-ent command after --")
    wall, faults, code = measure(command, args.runs)
    print(f"runs {args.runs}  exit {code}  median wall {wall * 1e3:.3f} ms  "
          f"minor faults per run {faults:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
