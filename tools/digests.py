"""Print the sha256 of a fixed list of ``zeno-ent`` renders.

The renders are each scenario at its defaults in CSV and JSON,
``time-evolution`` with each numeric solver, and ``solver-xcheck`` at ``R
= 0.5`` and 10 (its default is 0.1).  They are made in one child process
at ``OPENBLAS_NUM_THREADS=1``, since the bath's sums are a BLAS product
whose rounding may follow the thread count.  Run from anywhere as::

    python tools/digests.py [--rev REV]

With ``--rev`` a second child renders them with ``src/zeno_ent`` as it is
at the git revision ``REV``, and its digests print beside the working
tree's; it exits 1 if any render differs (a render that does not exit 0
prints as ``exit <code>``), and 2 for an unknown revision.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCENARIOS = {"surface": "stationary-surface", "evolution": "time-evolution",
             "zeno": "zeno-compare", "xcheck": "solver-xcheck"}
RENDERS = {
    **{f"{name}/{fmt}": [scenario, "--format", fmt]
       for name, scenario in SCENARIOS.items() for fmt in ("csv", "json")},
    **{f"evolution-{solver}/csv": ["time-evolution", "--solver", solver]
       for solver in ("volterra", "ode", "bath")},
    **{f"xcheck-r{big_r}/csv": ["solver-xcheck", "--big-r", big_r] for big_r in ("0.5", "10")},
}

CHILD = """import hashlib, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from zeno_ent.cli import main
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "table")
    for argv in json.loads(sys.argv[2]):
        code = main(argv + ["--out", out])
        print(hashlib.sha256(open(out, "rb").read()).hexdigest() if code == 0 else f"exit {code}")
"""


def render(src: Path) -> list[str]:
    """The digest of each of :data:`RENDERS`, made by :data:`CHILD` with
    the package in ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps([*RENDERS.values()])],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the sha256 of zeno-ent's renders.")
    parser.add_argument("--rev", help="also render with src/zeno_ent at this git revision")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sides = [render(root / "src")]
    if args.rev is not None:
        git = ["git", "-C", str(root)]
        if subprocess.run(git + ["rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}"],
                          capture_output=True).returncode:
            parser.error(f"unknown revision {args.rev!r}")
        archive = subprocess.run(git + ["archive", args.rev, "src/zeno_ent"], capture_output=True,
                                 check=True).stdout
        with tempfile.TemporaryDirectory() as tmp:
            tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, filter="data")
            sides.insert(0, render(Path(tmp) / "src"))
        print(f"{args.rev:<64} {'tree':<64}  render")
    for name, *digests in zip(RENDERS, *sides):
        print(" ".join(f"{d:<64}" for d in digests) + f"  {name}")
    differ = sum(len(set(row)) > 1 for row in zip(*sides))
    if args.rev is not None:
        print(f"{differ} of {len(RENDERS)} renders differ")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
