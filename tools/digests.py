"""Print the sha256 of a fixed list of ``zeno-ent`` renders and API probes.

The renders are each scenario at its defaults in CSV and JSON,
``time-evolution`` with each numeric solver, and ``solver-xcheck`` at ``R
= 0.5`` and 10 (its default is 0.1).  The probes, the ``api/`` rows, hash
what public calls that no render reaches return (:data:`PROBES`).  Both
are made in one child process at ``OPENBLAS_NUM_THREADS=1``, since the
bath's sums are a BLAS product whose rounding may follow the thread count.
Run from anywhere as::

    python tools/digests.py [--rev REV]

With ``--rev`` a second child makes them with ``src/zeno_ent`` as it is at
the git revision ``REV``, printed beside the working tree's; it exits 1 if
any differs (a render that does not exit 0 prints as ``exit <code>``, a
probe that raises as ``raises <exception>``), and 2 for an unknown revision.
"""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SCENARIOS = {"surface": "stationary-surface", "evolution": "time-evolution",
             "zeno": "zeno-compare", "xcheck": "solver-xcheck"}
RENDERS = {
    **{f"{name}/{fmt}": [scenario, "--format", fmt]
       for name, scenario in SCENARIOS.items() for fmt in ("csv", "json")},
    **{f"evolution-{solver}/csv": ["time-evolution", "--solver", solver]
       for solver in ("volterra", "ode", "bath")},
    **{f"xcheck-r{big_r}/csv": ["solver-xcheck", "--big-r", big_r] for big_r in ("0.5", "10")},
}

TIMES = np.concatenate([[0.0, 5e-324], np.logspace(-320.0, math.log10(1.7e308), 300),
                        np.linspace(0.0, 60.0, 301)])
# 300 seeded rows of seven uniforms, which each probe maps to its ranges
DRAWS = np.random.default_rng(40).random((300, 7)).tolist()


def digest(values) -> str:
    """The sha256 of each value's bytes as a numpy array, in turn."""
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v).tobytes())
    return h.hexdigest()


def _system(z, u):
    """A draw's coupling and state: R from 1e-8 to 1e3, any r1, s and phi."""
    return (*z.resonant_system(10 ** (11 * u[0] - 8), u[1]),
            z.InitialState.from_separability(2 * u[2] - 1, 6.3 * u[3]))


def _measured(z, call):
    """``call`` where ``E(T)`` rounds above 1 and 10**16 measurements once gave
    a concurrence of 43.9, then at each draw, T from 1e-9 to 10, N to 10**16."""
    yield call(*z.resonant_system(3.4e-8, 0.3), z.InitialState.from_separability(0.3, 0.7),
               z.MeasurementSchedule(1e-3, 10**16))
    for u in DRAWS:
        yield call(*_system(z, u), z.MeasurementSchedule(10 ** (10 * u[4] - 9), int(10 ** (16 * u[5]))))


def _stroboscopic(z):
    for u in DRAWS[:200]:
        sched = z.MeasurementSchedule(0.02 + 1.48 * u[4], 1 + int(60 * u[5]))
        s = z.simulate_stroboscopic(*_system(z, u), sched, 1 + int(64 * u[6]))
        yield from (s.tau, s.c1, s.c2, s.meta["oscillatory"])


def _optimum(z, objective):
    for u in DRAWS[:12]:
        opt = z.find_optimum(objective, z.ScenarioConfig(
            scenario="time-evolution", big_r=10 ** (3.5 * u[0] - 2), s=[2 * u[2] - 1],
            phi=6.3 * u[3], tau_max=0.5 + 4.5 * u[4]))
        yield [*(opt.params[k] for k in sorted(opt.params)), opt.value]


def _rows(z, solver, big_r, dt):
    run = getattr(z, f"{solver}_propagator")(*z.resonant_system(big_r, 0.87), z.SolverConfig(dt, 2.0))
    return [run.rows(0, run.size)]


# name -> the values, made with the package z, whose digest the probe prints.
# E at lam = 4 in each regime by rabi = alpha1, as an array and point by point
PROBES = {
    "stroboscopic": _stroboscopic,
    **{f"survival-{name}": lambda z, a=a: (
        z.survival_amplitude(z.ReservoirSpec(1.0, 4.0), z.CouplingSpec(a, 0.0), t)
        for t in [TIMES, *TIMES.tolist()]) for name, a in (
        ("weak", 0.1), ("overdamped", 1.0), ("near-critical", 1.9999), ("critical", 2.0),
        ("underdamped", 10.0))},
    "zeno-rate": lambda z: _measured(z, lambda res, coup, init, sched: list(
        vars(z.zeno_rate(res, coup, sched.interval)).values())),
    "concurrence-measured": lambda z: _measured(z, z.concurrence_measured),
    "survival-measured": lambda z: _measured(z, z.survival_probability_measured),
    **{f"optimum-{o}": lambda z, o=o: _optimum(z, o) for o in ("stationary", "transient")},
    **{f"rows-{solver}-r{big_r}": lambda z, s=solver, r=big_r, dt=dt: _rows(z, s, r, dt)
       for solver, dt in (("volterra", 1e-4), ("aux_ode", 1e-3), ("bath", 1e-3))
       for big_r in (0.1, 10)},
}

CHILD = """import hashlib, json, os, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import digests, zeno_ent
from zeno_ent.cli import main
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "table")
    for argv in json.loads(sys.argv[3]):
        code = main(argv + ["--out", out])
        print(hashlib.sha256(open(out, "rb").read()).hexdigest() if code == 0 else f"exit {code}")
for probe in digests.PROBES.values():
    try:
        print(digests.digest(probe(zeno_ent)))
    except Exception as exc:
        print(f"raises {type(exc).__name__}")
"""


def render(src: Path) -> list[str]:
    """The digest of each of :data:`RENDERS`, then of each of
    :data:`PROBES`, made by :data:`CHILD` with the package in ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), str(Path(__file__).parent),
                           json.dumps([*RENDERS.values()])],
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
    names = [*RENDERS, *(f"api/{name}" for name in PROBES)]
    for name, *digests in zip(names, *sides):
        print(" ".join(f"{d:<64}" for d in digests) + f"  {name}")
    differ = [len(set(row)) > 1 for row in zip(*sides)]
    if args.rev is not None:
        print(f"{sum(differ[:len(RENDERS)])} of {len(RENDERS)} renders and "
              f"{sum(differ[len(RENDERS):])} of {len(PROBES)} probes differ")
    return int(any(differ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
