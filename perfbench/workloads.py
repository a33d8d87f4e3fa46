"""Seeded job lists for the perfbench workloads, and the check of every job.

A workload is an endless sequence of blocks.  Block ``b`` of seed ``n`` is
drawn from ``numpy.random.default_rng([n, b])`` and holds a fixed mix of
job kinds in a seeded order, so every whole block costs about the same and
a run that stops between blocks sees the same mix on every seed.

A job's ``run`` is the timed call into the program: ``zeno_ent.cli.main``
with ``--out`` for the scenario workloads, the public API for ``scan``.
Program functions are looked up on their module at call time, so the
traced run's wrappers see them.  ``check`` runs untimed afterwards on the
outcome (a return value or the exception raised) and uses references bound
at import, before any wrapper is installed.

Two defects of the program are kept inside the workloads and classified by
their exact symptom: every other wrong or raising job counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import zeno_ent
from zeno_ent import cli
from zeno_ent.model import (
    BellBasis,
    InitialState,
    closed_form_series,
    concurrence_closed,
    resonant_system,
    survival_amplitude,
)
from zeno_ent.scenarios import XCHECK_TOLERANCES, ScenarioConfig, run_solver_xcheck
from zeno_ent.zeno import stroboscopic_amplitudes

KNOWN_DEFECTS = {
    "D1": "zeno-compare exits 2 't must be non-negative': stroboscopic_amplitudes "
          "computes local = tau - k*interval below zero (zeno.py:139)",
    "D2": "concurrence_measured drops the sign of E(T): wrong for odd N with E(T) < 0",
}

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json"),
          encoding="utf-8") as _fh:
    GOLDENS = json.load(_fh)

XCHECK_R = (0.1, 0.5, 10.0)
XCHECK_COLUMNS = ["r1", "s", "solver_a", "solver_b", "n_shared", "max_abs_err",
                  "tolerance", "passed"]
NUMERIC = ("volterra", "ode", "bath")
# time-evolution inputs of the evolve workload (the CLI defaults, spelled out)
EVOLVE_R, EVOLVE_TAU_MAX, EVOLVE_STEPS = 0.1, 10.0, 2001
# wall seconds per block, checks included, at the parent commit on a 2-core
# x86-64 machine: a run makes int(seconds / BLOCK_SECONDS) blocks
BLOCK_SECONDS = {"xcheck": 12.0, "evolve": 3.4, "tables": 2.5, "scan": 0.05}
# criterion 7 of the acceptance suite: R = 10, C(2) for three intervals
ZENO_C7 = {"big_r": 10.0, "meas_intervals": (0.01, 0.005, 0.001), "tau_max": 2.0}


@dataclass
class Verdict:
    status: str                      # "ok", "known" (a listed defect) or "failed"
    detail: str = ""
    budget: dict | None = None       # xcheck: error budget used per solver


OK = Verdict("ok")


def failed(detail: str) -> Verdict:
    return Verdict("failed", detail)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def _raised(out) -> Verdict | None:
    if isinstance(out, BaseException):
        return failed(f"raised {type(out).__name__}: {out}")
    return None


def _init(s: float, phi: float = 0.0) -> InitialState:
    return InitialState.from_separability(s, phi)


def _pair_amplitudes(coup, init, bright):
    """Pair amplitudes from the survival factor ``bright`` of the super-radiant share."""
    basis = BellBasis.from_state(coup, init)
    b = basis.beta_plus * bright
    return coup.r2 * basis.beta_minus + coup.r1 * b, -coup.r1 * basis.beta_minus + coup.r2 * b


# ---------------------------------------------------------------- CLI jobs

def _cli_job(name: str, argv: list[str], fmt: str, path: str, check) -> Job:
    full = argv + ["--format", fmt, "--out", path]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(full)
            except SystemExit as exc:     # argparse rejects the command line
                rc = exc.code
        return rc, err.getvalue()

    def checked(out):
        try:
            return _raised(out) or check(*out)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    return Job(name, run, checked)


def _read(path: str, fmt: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if fmt == "csv":
        lines = text.splitlines()
        cols, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    else:
        payload = json.loads(text)
        cols, rows = payload["columns"], payload["rows"]
    return cols, rows, hashlib.sha256(raw).hexdigest()


def error_budget(rows, r1: float) -> dict:
    """Survival-amplitude error of each solver, in units of its tolerance.

    All three integrators keep the sub-radiant share exactly, so a row's
    amplitude error is ``max(r1, r2) |beta_plus| max_t |dE|``.  Dividing the
    worst closed-form row by the worst such factor leaves ``max_t |dE| / tol``,
    which depends on R and the solver but not on which r1 the seed drew.
    """
    r2 = math.sqrt(1.0 - r1 * r1)
    out = {}
    for solver in NUMERIC:
        mine = [row for row in rows if row[2] == "closed" and row[3] == solver]
        if not mine:
            continue
        scale = max(max(r1, r2) * abs(r1 * _init(s).c01 + r2 * _init(s).c02)
                    for _, s, *_ in mine)
        out[solver] = max(row[5] for row in mine) / (XCHECK_TOLERANCES[solver] * scale)
    return out


def _xcheck_rows(rows, r1: float):
    parsed = [(float(row[0]), float(row[1]), row[2], row[3], int(row[4]), float(row[5]),
               float(row[6]), int(row[7])) for row in rows]
    if len(parsed) != 18:
        return None, f"{len(parsed)} rows, expected 18"
    if {p[1] for p in parsed} != {-1.0, 0.0, 1.0} or any(p[0] != r1 for p in parsed):
        return None, "rows are not the requested (r1, s) cells"
    for _, _, a, b, n, err, tol, ok in parsed:
        want = XCHECK_TOLERANCES[b] + (0.0 if a == "closed" else XCHECK_TOLERANCES[a])
        if tol != want or ok != int(err <= tol) or not (err >= 0.0 and n > 1):
            return None, f"inconsistent row {a}/{b}: err {err!r} tol {tol!r} passed {ok}"
    return parsed, ""


def _xcheck_job(path: str, big_r: float, r1: float) -> Job:
    def check(rc, err):
        # exit 3 is the documented outcome of a row over its tolerance
        if rc not in (0, 3):
            return failed(f"exit {rc}: {err.strip()}")
        cols, rows, _ = _read(path, "csv")
        if cols != XCHECK_COLUMNS:
            return failed(f"columns {cols}")
        parsed, why = _xcheck_rows(rows, r1)
        if parsed is None:
            return failed(why)
        over = [p for p in parsed if not p[7]]
        if (rc == 3) != bool(over):
            return failed(f"exit {rc} disagrees with the passed column")
        # the comb's spectral floor at R = 10 is the documented reason for
        # exit 3 (criterion 8); any other row over its budget is a defect
        if [p for p in over if big_r != 10.0 or "bath" not in p[2:4]]:
            return failed(f"rows over tolerance beyond the bath rows at R = 10: {over}")
        return Verdict("ok", budget=error_budget(parsed, r1))

    argv = ["solver-xcheck", "--big-r", repr(big_r), "--r1", repr(r1)]
    return _cli_job(f"xcheck/R={big_r!r}/r1={r1:.4f}", argv, "csv", path, check)


def _evolve_job(path: str, solver: str, fmt: str, r1: float, s: float) -> Job:
    def check(rc, err):
        if rc != 0:
            return failed(f"exit {rc}: {err.strip()}")
        cols, rows, _ = _read(path, fmt)
        if cols != ["tau", f"C[r1={r1!r};s={s!r}]"]:
            return failed(f"columns {cols}")
        data = np.array(rows, dtype=float)
        tau = np.linspace(0.0, EVOLVE_TAU_MAX, EVOLVE_STEPS)
        if data.shape != (EVOLVE_STEPS, 2) or not np.array_equal(data[:, 0], tau):
            return failed("tau column is not the requested grid")
        ref = closed_form_series(*resonant_system(EVOLVE_R, r1), _init(s), tau).concurrence()
        gap = float(np.max(np.abs(data[:, 1] - ref)))
        # |dC| <= 2 sqrt(2) max|dc|: three times the amplitude budget
        if not gap <= 3.0 * XCHECK_TOLERANCES[solver]:
            return failed(f"concurrence off the closed form by {gap:.3e}")
        return OK

    argv = ["time-evolution", "--solver", solver, "--big-r", repr(EVOLVE_R),
            "--tau-max", repr(EVOLVE_TAU_MAX), "--tau-steps", str(EVOLVE_STEPS),
            "--r1", repr(r1), "--s", repr(s)]
    return _cli_job(f"evolve/{solver}/{fmt}/r1={r1!r}/s={s!r}", argv, fmt, path, check)


def _measured_concurrence(res, coup, init, interval, tau):
    """Piecewise measured concurrence, local time clamped at zero."""
    k = np.floor(tau / interval)
    local = np.maximum(tau - k * interval, 0.0)
    bright = survival_amplitude(res, coup, local) * survival_amplitude(res, coup, interval) ** k
    c1, c2 = _pair_amplitudes(coup, init, bright)
    return 2.0 * np.abs(c1 * np.conj(c2))


def _table_job(path: str, kind: str, argv: list[str], fmt: str, zeno: dict | None) -> Job:
    name = f"tables/{kind}/{fmt}"
    golden = GOLDENS.get(f"{kind}/{fmt}")

    def check(rc, err):
        if zeno is not None and rc == 2 and "t must be non-negative" in err:
            return Verdict("known", f"D1: {err.strip()}")
        if rc != 0:
            return failed(f"exit {rc}: {err.strip()}")
        cols, rows, digest = _read(path, fmt)
        if golden is not None and digest != golden:
            return failed(f"sha256 {digest} differs from the golden {golden}")
        if zeno is None:
            return OK
        cfg = ScenarioConfig(scenario="zeno-compare", **zeno)
        res, coup = resonant_system(cfg.big_r, cfg.r1_axis()[0])
        init = _init(cfg.s_axis()[0], cfg.phi)
        tau = np.linspace(0.0, cfg.tau_max, cfg.tau_steps)
        keys = {f"C[T={t!r}]": t for t in cfg.meas_intervals}
        if cols[:2] != ["tau", "C[unmeasured]"] or any(c not in keys for c in cols[2:]):
            return failed(f"columns {cols}")
        data = np.array(rows, dtype=float)
        refs = [tau, closed_form_series(res, coup, init, tau).concurrence()]
        refs += [_measured_concurrence(res, coup, init, keys[c], tau) for c in cols[2:]]
        gap = float(np.max(np.abs(data - np.column_stack(refs))))
        if not gap <= 1e-12:
            return failed(f"zeno-compare table off its reference by {gap:.3e}")
        return OK

    return _cli_job(name, argv, fmt, path, check)


TABLE_KINDS = {
    # kind: (command line, zeno-compare config the value check rebuilds, or None)
    "surface": (["stationary-surface"], None),
    "evolution-20001": (["time-evolution", "--tau-steps", "20001"], None),
    "zeno-criterion7": (["zeno-compare", "--big-r", "10", "--meas-interval",
                         "0.01,0.005,0.001", "--tau-max", "2"], ZENO_C7),
    "zeno-defaults": (["zeno-compare"], {}),
}


# ---------------------------------------------------------------- API jobs

def _log_uniform(rng, lo, hi):
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 4)


def _measured_job(rng) -> Job:
    big_r = _log_uniform(rng, 0.05, 20.0)
    r1, s = round(rng.uniform(0.0, 1.0), 4), round(rng.uniform(-1.0, 1.0), 4)
    phi = round(rng.uniform(0.0, 2.0 * math.pi), 4)
    interval, count = round(rng.uniform(0.02, 1.5), 4), int(rng.integers(1, 21))
    name = f"scan/measured/R={big_r!r}/r1={r1!r}/s={s!r}/phi={phi!r}/T={interval!r}/N={count}"

    def run():
        res, coup = zeno_ent.resonant_system(big_r, r1)
        init = zeno_ent.InitialState.from_separability(s, phi)
        sched = zeno_ent.MeasurementSchedule(interval, count)
        return (zeno_ent.zeno_rate(res, coup, interval),
                zeno_ent.concurrence_measured(res, coup, init, sched),
                zeno_ent.survival_probability_measured(res, coup, init, sched))

    def check(out):
        if (bad := _raised(out)) is not None:
            return bad
        zr, conc, prob = out
        res, coup = resonant_system(big_r, r1)
        init = _init(s, phi)
        e = survival_amplitude(res, coup, interval)
        rate = max(-2.0 * math.log(abs(e)) / interval, 0.0)
        if (abs(zr.rate - rate) > 1e-9 * max(1.0, rate) or zr.interval_survival != e
                or zr.oscillatory != (e < 0.0)):
            return failed(f"zeno_rate {zr} against rate {rate!r}, E(T) {e!r}")
        try:
            c1, c2 = stroboscopic_amplitudes(res, coup, init, interval, [count * interval])
        except ValueError as exc:
            if "t must be non-negative" in str(exc):
                return Verdict("known", f"D1 in the reference: {exc}")
            raise
        bright = abs(coup.r1 * c1[0] + coup.r2 * c2[0]) ** 2
        if abs(prob - bright) > 1e-12 + 1e-9 * bright:
            return failed(f"survival_probability_measured {prob!r}, piecewise {bright!r}")
        exact = 2.0 * abs(c1[0] * np.conj(c2[0]))
        if abs(conc - exact) > 1e-9:
            if e < 0.0 and count % 2 == 1:
                return Verdict("known", f"D2: {conc!r} against {exact!r}")
            return failed(f"concurrence_measured {conc!r} against piecewise {exact!r}")
        return OK

    return Job(name, run, check)


def _wootters_job(rng, size: int = 16) -> Job:
    pts = [(_log_uniform(rng, 0.05, 20.0), round(rng.uniform(0.0, 1.0), 4),
            round(rng.uniform(-1.0, 1.0), 4), round(rng.uniform(0.0, 2.0 * math.pi), 4),
            round(rng.uniform(0.0, 10.0), 4)) for _ in range(size)]

    def run():
        out = []
        for big_r, r1, s, phi, t in pts:
            res, coup = zeno_ent.resonant_system(big_r, r1)
            init = zeno_ent.InitialState.from_separability(s, phi)
            amps = zeno_ent.amplitudes_at(res, coup, init, t)
            out.append((amps, zeno_ent.concurrence_wootters(zeno_ent.density_matrix(amps))))
        return out

    def check(out):
        if (bad := _raised(out)) is not None:
            return bad
        for (big_r, r1, s, phi, t), (amps, conc) in zip(pts, out):
            res, coup = resonant_system(big_r, r1)
            c1, c2 = _pair_amplitudes(coup, _init(s, phi), survival_amplitude(res, coup, t))
            if abs(amps.c1 - c1) > 1e-12 or abs(amps.c2 - c2) > 1e-12:
                return failed(f"amplitudes_at off at R={big_r} r1={r1} s={s} t={t}")
            if abs(conc - concurrence_closed(amps)) > 1e-9:
                return failed(f"Wootters {conc!r} against closed {concurrence_closed(amps)!r}")
        return OK

    return Job(f"scan/wootters/{pts[0][0]!r}+{size - 1}", run, check)


def _stroboscopic_job(rng, size: int = 8) -> Job:
    pts = [(_log_uniform(rng, 0.05, 20.0), round(rng.uniform(0.0, 1.0), 4),
            round(rng.uniform(-1.0, 1.0), 4), round(rng.uniform(0.02, 0.5), 4),
            int(rng.integers(1, 41))) for _ in range(size)]
    samples = 32

    def run():
        out = []
        for big_r, r1, s, interval, count in pts:
            res, coup = zeno_ent.resonant_system(big_r, r1)
            init = zeno_ent.InitialState.from_separability(s)
            sched = zeno_ent.MeasurementSchedule(interval, count)
            out.append(zeno_ent.simulate_stroboscopic(res, coup, init, sched, samples))
        return out

    def check(out):
        if isinstance(out, ValueError) and "t must be non-negative" in str(out):
            return Verdict("known", f"D1: {out}")
        if (bad := _raised(out)) is not None:
            return bad
        for (big_r, r1, s, interval, count), series in zip(pts, out):
            res, coup = resonant_system(big_r, r1)
            e = survival_amplitude(res, coup, interval)
            c1, c2 = _pair_amplitudes(coup, _init(s), e ** count)
            if (series.tau.size != count * samples + 1 or series.tau[-1] != count * interval
                    or abs(series.c1[-1] - c1) > 1e-12 or abs(series.c2[-1] - c2) > 1e-12
                    or series.meta["oscillatory"] != (e < 0.0)):
                return failed(f"simulate_stroboscopic off at R={big_r} T={interval} N={count}")
        return OK

    return Job(f"scan/stroboscopic/{pts[0][0]!r}+{size - 1}", run, check)


def _stationary_max(s: float, r1):
    r1 = np.asarray(r1, dtype=float)
    r2 = np.sqrt(1.0 - r1 * r1)
    init = _init(s)
    return 2.0 * r1 * r2 * np.abs(r2 * init.c01 - r1 * init.c02) ** 2


def _optimum_job(rng, objective: str) -> Job:
    big_r = _log_uniform(rng, 0.05, 20.0)
    s = round(rng.uniform(-1.0, 1.0), 4)

    def run():
        cfg = zeno_ent.ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,))
        return zeno_ent.find_optimum(objective, cfg)

    def check(out):
        if (bad := _raised(out)) is not None:
            return bad
        p, value = out.params, out.value
        if not 0.0 <= p["r1"] <= 1.0:
            return failed(f"r1 {p['r1']!r} outside [0, 1]")
        grid = np.linspace(0.0, 1.0, 201)
        if objective == "stationary":
            at = float(_stationary_max(s, p["r1"]))
            coarse = float(np.max(_stationary_max(s, grid)))
            fine = float(np.max(_stationary_max(s, np.linspace(0.0, 1.0, 200001))))
            if not (abs(value - at) <= 1e-12 and coarse - 1e-12 <= value <= fine + 1e-9):
                return failed(f"stationary optimum {value!r}: grid {coarse!r}, dense {fine!r}")
            return OK
        res, coup = resonant_system(big_r, p["r1"])
        c1, c2 = _pair_amplitudes(coup, _init(s), survival_amplitude(res, coup, p["tau"]))
        at = 2.0 * abs(c1 * np.conj(c2))
        tau = np.linspace(0.0, 10.0, 2001)
        e = survival_amplitude(res, coup, tau)
        coarse = 0.0
        for r1 in grid:
            coup_r1 = resonant_system(big_r, r1)[1]
            c1, c2 = _pair_amplitudes(coup_r1, _init(s), e)
            coarse = max(coarse, float(np.max(2.0 * np.abs(c1 * np.conj(c2)))))
        if not (abs(value - at) <= 1e-12 and value >= coarse - 1e-12
                and 0.0 <= p["tau"] <= 10.0):
            return failed(f"transient optimum {value!r} at {p}: grid max {coarse!r}")
        return OK

    return Job(f"scan/optimum-{objective}/R={big_r!r}/s={s!r}", run, check)


# ---------------------------------------------------------------- blocks

def block_maker(workload: str, seed: int, tmpdir: str):
    """``make(b)`` returns block ``b`` of ``workload`` as a list of jobs."""
    path = {fmt: os.path.join(tmpdir, f"out.{fmt}") for fmt in ("csv", "json")}

    def make(b: int) -> list[Job]:
        rng = np.random.default_rng([seed, b])
        if workload == "xcheck":
            # one job per R, so every block reaches the R = 10 budget
            axis = ScenarioConfig(scenario="solver-xcheck").r1_axis()
            jobs = [_xcheck_job(path["csv"], float(big_r), float(rng.choice(axis)))
                    for big_r in XCHECK_R]
        elif workload == "evolve":
            jobs = [_evolve_job(path[fmt], solver, fmt, round(rng.uniform(0.0, 1.0), 4),
                                round(rng.uniform(-1.0, 1.0), 4))
                    for solver in NUMERIC for fmt in ("csv", "json")]
        elif workload == "tables":
            jobs = [_table_job(path[fmt], kind, argv, fmt, zeno)
                    for kind, (argv, zeno) in TABLE_KINDS.items() for fmt in ("csv", "json")]
        elif workload == "scan":
            jobs = ([_optimum_job(rng, "stationary"), _optimum_job(rng, "transient"),
                     _wootters_job(rng), _stroboscopic_job(rng)]
                    + [_measured_job(rng) for _ in range(16)])
        else:
            raise ValueError(f"unknown workload {workload!r}")
        return [jobs[i] for i in rng.permutation(len(jobs))]

    return make


def error_probe() -> dict:
    """Error budget of each solver at the R = 10 cross-check point, for the
    workloads that run no cross-check of their own (untimed)."""
    result = run_solver_xcheck(ScenarioConfig(scenario="solver-xcheck", big_r=10.0,
                                              r1=(1.0,), s=(-1.0,)))
    return error_budget(result.rows, 1.0)
