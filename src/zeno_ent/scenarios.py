"""Scenario runners behind the ``zeno-ent`` command line.

Four scenarios cover the study: the stationary-concurrence surface over the
initial-state family, time evolution of the concurrence for selected
couplings, measured versus unmeasured dynamics for a list of measurement
intervals, and a cross-check of every integrator against the closed form.

Each runner is a pure function of a :class:`ScenarioConfig` and returns a
:class:`ScenarioResult` table; rerunning a config reproduces the output
byte for byte.  CSV cells carry 17 significant digits so that parsing an
emitted file recovers the floats exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .model import (
    BellBasis,
    CouplingSpec,
    InitialState,
    _relative_weights,
    closed_form_series,
    resonant_system,
    stationary_concurrence,
    survival_amplitude,
)
from .search import coordinate_refine_max, grid_refine_max
from .solvers import (
    SOLVER_NAMES,
    SolverConfig,
    _check_comb,
    aux_ode_propagator,
    bath_propagator,
    step_limit,
    volterra_propagator,
)
from .zeno import stroboscopic_amplitudes, zeno_rate

__all__ = [
    "SCENARIOS",
    "SOLVERS",
    "XCHECK_TOLERANCES",
    "OptimumResult",
    "ScenarioConfig",
    "ScenarioResult",
    "find_optimum",
    "load_config_file",
    "run_scenario",
    "run_solver_xcheck",
    "run_stationary_surface",
    "run_time_evolution",
    "run_zeno_compare",
    "write_result",
]

SCENARIOS = ("stationary-surface", "time-evolution", "zeno-compare", "solver-xcheck")
SOLVERS = ("closed",) + SOLVER_NAMES

# max |amplitude| deviation from the closed form at the reference steps below
XCHECK_TOLERANCES = {"volterra": 1e-5, "ode": 1e-6, "bath": 1e-3}

# most steps one numeric solver run may take: a million steps keep a
# solver-xcheck run's arrays near 40 MB and the run within seconds; a
# time-evolution run holds only its tau_steps output points, whatever its
# step count
MAX_SOLVER_STEPS = 1_000_000

_SQRT_HALF = math.sqrt(0.5)

# tau points per block of the transient coarse-grid product
_TAU_BLOCK = 4096

_REAL_KEYS = ("big_r", "phi", "tau_max", "dt_volterra", "dt_ode", "dt_bath", "freq_window")
_INT_KEYS = ("tau_steps", "n_modes")


def _is_real(v) -> bool:
    """A real number, and not a ``bool``: a JSON ``true`` is no number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat bag of knobs shared by all scenarios.

    ``r1`` and ``s`` are grids (axes for the surface, curve selectors
    elsewhere); empty tuples pick per-scenario defaults.  Times are in
    units of the reservoir memory time (the linewidth is fixed at 1, so
    ``big_r`` is the vacuum Rabi frequency over the linewidth).

    ``n_modes`` and ``freq_window`` set the bath comb: ``n_modes`` modes
    over ``+-freq_window * max(1, big_r)`` linewidths around resonance, so
    the comb widens with the coupling and always covers the vacuum-Rabi
    splitting.  The band edge limits the step: ``time-evolution`` refines
    each solver's step until it passes that solver's resolution check,
    while ``solver-xcheck`` keeps ``dt_bath`` as given, so there a bath run
    at ``big_r >= 25`` is rejected as under-resolved.  A bath run whose
    ``tau_max`` passes the comb's recurrence time
    ``2*pi/dω = pi * n_modes / (freq_window * max(1, big_r))`` is refused
    before it starts, e.g. ``big_r = 40`` at ``tau_max = 10``.  A numeric
    solver run of more than :data:`MAX_SOLVER_STEPS` steps is refused too,
    in either scenario: e.g. the ``ode`` solver of ``time-evolution`` at
    ``big_r = 1e12``, whose step is refined to the coupling, or
    ``solver-xcheck`` at ``tau_max = 2000``, where Volterra's ``dt = 1e-4``
    would take 2e7 steps.  So is a ``tau_steps`` above
    ``MAX_SOLVER_STEPS + 1``, which no numeric curve could reach, and a
    comb of more than :data:`~zeno_ent.solvers.MAX_MODES` modes.  Only
    ``time-evolution`` reads ``solver``: ``solver-xcheck`` runs every
    solver, and ``stationary-surface`` and ``zeno-compare`` are closed
    form, so they refuse any other than ``"closed"``.  Refusals exit 2 on
    the command line.
    """

    scenario: str
    big_r: float = 0.1
    r1: tuple[float, ...] = ()
    s: tuple[float, ...] = ()
    phi: float = 0.0
    tau_max: float = 10.0
    tau_steps: int = 2001
    meas_intervals: tuple[float, ...] = (0.1, 1.0, 5.0)
    solver: str = "closed"
    dt_volterra: float = 1e-4
    dt_ode: float = 1e-3
    dt_bath: float = 1e-3
    n_modes: int = SolverConfig.n_modes
    freq_window: float = SolverConfig.freq_window
    include_bath: bool = True

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; pick one of {SOLVERS}")
        if self.solver != "closed" and self.scenario != "time-evolution":
            raise ValueError(f"{self.scenario} does not take a solver, got solver "
                             f"{self.solver!r}; only time-evolution runs the one it is given")
        for name in _REAL_KEYS:
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in _INT_KEYS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not isinstance(self.include_bath, (bool, np.bool_)):
            raise ValueError(f"include_bath must be true or false, got {self.include_bath!r}")
        for name in ("r1", "s", "meas_intervals"):
            try:
                values = tuple(getattr(self, name))
            except TypeError:
                values = None
            if values is None or not all(map(_is_real, values)):
                raise ValueError(f"{name} must be a list of numbers, "
                                 f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(map(float, values)))
        if not (math.isfinite(self.big_r) and self.big_r > 0.0):
            raise ValueError(f"big_r must be positive, got {self.big_r!r}")
        for v in self.r1:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"r1 values must lie in [0, 1], got {v!r}")
        for v in self.s:
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"s values must lie in [-1, 1], got {v!r}")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0.0):
            raise ValueError(f"tau_max must be positive, got {self.tau_max!r}")
        if not 2 <= self.tau_steps <= MAX_SOLVER_STEPS + 1:
            raise ValueError(f"tau_steps must be between 2 and {MAX_SOLVER_STEPS + 1}, "
                             f"got {self.tau_steps!r}")
        for v in self.meas_intervals:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"measurement intervals must be positive, got {v!r}")
        for name in ("dt_volterra", "dt_ode", "dt_bath"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")
        _check_comb(self.n_modes, self.freq_window)

    def r1_axis(self) -> tuple[float, ...]:
        if self.r1:
            return self.r1
        if self.scenario == "stationary-surface":
            return tuple(np.linspace(0.0, 1.0, 201))
        if self.scenario == "time-evolution":
            return (0.87, _SQRT_HALF, 0.0, 1.0)
        if self.scenario == "zeno-compare":
            return (_SQRT_HALF,)
        return (0.0, 0.5, _SQRT_HALF, 0.87, 1.0)

    def s_axis(self) -> tuple[float, ...]:
        if self.s:
            return self.s
        if self.scenario == "stationary-surface":
            return tuple(np.linspace(-1.0, 1.0, 201))
        if self.scenario == "time-evolution":
            return (1.0, 0.0)
        if self.scenario == "zeno-compare":
            return (0.0,)
        return (-1.0, 0.0, 1.0)


@dataclass(eq=False)
class ScenarioResult:
    """Column-labelled table plus metadata: ``data`` holds one 1-d column per
    header (an array, or a list of ``str``) and ``rows`` is its row-wise view."""

    columns: list[str]
    data: list
    meta: dict = field(default_factory=dict)
    config: ScenarioConfig | None = None

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*(np.asarray(c).tolist() for c in self.data))]


@dataclass(frozen=True)
class OptimumResult:
    params: dict
    value: float


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
_LIST_KEYS = ("r1", "s", "meas_intervals")


def load_config_file(path: str) -> dict:
    """Read a flat JSON object whose keys mirror ScenarioConfig fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path}: expected a flat JSON object")
    out = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"config file {path}: unknown key {key!r}; allowed keys: "
                + ", ".join(CONFIG_KEYS))
        if key in _LIST_KEYS and not isinstance(value, (list, tuple)):
            value = [value]
        out[key] = value
    return out


def _grid_tau(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.tau_max, cfg.tau_steps)


def _init_state(cfg: ScenarioConfig, s: float) -> InitialState:
    return InitialState.from_separability(s, cfg.phi)


def _propagator(cfg: ScenarioConfig, solver: str, res, coup, dt: float, stride: int = 1):
    """The :class:`~zeno_ent.solvers.PairMap` of a numeric solver at one
    coupling, to ``tau_max``, on every ``stride``-th step.

    Each solver does its work here, once, and serves every initial state
    from it.  A run of more than :data:`MAX_SOLVER_STEPS` steps is refused
    before any grid or map is built, whatever the stride.
    """
    # a step of zero comes from a step count that overflows a double
    steps = cfg.tau_max / dt if dt > 0.0 else math.inf
    # the grid rounds the step count to the nearest integer
    if not steps < MAX_SOLVER_STEPS + 0.5:
        # time-evolution refines the step to the coupling; xcheck takes it as given
        hint = "lower big_r" if cfg.scenario == "time-evolution" else f"raise dt_{solver}"
        raise ValueError(
            f"the {solver} solver needs {steps:.6g} steps at big_r = {cfg.big_r!r} "
            f"over tau_max = {cfg.tau_max!r}, more than the {MAX_SOLVER_STEPS} a "
            f"solver run may take; {hint} or shorten tau_max")
    scfg = SolverConfig(dt=dt, t_max=cfg.tau_max, n_modes=cfg.n_modes,
                        freq_window=cfg.freq_window, stride=stride)
    # propagators are read from the module globals per call, so one patched
    # in for a count or a trace is the one that runs
    propagate = {"volterra": volterra_propagator, "ode": aux_ode_propagator,
                 "bath": bath_propagator}[solver]
    return propagate(res, coup, scfg)


def _stationary_grid(r1_axis, inits) -> np.ndarray:
    """:func:`stationary_concurrence` at every (r1, init) pair, shape
    ``(len(r1_axis), len(inits))``, bit for bit.

    One broadcast that rounds as the scalar call does: the weights of the
    unit coupling ``(r1, sqrt(1 - r1**2))`` through the arithmetic that
    :attr:`CouplingSpec.r1` and ``r2`` use, ``np.hypot`` of the parts of
    ``beta_minus``, Python's ``** 2``.
    """
    weights = [_relative_weights(r1, math.sqrt(1.0 - r1 * r1)) for r1 in r1_axis]
    r1, r2 = np.array(weights).T[:, :, None]
    c01, c02 = (np.array([getattr(i, name) for i in inits]) for name in ("c01", "c02"))
    bm = np.hypot(r2 * c01.real - r1 * c02.real, r2 * c01.imag - r1 * c02.imag)
    return np.reshape([b ** 2 for b in bm.ravel().tolist()], bm.shape) * (2.0 * r1 * r2)


def run_stationary_surface(cfg: ScenarioConfig) -> ScenarioResult:
    """Long-time concurrence over the (r1, s) grid at fixed phi.

    The last row repeats the grid argmax with the ``is_argmax`` flag set.
    The grid is one broadcast (:func:`_stationary_grid`).
    """
    r1_axis = cfg.r1_axis()
    s_axis = cfg.s_axis()
    c_s = _stationary_grid(r1_axis, [_init_state(cfg, s) for s in s_axis])
    grid = [np.repeat(r1_axis, len(s_axis)), np.tile(s_axis, len(r1_axis)), c_s.ravel()]
    j = int(np.argmax(grid[2]))     # the first maximum, as a strict ">" scan keeps
    data = [np.append(col, col[j]) for col in grid] + [np.append(np.zeros(c_s.size, int), 1)]
    meta = {"argmax": {k: float(col[j]) for k, col in zip(("r1", "s", "c_s"), grid)},
            "phi": cfg.phi}
    return ScenarioResult(columns=["r1", "s", "c_s", "is_argmax"], data=data,
                          meta=meta, config=cfg)


def _substeps(dtau: float, base: float, limit: float) -> int | float:
    """Solver steps per output interval ``dtau``: the fewest ``k`` whose step
    ``dtau / k`` is no longer than ``base`` and passes the resolution check
    ``dtau / k < limit``.

    ``floor(dtau / limit) + 1`` is that count up to the rounding of the two
    quotients, which moves it by at most one either way.  A count above
    :data:`MAX_SOLVER_STEPS` is refused, so it is not refined: it is the
    larger quotient, a float that may be ``inf``, for the refusal to print.
    """
    cap = MAX_SOLVER_STEPS + 1
    least = max(1, math.ceil(min(dtau / base - 1e-9, cap)))
    k = max(least, math.floor(min(dtau / limit, cap)) + 1 if limit > 0.0 else cap)
    if k >= cap:
        return max(k, dtau / base, dtau / limit if limit > 0.0 else math.inf)
    if dtau / k >= limit:
        return k + 1
    if k > least and dtau / (k - 1) < limit:
        return k - 1
    return k


def _aligned_series(cfg: ScenarioConfig, solver: str, r1: float, tau: np.ndarray):
    """``init ->`` concurrence of the selected solver at one coupling,
    sampled exactly on ``tau``: a numeric solver steps ``k`` times per
    output interval and is evaluated only on every ``k``-th step."""
    res, coup = resonant_system(cfg.big_r, r1)
    if solver == "closed":
        return lambda init: closed_form_series(res, coup, init, tau).concurrence()
    # a step that divides the output spacing, so no interpolation is needed
    dtau = tau[1] - tau[0]
    limit = step_limit(res, coup, solver, cfg.freq_window)
    k = _substeps(float(dtau), getattr(cfg, f"dt_{solver}"), limit)
    run = _propagator(cfg, solver, res, coup, dtau / k, stride=k)
    return lambda init: run(init).concurrence()


def run_time_evolution(cfg: ScenarioConfig) -> ScenarioResult:
    """Concurrence against time, one column per requested (r1, s) pair."""
    tau = _grid_tau(cfg)
    columns = ["tau"]
    data = [tau]
    for r1 in cfg.r1_axis():
        series = _aligned_series(cfg, cfg.solver, r1, tau)
        for s in cfg.s_axis():
            columns.append(f"C[r1={r1!r};s={s!r}]")
            data.append(series(_init_state(cfg, s)))
    return ScenarioResult(columns=columns, data=data,
                          meta={"solver": cfg.solver, "phi": cfg.phi}, config=cfg)


def run_zeno_compare(cfg: ScenarioConfig) -> ScenarioResult:
    """Unmeasured vs measured concurrence for each measurement interval.

    Uses the first entry of the r1 and s grids as the initial condition.
    Measured columns hold the exact piecewise dynamics; at the measurement
    times they coincide with the closed-form measured concurrence.  Intervals
    landing on a zero of the survival amplitude are reported in the metadata
    and skipped.
    """
    r1 = cfg.r1_axis()[0]
    s = cfg.s_axis()[0]
    res, coup = resonant_system(cfg.big_r, r1)
    init = _init_state(cfg, s)
    tau = _grid_tau(cfg)
    columns = ["tau", "C[unmeasured]"]
    data = [tau, closed_form_series(res, coup, init, tau).concurrence()]
    schedules = {}
    errors = {}
    for t_int in cfg.meas_intervals:
        key = repr(t_int)
        try:
            zr = zeno_rate(res, coup, t_int)
        except ValueError as exc:
            errors[key] = str(exc)
            continue
        c1, c2 = stroboscopic_amplitudes(res, coup, init, t_int, tau)
        columns.append(f"C[T={key}]")
        data.append(2.0 * np.abs(c1 * np.conj(c2)))
        schedules[key] = {
            "zeno_rate": zr.rate,
            "interval_survival": zr.interval_survival,
            "oscillatory": zr.oscillatory,
        }
    meta = {"r1": r1, "s": s, "phi": cfg.phi, "schedules": schedules,
            "schedule_errors": errors}
    return ScenarioResult(columns=columns, data=data, meta=meta, config=cfg)


def run_solver_xcheck(cfg: ScenarioConfig) -> ScenarioResult:
    """Drive every integrator against the closed form on a config grid.

    Emits one row per (r1, s, solver pair) with the max absolute amplitude
    deviation and its budget.  Numeric-vs-numeric pairs are compared on
    shared grid points and budgeted with the sum of the members' closed-form
    tolerances.  ``meta['passed']`` reflects the whole table.

    Each solver runs once per r1 and returns its real pair map ``P``
    (:class:`~zeno_ent.solvers.PairMap`).  The closed form's map is ``(E -
    1) r r^T`` with ``r = (r1, r2)``, and ``E(t)`` is evaluated once per r1
    on each solver's grid.  A pair of solvers is one difference map ``D =
    P_a - P_b`` on the points both hold, and the row of each s is ``max |D
    x|`` over those points and both amplitudes, where ``x`` is that
    state's pair at ``t = 0``: every s is read off the maps, with no
    per-state series.
    """
    solvers = ["volterra", "ode"] + (["bath"] if cfg.include_bath else [])
    columns = ["r1", "s", "solver_a", "solver_b", "n_shared", "max_abs_err",
               "tolerance", "passed"]
    pairs = [("closed", name) for name in solvers]
    pairs += [(a, b) for i, a in enumerate(solvers) for b in solvers[i + 1:]]
    s_axis = cfg.s_axis()
    states = [_init_state(cfg, s) for s in s_axis]
    rows = []
    all_ok = True
    for r1 in cfg.r1_axis():
        res, coup = resonant_system(cfg.big_r, r1)
        maps = {name: _propagator(cfg, name, res, coup, getattr(cfg, f"dt_{name}"))
                for name in solvers}
        rr = np.outer([coup.r1, coup.r2], [coup.r1, coup.r2])
        cells = []
        for a, b in pairs:
            mb = maps[b]
            if a == "closed":
                e = survival_amplitude(res, coup, mb.tau)
                e -= 1.0
                gap = np.multiply.outer(-rr, e)
                gap += mb.p
                npts = mb.tau.size
                tol = XCHECK_TOLERANCES[b]
            else:
                ma = maps[a]
                ia, ib = _shared_points(ma, mb)
                gap = ma.p[:, :, ia] - mb.p[:, :, ib]
                npts = ma.tau[ia].size
                tol = XCHECK_TOLERANCES[a] + XCHECK_TOLERANCES[b]
            cells.append((a, b, npts, [_max_pair_gap(gap, x) for x in states], tol))
        for i, s in enumerate(s_axis):
            for a, b, npts, errs, tol in cells:
                ok = errs[i] <= tol
                all_ok = all_ok and ok
                rows.append([r1, s, a, b, npts, errs[i], tol, int(ok)])
    return ScenarioResult(columns=columns, data=[list(col) for col in zip(*rows)],
                          meta={"passed": all_ok, "tolerances": dict(XCHECK_TOLERANCES)},
                          config=cfg)


def _max_pair_gap(gap, init: InitialState) -> float:
    """``max |gap x|`` over the points and both amplitudes, for a real
    ``(2, 2, n)`` map ``gap`` and the pair ``x`` of ``init``: the real
    part, and the imaginary one only where the state has one.  A row at a
    time, so that the work arrays hold ``n`` points."""
    x1, x2 = init.c01, init.c02
    worst = 0.0
    for row in gap:
        y = row[0] * x1.real
        y += row[1] * x2.real
        if x1.imag or x2.imag:
            z = row[0] * x1.imag
            z += row[1] * x2.imag
            np.hypot(y, z, out=y)
        else:
            np.abs(y, out=y)
        worst = max(worst, float(np.max(y)))
    return worst


def _shared_points(sa, sb):
    """Slices of two uniform grids from 0 onto the points both hold.

    Each grid ends at the multiple of its step nearest ``tau_max``, so the
    two may end on either side of it; the shared points stop where the
    shorter grid does.
    """
    dta = sa.tau[1] - sa.tau[0]
    dtb = sb.tau[1] - sb.tau[0]
    if dta > dtb:
        return _shared_points(sb, sa)[::-1]
    ratio = dtb / dta
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9:
        raise ValueError("solver steps do not share grid points; "
                         "pick commensurate dt values")
    n = min(-(-sa.tau.size // k), sb.tau.size)
    return slice(0, n * k, k), slice(0, n)


def _transient_peaks(r1_axis: np.ndarray, init: InitialState, e: np.ndarray) -> np.ndarray:
    """Coarse peak ``max_tau 2 |c1 conj(c2)|`` of every ``r1`` row of the grid.

    The pair amplitudes are affine in the survival factor, ``c = a + b E``,
    so ``c1 conj(c2) = p0 + p1 E + p2 E**2`` and its squared modulus is a
    real quartic ``sum_k kappa_k(r1) E**k``.  The whole grid is then one
    ``(rows, 5) @ (5, len(e))`` product with the powers of ``E`` followed by
    a row max.  Longer time grids go in blocks of ``_TAU_BLOCK`` points, so
    the product's memory does not grow with ``tau_steps``.
    """
    # the basis change reads only the weights r1, r2 of a coupling, so arrays
    # of them carry every row through it at once
    weights = SimpleNamespace(r1=r1_axis, r2=np.sqrt(1.0 - r1_axis * r1_axis))
    basis = BellBasis.from_state(weights, init)
    a1, a2 = basis.amplitudes(weights, 0.0)
    b1, b2 = BellBasis(0.0, basis.beta_plus).amplitudes(weights, 1.0)
    p0 = a1 * np.conj(a2)
    p1 = a1 * np.conj(b2) + b1 * np.conj(a2)
    p2 = b1 * np.conj(b2)
    kappa = np.stack([np.abs(p0) ** 2, 2.0 * (p0 * np.conj(p1)).real,
                      np.abs(p1) ** 2 + 2.0 * (p0 * np.conj(p2)).real,
                      2.0 * (p1 * np.conj(p2)).real, np.abs(p2) ** 2], axis=1)
    top = np.full(r1_axis.size, -np.inf)
    for k in range(0, e.size, _TAU_BLOCK):
        powers = np.vander(e[k:k + _TAU_BLOCK], 5, increasing=True)
        top = np.maximum(top, (kappa @ powers.T).max(axis=1))
    return 2.0 * np.sqrt(np.maximum(top, 0.0))


def find_optimum(objective: str, cfg: ScenarioConfig) -> OptimumResult:
    """Best initial condition per the requested objective.

    ``stationary``: maximise the long-time concurrence over r1 at the first
    ``s`` of the config (coupling ratio only; the reservoir drops out).  The
    201-point r1 grid is the broadcast of :func:`_stationary_grid`, equal
    to the scalar :func:`stationary_concurrence` at each point.
    ``transient``: maximise the closed-form concurrence over (r1, tau) on
    [0, 1] x [0, tau_max].  ``|c1 conj(c2)|**2`` is a real quartic in the
    survival amplitude ``E(tau)`` with coefficients that depend on r1 only,
    so the 201-row coarse grid is one product of the coefficients with the
    powers of ``E`` on the tau grid (:func:`_transient_peaks`).  Rows whose
    coarse peak lies within 1e-12 of the best count as tied, and the
    smallest r1 among them wins; that row alone is evaluated through
    :meth:`BellBasis.amplitudes`, which gives tau (the first argmax) and the
    coarse value.  The refinement's objective is ``2 |c1 conj(c2)|`` from
    :meth:`BellBasis.amplitudes` at the scalar :func:`survival_amplitude`,
    with the one reservoir of the scan and a fresh coupling per r1.
    Both do a coarse grid scan followed by golden-section refinement to
    1e-4; the refined point is kept only if it beats the coarse one.  Every
    param and the value are Python floats.
    """
    s = cfg.s_axis()[0]
    init = _init_state(cfg, s)

    if objective == "stationary":
        def f(r1: float) -> float:
            return stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)

        xs = np.linspace(0.0, 1.0, 201)
        values = _stationary_grid(xs.tolist(), [init])[:, 0]
        r1_best, value = grid_refine_max(f, xs, values)
        return OptimumResult(params={"r1": r1_best, "s": s, "phi": float(cfg.phi)},
                             value=value)

    if objective == "transient":
        res, ref_coup = resonant_system(cfg.big_r, 0.5)
        tau = _grid_tau(cfg)
        r1_axis = np.linspace(0.0, 1.0, 201)
        # the survival amplitude depends on the couplings only through big_r,
        # so one evaluation serves every r1 on the scan grid
        e = survival_amplitude(res, ref_coup, tau)
        peaks = _transient_peaks(r1_axis, init, e)
        i = int(np.argmax(peaks >= peaks.max() - 1e-12))

        coup = CouplingSpec.from_relative(cfg.big_r, r1_axis[i])
        c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
        curve = 2.0 * np.abs(c1 * np.conj(c2))
        j = int(np.argmax(curve))
        best = (float(curve[j]), float(r1_axis[i]), float(tau[j]))

        def f(r1: float, t: float) -> float:
            # the reservoir is the same at every r1, so res serves each call
            coup = CouplingSpec.from_relative(cfg.big_r, r1)
            c1, c2 = BellBasis.from_state(coup, init).amplitudes(
                coup, survival_amplitude(res, coup, t))
            return 2.0 * abs(c1 * c2.conjugate())

        # Python floats, so the golden-section points and the result are too
        dr = float(r1_axis[1] - r1_axis[0])
        dtau = float(tau[1] - tau[0])
        r1_best, tau_best, value = coordinate_refine_max(
            f, best[1], best[2], dr, dtau, (0.0, 1.0), (0.0, float(cfg.tau_max)))
        if best[0] > value:
            r1_best, tau_best, value = best[1], best[2], best[0]
        return OptimumResult(
            params={"r1": r1_best, "tau": tau_best, "s": s, "phi": float(cfg.phi),
                    "big_r": float(cfg.big_r)},
            value=value)

    raise ValueError(f"unknown objective {objective!r}; pick 'stationary' or 'transient'")


_RUNNERS = {
    "stationary-surface": run_stationary_surface,
    "time-evolution": run_time_evolution,
    "zeno-compare": run_zeno_compare,
    "solver-xcheck": run_solver_xcheck,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    return _RUNNERS[cfg.scenario](cfg)


def render_csv(result: ScenarioResult) -> str:
    cols = [np.asarray(c) for c in result.data]
    tmpl = ",".join({"f": "%.17g", "i": "%d", "U": "%s"}[c.dtype.kind] for c in cols)
    lines = [",".join(result.columns)]
    lines += [tmpl % row for row in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n"


def _json_cells(col: np.ndarray) -> list:
    """``%s`` cells: a float prints its repr; strings and nan/inf go via ``json.dumps``."""
    cells = col.tolist()
    odd = np.ones(col.shape, bool) if col.dtype.kind == "U" else ~np.isfinite(col)
    for i in np.flatnonzero(odd).tolist():
        cells[i] = json.dumps(cells[i])
    return cells


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def render_json(result: ScenarioResult) -> str:
    """``json.dumps(..., indent=1)``; the rows block comes from one row template."""
    payload = {
        "config": _json_safe(dataclasses.asdict(result.config)) if result.config else None,
        "columns": list(result.columns),
        "rows": [],
        "meta": _json_safe(result.meta),
    }
    tmpl = "  [\n   " + ",\n   ".join(["%s"] * len(result.data)) + "\n  ]"
    cells = (_json_cells(np.asarray(c)) for c in result.data)
    rows = ",\n".join(tmpl % row for row in zip(*cells))
    return json.dumps(payload, indent=1).replace(
        '\n "rows": []', '\n "rows": ' + ("[\n" + rows + "\n ]" if rows else "[]"), 1) + "\n"


def write_result(result: ScenarioResult, out_path: str | None, fmt: str = "csv") -> str:
    """Render and write the table; atomic replace when a path is given.

    Returns the rendered text (handy when ``out_path`` is None and the
    caller streams it to stdout).
    """
    if fmt == "csv":
        text = render_csv(result)
    elif fmt == "json":
        text = render_json(result)
    else:
        raise ValueError(f"unknown format {fmt!r}; pick 'csv' or 'json'")
    if out_path is not None:
        directory = os.path.dirname(os.path.abspath(out_path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zeno-ent-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return text
