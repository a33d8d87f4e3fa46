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
import os
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .model import (
    BellBasis,
    CouplingSpec,
    InitialState,
    TimeSeries,
    _finite,
    _integer,
    _positive,
    _relative_weights,
    amplitudes_at,
    closed_form_series,
    concurrence_closed,
    resonant_system,
    stationary_concurrence,
    survival_amplitude,
)
from .search import TIE, refine_max
from .solvers import (
    BATH_TOLERANCE,
    SOLVER_NAMES,
    SolverConfig,
    _blocks,
    _bright_weight,
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
XCHECK_TOLERANCES = {"volterra": 1e-5, "ode": 1e-6, "bath": BATH_TOLERANCE}

# most steps one numeric solver run may take: at a million Volterra steps
# a solver-xcheck run at one r1 without the bath has a traced peak of 0.8
# MB and runs in about 0.04 s; a time-evolution curve holds only its
# output points, whatever its step count (0.17 MB at 990000 steps)
MAX_SOLVER_STEPS = 1_000_000

_SQRT_HALF = math.sqrt(0.5)

# tau points per block of the transient coarse-grid product, so that its
# memory does not grow with tau_steps
_TAU_BLOCK = 4096
# points per block of each solver grid in solver-xcheck: at R = 10 the
# traced peak, 2.5 MB for one r1 and for the default five, is the bath's
# run up to blocks of 2**15 points (3.3 MB in blocks of 2**16); at 10**6
# Volterra steps without the bath it is 0.8 MB in blocks of 2**13, 1.5 MB
# of 2**14, 3.0 MB of 2**15.  A block's reads, 64 kB each, stay below the
# size whose free lets glibc trim the heap, so each block reuses the memory
# of the last: repeated in one process, that run takes about one minor page
# fault, and 1.6k to 6k in blocks of 2**14, by the heap's layout
_XCHECK_BLOCK = 1 << 13

@dataclass(frozen=True)
class ScenarioConfig:
    """Flat bag of knobs shared by all scenarios.

    ``r1`` and ``s`` are grids (axes for the surface, curve selectors
    elsewhere); empty tuples pick per-scenario defaults.  Times are in
    units of the reservoir memory time (the linewidth is fixed at 1, so
    ``big_r`` is the vacuum Rabi frequency over the linewidth).

    ``n_modes`` and ``freq_window`` set the bath comb, an even count of
    modes whose band widens with the coupling past the vacuum-Rabi
    splitting.  :func:`~zeno_ent.solvers.bath_propagator` states its rules:
    a bath run past the comb's recurrence time (e.g. ``big_r = 40`` at
    ``tau_max = 10``) or on a comb too narrow to sample the reservoir (e.g.
    ``freq_window = 1`` at ``big_r = 0.1``) is refused before it starts.
    ``time-evolution`` refines the Volterra and ODE steps until they pass
    their solver's resolution check, while ``solver-xcheck`` keeps the
    steps as given.  The bath evolves its comb exactly, so no step is
    refused for it and its step only spaces its output: ``time-evolution``
    takes the output spacing, and only ``solver-xcheck`` reads ``dt_bath``.
    A numeric solver run of more than :data:`MAX_SOLVER_STEPS` steps is
    refused too, in either scenario: e.g. the ``ode`` solver of
    ``time-evolution`` at ``big_r = 1e12``, whose step is refined to the
    coupling, or ``solver-xcheck`` at ``tau_max = 2000``, where Volterra's
    ``dt = 1e-4`` would take 2e7 steps.  So is a ``tau_steps`` above
    ``MAX_SOLVER_STEPS + 1``, which no numeric curve could reach, and an
    ``n_modes`` that is odd, below 2 or above
    :data:`~zeno_ent.solvers.MAX_MODES`, in any scenario.  Only
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
        # a number is kept as given, for the JSON echo; a list as floats
        for name in ("big_r", "tau_max", "dt_volterra", "dt_ode", "dt_bath"):
            _positive(name, getattr(self, name))
        _finite("phi", self.phi)
        _integer("tau_steps", self.tau_steps, 2, MAX_SOLVER_STEPS + 1)
        _check_comb(self.n_modes, self.freq_window)
        if not isinstance(self.include_bath, (bool, np.bool_)):
            raise ValueError(f"include_bath must be true or false, got {self.include_bath!r}")
        for name, check, *bounds in (("r1", _finite, 0.0, 1.0), ("s", _finite, -1.0, 1.0),
                                     ("meas_intervals", _positive)):
            try:
                values = tuple(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be a list of numbers, "
                                 f"got {getattr(self, name)!r}") from None
            object.__setattr__(self, name, tuple(check(name, v, *bounds) for v in values))

    def r1_axis(self) -> tuple[float, ...]:
        return self.r1 or _DEFAULT_AXES[self.scenario][0]

    def s_axis(self) -> tuple[float, ...]:
        return self.s or _DEFAULT_AXES[self.scenario][1]


# per scenario, the r1 and s axes that an empty r1 or s picks
_DEFAULT_AXES = {
    "stationary-surface": (tuple(np.linspace(0.0, 1.0, 201)), tuple(np.linspace(-1.0, 1.0, 201))),
    "time-evolution": ((0.87, _SQRT_HALF, 0.0, 1.0), (1.0, 0.0)),
    "zeno-compare": ((_SQRT_HALF,), (0.0,)),
    "solver-xcheck": ((0.0, 0.5, _SQRT_HALF, 0.87, 1.0), (-1.0, 0.0, 1.0)),
}


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


def _propagator(cfg: ScenarioConfig, solver: str, res, coup, dt: float):
    """The :class:`~zeno_ent.solvers.PairMap` of a numeric solver at one
    coupling, on every step of ``dt`` to ``tau_max``.

    Each solver does its work here, once, and serves every initial state
    and every read of its caller from it.  A run of more than
    :data:`MAX_SOLVER_STEPS` steps is refused before any map is built.
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
                        freq_window=cfg.freq_window)
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
    sampled exactly on ``tau``: Volterra and the ODE step ``k`` times per
    output interval, and their ``sigma`` is read once, on every ``k``-th
    step, for all states.  The bath's step only spaces its output, so it
    is built on the output grid itself."""
    res, coup = resonant_system(cfg.big_r, r1)
    if solver == "closed":
        return lambda init: closed_form_series(res, coup, init, tau).concurrence()
    # a step that divides the output spacing, so no interpolation is needed
    dtau = tau[1] - tau[0]
    k = 1 if solver == "bath" else _substeps(
        float(dtau), getattr(cfg, f"dt_{solver}"), step_limit(res, coup, solver))
    run = _propagator(cfg, solver, res, coup, dtau / k)
    # sigma read once at every k-th step is a map on the output grid, like
    # the bath's, and serves every state
    on_grid = dataclasses.replace(run, dt=dtau, size=tau.size, sigma=run.rows(0, run.size, k),
                                  factors=None)
    return lambda init: on_grid(init).concurrence()


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
        data.append(TimeSeries(tau, c1, c2).concurrence())
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
    tolerances.  ``meta['passed']`` reflects the whole table; a NaN in any
    series gives its rows a NaN ``max_abs_err``, which fails.

    Each solver's map is ``a a^T sigma`` (:class:`~zeno_ent.solvers.PairMap`)
    and the closed form's is ``r r^T (E - 1)``, with ``a = alpha_t r`` and
    ``r = (r1, r2)``.  So a pair's difference is ``r r^T Delta`` for the
    scalar series ``Delta = |a|^2 (sigma_a - sigma_b)``, or ``|a|^2 sigma -
    (E - 1)``, and the row of a state whose pair at ``t = 0`` is ``x`` is
    ``max(|r1|, |r2|) |r.x| max_t |Delta|``: one maximum per (r1, pair)
    serves every s.  The solvers run once per distinct ``(|a|^2, alpha_t)``,
    the floats of the coupling that they read, and every r1 of that key
    shares the maxima of its maps (:func:`_xcheck_peaks`).
    """
    solvers = ["volterra", "ode"] + (["bath"] if cfg.include_bath else [])
    pairs = [(a, b, XCHECK_TOLERANCES.get(a, 0.0) + XCHECK_TOLERANCES[b])
             for i, a in enumerate(["closed"] + solvers) for b in solvers[i:]]
    columns = ["r1", "s", "solver_a", "solver_b", "n_shared", "max_abs_err",
               "tolerance", "passed"]
    s_axis = cfg.s_axis()
    x = np.array([[init.c01, init.c02] for init in (_init_state(cfg, s) for s in s_axis)])
    peaks, rows = {}, []
    for r1 in cfg.r1_axis():
        res, coup = resonant_system(cfg.big_r, r1)
        asq = _bright_weight(res, coup)
        key = (asq, coup.alpha_t)
        if key not in peaks:
            peaks[key] = _xcheck_peaks(cfg, pairs, res, coup, asq)
        reach = max(abs(coup.r1), abs(coup.r2)) * np.abs(coup.r1 * x[:, 0] + coup.r2 * x[:, 1])
        for j, s in enumerate(s_axis):
            for (a, b, tol), (n, top) in zip(pairs, peaks[key]):
                err = float(reach[j] * top)
                rows.append([r1, s, a, b, n, err, tol, int(err <= tol)])
    return ScenarioResult(columns=columns, data=[list(col) for col in zip(*rows)],
                          meta={"passed": all(row[-1] for row in rows),
                                "tolerances": dict(XCHECK_TOLERANCES)},
                          config=cfg)


def _xcheck_peaks(cfg: ScenarioConfig, pairs, res, coup, asq: float) -> list:
    """``(n_shared, max_t |Delta|)`` of each pair at one coupling, whose
    ``|a|^2`` is ``asq``, from one map per solver, dropped on return.  A
    pair is walked on its home grid (:func:`_pair_peak`): its numeric
    side's if the other is the closed form, else its side of the larger
    step (on a tie the second).  Steps that share no points are refused
    before any pair is walked."""
    maps = {name: _propagator(cfg, name, res, coup, getattr(cfg, f"dt_{name}"))
            for name in dict.fromkeys(b for _, b, _ in pairs)}
    sides = [(maps[b], None) if a == "closed" else
             sorted((maps[b], maps[a]), key=lambda m: -m.dt) for a, b, _ in pairs]
    shared = [_shared_points(*side) for side in sides]
    return [(n, _pair_peak(*side, stride, n, asq, (res, coup)))
            for side, (stride, n) in zip(sides, shared)]


def _shared_points(home, fine) -> tuple[int, int]:
    """``(stride, n)``: the first ``n`` points of the ``home`` map's grid
    are those it shares with the finer ``fine`` one, point ``m`` being its
    point ``m * stride``; ``(1, size)`` without ``fine``.  Each grid ends at
    the multiple of its step nearest ``tau_max``, so the shared points stop
    where the shorter grid does."""
    if fine is None:
        return 1, home.size
    ratio = home.dt / fine.dt
    stride = int(round(ratio))
    if abs(ratio - stride) > 1e-9:
        raise ValueError("solver steps do not share grid points; "
                         "pick commensurate dt values")
    return stride, min(-(-fine.size // stride), home.size)


def _pair_peak(home, fine, stride: int, n: int, asq: float, system):
    """``max_t |Delta|`` over the first ``n`` points of ``home``'s grid:
    ``|a|^2 sigma - (E - 1)`` at ``system = (res, coup)`` without a ``fine``
    map, else ``|a|^2 (sigma_home - sigma_fine)``.  The grid is walked in
    blocks of whole tail rows of ``home``, about :data:`_XCHECK_BLOCK`
    points each, each side read off :meth:`~zeno_ent.solvers.PairMap.rows`
    on the block alone; ``np.maximum`` keeps a NaN."""
    row = _blocks(home.size - 1)[0]
    width = max(_XCHECK_BLOCK // row, 2) * row
    peak, scale = 0.0, 1.0 if fine is None else asq
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        if fine is None:
            delta = asq * home.rows(lo, hi)
            delta -= survival_amplitude(*system, home.times(lo, hi)) - 1.0
        else:
            delta = home.rows(lo, hi) - fine.rows(lo * stride, (hi - 1) * stride + 1, stride)
        np.abs(delta, out=delta)
        peak = np.maximum(peak, scale * delta.max())
    return peak


def _transient_coefficients(r1: np.ndarray, init: InitialState) -> np.ndarray:
    """The coefficients ``kappa_k(r1)``, shape ``(len(r1), 5)``, of the real
    quartic ``|c1 conj(c2)|**2 = sum_k kappa_k E**k`` in the survival
    amplitude.

    With the overlaps ``bm``, ``bp`` of :meth:`BellBasis.from_state` and
    ``x = bm conj(bp)``, the inverse basis change gives ``c1 conj(c2) = p0 +
    p1 E + p2 E**2``, with ``p0 = -r1 r2 |bm|**2`` and ``p2 = r1 r2
    |bp|**2`` real and ``p1 = (r2**2 - r1**2) Re x + i Im x``.
    """
    # the basis change reads only the weights r1, r2 of a coupling, so arrays
    # of them carry every row through it at once
    r2 = np.sqrt(1.0 - r1 * r1)
    basis = BellBasis.from_state(SimpleNamespace(r1=r1, r2=r2), init)
    x = basis.beta_minus * np.conj(basis.beta_plus)
    p0 = -r1 * r2 * np.abs(basis.beta_minus) ** 2
    p2 = r1 * r2 * np.abs(basis.beta_plus) ** 2
    re = (r2 * r2 - r1 * r1) * x.real
    return np.stack([p0 * p0, 2.0 * p0 * re, re * re + x.imag * x.imag + 2.0 * p0 * p2,
                     2.0 * p2 * re, p2 * p2], axis=1)


def find_optimum(objective: str, cfg: ScenarioConfig) -> OptimumResult:
    """Best initial condition per the requested objective.

    ``stationary``: maximise the long-time concurrence over r1 at the first
    ``s`` of the config (the reservoir drops out), in closed form.  At
    ``r1 = sin(x/2)`` and ``c = Re(c01 conj(c02))`` it is
    ``C_s = sin x (1/2 - (s/2) cos x - c sin x)``, stationary where
    ``-(1+s) t**4 + 8c t**3 + 6s t**2 - 8c t + (1-s) = 0`` at ``t = tan(x/2)``.
    The candidates r1 = 0, r1 = 1 and ``t / hypot(1, t)`` at
    ``t = max(Re t_k, 0)`` for every root go through the scalar
    :func:`stationary_concurrence`.  Those within
    :data:`~zeno_ent.search.TIE` of the best tie and the smallest r1 wins:
    at s = 0, phi = 0 the maxima at sin 15° and sin 75° tie.
    ``transient``: maximise the closed-form concurrence over (r1, tau) on
    [0, 1] x [0, tau_max].  ``|c1 conj(c2)|**2`` is a real quartic in the
    survival amplitude ``E(tau)`` with coefficients that depend on r1 only
    (:func:`_transient_coefficients`), so the 201-row coarse grid is read,
    in blocks of tau, as the coefficients times the powers of ``E``.
    Rows whose peak of the quartic lies within :data:`~zeno_ent.search.TIE`
    of the best tie, and the smallest r1 among them wins, at its first peak
    in tau.  :func:`~zeno_ent.search.refine_max` refines that point on
    grids of the same quartic, one closure for every grid, from +-1 coarse
    cell to a thousandth of one.  The value is
    :func:`concurrence_closed` of :func:`amplitudes_at` at the point found.
    Every param and the value are Python floats.
    """
    s = cfg.s_axis()[0]
    init = _init_state(cfg, s)

    if objective == "stationary":
        c = (init.c01 * init.c02.conjugate()).real
        roots = np.roots([-(1.0 + s), 8.0 * c, 6.0 * s, -8.0 * c, 1.0 - s])
        r1s = [0.0, 1.0] + [t / math.hypot(1.0, t) for t in np.maximum(roots.real, 0.0).tolist()]
        cs = [stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init) for r1 in r1s]
        top = max(cs)
        r1_best, value = min((r1, v) for r1, v in zip(r1s, cs) if v >= top - TIE)
        return OptimumResult(params={"r1": r1_best, "s": s, "phi": float(cfg.phi)},
                             value=value)

    if objective == "transient":
        res, ref_coup = resonant_system(cfg.big_r, 0.5)

        def quartic(r1, tau):
            # the survival amplitude depends on the couplings only through
            # big_r, so one evaluation serves every r1 of the grid
            e = survival_amplitude(res, ref_coup, tau)
            return _transient_coefficients(r1, init) @ np.vander(e, 5, increasing=True).T

        tau = _grid_tau(cfg)
        r1_axis = np.linspace(0.0, 1.0, 201)
        rows = np.arange(r1_axis.size)
        top = np.full(r1_axis.size, -np.inf)
        where = np.zeros(r1_axis.size, dtype=int)
        for k in range(0, tau.size, _TAU_BLOCK):
            block = quartic(r1_axis, tau[k:k + _TAU_BLOCK])
            arg = block.argmax(axis=1)
            peak = block[rows, arg]
            better = peak > top
            top[better] = peak[better]
            where[better] = k + arg[better]
        i = int(np.argmax(top >= top.max() - TIE))
        r1, t = refine_max(quartic, r1_axis[i], tau[where[i]], r1_axis[1], tau[1],
                           (0.0, 1.0), (0.0, cfg.tau_max))
        value = concurrence_closed(amplitudes_at(*resonant_system(cfg.big_r, r1), init, t))
        return OptimumResult(
            params={"r1": r1, "tau": t, "s": s, "phi": float(cfg.phi),
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


def _repeated_cells(col: np.ndarray, cell) -> list | None:
    """``cell`` of every entry of a float column with at most half its cells
    distinct, formatting each distinct value once; ``None`` for any other
    column.  Values differ by their bits, so ``0.0`` and ``-0.0`` stay apart."""
    if col.dtype != np.float64:
        return None
    bits = col.view(np.int64)
    # one sort: np.unique hashes int64 keys, 4.3 ms against 0.2 ms on 20001 values
    ordered = np.sort(bits)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if 2 * distinct.size > bits.size:
        return None
    strings = np.array([cell(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return strings[np.searchsorted(distinct, bits)].tolist()


def render_csv(result: ScenarioResult) -> str:
    """One ``%``-row template over the columns: ``%.17g`` for a float cell,
    and ``%s`` for a float column that repeats, whose distinct values are
    formatted once (:func:`_repeated_cells`)."""
    fmts, cells = [], []
    for col in map(np.asarray, result.data):
        fmt = {"f": "%.17g", "i": "%d", "U": "%s"}[col.dtype.kind]
        shared = _repeated_cells(col, fmt.__mod__)
        fmts.append(fmt if shared is None else "%s")
        cells.append(col.tolist() if shared is None else shared)
    tmpl = ",".join(fmts)
    lines = [",".join(result.columns)]
    lines += [tmpl % row for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _json_cells(col: np.ndarray) -> list:
    """``%s`` cells: a float prints its repr; strings and nan/inf go via
    ``json.dumps``; a float column that repeats via :func:`_repeated_cells`."""
    cells = _repeated_cells(col, lambda v: repr(v) if math.isfinite(v) else json.dumps(v))
    if cells is not None:
        return cells
    cells = col.tolist()
    odd = np.ones(col.shape, bool) if col.dtype.kind == "U" else ~np.isfinite(col)
    for i in np.flatnonzero(odd).tolist():
        cells[i] = json.dumps(cells[i])
    return cells


def _json_default(obj):
    """json's hook for what it cannot encode itself: a numpy scalar or array
    as its Python value or nested list; anything else is refused."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_json(result: ScenarioResult) -> str:
    """``json.dumps(..., indent=1)``, numpy values through
    :func:`_json_default`; the rows block comes from one row template over
    the ``%s`` cells of :func:`_json_cells`."""
    payload = {
        "config": dataclasses.asdict(result.config) if result.config else None,
        "columns": list(result.columns),
        "rows": [],
        "meta": result.meta,
    }
    tmpl = "  [\n   " + ",\n   ".join(["%s"] * len(result.data)) + "\n  ]"
    cells = (_json_cells(np.asarray(c)) for c in result.data)
    rows = ",\n".join(tmpl % row for row in zip(*cells))
    return json.dumps(payload, indent=1, default=_json_default).replace(
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
