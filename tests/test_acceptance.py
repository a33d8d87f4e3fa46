"""Release acceptance checks.

Ten criteria, one test each.  Every test prints a single line with the
measured numbers and its verdict before asserting, so a failing run
still documents exactly what was observed.  Each criterion asserts what
the exact dynamics can deliver; the README's "Tests" section explains the
two that need care: where criterion 5 expects a dip-and-rise, and why the
mode comb of criterion 8 widens with the coupling.
"""

import math
import time

import numpy as np

from zeno_ent import (
    BellBasis,
    CouplingSpec,
    InitialState,
    MeasurementSchedule,
    ScenarioConfig,
    SolverConfig,
    TimeSeries,
    amplitudes_at,
    aux_ode_propagator,
    bath_propagator,
    concurrence_closed,
    concurrence_measured,
    concurrence_wootters,
    closed_form_series,
    density_matrix,
    find_optimum,
    resonant_system,
    run_solver_xcheck,
    run_time_evolution,
    stationary_concurrence,
    survival_amplitude,
    volterra_propagator,
)

SQRT_HALF = math.sqrt(0.5)

# Exact stroboscopic floors for criterion 7, frozen from an independent
# fourth-order integration of the memory kernel before this module was
# written (total time 2, coupling ratio 10, balanced qubits, s=0).
FROZEN_FLOORS = {
    0.01: 0.13578730334222652,
    0.005: 0.36833932211152065,
    0.001: 0.81878259613401805,
}


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {label}: {detail} [{'PASS' if ok else 'FAIL'}]"
    print(line)
    return line


def _strict_local_maxima(vals: np.ndarray) -> list[int]:
    return [i for i in range(1, len(vals) - 1)
            if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]


def _first_revival(vals: np.ndarray) -> float:
    """Height of the first local maximum after the first local minimum."""
    mins = [i for i in range(1, len(vals) - 1)
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]]
    if not mins:
        return math.nan
    for i in _strict_local_maxima(vals):
        if i > mins[0]:
            return float(vals[i])
    return math.nan


def test_criterion_01_stationary_optimum():
    start = time.perf_counter()
    sym = find_optimum("stationary",
                       ScenarioConfig(scenario="stationary-surface", s=(1.0,)))
    anti = find_optimum("stationary",
                        ScenarioConfig(scenario="stationary-surface", s=(-1.0,)))
    elapsed = time.perf_counter() - start
    ok = (abs(sym.params["r1"] - 0.866) <= 5e-3
          and abs(sym.value - 0.6495) <= 5e-3
          and abs(anti.params["r1"] - 0.500) <= 5e-3
          and elapsed < 1.0)
    line = _verdict(
        1, "stationary optimum", ok,
        f"s=1: r1={sym.params['r1']:.6f} C_s={sym.value:.6f} "
        f"(want 0.866/0.6495 +-5e-3); s=-1: r1={anti.params['r1']:.6f} "
        f"(want 0.500 +-5e-3); {elapsed:.3f}s (<1s)")
    assert ok, line


def test_criterion_02_subradiant_maximum():
    coup = CouplingSpec.from_relative(1.0, SQRT_HALF)
    init = InitialState.from_separability(0.0, phi=math.pi)
    c_s = stationary_concurrence(coup, init)
    ok = abs(c_s - 1.0) <= 1e-12
    line = _verdict(2, "subradiant maximum", ok,
                    f"phi=pi, s=0, r1=1/sqrt2: C_s={c_s!r} (want 1 +-1e-12)")
    assert ok, line


def test_criterion_03_transient_optimum():
    start = time.perf_counter()
    opt = find_optimum("transient",
                       ScenarioConfig(scenario="time-evolution", big_r=10.0,
                                      s=(1.0,), tau_max=1.0))
    elapsed = time.perf_counter() - start
    ok = (abs(opt.value - 0.96) <= 0.02
          and abs(opt.params["tau"] - 0.31) <= 0.03
          and abs(opt.params["r1"] - 0.92) <= 0.03
          and elapsed < 5.0)
    line = _verdict(
        3, "transient optimum", ok,
        f"C={opt.value:.6f} (0.96 +-0.02) at tau={opt.params['tau']:.6f} "
        f"(0.31 +-0.03), r1={opt.params['r1']:.6f} (0.92 +-0.03); "
        f"{elapsed:.3f}s (<5s)")
    assert ok, line


def test_criterion_04_revival_count():
    tau = np.linspace(0.0, 2.0, 4001)
    details = []
    ok = True
    for r1 in (0.0, 1.0):
        res, coup = resonant_system(10.0, r1)
        init = InitialState.from_separability(0.0)
        closed = closed_form_series(res, coup, init, tau).concurrence()
        n_max = len(_strict_local_maxima(closed))
        ref = _first_revival(closed)
        ok = ok and n_max >= 3 and math.isfinite(ref)
        details.append(f"r1={r1:g}: {n_max} maxima (>=3), first revival {ref:.4f}")
        numeric = {
            "volterra": volterra_propagator(res, coup,
                                            SolverConfig(dt=1e-4, t_max=2.0))(init),
            "ode": aux_ode_propagator(res, coup,
                                      SolverConfig(dt=1e-3, t_max=2.0))(init),
            "bath": bath_propagator(res, coup,
                                    SolverConfig(dt=1e-3, t_max=2.0,
                                                 n_modes=2000,
                                                 freq_window=20.0))(init),
        }
        for name, series in numeric.items():
            got = _first_revival(series.concurrence())
            rel = abs(got - ref) / ref
            ok = ok and rel <= 0.10
            details.append(f"{name} {got:.4f} (rel {rel:.1e} <=0.1)")
    line = _verdict(4, "revival count", ok, "; ".join(details))
    assert ok, line


def test_criterion_05_weak_coupling_monotonicity():
    """At R = 0.1 (overdamped) the s = 1 curves fall monotonically, and for
    s = 0 an unbalanced pair dips to near zero and rises again.

    The dip-and-rise needs both Bell components: the super-radiant share
    decays while the sub-radiant share leaves ``C_s > 0`` behind.  At
    ``r1 = 0.87`` (first entry of the time-evolution ``r1`` axis) that gives
    a minimum near ``tau = 184.5`` and a climb toward ``C_s = 0.061``.  At the
    balanced point ``r1 = r2`` with ``s = 0, phi = 0`` the initial state is
    purely super-radiant (``beta_- = 0``), so ``C = E(tau)**2``.  With
    ``E'(0) = 0`` and two decaying exponentials, ``E`` is strictly
    decreasing for ``tau > 0``: that curve falls to zero and never rises.
    """
    evo = run_time_evolution(
        ScenarioConfig(scenario="time-evolution", big_r=0.1, s=(1.0,)))
    table = np.asarray(evo.rows)
    worst_drop = 0.0
    for col in range(1, table.shape[1]):
        diffs = np.diff(table[:, col])
        worst_drop = max(worst_drop, float(-diffs.min()) if diffs.size else 0.0)
    ok_mono = worst_drop <= 1e-9

    init = InitialState.from_separability(0.0)
    tau = np.linspace(0.0, 500.0, 5001)
    res, coup = resonant_system(0.1, 0.87)
    curve = closed_form_series(res, coup, init, tau).concurrence()
    j = int(np.argmin(curve))
    interior = 0 < j < len(curve) - 1
    rises = interior and float(np.max(curve[j + 1:])) > curve[j] + 1e-6
    ok_dip = curve[j] < 1e-3 and rises
    where = f"tau={tau[j]:.2f}" + ("" if interior else " (grid end, never rises)")

    res, coup = resonant_system(0.1, SQRT_HALF)
    balanced = closed_form_series(res, coup, init, tau).concurrence()
    e_sq_gap = float(np.max(np.abs(balanced - survival_amplitude(res, coup, tau) ** 2)))
    worst_rise = float(np.max(np.diff(balanced)))
    ok_balanced = (e_sq_gap <= 1e-12 and worst_rise <= 1e-9
                   and balanced[-1] < 1e-3)

    ok = ok_mono and ok_dip and ok_balanced
    line = _verdict(
        5, "weak coupling monotonicity", ok,
        f"s=1 worst drop {worst_drop:.2e} (<=1e-9); "
        f"s=0 r1=0.87 min {curve[j]:.2e} at {where}, "
        f"rises after: {rises} (want min <1e-3 then rise); "
        f"s=0 r1=1/sqrt2 |C-E^2| {e_sq_gap:.1e} (<=1e-12), "
        f"worst rise {worst_rise:.2e} (<=1e-9), "
        f"end {balanced[-1]:.2e} (<1e-3)")
    assert ok, line


def test_criterion_06_markov_decay_rate():
    res, coup = resonant_system(0.05, 1.0)
    init = InitialState.from_separability(-1.0)
    series = aux_ode_propagator(res, coup, SolverConfig(dt=1e-2, t_max=60.0))(init)
    window = series.tau >= 10.0
    e_sq = np.abs(series.c1[window]) ** 2
    slope = np.polyfit(series.tau[window], np.log(e_sq), 1)[0]
    rate = -float(slope)
    rabi = coup.alpha_t * res.w
    gamma = 2.0 * rabi**2 / res.lam
    rel = abs(rate - gamma) / gamma
    ok = rel < 0.05
    line = _verdict(
        6, "markov decay rate", ok,
        f"fit over lam*t in [10,60]: rate={rate:.7f} vs gamma={gamma:.7f} "
        f"(rel {rel:.2%} < 5%)")
    assert ok, line


def test_criterion_07_zeno_suppression():
    res, coup = resonant_system(10.0, SQRT_HALF)
    init = InitialState.from_separability(0.0)
    floors = []
    for interval in (0.01, 0.005, 0.001):
        sched = MeasurementSchedule(interval, round(2.0 / interval))
        floors.append(concurrence_measured(res, coup, init, sched))
    increasing = floors[0] < floors[1] < floors[2] < 1.0
    frozen_ok = all(
        abs(got - FROZEN_FLOORS[t]) <= 1e-9 * FROZEN_FLOORS[t]
        for got, t in zip(floors, (0.01, 0.005, 0.001)))
    ok = increasing and frozen_ok
    line = _verdict(
        7, "zeno suppression", ok,
        "C(2) for lam*T in {0.01,0.005,0.001}: "
        + ", ".join(f"{v:.6f}" for v in floors)
        + f" strictly increasing toward 1 (final gap {1.0 - floors[-1]:.4f}); "
          "each matches its frozen floor to rel 1e-9")
    assert ok, line


def test_criterion_08_solver_equivalence():
    start = time.perf_counter()
    details = []
    all_ok = True
    for big_r in (0.1, 0.5, 10.0):
        result = run_solver_xcheck(
            ScenarioConfig(scenario="solver-xcheck", big_r=big_r))
        passed = result.meta["passed"]
        all_ok = all_ok and passed
        bad = [row for row in result.rows if not row[-1]]
        worst = max((row[5] for row in result.rows), default=0.0)
        summary = f"R={big_r:g}: {'ok' if passed else f'{len(bad)} rows over'}"
        summary += f" (worst {worst:.2e})"
        details.append(summary)
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 120.0
    line = _verdict(
        8, "solver equivalence", ok,
        "; ".join(details)
        + f"; budgets volterra 1e-5, ode 1e-6, bath 1e-3; {elapsed:.1f}s (<120s)")
    assert ok, line


def test_criterion_09_concurrence_identity():
    rng = np.random.default_rng(20260816)
    pairs = []
    for _ in range(1000):
        parts = rng.standard_normal(4)
        c1 = complex(parts[0], parts[1])
        c2 = complex(parts[2], parts[3])
        norm = abs(c1) ** 2 + abs(c2) ** 2
        scale = math.sqrt(rng.uniform(0.0, 1.0) / norm)
        pairs.append((c1 * scale, c2 * scale))
    c1, c2 = np.array(pairs).T
    amps = TimeSeries(tau=np.ones(1000), c1=c1, c2=c2)
    rho = density_matrix(amps)
    assert rho.shape == (1000, 4, 4)
    worst = float(np.max(np.abs(concurrence_wootters(rho) - concurrence_closed(amps))))
    ok = worst < 1e-10
    line = _verdict(9, "concurrence identity", ok,
                    f"1000 random pairs, worst |wootters - closed| = "
                    f"{worst:.2e} (<1e-10)")
    assert ok, line


def test_criterion_10_invariant_suite():
    checks = {}
    systems = [resonant_system(big_r, r1)
               for big_r in (0.05, 0.1, 0.5, 2.0, 10.0)
               for r1 in (0.3, SQRT_HALF)]

    checks["E(0)=1"] = all(
        abs(survival_amplitude(res, coup, 0.0) - 1.0) <= 1e-15
        for res, coup in systems)

    h = 1e-4
    checks["dE/dt(0)=0"] = all(
        abs((-3.0 * survival_amplitude(res, coup, 0.0)
             + 4.0 * survival_amplitude(res, coup, h)
             - survival_amplitude(res, coup, 2.0 * h)) / (2.0 * h)) <= 1e-6
        for res, coup in systems)

    grid = np.linspace(0.0, 20.0, 4001)
    checks["|E|<=1"] = all(
        float(np.max(np.abs(survival_amplitude(res, coup, grid)))) <= 1.0 + 1e-12
        for res, coup in systems)

    tgrid = np.linspace(0.0, 5.0, 501)
    boundary = []
    for eps in (1e-9, -1e-9):
        res_a, coup_a = resonant_system(0.5 + eps, SQRT_HALF)
        res_b, coup_b = resonant_system(0.5, SQRT_HALF)
        gap = np.max(np.abs(survival_amplitude(res_a, coup_a, tgrid)
                            - survival_amplitude(res_b, coup_b, tgrid)))
        boundary.append(float(gap))
    checks["regime continuity"] = max(boundary) <= 1e-6

    rng = np.random.default_rng(42)
    norm_ok = True
    for _ in range(200):
        r1 = rng.uniform(0.0, 1.0)
        s = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.0, 10.0)
        res, coup = resonant_system(rng.uniform(0.05, 10.0), r1)
        init = InitialState.from_separability(s, phi=phi)
        basis = BellBasis.from_state(coup, init)
        amps = amplitudes_at(res, coup, init, t)
        e_t = survival_amplitude(res, coup, t)
        lhs = abs(amps.c1) ** 2 + abs(amps.c2) ** 2
        rhs = abs(basis.beta_minus) ** 2 + abs(e_t * basis.beta_plus) ** 2
        norm_ok = norm_ok and abs(lhs - rhs) <= 1e-12
    checks["norm decomposition"] = norm_ok

    res, coup = resonant_system(10.0, 0.6)
    dark = InitialState(c01=coup.r2, c02=-coup.r1)
    tau = np.linspace(0.0, 5.0, 201)
    closed = closed_form_series(res, coup, dark, tau)
    drift = max(float(np.max(np.abs(closed.c1 - closed.c1[0]))),
                float(np.max(np.abs(closed.c2 - closed.c2[0]))))
    numeric = volterra_propagator(res, coup, SolverConfig(dt=1e-3, t_max=5.0))(dark)
    drift = max(drift,
                float(np.max(np.abs(numeric.c1 - numeric.c1[0]))),
                float(np.max(np.abs(numeric.c2 - numeric.c2[0]))))
    checks["dark state under evolution"] = drift <= 1e-9

    c0 = concurrence_closed(amplitudes_at(res, coup, dark, 0.0))
    sched_ok = True
    for interval in (0.01, 0.1, 0.5, 1.0):
        sched = MeasurementSchedule(interval, max(1, round(2.0 / interval)))
        sched_ok = sched_ok and abs(
            concurrence_measured(res, coup, dark, sched) - c0) <= 1e-12
    checks["dark state under schedules"] = sched_ok

    failed = [name for name, good in checks.items() if not good]
    ok = not failed
    line = _verdict(
        10, "invariant suite", ok,
        f"{len(checks)} invariant groups"
        + (f"; failed: {', '.join(failed)}" if failed else " all hold"))
    assert ok, line
