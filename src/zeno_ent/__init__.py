"""Entanglement of two qubits coupled to a common lossy resonator mode.

The package models a pair of two-level emitters resonant with a single
Lorentzian-broadened mode, starting from one shared excitation.  It
exposes the closed-form excitation dynamics, three independent numerical
integrators, concurrence measures, and the physics of repeated
nonselective measurements that freeze the decay (quantum Zeno regime).
"""

from .model import (
    BellBasis,
    CouplingSpec,
    InitialState,
    ReservoirSpec,
    TimeSeries,
    amplitudes_at,
    closed_form_series,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    resonant_system,
    stationary_concurrence,
    survival_amplitude,
)
from .scenarios import (
    OptimumResult,
    ScenarioConfig,
    ScenarioResult,
    find_optimum,
    run_scenario,
    run_solver_xcheck,
    run_stationary_surface,
    run_time_evolution,
    run_zeno_compare,
    write_result,
)
from .solvers import (
    PairMap,
    SolverConfig,
    aux_ode_propagator,
    bath_propagator,
    volterra_propagator,
)
from .zeno import (
    MeasurementSchedule,
    ZenoRate,
    concurrence_measured,
    simulate_stroboscopic,
    stroboscopic_amplitudes,
    survival_probability_measured,
    zeno_rate,
)

__version__ = "0.1.0"

__all__ = [
    "BellBasis",
    "CouplingSpec",
    "InitialState",
    "MeasurementSchedule",
    "OptimumResult",
    "PairMap",
    "ReservoirSpec",
    "ScenarioConfig",
    "ScenarioResult",
    "SolverConfig",
    "TimeSeries",
    "ZenoRate",
    "amplitudes_at",
    "aux_ode_propagator",
    "bath_propagator",
    "closed_form_series",
    "concurrence_closed",
    "concurrence_measured",
    "concurrence_wootters",
    "density_matrix",
    "find_optimum",
    "resonant_system",
    "run_scenario",
    "run_solver_xcheck",
    "run_stationary_surface",
    "run_time_evolution",
    "run_zeno_compare",
    "simulate_stroboscopic",
    "stationary_concurrence",
    "stroboscopic_amplitudes",
    "survival_amplitude",
    "survival_probability_measured",
    "volterra_propagator",
    "write_result",
    "zeno_rate",
]
