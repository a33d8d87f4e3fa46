"""The span tracer of perfbench's ``--trace 1`` runs, on the optimum search
and on the solver cross-check.

The tracer wraps every public function of every package module, and takes
the first argument of each public ``search`` function for the objective.
Its work counters, such as the points of ``E(t)``, are read by the
benchmark's per-layer metrics.  A change that breaks any of these shows
here, not only in a traced perfbench run.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

import pytest

import zeno_ent
from zeno_ent import ScenarioConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("objective", ["stationary", "transient"])
def test_traced_optimum_equals_untraced(objective):
    tracing = _load_tracing()
    cfg = ScenarioConfig(scenario="time-evolution", big_r=3.0, s=(0.4,), phi=1.0)
    untraced = zeno_ent.find_optimum(objective, cfg)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.job_span(0):
            t0 = perf_counter()
            # looked up on the package, where the tracer put its wrapper
            traced = zeno_ent.find_optimum(objective, cfg)
            wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracing.layer_metrics(tracer, wall)
    assert metrics["scenarios.self_s"] > 0.0
    if objective == "stationary":
        # the closed form calls nothing in search
        assert metrics["search.evals"] == 0 and metrics["search.self_s"] == 0.0
        assert metrics["model.stationary_concurrence.calls"] > 0
    else:
        assert metrics["search.evals"] > 0


@pytest.mark.parametrize("r1, points", [((0.6,), 120003), ((), 240006)],
                         ids=["one-r1", "five-r1"])
def test_traced_xcheck_equals_untraced(r1, points):
    # each closed pair evaluates E on its solver's grid once per distinct
    # (|a|^2, alpha_t): 100001 Volterra points and 10001 each for the ODE
    # and the bath, and the five default r1 at R = 10 have two such keys
    tracing = _load_tracing()
    cfg = ScenarioConfig(scenario="solver-xcheck", big_r=10.0, r1=r1)
    untraced = zeno_ent.run_solver_xcheck(cfg).rows
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.job_span(0):
            t0 = perf_counter()
            traced = zeno_ent.run_solver_xcheck(cfg).rows
            wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracing.layer_metrics(tracer, wall)["model.survival_amplitude.points"] == points
