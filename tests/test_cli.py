"""Scenario runners, serialization, and the command-line front end."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from zeno_ent import (
    CouplingSpec,
    InitialState,
    ScenarioConfig,
    ScenarioResult,
    SolverConfig,
    TimeSeries,
    amplitudes_at,
    aux_ode_propagator,
    bath_propagator,
    closed_form_series,
    concurrence_closed,
    find_optimum,
    resonant_system,
    run_solver_xcheck,
    run_stationary_surface,
    run_time_evolution,
    run_zeno_compare,
    stationary_concurrence,
    stroboscopic_amplitudes,
    volterra_propagator,
    write_result,
)
from zeno_ent import scenarios, search, solvers
from zeno_ent import cli
from zeno_ent.cli import build_parser, main
from zeno_ent.scenarios import load_config_file, render_csv, render_json
from zeno_ent.solvers import SOLVER_NAMES, _bright_weight, step_limit

SQRT_HALF = math.sqrt(0.5)

# solver-xcheck configs that take the pairs' walks off their default paths
WALK_CASES = {
    # several blocks of the Volterra grid, the last one partial, and
    # complex states beside the real one at s = -1
    "blocks-complex": dict(big_r=10.0, r1=(0.0, 0.6, SQRT_HALF), phi=0.7),
    "complex-phi2": dict(big_r=0.5, r1=(0.3, 0.87, 1.0), s=(-1.0, -0.2, 0.3, 1.0), phi=2.0),
    "partial-grid": dict(big_r=24.0, r1=(0.87,), tau_max=3.7),
    # the ODE grid finer than Volterra's, so the pair of the two is walked
    # on Volterra's
    "ode-finest": dict(big_r=10.0, r1=(0.6,), dt_ode=5e-5),
    # grids that end apart (10 / 7e-4 rounds up), without the bath
    "ends-apart": dict(big_r=10.0, r1=(0.87, 0.3), dt_ode=7e-4, include_bath=False),
    # a bath grid finer than Volterra's, so pairs walk the grids of the others
    "bath-finest": dict(big_r=0.5, r1=(0.3,), dt_volterra=1e-3, dt_ode=1e-4, dt_bath=5e-5,
                        tau_max=2.0),
    # the ODE's grid of 30001 points walked in two blocks of its own
    "coarse-blocks": dict(big_r=10.0, r1=(0.6,), tau_max=30.0, include_bath=False),
    # Volterra and the ODE share a step; two r1 of one alpha_t
    "shared-step": dict(big_r=10.0, r1=(0.3, 0.87), dt_ode=1e-4),
}


def shared_points(ma, mb):
    """Indices into the grids of the maps ``ma`` and ``mb`` of the points
    both hold, in time order: each grid's times counted in the finer step
    and rounded to integers, then matched."""
    fine = min(ma.dt, mb.dt)
    counts = [np.round(m.times(0, m.size) / fine) for m in (ma, mb)]
    return np.intersect1d(*counts, return_indices=True)[1:]


# the kind of value each ScenarioConfig key takes, read off its annotation:
# a field of a new annotation fails here until it is given a kind
CONFIG_KINDS = {f.name: {"float": "real", "int": "integer", "tuple[float, ...]": "list",
                         "bool": "bool", "str": "name"}[f.type]
                for f in dataclasses.fields(ScenarioConfig)}


def config_keys(kind: str) -> tuple[str, ...]:
    return tuple(key for key, k in CONFIG_KINDS.items() if k == kind)


def wrong_type_entries():
    """A JSON ``true``, ``null`` and a string at every real, integer, list
    and bool key of ScenarioConfig and in every list, with a number for the
    bool key's ``true``, as ``pytest.param`` config entries."""
    for key, kind in CONFIG_KINDS.items():
        if kind == "name":
            continue
        for label, bad in (("bool", True), ("null", None), ("string", "0.5")):
            if kind == "bool" and bad is True:
                label, bad = "number", 1
            yield pytest.param({key: bad}, id=f"{key}-{label}")
            if kind == "list":
                yield pytest.param({key: [bad]}, id=f"{key}-{label}-entry")


class TestScenarioConfig:
    def test_rejects_unknown_scenario_and_solver(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="nope")
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="time-evolution", solver="magic")

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="time-evolution", r1=(1.2,))
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="time-evolution", s=(-2.0,))
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="time-evolution", big_r=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="time-evolution", tau_steps=1)
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="zeno-compare", meas_intervals=(0.0,))

    @pytest.mark.parametrize("name", ["r1", "s", "meas_intervals"])
    def test_rejects_a_scalar_for_a_list(self, name):
        # a config file wraps a scalar in a list; the API does not
        with pytest.raises(ValueError, match=rf"^{name} must be a list of numbers, got 0\.5$"):
            ScenarioConfig(scenario="time-evolution", **{name: 0.5})

    def test_default_axes_per_scenario(self):
        surface = ScenarioConfig(scenario="stationary-surface")
        assert len(surface.r1_axis()) == 201
        assert len(surface.s_axis()) == 201
        evo = ScenarioConfig(scenario="time-evolution")
        assert SQRT_HALF in evo.r1_axis()
        assert evo.s_axis() == (1.0, 0.0)

    def test_explicit_axes_win(self):
        cfg = ScenarioConfig(scenario="stationary-surface", r1=(0.5,), s=(1.0,))
        assert cfg.r1_axis() == (0.5,)
        assert cfg.s_axis() == (1.0,)


class TestConfigFile:
    def test_round_trip_and_scalar_promotion(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"big_r": 10.0, "r1": 0.5, "tau_steps": 11}))
        loaded = load_config_file(str(path))
        assert loaded["big_r"] == 10.0
        assert loaded["r1"] == [0.5]
        assert loaded["tau_steps"] == 11

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"volume": 11}')
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flat JSON object"):
            load_config_file(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config_file(str(path))


class TestStationarySurface:
    def test_argmax_row_appended_and_flagged(self):
        cfg = ScenarioConfig(scenario="stationary-surface",
                             r1=(0.5, math.sqrt(3.0) / 2.0, 1.0), s=(1.0,))
        result = run_stationary_surface(cfg)
        assert result.columns == ["r1", "s", "c_s", "is_argmax"]
        assert len(result.rows) == 4
        last = result.rows[-1]
        assert last[3] == 1
        assert last[0] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        assert last[2] == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=1e-12)
        assert result.meta["argmax"]["c_s"] == pytest.approx(last[2], rel=1e-15)

    def test_default_grid_size(self):
        result = run_stationary_surface(ScenarioConfig(scenario="stationary-surface"))
        assert len(result.rows) == 201 * 201 + 1

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, math.pi])
    def test_broadcast_equals_scalar_cells(self, phi):
        # the cell loop the surface ran before it was one broadcast
        cfg = ScenarioConfig(scenario="stationary-surface", phi=phi)
        rows, best = [], (-1.0, 0.0, 0.0)
        for r1 in cfg.r1_axis():
            coup = CouplingSpec.from_relative(1.0, r1)
            for s in cfg.s_axis():
                c = stationary_concurrence(coup, InitialState.from_separability(s, phi))
                rows.append([r1, s, c, 0])
                if c > best[0]:
                    best = (c, r1, s)
        rows.append([best[1], best[2], best[0], 1])
        result = run_stationary_surface(cfg)
        assert result.rows == rows
        assert result.meta == {"argmax": {"r1": best[1], "s": best[2], "c_s": best[0]},
                               "phi": phi}


class TestTimeEvolution:
    def test_columns_and_grid(self):
        cfg = ScenarioConfig(scenario="time-evolution", big_r=0.5,
                             r1=(0.5, 1.0), s=(0.0,), tau_max=1.0, tau_steps=5)
        result = run_time_evolution(cfg)
        assert result.columns[0] == "tau"
        assert result.columns[1] == "C[r1=0.5;s=0.0]"
        assert result.columns[2] == "C[r1=1.0;s=0.0]"
        assert len(result.rows) == 5
        assert result.rows[0][0] == 0.0
        assert result.rows[-1][0] == pytest.approx(1.0, rel=1e-15)

    def test_numeric_solver_sampled_on_output_grid(self):
        base = dict(scenario="time-evolution", big_r=0.5, r1=(0.87,), s=(0.0,),
                    tau_max=2.0, tau_steps=21)
        closed = run_time_evolution(ScenarioConfig(**base, solver="closed"))
        volterra = run_time_evolution(ScenarioConfig(**base, solver="volterra"))
        ode = run_time_evolution(ScenarioConfig(**base, solver="ode"))
        for row_c, row_v, row_o in zip(closed.rows, volterra.rows, ode.rows):
            assert row_v[0] == pytest.approx(row_c[0], abs=1e-12)
            assert row_v[1] == pytest.approx(row_c[1], abs=1e-8)
            assert row_o[1] == pytest.approx(row_c[1], abs=1e-9)

    @pytest.mark.parametrize("solver", ["volterra", "ode", "bath"])
    def test_each_map_read_once_for_every_state(self, monkeypatch, solver):
        # sigma is read off each r1's map once and serves every s; each
        # column is the bits of that map called on its state
        maps, reads = [], []
        real_propagator, real_rows = scenarios._propagator, solvers.PairMap.rows

        def propagating(*args):
            maps.append(real_propagator(*args))
            return maps[-1]

        def counting(pair_map, lo, hi, step=1):
            if any(pair_map is m for m in maps):
                reads.append((pair_map, lo, hi, step))
            return real_rows(pair_map, lo, hi, step)

        monkeypatch.setattr(scenarios, "_propagator", propagating)
        monkeypatch.setattr(solvers.PairMap, "rows", counting)
        cfg = ScenarioConfig(scenario="time-evolution", solver=solver, big_r=10.0,
                             r1=(0.87, 0.5), s=(-0.5, 0.0, 0.5), phi=0.7)
        result = run_time_evolution(cfg)
        monkeypatch.undo()
        assert [read[0] for read in reads] == maps and len(maps) == 2
        tau = result.data[0]
        columns = iter(result.data[1:])
        for (run, lo, hi, k), r1 in zip(reads, cfg.r1):
            res, coup = resonant_system(cfg.big_r, r1)
            if solver == "bath":
                assert k == 1
            else:
                assert k == scenarios._substeps(float(tau[1] - tau[0]), getattr(cfg, f"dt_{solver}"),
                                                step_limit(res, coup, solver))
            assert (lo, hi) == (0, run.size) and hi == (tau.size - 1) * k + 1
            for s in cfg.s:
                expected = run(InitialState.from_separability(s, cfg.phi), k).concurrence()
                assert next(columns).tobytes() == expected.tobytes()

    def test_bath_refused_past_comb_recurrence(self, tmp_path, capsys):
        # 2000 modes over +-200 linewidths at R = 10: dω = 0.2, so the comb
        # recurs at 2 pi / 0.2 = 31.4, inside the 40-unit horizon
        out = tmp_path / "late.csv"
        code = main(["time-evolution", "--solver", "bath", "--big-r", "10",
                     "--tau-max", "40", "--tau-steps", "8001", "--r1", "0.87",
                     "--s", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "recurrence time 31.4159" in err
        assert "raise n_modes or shorten tau_max" in err
        assert not out.exists()

    def test_bath_step_refined_to_band_edge(self, tmp_path, capsys):
        # at R = 25 the bath, which evolves its comb exactly, takes the
        # configured dt_bath = 1e-3: it divides the output spacing 5e-3, and
        # no step is refused for the bath
        out = tmp_path / "strong.csv"
        code = main(["time-evolution", "--solver", "bath", "--big-r", "25",
                     "--r1", "0.87", "--s", "0", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        tau = np.array([float(r[0]) for r in rows])
        conc = np.array([float(r[1]) for r in rows])
        res, coup = resonant_system(25.0, 0.87)
        ref = closed_form_series(res, coup, InitialState.from_separability(0.0),
                                 tau).concurrence()
        assert tau.size == 2001
        assert float(np.max(np.abs(conc - ref))) < 3e-3

    @staticmethod
    def search_substeps(dtau, base, limit):
        """The search that picked the step count before the closed form."""
        k = max(1, int(math.ceil(dtau / base - 1e-9)))
        k = max(k, int(dtau / limit))
        while dtau / k >= limit:
            k += 1
        return k

    def test_substeps_equal_the_search(self):
        cases = []
        for tau_steps in (2, 3, 11, 101, 2001, 20001):
            dtau = float(np.linspace(0.0, 10.0, tau_steps)[1])
            for big_r in np.geomspace(1e-3, 1e5, 97).tolist() + [24.0, 25.0, 40.0]:
                res, coup = resonant_system(big_r, 0.5)
                for solver, base in (("volterra", 1e-4), ("ode", 1e-3), ("bath", 1e-3)):
                    # the bath's limit is inf: it keeps the least count
                    limit = step_limit(res, coup, solver)
                    cases.append((dtau, base, limit))
            # quotients within a few ulps of an integer, where rounding decides
            for n in np.unique(np.geomspace(1, 10**6, 200).astype(int)).tolist():
                steps = np.arange(-3, 4)
                for limit in (dtau / n + steps * math.ulp(dtau / n)).tolist():
                    cases.append((dtau, 1e-3, limit))
                for base in (dtau / n, np.nextafter(dtau / n, 0.0)):
                    cases.append((dtau, float(base), 1.0))
        ceiling = scenarios.MAX_SOLVER_STEPS
        for dtau, base, limit in cases:
            k = scenarios._substeps(dtau, base, limit)
            found = self.search_substeps(dtau, base, limit)
            # past the ceiling the count is capped, and refused either way
            assert k == found or min(k, found) > ceiling, (dtau, base, limit)

    def test_long_interval_read_off_in_one_strided_step(self, tmp_path):
        # 990000 Volterra steps in the one output interval: the curve is
        # read on the output grid only, within 1 MB traced where the grid's
        # times alone would be 8 MB, and is the endpoint of the whole run
        out = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            code = main(["time-evolution", "--solver", "volterra", "--tau-steps", "2",
                         "--tau-max", "99", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1e6
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        end = [float(v) for v in lines[2].split(",")]
        assert end[0] == 99.0
        cfg = ScenarioConfig(scenario="time-evolution", solver="volterra", tau_max=99.0,
                             tau_steps=2)
        for r1 in cfg.r1_axis():
            res, coup = resonant_system(cfg.big_r, r1)
            run = scenarios._propagator(cfg, "volterra", res, coup, 99.0 / 990000)
            for s in cfg.s_axis():
                ref = run(InitialState.from_separability(s, cfg.phi))
                assert ref.tau.size == 990001
                got = end[header.index(f"C[r1={r1!r};s={s!r}]")]
                assert got == ref.concurrence()[-1]

    @pytest.mark.parametrize("solver", ["volterra", "ode", "bath"])
    @pytest.mark.parametrize("big_r", [0.5, 10.0])
    def test_curve_is_the_map_read_at_the_output_points(self, solver, big_r):
        # Volterra and the ODE: the every-step map of k steps per output
        # interval, read on every k-th point; the bath, whose step only
        # spaces its output: its map at the output spacing.  Bit for bit
        cfg = ScenarioConfig(scenario="time-evolution", solver=solver, big_r=big_r,
                             r1=(0.87, 0.3), s=(1.0, 0.0, -0.4), phi=0.7)
        table = run_time_evolution(cfg)
        tau = table.data[0]
        dtau = tau[1] - tau[0]
        columns = iter(table.data[1:])
        for r1 in cfg.r1_axis():
            res, coup = resonant_system(big_r, r1)
            if solver == "bath":
                k = 1
                pair_map = bath_propagator(res, coup, SolverConfig(dt=dtau, t_max=cfg.tau_max))
            else:
                k = scenarios._substeps(float(dtau), getattr(cfg, f"dt_{solver}"),
                                        step_limit(res, coup, solver))
                assert k > 1
                pair_map = scenarios._propagator(cfg, solver, res, coup, dtau / k)
            assert pair_map.size == k * (tau.size - 1) + 1
            for s in cfg.s_axis():
                full = pair_map(InitialState.from_separability(s, cfg.phi))
                # the every-step amplitudes at the output points, bit for
                # bit.  numpy forms c1 * conj(c2) as conj(c2) * c1 in place
                # once the temporary reaches 256 KiB, and its complex product
                # does not commute bit for bit, so the concurrence is formed
                # on arrays of the curve's length
                thin = TimeSeries(tau=tau, c1=full.c1[::k].copy(), c2=full.c2[::k].copy())
                assert np.array_equal(next(columns), thin.concurrence())
        assert next(columns, None) is None

    def test_bath_past_recurrence_at_r40_refused(self, capsys):
        # the finer step would run, but the comb widened to +-800 linewidths
        # recurs at 7.85, before the default horizon of 10
        code = main(["time-evolution", "--solver", "bath", "--big-r", "40",
                     "--r1", "0.87", "--s", "0"])
        assert code == 2
        assert "recurrence time 7.85398" in capsys.readouterr().err


class TestZenoCompare:
    def test_measured_columns_and_protection(self):
        cfg = ScenarioConfig(scenario="zeno-compare", big_r=10.0,
                             r1=(SQRT_HALF,), s=(0.0,), tau_max=2.0,
                             tau_steps=201, meas_intervals=(0.01, 0.005))
        result = run_zeno_compare(cfg)
        assert result.columns[:2] == ["tau", "C[unmeasured]"]
        assert len(result.columns) == 4
        last = result.rows[-1]
        # more frequent measurements preserve more entanglement
        assert last[3] > last[2] > last[1]
        assert result.meta["schedules"]["0.01"]["oscillatory"] is False

    def test_interval_on_survival_zero_skipped_but_reported(self):
        om = math.sqrt(399.0)
        tau_zero = (2.0 / om) * (math.pi - math.atan(om))
        cfg = ScenarioConfig(scenario="zeno-compare", big_r=10.0,
                             r1=(SQRT_HALF,), s=(0.0,), tau_max=1.0,
                             tau_steps=11, meas_intervals=(tau_zero, 0.01))
        result = run_zeno_compare(cfg)
        assert len(result.columns) == 3
        assert repr(tau_zero) in result.meta["schedule_errors"]

    def test_tiny_interval_freezes_the_state(self):
        # tau / T passes 2**63, where an integer measurement count would wrap
        cfg = ScenarioConfig(scenario="zeno-compare", big_r=10.0, r1=(0.87,),
                             tau_max=2.0, tau_steps=5, meas_intervals=(1e-3, 1e-30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_zeno_compare(cfg)
            res, coup = resonant_system(10.0, 0.87)
            init = InitialState.from_separability(0.0)
            c1, c2 = stroboscopic_amplitudes(res, coup, init, 1e-30, [0.5, 1.0, 2.0])
        frozen = [row[result.columns.index("C[T=1e-30]")] for row in result.rows]
        np.testing.assert_allclose(frozen, 2.0 * abs(init.c01 * init.c02), rtol=0, atol=1e-12)
        np.testing.assert_allclose(2.0 * np.abs(c1 * np.conj(c2)),
                                   2.0 * abs(init.c01 * init.c02), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("interval", ["1e-320", "5e-324"])
    def test_subnormal_interval_freezes_the_state_without_warning(self, tmp_path, interval):
        # tau / T overflows a double there; numpy warned of it, and the
        # suite turns any warning into an error
        out = tmp_path / "zeno.csv"
        code = main(["zeno-compare", "--big-r", "10", "--r1", "0.87", "--s", "0",
                     "--meas-interval", interval, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"tau,C[unmeasured],C[T={float(interval)!r}]"
        init = InitialState.from_separability(0.0)
        frozen = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(frozen, 2.0 * abs(init.c01 * init.c02), rtol=0, atol=1e-12)


class TestSolverXcheck:
    def test_all_pairs_pass_at_moderate_coupling(self):
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5,
                             r1=(0.87,), s=(0.0,), tau_max=2.0)
        result = run_solver_xcheck(cfg)
        assert result.meta["passed"] is True
        pairs = {(row[2], row[3]) for row in result.rows}
        assert ("closed", "volterra") in pairs
        assert ("closed", "ode") in pairs
        assert ("closed", "bath") in pairs
        assert ("volterra", "ode") in pairs
        for row in result.rows:
            assert row[5] <= row[6]
            assert row[7] == 1

    def test_cli_strong_coupling_r25_passes(self, tmp_path, capsys):
        # the exact comb takes dt_bath = 1e-3 at R = 25, and every row is
        # within its budget (the worst bath row is 4.8e-4 of 1e-3)
        out = tmp_path / "xcheck.csv"
        assert main(["solver-xcheck", "--big-r", "25", "--out", str(out)]) == 0, \
            capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 * 3 * 6
        assert all(row[-1] == "1" for row in rows)
        assert max(float(row[5]) for row in rows if "bath" in row[2:4]) < 1e-3

    def test_bath_can_be_excluded(self):
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5,
                             r1=(0.5,), s=(0.0,), tau_max=1.0, include_bath=False)
        result = run_solver_xcheck(cfg)
        solvers = {row[2] for row in result.rows} | {row[3] for row in result.rows}
        assert "bath" not in solvers
        assert result.meta["passed"] is True

    def test_superposed_bath_rows_match_direct_runs(self):
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5, r1=(0.87,),
                             s=(-1.0, 0.0, 0.3), phi=0.7, tau_max=2.0)
        rows = run_solver_xcheck(cfg).rows
        direct = [row for s in cfg.s
                  for row in run_solver_xcheck(dataclasses.replace(cfg, s=(s,))).rows]
        assert len(rows) == len(direct) == 18
        for row, ref in zip(rows, direct):
            assert row[:5] == ref[:5]
            if "bath" in row[2:4]:
                assert row[5] == pytest.approx(ref[5], abs=1e-12)
            else:
                assert row[5] == ref[5]

    @pytest.mark.parametrize("name, solver", [
        ("volterra_propagator", "volterra"),
        ("aux_ode_propagator", "ode"),
        ("bath_propagator", "bath"),
    ], ids=["volterra", "ode", "bath"])
    def test_propagators_run_once_per_coupling(self, monkeypatch, tmp_path, name, solver):
        # xcheck: one run per solver and distinct (|a|^2, alpha_t), whatever
        # the number of initial states; time-evolution: one per r1
        runs = []
        real = getattr(scenarios, name)

        def counting(res, coup, cfg):
            runs.append(coup.r1)
            return real(res, coup, cfg)

        monkeypatch.setattr(scenarios, name, counting)
        single = ScenarioConfig(scenario="solver-xcheck", big_r=0.5, r1=(0.87,),
                                s=(0.3,), tau_max=0.5)
        run_solver_xcheck(single)
        assert runs == pytest.approx([0.87])
        runs.clear()
        # at R = 0.5, r1 = 0 and 0.87 have one key and r1 = 0.5 one of its own
        keys = [(_bright_weight(res, coup), coup.alpha_t)
                for res, coup in (resonant_system(0.5, r1) for r1 in (0.0, 0.5, 0.87))]
        assert keys[0] == keys[2] != keys[1]
        run_solver_xcheck(dataclasses.replace(single, r1=(0.0, 0.5, 0.87), s=(0.0, 0.3)))
        assert runs == pytest.approx([0.0, 0.5])
        runs.clear()
        code = main(["time-evolution", "--solver", solver, "--big-r", "0.5",
                     "--r1", "0.0,0.87", "--s", "0,0.3", "--tau-max", "0.5",
                     "--tau-steps", "11", "--out", str(tmp_path / "evo.csv")])
        assert code == 0
        assert runs == pytest.approx([0.0, 0.87])

    def test_bright_weight_once_per_propagator_and_coupling(self, monkeypatch):
        # |a|^2 is formed once by each propagator call, and once by xcheck
        # for each r1's key, which its solvers' peaks then take as given
        calls = {"solvers": 0, "scenarios": 0}

        def counting(module):
            def weight(res, coup):
                calls[module.__name__.split(".")[-1]] += 1
                return _bright_weight(res, coup)
            monkeypatch.setattr(module, "_bright_weight", weight)

        counting(solvers)
        counting(scenarios)
        res, coup = resonant_system(0.5, 0.87)
        cfg = solvers.SolverConfig(dt=1e-2, t_max=0.5, n_modes=50)
        for propagator in (solvers.volterra_propagator, solvers.aux_ode_propagator,
                           solvers.bath_propagator):
            propagator(res, coup, cfg)
        assert calls == {"solvers": 3, "scenarios": 0}
        # at R = 0.5, r1 = 0 and 0.87 share a key: three r1, two keys, and
        # three solvers run per key
        run_solver_xcheck(ScenarioConfig(scenario="solver-xcheck", big_r=0.5,
                                         r1=(0.0, 0.5, 0.87), s=(0.0, 0.3), tau_max=0.5))
        assert calls == {"solvers": 3 + 2 * 3, "scenarios": 3}

    @pytest.mark.parametrize("case, n_keys, n_blocks", [
        (dict(big_r=0.5, r1=(0.0, 0.5, 0.87), s=(-1.0, 0.0, 0.3), tau_max=0.5), 2, 6),
        (dict(big_r=10.0, r1=(0.6,), tau_max=3.7, dt_bath=2e-3), 1, 7),
        (dict(big_r=7.0, tau_max=2.0), 2, 10),
    ], ids=["two-keys", "blocks", "seven"])
    def test_closed_form_once_per_key_on_each_home_grid(self, monkeypatch, case, n_keys,
                                                        n_blocks):
        # each closed pair evaluates E(t) once per distinct (|a|^2, alpha_t),
        # in pair order, at every point of its numeric side's grid, in blocks
        # of whole tail rows of that map (the last block may be short): at
        # R = 0.5 r1 = 0.5 has a key of its own, at R = 7 r1 = 1/sqrt(2), and
        # Volterra's grid takes five blocks to tau = 3.7 and three to tau = 2
        calls = []
        real = scenarios.survival_amplitude

        def counting(res, coup, t):
            calls.append(((_bright_weight(res, coup), coup.alpha_t), np.array(t)))
            return real(res, coup, t)

        monkeypatch.setattr(scenarios, "survival_amplitude", counting)
        cfg = ScenarioConfig(scenario="solver-xcheck", **case)
        assert run_solver_xcheck(cfg).meta["passed"] is True
        keys = dict.fromkeys((_bright_weight(res, coup), coup.alpha_t)
                             for res, coup in (resonant_system(cfg.big_r, r1)
                                               for r1 in cfg.r1_axis()))
        blocks = iter(calls)
        for key in keys:
            for name in SOLVER_NAMES:
                dt = getattr(cfg, f"dt_{name}")
                size = round(cfg.tau_max / dt) + 1
                times = []
                while sum(t.size for t in times) < size:
                    got, t = next(blocks)
                    assert got == key
                    assert t.size <= scenarios._XCHECK_BLOCK
                    times.append(t)
                assert all(t.size % math.isqrt(size) == 0 for t in times[:-1])
                assert np.array_equal(np.concatenate(times),
                                      SolverConfig(dt=dt, t_max=cfg.tau_max).dt * np.arange(size))
        assert next(blocks, None) is None
        assert (len(keys), len(calls)) == (n_keys, n_blocks)

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("big_r", [0.1, 0.5, 10.0])
    def test_rows_match_per_state_reference(self, big_r, phi):
        # each row formed from the series of its state: the map called on
        # the state, the closed form on the solver grid, and the largest
        # amplitude gap over the shared points
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=big_r, phi=phi)
        for include_bath in (True, False):
            table = run_solver_xcheck(dataclasses.replace(cfg, include_bath=include_bath))
            names = ["volterra", "ode"] + (["bath"] if include_bath else [])
            pairs = [("closed", b) for b in names]
            pairs += [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
            rows = iter(table.rows)
            for r1 in cfg.r1_axis():
                res, coup = resonant_system(big_r, r1)
                maps = {name: scenarios._propagator(cfg, name, res, coup,
                                                    getattr(cfg, f"dt_{name}"))
                        for name in names}
                for s in cfg.s_axis():
                    init = InitialState.from_separability(s, phi)
                    series = {name: m(init) for name, m in maps.items()}
                    for a, b in pairs:
                        sb = series[b]
                        if a == "closed":
                            sa = closed_form_series(res, coup, init, sb.tau)
                            ia = ib = slice(None)
                            tol = scenarios.XCHECK_TOLERANCES[b]
                        else:
                            sa = series[a]
                            ia, ib = shared_points(maps[a], maps[b])
                            tol = (scenarios.XCHECK_TOLERANCES[a]
                                   + scenarios.XCHECK_TOLERANCES[b])
                        err = max(float(np.max(np.abs(sa.c1[ia] - sb.c1[ib]))),
                                  float(np.max(np.abs(sa.c2[ia] - sb.c2[ib]))))
                        row = next(rows)
                        assert row[:4] == [r1, s, a, b]
                        assert row[4] == sb.tau[ib].size
                        assert row[6] == tol
                        assert row[7] == int(err <= tol)
                        assert row[5] == pytest.approx(err, rel=0, abs=1e-15)
            assert next(rows, None) is None

    @staticmethod
    def assert_rows_match(got, want):
        """Every column equal, and each ``max_abs_err`` within 1e-14: the
        table forms each row as ``max(|r1|, |r2|) |r.x| max_t |Delta|``,
        in another order than the whole maps' ``|gap x|``."""
        assert [row[:5] + row[6:] for row in got] == [row[:5] + row[6:] for row in want]
        np.testing.assert_allclose([row[5] for row in got], [row[5] for row in want],
                                   rtol=0, atol=1e-14)

    @staticmethod
    def whole_map_rows(cfg):
        """The rows formed on whole maps, one r1 at a time: ``E - 1`` on each
        solver grid, the gap ``np.multiply.outer(-r r^T, E - 1) + P`` or the
        difference of two maps on their shared points, and each state's
        largest ``|gap x|`` row by row, with the real part alone for a real
        state and ``hypot`` with the imaginary part for a complex one."""

        def max_pair_gap(gap, init):
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

        names = ["volterra", "ode"] + (["bath"] if cfg.include_bath else [])
        pairs = [("closed", b) for b in names]
        pairs += [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        states = [InitialState.from_separability(s, cfg.phi) for s in cfg.s_axis()]
        rows = []
        for r1 in cfg.r1_axis():
            res, coup = resonant_system(cfg.big_r, r1)
            maps = {name: scenarios._propagator(cfg, name, res, coup, getattr(cfg, f"dt_{name}"))
                    for name in names}
            # each whole map P = a a^T sigma, shape (2, 2, size)
            p = {name: np.multiply.outer(np.outer(m.drive, m.drive), m.rows(0, m.size))
                 for name, m in maps.items()}
            rr = np.outer([coup.r1, coup.r2], [coup.r1, coup.r2])
            cells = []
            for a, b in pairs:
                mb = maps[b]
                if a == "closed":
                    tau = mb.times(0, mb.size)
                    gap = np.multiply.outer(-rr, scenarios.survival_amplitude(res, coup, tau)
                                            - 1.0)
                    gap += p[b]
                    npts, tol = tau.size, scenarios.XCHECK_TOLERANCES[b]
                else:
                    ia, ib = shared_points(maps[a], mb)
                    gap = p[a][:, :, ia] - p[b][:, :, ib]
                    npts = gap.shape[2]
                    tol = scenarios.XCHECK_TOLERANCES[a] + scenarios.XCHECK_TOLERANCES[b]
                cells.append((a, b, npts, [max_pair_gap(gap, x) for x in states], tol))
            for i, s in enumerate(cfg.s_axis()):
                for a, b, npts, errs, tol in cells:
                    rows.append([r1, s, a, b, npts, errs[i], tol, int(errs[i] <= tol)])
        return rows

    @pytest.mark.parametrize("case", list(WALK_CASES.values()), ids=list(WALK_CASES))
    def test_rows_match_whole_maps_bit_for_bit(self, case):
        # the rows of the whole maps, each state's |gap x| folded point by
        # point, held to 1e-14 (they matched bit for bit while the table
        # folded the same 2x2 maps)
        cfg = ScenarioConfig(scenario="solver-xcheck", **case)
        self.assert_rows_match(run_solver_xcheck(cfg).rows, self.whole_map_rows(cfg))

    @pytest.mark.parametrize("solver", ["volterra", "ode"])
    def test_every_shared_point_is_compared(self, monkeypatch, solver):
        # one series flat at 0 but for a spike at one shared point, at either
        # end of a block of the ODE walk, where the pair is formed (30001
        # points in blocks of 8131): the row reads the spike wherever it is
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=10.0, r1=(0.6,), s=(0.0,),
                             tau_max=30.0, include_bath=False)
        real = scenarios._propagator
        spike = []

        def flat(cfg, name, res, coup, dt):
            pair_map = real(cfg, name, res, coup, dt)
            sigma = np.zeros(pair_map.size)
            if name == solver:
                sigma[spike[0] * (10 if name == "volterra" else 1)] = 1.0
            return dataclasses.replace(pair_map, sigma=sigma, factors=None)

        monkeypatch.setattr(scenarios, "_propagator", flat)
        res, coup = resonant_system(10.0, 0.6)
        init = InitialState.from_separability(0.0)
        want = (max(coup.r1, coup.r2) * abs(coup.r1 * init.c01 + coup.r2 * init.c02)
                * _bright_weight(res, coup))
        for point in (0, 1, 16261, 16262, 29999, 30000):
            spike[:] = [point]
            row = next(row for row in run_solver_xcheck(cfg).rows
                       if row[2:4] == ["volterra", "ode"])
            assert row[4] == 30001
            assert row[5] == want, point

    @pytest.mark.parametrize("r1, tau_max, include_bath, bound_mb", [
        ((0.6,), 10.0, True, 5.5), ((0.6,), 100.0, False, 4.0), ((), 10.0, True, 6.5)],
        ids=["10.0-True-5.5", "100.0-False-4.0", "five-r1"])
    def test_traced_peak_does_not_grow_with_the_steps(self, r1, tau_max, include_bath,
                                                      bound_mb):
        # at R = 10 the walks hold blocks of each grid, not any whole map or
        # grid of times; what is left is the maps' powers and the bath's
        # sums: at 10**6 Volterra steps a grid held whole would be 8 MB
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=10.0, r1=r1,
                             tau_max=tau_max, include_bath=include_bath)
        run_solver_xcheck(cfg)
        tracemalloc.start()
        try:
            run_solver_xcheck(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

    def test_nan_in_a_series_fails_its_rows(self, monkeypatch, capsys):
        # one NaN in the ODE's series: every row that reads the ODE is NaN and
        # fails, the others pass, and the command line exits 3 naming them
        real = scenarios._propagator

        def poisoned(cfg, name, res, coup, dt):
            pair_map = real(cfg, name, res, coup, dt)
            if name != "ode":
                return pair_map
            sigma = pair_map.rows(0, pair_map.size)
            sigma[1234] = np.nan
            return dataclasses.replace(pair_map, sigma=sigma, factors=None)

        monkeypatch.setattr(scenarios, "_propagator", poisoned)
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=10.0, r1=(0.6,), s=(0.0, 1.0))
        result = run_solver_xcheck(cfg)
        assert result.meta["passed"] is False
        for row in result.rows:
            if "ode" in row[2:4]:
                assert math.isnan(row[5]) and row[7] == 0, row
            else:
                assert math.isfinite(row[5]) and row[7] == 1, row
        assert main(["solver-xcheck", "--big-r", "10", "--r1", "0.6", "--s", "0,1"]) == 3
        err = capsys.readouterr().err
        assert "closed vs ode at r1 = 0.6, s = 0.0: max_abs_err nan exceeds tolerance" in err
        assert "6 solver cross-check row(s) exceeded tolerance" in err

    def test_incommensurate_steps_rejected(self):
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5,
                             r1=(0.5,), s=(0.0,), tau_max=1.0,
                             dt_volterra=2e-4, dt_ode=5e-4, include_bath=False)
        with pytest.raises(ValueError, match="commensurate"):
            run_solver_xcheck(cfg)

    def test_grids_ending_apart_compare_shared_points(self, tmp_path):
        # 10 / 7e-4 rounds up, so the ODE grid ends at 10.0002 while the
        # Volterra grid (dt = 1e-4) ends at 10.0: every seventh Volterra
        # point meets the first 14286 ODE points
        cfg, out = tmp_path / "c.json", tmp_path / "x.json"
        cfg.write_text(json.dumps({"dt_ode": 7e-4, "include_bath": False,
                                   "r1": [0.87], "s": [0.0]}))
        assert main(["solver-xcheck", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
        row = next(r for r in json.loads(out.read_text())["rows"]
                   if r[2:4] == ["volterra", "ode"])
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(0.0)
        mv = volterra_propagator(res, coup, SolverConfig(dt=1e-4, t_max=10.0))
        mo = aux_ode_propagator(res, coup, SolverConfig(dt=7e-4, t_max=10.0))
        assert mo.size == 14287
        n = 14286
        # the table reads the gap off the two series on the shared points:
        # max(r1, r2) |r.x| |a|^2 max |sigma_v - sigma_o| for the real pair x
        # of the state, bit for bit
        x1, x2 = init.c01.real, init.c02.real
        assert init.c01.imag == init.c02.imag == 0.0
        delta = np.abs(mo.rows(0, n) - mv.rows(0, 7 * (n - 1) + 1, 7))
        peak = _bright_weight(res, coup) * delta.max()
        assert row[4] == n
        assert row[5] == max(coup.r1, coup.r2) * abs(coup.r1 * x1 + coup.r2 * x2) * peak
        # and it is |D x| of the two maps, up to rounding
        aa = np.outer(mv.drive, mv.drive)
        d = np.multiply.outer(aa, mv.rows(0, mv.size))[..., ::7][..., :n]
        d -= np.multiply.outer(aa, mo.rows(0, n))
        gap = max(float(np.max(np.abs(d[i, 0] * x1 + d[i, 1] * x2))) for i in range(2))
        assert row[5] == pytest.approx(gap, rel=0, abs=1e-15)
        # and it is the gap of the two series, up to their rounding
        sv, so = mv(init), mo(init)
        series_gap = max(float(np.max(np.abs(sv.c1[::7][:n] - so.c1[:n]))),
                         float(np.max(np.abs(sv.c2[::7][:n] - so.c2[:n]))))
        assert row[5] == pytest.approx(series_gap, rel=0, abs=1e-15)


class TestFindOptimum:
    def test_stationary_matches_analytic_argmax(self):
        cfg = ScenarioConfig(scenario="stationary-surface", s=(1.0,))
        opt = find_optimum("stationary", cfg)
        assert opt.params["r1"] == pytest.approx(math.sqrt(3.0) / 2.0, rel=0, abs=1e-12)
        assert opt.value == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("s, phi, r1, value", [
        (-1.0, 0.0, 0.5, 3.0 * math.sqrt(3.0) / 8.0),
        # two equal maxima, at sin 15° and sin 75°: the smaller r1 wins
        (0.0, 0.0, math.sin(math.radians(15.0)), 0.125),
        (0.0, math.pi, SQRT_HALF, 1.0),
    ], ids=["s=-1", "tie", "phi=pi"])
    def test_stationary_optimum_analytic_cases(self, s, phi, r1, value):
        cfg = ScenarioConfig(scenario="stationary-surface", s=(s,), phi=phi)
        opt = find_optimum("stationary", cfg)
        assert opt.params["r1"] == pytest.approx(r1, rel=0, abs=1e-12)
        assert opt.value == pytest.approx(value, rel=0, abs=1e-12)

    def test_transient_optimum_strong_coupling(self):
        cfg = ScenarioConfig(scenario="time-evolution", big_r=10.0, s=(1.0,),
                             tau_max=1.0)
        opt = find_optimum("transient", cfg)
        assert opt.value == pytest.approx(0.9565, abs=2e-3)
        assert opt.params["r1"] == pytest.approx(0.9186, abs=5e-3)
        assert opt.params["tau"] == pytest.approx(0.3145, abs=3e-3)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            find_optimum("fastest", ScenarioConfig(scenario="time-evolution"))


def _optimum_draws(seed: int, size: int):
    """Seeded (big_r, s, phi) draws: big_r log-uniform on [0.05, 20], plus
    the critically damped boundary big_r = 0.5."""
    rng = np.random.default_rng(seed)
    draws = [(0.5, round(float(rng.uniform(-1.0, 1.0)), 4), float(rng.uniform(0.0, 2 * math.pi)))]
    for _ in range(size - 1):
        draws.append((float(np.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
                      round(float(rng.uniform(-1.0, 1.0)), 4),
                      float(rng.uniform(0.0, 2 * math.pi))))
    return draws


def _transient_loop_max(big_r: float, init: InitialState, tau: np.ndarray) -> float:
    """Oracle: the coarse (r1, tau) grid maximum, one amplitude row per r1."""
    best = -1.0
    for r1 in np.linspace(0.0, 1.0, 201):
        res, coup = resonant_system(big_r, float(r1))
        series = closed_form_series(res, coup, init, tau)
        best = max(best, float(np.max(2.0 * np.abs(series.c1 * np.conj(series.c2)))))
    return best


def _golden_section_max(f, a, b, tol, inv_phi):
    """The larger ``f`` at the two inner points of a golden-section search
    for the maximum of a unimodal ``f`` on ``[a, b]``, once the bracket is
    ``tol`` wide; in floats or in mpmath numbers, ``inv_phi`` in the same."""
    u, v = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fu, fv = f(u), f(v)
    while b - a > tol:
        if fu > fv:
            b, v, fv = v, u, fu
            u = b - inv_phi * (b - a)
            fu = f(u)
        else:
            a, u, fu = u, v, fv
            v = a + inv_phi * (b - a)
            fv = f(v)
    return max(fu, fv)


class TestOptimumGrids:
    def test_stationary_grid_equals_scalar_calls(self):
        xs = np.linspace(0.0, 1.0, 201)
        for _, s, phi in _optimum_draws(41, 12):
            init = InitialState.from_separability(s, phi)
            scalar = [stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)
                      for r1 in xs]
            assert scenarios._stationary_grid(xs.tolist(), [init])[:, 0].tolist() == scalar

    @staticmethod
    def grid_search_stationary(init):
        """The 201-point grid and golden-section refinement, to a bracket of
        1e-4 in r1 around the grid's best point, that found the stationary
        optimum before the closed form."""
        xs = np.linspace(0.0, 1.0, 201)

        def f(r1):
            return stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)

        values = scenarios._stationary_grid(xs.tolist(), [init])[:, 0]
        i = int(np.argmax(values))
        refined = _golden_section_max(f, float(xs[max(i - 1, 0)]),
                                      float(xs[min(i + 1, xs.size - 1)]), 1e-4,
                                      (math.sqrt(5.0) - 1.0) / 2.0)
        return max(float(values[i]), refined)

    @staticmethod
    def mp_stationary_max(s, phi):
        """Maximum of ``2 r1 r2 |r2 c01 - r1 c02|**2`` in 30 digits: each
        local maximum of a 201-point grid in ``x = 2 asin(r1)`` (in floats),
        refined by golden sections to a bracket of 1e-9 in x."""
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(30):
            c01 = mp.sqrt((1 - mp.mpf(s)) / 2)
            c02 = mp.sqrt((1 + mp.mpf(s)) / 2) * mp.expj(mp.mpf(phi))

            def c(x):
                r1, r2 = mp.sin(x / 2), mp.cos(x / 2)
                return 2 * r1 * r2 * abs(r2 * c01 - r1 * c02) ** 2

            xs = np.linspace(0.0, math.pi, 201)
            r1, r2 = np.sin(xs / 2), np.cos(xs / 2)
            init = InitialState.from_separability(s, phi)
            vs = 2 * r1 * r2 * np.abs(r2 * init.c01 - r1 * init.c02) ** 2
            inv_phi = (mp.sqrt(5) - 1) / 2
            best = mp.mpf(0)
            for k in range(1, 200):
                if vs[k] >= vs[k - 1] and vs[k] >= vs[k + 1]:
                    best = max(best, _golden_section_max(c, mp.mpf(xs[k - 1]),
                                                         mp.mpf(xs[k + 1]), 1e-9, inv_phi))
            return float(best)

    def test_stationary_optimum_against_grid_search_and_mpmath(self):
        rng = np.random.default_rng(47)
        draws = [(s, phi) for seed in range(41, 47) for _, s, phi in _optimum_draws(seed, 12)]
        draws += [(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2 * math.pi)))
                  for _ in range(300)]
        for s, phi in draws:
            cfg = ScenarioConfig(scenario="time-evolution", s=(s,), phi=phi)
            opt = find_optimum("stationary", cfg)
            init = InitialState.from_separability(s, phi)
            assert opt.value >= self.grid_search_stationary(init), (s, phi)
            assert abs(opt.value - self.mp_stationary_max(s, phi)) <= 1e-12, (s, phi)
            r1 = opt.params["r1"]
            assert opt.value == stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)

    @pytest.mark.parametrize("seed, size, tau_steps", [
        (43, 10, 2001),
        # longer than one block of the coarse-grid product
        (44, 2, 2 * scenarios._TAU_BLOCK + 1),
    ])
    def test_transient_optimum_against_per_row_loop(self, seed, size, tau_steps):
        tau = np.linspace(0.0, 10.0, tau_steps)
        for big_r, s, phi in _optimum_draws(seed, size):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi,
                                 tau_steps=tau_steps)
            init = InitialState.from_separability(s, phi)
            opt = find_optimum("transient", cfg)
            assert opt.value >= _transient_loop_max(big_r, init, tau) - 1e-12
            res, coup = resonant_system(big_r, opt.params["r1"])
            at = concurrence_closed(amplitudes_at(res, coup, init, opt.params["tau"]))
            assert abs(opt.value - at) <= 1e-12
            assert 0.0 <= opt.params["r1"] <= 1.0 and 0.0 <= opt.params["tau"] <= 10.0

    @staticmethod
    def spy_refine(monkeypatch):
        """Record each refinement's arguments and result, and every grid
        its objective is evaluated on, as ``(xs, ys, values)``."""
        calls = []

        def spy(f, *args):
            grids = []

            def objective(xs, ys):
                values = f(xs, ys)
                grids.append((xs, ys, values))
                return values

            out = search.refine_max(objective, *args)
            calls.append((args, grids, out))
            return out

        monkeypatch.setattr(scenarios, "refine_max", spy)
        return calls

    def test_transient_refine_equals_amplitudes_at_objective(self, monkeypatch):
        # oracle: a fresh system, amplitudes_at and concurrence_closed per point
        calls = self.spy_refine(monkeypatch)
        for big_r, s, phi in _optimum_draws(45, 12):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi)
            init = InitialState.from_separability(s, phi)
            calls.clear()
            opt = find_optimum("transient", cfg)
            (_, grids, out), = calls
            assert len(grids) == 4
            for xs, ys, values in grids:
                assert values.shape == (21, 21)
                for r1, row in zip(xs.tolist(), values):
                    res, coup = resonant_system(big_r, r1)
                    want = [(concurrence_closed(amplitudes_at(res, coup, init, t)) / 2.0) ** 2
                            for t in ys.tolist()]
                    assert np.max(np.abs(row - want)) <= 1e-12, (big_r, s, phi, r1)
            # the result is the refined point, with the value of amplitudes_at there
            assert (opt.params["r1"], opt.params["tau"]) == out
            res, coup = resonant_system(big_r, opt.params["r1"])
            assert opt.value == concurrence_closed(
                amplitudes_at(res, coup, init, opt.params["tau"]))

    def test_transient_refine_never_below_coarse_winner(self, monkeypatch):
        # the refinement starts at the coarse winner and keeps it unless a
        # point beats it, so the value is at least the winner's
        calls = self.spy_refine(monkeypatch)
        for big_r, s, phi in _optimum_draws(48, 40):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi)
            init = InitialState.from_separability(s, phi)
            calls.clear()
            opt = find_optimum("transient", cfg)
            (args, _, _), = calls
            r1, tau = float(args[0]), float(args[1])
            assert opt.value >= concurrence_closed(
                amplitudes_at(*resonant_system(big_r, r1), init, tau)), (big_r, s, phi)

    @pytest.mark.parametrize("cfg, at", [
        # every r1 starts at C = 1, the grid maximum, and ties at tau = 0
        (dict(big_r=0.1, s=(0.0,), phi=0.0), dict(r1=0.0, tau=0.0)),
        # a product state builds entanglement all the way to a short horizon
        (dict(big_r=1.0, s=(1.0,), phi=0.0, tau_max=0.05), dict(tau=0.05)),
    ], ids=["r1=0-tau=0", "tau=tau_max"])
    def test_transient_refine_window_clipped_at_bounds(self, monkeypatch, cfg, at):
        calls = self.spy_refine(monkeypatch)
        cfg = ScenarioConfig(scenario="time-evolution", **cfg)
        opt = find_optimum("transient", cfg)
        (_, grids, _), = calls
        for xs, ys, _ in grids:
            assert 0.0 <= xs.min() and xs.max() <= 1.0
            assert 0.0 <= ys.min() and ys.max() <= cfg.tau_max
        assert {k: opt.params[k] for k in at} == at

    @pytest.mark.parametrize("start, peak, want", [
        ((0.0, 0.5), (-1.0, 0.5), (0.0, 0.5)),
        ((0.95, 0.5), (2.0, 0.5), (1.0, 0.5)),
        ((0.5, 0.05), (0.5, -1.0), (0.5, 0.0)),
        ((0.5, 1.95), (0.5, 5.0), (0.5, 2.0)),
    ], ids=["r1=0", "r1=1", "tau=0", "tau=tau_max"])
    def test_refine_max_clips_its_window(self, start, peak, want):
        # a peak outside the box is found on its edge, and no point of any
        # grid leaves the box
        grids = []

        def f(xs, ys):
            grids.append((xs, ys))
            return -((xs - peak[0]) ** 2)[:, None] - ((ys - peak[1]) ** 2)[None, :]

        assert search.refine_max(f, *start, 0.1, 0.1, (0.0, 1.0), (0.0, 2.0)) == want
        for xs, ys in grids:
            assert xs.min() >= 0.0 and xs.max() <= 1.0
            assert ys.min() >= 0.0 and ys.max() <= 2.0

    @pytest.mark.parametrize("objective", ["stationary", "transient"])
    def test_optimum_params_are_python_floats(self, objective):
        for big_r, s, phi in _optimum_draws(46, 12):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi)
            opt = find_optimum(objective, cfg)
            assert type(opt.value) is float
            assert all(type(v) is float for v in opt.params.values()), opt.params

    def test_transient_tie_goes_to_smallest_r1(self):
        # s = 0, phi = 0 starts at C = 1 for every r1, the grid maximum:
        # every row ties at tau = 0
        cfg = ScenarioConfig(scenario="time-evolution", big_r=0.1, s=(0.0,), phi=0.0)
        opt = find_optimum("transient", cfg)
        assert opt.params["r1"] == 0.0 and opt.params["tau"] == 0.0


def _format_cell(v) -> str:
    """Cell-by-cell CSV formatting, the renderer the row templates replaced."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _oracle_csv(result):
    rows = [list(vals) for vals in zip(*result.data)]
    lines = [",".join(result.columns)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    """Every numpy value of ``obj`` as its Python one, walked by hand: the
    normaliser that json's ``default`` hook replaced."""
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


def _oracle_json(result):
    rows = [list(vals) for vals in zip(*result.data)]
    payload = {
        "config": _json_safe(dataclasses.asdict(result.config)),
        "columns": list(result.columns),
        "rows": _json_safe(rows),
        "meta": _json_safe(result.meta),
    }
    return json.dumps(payload, indent=1) + "\n"


def _numpy_typed_result():
    """A table whose config and meta hold numpy scalars and an array, beside
    a NaN and an infinity."""
    cfg = ScenarioConfig(scenario="solver-xcheck", big_r=np.float64(0.5), phi=np.float32(0.1),
                         tau_max=np.float64(2.0), tau_steps=np.int64(3), n_modes=np.int64(50),
                         freq_window=np.float32(20.0), include_bath=np.bool_(False),
                         r1=(np.float64(0.87),), s=(np.float32(-0.5),))
    meta = {"nan": math.nan, "inf": -np.inf, "grid": np.arange(3.0) / 3.0,
            "count": np.int64(7), "flag": np.bool_(True), "pair": (np.float32(0.25), 1)}
    return ScenarioResult(columns=["x", "n"], data=[np.array([0.5, math.nan]), np.arange(2)],
                          meta=meta, config=cfg)


def _repeating_columns():
    """Float columns of 24 cells whose values repeat, so that each renders
    from its distinct values: surface-style axes, signed zeros, NaN of both
    signs, infinities, subnormals, and a column at exactly half its cells
    distinct beside one with a distinct value more."""
    neg_nan = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
    half = np.repeat(np.arange(12) / 7.0, 2)
    return {
        "r1": np.repeat([0.0, 0.25, 1.0 / 3.0, 1.0], 6),
        "s": np.tile([-1.0, -0.0, 0.1, 0.2, 0.30000000000000004, 1.0], 4),
        "zeros": np.tile([0.0, -0.0], 12),
        "odd": np.tile([math.nan, math.inf, -math.inf, neg_nan, 1e308], 5)[:24],
        "tiny": np.tile([5e-324, 2.2250738585072e-308, 1e-310, -5e-324], 6),
        "const": np.full(24, 0.1),
        "half": half,
        "past_half": np.r_[half[:-1], 99.5],
    }


class TestSerialization:
    def test_templates_match_cellwise_oracles(self):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308,
                   1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]
        n = len(special)
        cfg = ScenarioConfig(scenario="solver-xcheck", r1=(0.5,), s=(-1.0,))
        meta = {"phi": 0.7, "passed": True, "tolerances": {"ode": 1e-6}}
        result = ScenarioResult(
            columns=["x", "n", "name", "y"],
            data=[np.array(special), np.arange(-3, n - 3) * 10 ** 12,
                  ["closed", "bath", 'quo"te', "caf\u00e9", "a\\b", "", "ode",
                   "volterra", "x y", "1e5", "NaN", "tab\t"],
                  np.array(special[::-1])],
            meta=meta, config=cfg)
        assert render_csv(result) == _oracle_csv(result)
        assert render_json(result) == _oracle_json(result)
        assert json.loads(render_json(result))["rows"][5][2] == ""
        # float columns that repeat format each distinct value once; the
        # bytes are still those of the cell-by-cell oracles
        floats = _repeating_columns()
        distinct = {k: len(set(v.view(np.int64).tolist())) for k, v in floats.items()}
        assert distinct["half"] == 12 and distinct["past_half"] == 13
        assert distinct["zeros"] == 2 and distinct["odd"] == 5
        result = ScenarioResult(
            columns=list(floats) + ["n", "name"],
            data=list(floats.values()) + [np.arange(24) % 3, ["bath", "ode"] * 12],
            meta=meta, config=cfg)
        assert render_csv(result) == _oracle_csv(result)
        assert render_json(result) == _oracle_json(result)
        # every float column but the last takes the repeated-value path
        taken = {k: scenarios._repeated_cells(v, repr) is not None for k, v in floats.items()}
        assert taken == {k: k != "past_half" for k in floats}

    def test_numpy_values_render_as_python_ones(self):
        # the bytes that the hand-walked normaliser wrote, and the oracle's
        result = _numpy_typed_result()
        text = render_json(result)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "906bd59425770d0a881ac0c9ae7ec12c5e1bdf382a0c4d02637bf0d693f80eee")
        assert text == _oracle_json(result)
        payload = json.loads(text)
        assert payload["config"]["phi"] == float(np.float32(0.1))
        assert payload["config"]["include_bath"] is False and payload["meta"]["count"] == 7
        assert payload["meta"]["grid"] == [0.0, 1.0 / 3.0, 2.0 / 3.0]

    @pytest.mark.parametrize("odd", [object(), np.complex128(1j), {1j: 0.0}],
                             ids=["object", "numpy-complex", "complex-key"])
    def test_value_json_cannot_encode_is_refused(self, odd):
        result = _numpy_typed_result()
        result.meta["odd"] = odd
        with pytest.raises(TypeError):
            render_json(result)

    def tiny_result(self):
        cfg = ScenarioConfig(scenario="stationary-surface", r1=(0.5,), s=(1.0,))
        return run_stationary_surface(cfg)

    def test_csv_cells_round_trip_exactly(self):
        text = render_csv(self.tiny_result())
        lines = text.strip().split("\n")
        assert lines[0] == "r1,s,c_s,is_argmax"
        value = float(lines[1].split(",")[2])
        expected = 2.0 * 0.5 ** 3 * math.sqrt(0.75)
        assert value == expected

    def test_json_payload_parses_and_carries_config(self):
        payload = json.loads(render_json(self.tiny_result()))
        assert payload["config"]["scenario"] == "stationary-surface"
        assert payload["columns"][2] == "c_s"
        assert payload["meta"]["argmax"]["r1"] == 0.5

    def test_atomic_write_and_failure_cleanup(self, tmp_path):
        result = self.tiny_result()
        out = tmp_path / "table.csv"
        write_result(result, str(out), "csv")
        assert out.read_text().startswith("r1,s,c_s")
        # writing onto a directory fails and must leave no temp debris
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(OSError):
            write_result(result, str(target), "csv")
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_result(self.tiny_result(), None, "yaml")


    def test_interval_whose_phase_overflows_decays_at_lam(self, tmp_path):
        # E(T) was NaN at T = 1e308 and the schedule wrote a Zeno rate of 0
        out = tmp_path / "zeno.json"
        code = main(["zeno-compare", "--big-r", "10", "--meas-interval", "1e308",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "NaN" not in text
        schedule = json.loads(text)["meta"]["schedules"]["1e+308"]
        assert schedule["zeno_rate"] == 1.0 and schedule["interval_survival"] == 0.0

class TestCliMain:
    def test_success_writes_csv_to_stdout(self, capsys):
        code = main(["stationary-surface", "--r1", "0.5,1", "--s", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("r1,s,c_s,is_argmax")
        assert len(out.strip().split("\n")) == 4

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"big_r": 10.0, "r1": [0.5], "s": [0.0],
                                   "tau_max": 0.2, "tau_steps": 3}))
        main(["time-evolution", "--config", str(cfg)])
        base = capsys.readouterr().out
        assert "C[r1=0.5;s=0.0]" in base
        main(["time-evolution", "--config", str(cfg), "--r1", "1.0"])
        overridden = capsys.readouterr().out
        assert "C[r1=1.0;s=0.0]" in overridden

    @pytest.mark.parametrize("argv", [
        # 4 rabi**2 overflows: E(t) came out NaN with exit 0 at 1e154, and an
        # OverflowError traceback (exit 1) from about 1.34e154
        ["time-evolution", "--big-r", "1e154", "--r1", "0.5", "--s", "0"],
        ["time-evolution", "--big-r", "1.3e154", "--r1", "0.5", "--s", "0"],
        ["time-evolution", "--big-r", "1e200", "--r1", "0.5", "--s", "0"],
        ["zeno-compare", "--big-r", "1e154"],
        ["zeno-compare", "--big-r", "1e200"],
    ], ids=["evolution-1e154", "evolution-1.3e154", "evolution-1e200",
            "zeno-1e154", "zeno-1e200"])
    def test_coupling_too_strong_exits_2(self, capsys, argv):
        assert main(argv + ["--tau-steps", "3"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "big_r" in err and "rabi" in err

    @pytest.mark.parametrize("big_r", ["1e160", "1e12"])
    def test_numeric_curve_past_step_ceiling_exits_2(self, capsys, big_r):
        # refining the step to the coupling once spun forever at 1e160 (the
        # step count passed 2**53) and asked numpy for 146 TiB at 1e12 (exit 1)
        assert main(["time-evolution", "--solver", "ode", "--big-r", big_r, "--r1", "0.5",
                     "--s", "0", "--tau-steps", "3"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"big_r = {float(big_r)!r}" in err
        assert f"more than the {scenarios.MAX_SOLVER_STEPS} " in err

    @pytest.mark.parametrize("argv, message", [
        (["--solver", "volterra", "--tau-steps", "2", "--tau-max", "101"],
         "the volterra solver needs 1.01e+06 steps at big_r = 0.1 over tau_max = 101.0"),
        (["--solver", "ode", "--big-r", "1e12"],
         "the ode solver needs 2e+13 steps at big_r = 1000000000000.0 over tau_max = 10.0"),
        (["--solver", "ode", "--big-r", "1e150", "--tau-max", "1e300", "--tau-steps", "2"],
         "the ode solver needs inf steps at big_r = 1e+150 over tau_max = 1e+300"),
    ], ids=["volterra-long-interval", "ode-strong-coupling", "count-past-any-float"])
    def test_step_ceiling_message_gives_uncapped_count(self, capsys, argv, message):
        # the refusal printed the substep count capped just past the
        # ceiling: 1e+06 for all three; a count that overflows a double is
        # refused with no numpy division warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["time-evolution"] + argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}, more than the 1000000 a solver run" in err

    @pytest.mark.parametrize("tau_max, steps", [(1e7, "1e+11"), (2000, "2e+07")])
    def test_xcheck_past_step_ceiling_exits_2(self, tmp_path, capsys, tau_max, steps):
        # xcheck had no ceiling: 1e7 asked numpy for the grid and exited 1
        # with a traceback, 2000 ran at a 2 GB peak
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"include_bath": False, "tau_max": tau_max}))
        assert main(["solver-xcheck", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "configuration error: the volterra solver needs " + steps + " steps" in err
        assert f"big_r = 0.1 over tau_max = {tau_max!r}" in err
        assert f"more than the {scenarios.MAX_SOLVER_STEPS} " in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("scenario", ["time-evolution", "zeno-compare"])
    def test_tau_steps_past_ceiling_exits_2(self, capsys, scenario):
        # numpy was asked for the grid and exited 1 with an ArrayMemoryError
        assert main([scenario, "--tau-steps", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("configuration error: tau_steps must be between 2 and "
                f"{scenarios.MAX_SOLVER_STEPS + 1}, got 1000000000000") in err
        ScenarioConfig(scenario=scenario, tau_steps=scenarios.MAX_SOLVER_STEPS + 1)
        with pytest.raises(ValueError, match="tau_steps must be between"):
            find_optimum("transient", ScenarioConfig(
                scenario=scenario, tau_steps=scenarios.MAX_SOLVER_STEPS + 2))

    def test_comb_past_mode_ceiling_exits_2(self, tmp_path, capsys):
        # numpy was asked for the comb and exited 1 with an ArrayMemoryError
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_modes": 1000000000000}))
        assert main(["solver-xcheck", "--big-r", "0.5", "--r1", "0.5", "--s", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("configuration error: n_modes must be even and between 2 and 20000, "
                "got 1000000000000") in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("scenario", [["solver-xcheck"], ["stationary-surface"],
                                          ["time-evolution", "--solver", "bath"]],
                             ids=["xcheck", "surface", "evolve-bath"])
    def test_odd_comb_exits_2(self, tmp_path, capsys, scenario):
        # an odd comb put one mode on resonance; every scenario checks the
        # comb's keys, whether or not it runs the bath
        cfg, out = tmp_path / "c.json", tmp_path / "x.csv"
        cfg.write_text(json.dumps({"n_modes": 2001}))
        assert main(scenario + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("configuration error: n_modes must be even and between 2 and 20000, "
                "got 2001") in err
        assert not out.exists()

    @pytest.mark.parametrize("window", [1e-60, 1.0])
    def test_bath_on_comb_too_narrow_to_sample_exits_2(self, tmp_path, capsys, window):
        # both exited 0, with a concurrence 0.166 and 0.0044 off the closed
        # form at the default big_r = 0.1
        cfg, out = tmp_path / "c.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps({"freq_window": window}))
        argv = ["time-evolution", "--solver", "bath", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        assert (f"configuration error: freq_window = {window!r} is too narrow a bath comb "
                "to sample the reservoir at big_r = 0.1: ") in err

    @pytest.mark.parametrize("scenario, solver", [
        ("zeno-compare", "bath"), ("zeno-compare", "volterra"),
        ("stationary-surface", "bath"), ("stationary-surface", "ode"),
        ("solver-xcheck", "ode"), ("solver-xcheck", "bath")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_solver_outside_time_evolution_exits_2(self, tmp_path, capsys, scenario,
                                                   solver, source):
        # the scenario used to ignore the solver and exit 0 with its own table
        argv = [scenario, "--r1", "0.5", "--s", "0", "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            argv += ["--solver", solver]
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"solver": solver}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"configuration error: {scenario} does not take a solver, "
                f"got solver {solver!r}") in err
        assert not (tmp_path / "x.csv").exists()
        # the default, named or not, still runs
        assert main([scenario, "--r1", "0.5", "--s", "0", "--tau-max", "0.5",
                     "--solver", "closed", "--out", str(tmp_path / "x.csv")]) == 0

    def test_stationary_surface_at_huge_coupling(self, capsys):
        # big_r drops out of the stationary concurrence
        assert main(["stationary-surface", "--r1", "0.3,0.9", "--s", "-0.5,0.2"]) == 0
        base = capsys.readouterr().out
        for big_r in ("1e154", "1e200"):
            assert main(["stationary-surface", "--r1", "0.3,0.9", "--s", "-0.5,0.2",
                         "--big-r", big_r]) == 0
            assert capsys.readouterr().out == base

    def test_config_error_exits_2(self, tmp_path, capsys):
        assert main(["time-evolution", "--big-r", "-1"]) == 2
        assert "configuration error" in capsys.readouterr().err
        missing = tmp_path / "ghost.json"
        assert main(["time-evolution", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("window", [5e-324, 1e-80, 1e-300])
    @pytest.mark.parametrize("scenario", [["time-evolution", "--solver", "bath"],
                                          ["solver-xcheck"]], ids=["evolve-bath", "xcheck"])
    def test_comb_window_past_double_precision_exits_2(self, tmp_path, capsys, scenario,
                                                       window):
        # 5e-324 raised ZeroDivisionError; 1e-80 and 1e-300 wrote nan tables
        # with numpy overflow warnings, time-evolution with exit 0
        cfg, out = tmp_path / "c.json", tmp_path / "t.csv"
        cfg.write_text(json.dumps({"freq_window": window}))
        assert main(scenario + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"freq_window = {window!r} " in err
        assert not out.exists()

    @pytest.mark.parametrize("big_r", ["1e152", "1e153"])
    def test_bath_at_coupling_past_its_comb_exits_2(self, tmp_path, capsys, big_r):
        # 1e152 blamed freq_window = 20.0 for an overflow in the secular
        # solve; 1e153 warned of an overflow in the comb's density and then
        # called the coupling too weak
        argv = ["time-evolution", "--solver", "bath", "--tau-max", "1e-154", "--tau-steps", "3"]
        out = tmp_path / "t.csv"
        assert main(argv + ["--big-r", big_r, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        assert (f"configuration error: big_r = {float(big_r)!r} is too strong a coupling "
                "for the bath comb at freq_window = 20.0") in err
        assert main(argv + ["--big-r", "1e151", "--out", str(out)]) == 0

    def test_bath_whose_spectrum_overflows_exits_2(self, tmp_path, capsys, monkeypatch):
        # a secular solve that overflows stands in for a comb too narrow
        # for double precision, which no input is known to reach
        def overflowing(*args):
            raise FloatingPointError("overflow encountered in multiply")

        monkeypatch.setattr(solvers, "_folded_spectrum", overflowing)
        out = tmp_path / "t.csv"
        assert main(["time-evolution", "--solver", "bath", "--tau-max", "1", "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        assert ("configuration error: freq_window = 20.0 is too narrow a bath comb for double "
                "precision: its spectrum does not resolve (overflow encountered in multiply); "
                "pick a window near the default 20.0") in err

    @pytest.mark.parametrize("big_r, window, blamed", [
        ("0.1", 1e155, "freq_window = 1e+155 is too wide a bath comb at big_r = 0.1: its "
                       "secular solve squares its band edge 1e+155 to inf and twice its "
                       "couplings' sum, 6.27e-154, to 3.94e-307; pick a window near the "
                       "default 20.0\n"),
        ("3e152", 1e60, "big_r = 3e+152 is too strong a coupling for the bath comb at "
                        "freq_window = 1e+60: its secular solve squares its band edge "
                        "3e+212 to inf and twice its couplings' sum, 0, to 0\n"),
        ("1e151", 2.0, "freq_window = 2.0 is too narrow a bath comb at big_r = 1e+151: its "
                       "secular solve squares its band edge 2e+151 to 4e+302 and twice its "
                       "couplings' sum, 3.14e+154, to inf; pick a window near the default "
                       "20.0\n"),
    ], ids=["window", "coupling", "narrow-window"])
    def test_comb_whose_band_edge_overflows_names_its_cause(self, tmp_path, capsys, big_r,
                                                             window, blamed):
        # the secular solve squares the band edge K max(1, R) lam and twice
        # the couplings' sum past a double: at R = 0.1 the edge, because the
        # window is wide, which was blamed on big_r; at R = 3e152 the
        # coupling is at fault, whose comb overflows at the default window
        # too; at R = 1e151 the sum alone, because the window is narrow:
        # its spacing is far wider than lam, so the lowest mode's coupling
        # grows as 1/dω, and the default window's comb runs
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"freq_window": window}))
        out = tmp_path / "t.csv"
        argv = ["time-evolution", "--solver", "bath", "--tau-max", "1e-300", "--tau-steps", "3",
                "--big-r", big_r, "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        assert f"configuration error: {blamed}" in err

    @pytest.mark.parametrize("entry", [
        # JSON booleans and strings ran as 1 and 0.5
        *wrong_type_entries(),
        pytest.param({"tau_steps": 2.5}, id="tau_steps-fraction"),
        pytest.param({"n_modes": 2.5}, id="n_modes-fraction"),
        # integers too large for a double raised OverflowError (exit 1)
        pytest.param({"big_r": 10**400}, id="big_r-huge-int"),
        pytest.param({"phi": -10**400}, id="phi-huge-int"),
        pytest.param({"dt_ode": 10**400}, id="dt_ode-huge-int"),
        pytest.param({"r1": [10**400]}, id="r1-huge-int-entry"),
        pytest.param({"meas_intervals": 10**400}, id="meas_intervals-huge-int"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"tau_max": 0.1, **entry}))
        assert main(["time-evolution", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert f"{next(iter(entry))} must be" in err

    def test_negative_list_is_a_value(self, tmp_path):
        # argparse took "-0.5,0.2" for an option and exited 2
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        base = ["stationary-surface", "--r1", "0.3,0.9", "--phi", "2.5"]
        assert main(base + ["--s", "-0.5,0.2", "--out", str(spaced)]) == 0
        assert main(base + ["--s=-0.5,0.2", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert spaced.read_text().count("\n") == 6

    def test_negative_exponent_value_reaches_every_option(self, tmp_path, capsys):
        # argparse took "-1e-3" for an option: "expected one argument"
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        base = ["zeno-compare", "--tau-max", "0.5", "--tau-steps", "11"]
        assert main(base + ["--phi", "-1e-3", "--out", str(spaced)]) == 0
        assert main(base + ["--phi=-1e-3", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        capsys.readouterr()
        assert main(["zeno-compare", "--big-r", "-1e3"]) == 2
        assert capsys.readouterr().err == ("zeno-ent: configuration error: big_r must be "
                                           "positive and finite, got -1000.0\n")

    def test_help_before_a_negative_number_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeno-compare", "--help", "-1"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: zeno-ent")

    def test_list_that_is_no_floats_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["time-evolution", "--r1", "0.5,x"])
        assert exc.value.code == 2
        assert "expected comma-separated floats, got '0.5,x'" in capsys.readouterr().err

    def test_horizon_shorter_than_a_step_names_both(self, capsys):
        assert main(["solver-xcheck", "--tau-max", "5e-5"]) == 2
        assert capsys.readouterr().err == ("zeno-ent: configuration error: t_max = 5e-05 is "
                                           "shorter than one step, dt = 0.0001\n")

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_a_row_parse_only_their_own_options(self, monkeypatch, tmp_path, capsys):
        # the one parser keeps nothing of a call: the second run reads the
        # defaults for every option that only the first gave, and writes to
        # stdout, not to the first one's --out
        seen = []
        real = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: seen.append(cfg) or real(cfg))
        out = tmp_path / "first.csv"
        assert main(["stationary-surface", "--r1", "0.3,0.9", "--s", "-0.5,0.2", "--phi", "2.5",
                     "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["stationary-surface", "--r1", "0.5"]) == 0
        assert out.read_bytes() == first
        assert seen == [ScenarioConfig(scenario="stationary-surface", r1=[0.3, 0.9],
                                       s=[-0.5, 0.2], phi=2.5),
                        ScenarioConfig(scenario="stationary-surface", r1=[0.5])]
        # the header, a row per s at r1 = 0.5 and the argmax row
        assert capsys.readouterr().out.count("\n") == len(seen[1].s_axis()) + 2

    def test_io_error_exits_4(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["stationary-surface", "--r1", "0.5", "--s", "1",
                     "--out", str(out)])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_tolerance_failure_exits_3_and_still_writes(self, tmp_path, capsys):
        # a Volterra step ten times the default misses Volterra's 1e-5
        # budget at R = 10 by a factor of four, in its rows against the
        # closed form and the ODE
        cfg = tmp_path / "coarse-volterra.json"
        cfg.write_text(json.dumps({"dt_volterra": 1e-3}))
        out = tmp_path / "xcheck.csv"
        code = main(["solver-xcheck", "--config", str(cfg), "--big-r", "10",
                     "--r1", "0.7071067811865476", "--s", "0", "--tau-max", "2",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        text = out.read_text()
        assert text.count("\n") >= 7
        assert ",0\n" in text or text.endswith(",0")
        # stderr names every failing row, and only those, with its solver
        # pair, r1, s, error and tolerance as the table holds them
        failing = [line.split(",") for line in text.splitlines()[1:] if line.endswith(",0")]
        named = [f"zeno-ent: {a} vs {b} at r1 = {float(r1)!r}, s = {float(s)!r}: "
                 f"max_abs_err {float(e)!r} exceeds tolerance {float(tol)!r}"
                 for r1, s, a, b, _, e, tol, _ in failing]
        assert failing and all("volterra" in row[2:4] for row in failing)
        assert err == named + [f"zeno-ent: {len(failing)} solver cross-check row(s) "
                               "exceeded tolerance"]
        # the table is the one the scenario renders, whatever stderr says
        cfg_obj = ScenarioConfig(scenario="solver-xcheck", dt_volterra=1e-3, big_r=10.0,
                                 r1=(SQRT_HALF,), s=(0.0,), tau_max=2.0)
        assert text == render_csv(run_solver_xcheck(cfg_obj))

    def test_zeno_compare_defaults_write_table(self, tmp_path):
        # grid times a rounding step below a measurement boundary used to
        # give a negative local time and exit 2
        out = tmp_path / "zeno.csv"
        assert main(["zeno-compare", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,C[unmeasured],C[T=0.1],C[T=1.0],C[T=5.0]"
        assert len(lines) == 2002

    def test_decayed_interval_keeps_its_column(self, tmp_path, capsys):
        # E(5000) = 1.2e-22 at R = 0.1 has decayed, not hit a zero; the
        # column used to be dropped with a "zero of the survival amplitude"
        out = tmp_path / "zeno.csv"
        assert main(["zeno-compare", "--meas-interval", "5000", "--tau-steps", "11",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[0] == "tau,C[unmeasured],C[T=5000.0]"

    def test_skipped_schedule_reported_on_stderr(self, capsys):
        om = math.sqrt(399.0)
        tau_zero = (2.0 / om) * (math.pi - math.atan(om))
        code = main(["zeno-compare", "--big-r", "10",
                     "--r1", "0.7071067811865476", "--s", "0",
                     "--tau-max", "0.02", "--tau-steps", "3",
                     "--meas-interval", f"0.005,{tau_zero!r}"])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped measurement interval" in captured.err
        assert "C[T=0.005]" in captured.out

    def test_json_format_flag(self, capsys):
        code = main(["stationary-surface", "--r1", "0.5", "--s", "1",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["r1", "s", "c_s", "is_argmax"]

    def test_repeated_runs_byte_identical(self, tmp_path):
        # the closed form, each numeric solver and the cross-check
        curves = ["time-evolution", "--big-r", "10", "--r1", "0.87,1", "--s", "0,1",
                  "--tau-max", "1", "--tau-steps", "101"]
        runs = [curves + ["--solver", solver] for solver in ("closed", "volterra", "ode", "bath")]
        runs.append(["solver-xcheck", "--big-r", "10", "--tau-max", "1"])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for args in runs:
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), args

    def test_installed_entry_point(self, tmp_path):
        # one end-to-end check through the console script, importing the
        # package this test imported
        root = os.path.dirname(os.path.dirname(scenarios.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "zeno_ent.cli", "stationary-surface",
             "--r1", "0.5", "--s", "1"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.startswith("r1,s,c_s,is_argmax")

    def test_numeric_tables_independent_of_blas_threads(self, tmp_path):
        # the Volterra and ODE series, and the cross-check without the bath,
        # are built from 2x2 products and elementwise broadcasts: the same
        # bytes at one BLAS thread and at two.  Only the children's
        # environment changes.  The bath's spectral sums are one large BLAS
        # product, so it is left out
        root = os.path.dirname(os.path.dirname(scenarios.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        config = tmp_path / "no-bath.json"
        config.write_text(json.dumps({"include_bath": False}))
        runs = {solver: ["time-evolution", "--solver", solver, "--big-r", "10"]
                for solver in ("volterra", "ode")}
        runs["xcheck"] = ["solver-xcheck", "--big-r", "10", "--config", str(config)]
        for name, args in runs.items():
            tables = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-{threads}.csv"
                proc = subprocess.run(
                    [sys.executable, "-m", "zeno_ent.cli", *args, "--out", str(out)],
                    capture_output=True, text=True, timeout=300,
                    env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads))
                assert proc.returncode == 0, proc.stderr
                tables.append(out.read_bytes())
            assert tables[0] == tables[1], name


GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "goldens.json")


class TestConfigRobustness:
    """Every scenario driven through ``main`` on tiny grids, one real key
    at an extreme or edge value at a time."""

    BASE = {"r1": [0.87], "s": [0.0], "tau_max": 0.01, "tau_steps": 3, "n_modes": 16,
            "meas_intervals": [0.005]}
    RUNS = {"surface": ["stationary-surface"], "evolution": ["time-evolution"],
            **{f"evolution-{name}": ["time-evolution", "--solver", name]
               for name in SOLVER_NAMES},
            "zeno": ["zeno-compare"], "xcheck": ["solver-xcheck"]}
    # the smallest subnormal, the largest double and 0 are the edges of
    # every positive key; phi, r1 and s have edges of their own
    EXTREMES = (5e-324, 1e-300, 1e300, sys.float_info.max, 0.0)
    EDGES = {"phi": (-sys.float_info.max,), "r1": (0.0, 1.0), "s": (-1.0, 1.0)}
    LIST_KEYS = config_keys("list")

    def test_extreme_values_exit_cleanly(self, tmp_path, capsys):
        # each run exits 0, 2 or 3, a refusal names a configuration error,
        # nothing escapes (a numpy warning is an error here) and no written
        # table holds a NaN
        config, out = tmp_path / "c.json", tmp_path / "t.csv"
        start = time.perf_counter()
        for name, argv in self.RUNS.items():
            for key in config_keys("real") + self.LIST_KEYS:
                for v in self.EXTREMES + self.EDGES.get(key, ()):
                    config.write_text(json.dumps(
                        dict(self.BASE, **{key: [v] if key in self.LIST_KEYS else v})))
                    out.unlink(missing_ok=True)
                    code = main(argv + ["--config", str(config), "--out", str(out)])
                    err = capsys.readouterr().err
                    case = (name, key, v, code, err)
                    assert code in (0, 2, 3), case
                    assert code != 2 or "configuration error" in err, case
                    assert not out.exists() or "nan" not in out.read_text(), case
        assert time.perf_counter() - start < 5.0


class TestGoldens:
    """Closed-form tables against the sha256 digests kept with the benchmark."""

    TABLES = {
        "surface": ["stationary-surface"],
        "evolution-20001": ["time-evolution", "--tau-steps", "20001"],
        "zeno-criterion7": ["zeno-compare", "--big-r", "10", "--meas-interval",
                            "0.01,0.005,0.001", "--tau-max", "2"],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_table_matches_golden_digest(self, tmp_path, kind, fmt):
        with open(GOLDENS, encoding="utf-8") as fh:
            golden = json.load(fh)[f"{kind}/{fmt}"]
        out = tmp_path / f"{kind}.{fmt}"
        assert main(self.TABLES[kind] + ["--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


class TestXcheckDigests:
    """``solver-xcheck`` CSV bytes, pinned by sha256: at three couplings,
    and on every config of :data:`WALK_CASES` and at ``R = 7``, whose
    default r1 have two ``alpha_t``; two bath ``time-evolution`` tables,
    the default comb at ``R = 10`` in JSON and a 16-mode comb; and the
    Volterra and ODE ``time-evolution`` tables, each map read at every
    ``k``-th step and re-wrapped on the output grid, at ``R = 10`` in CSV
    and at ``R = 0.5`` with a complex state in JSON.

    Each table is written by a child at one BLAS thread: the bath's sums
    are one large BLAS product, whose rounding may change with the thread
    count (at R = 0.5 it does, on a 2-core host).  A change to how any
    solver is built or read that moves one bit of a cell shows here."""

    DIGESTS = {
        "0.1": "fc818afd7c94bd96ee4681e7ac1c2727eab27d43c56f10856a50834e69012695",
        "0.5": "975f6a2b9adf1006f1826763066ba384e2b6e3ef5e65683c283d599cc48a3ee6",
        "10": "e45de54812757e213415ad33edaff75c60540822688e81ee4669b54212a36597",
    }
    CONFIG_DIGESTS = {
        "blocks-complex": "a6e9a3420c0e6fdc223e9de58daae130e6b560f430e4480ac38cac753163016f",
        "complex-phi2": "0025994f21e2a59385b990c26f38ecb91d925f1b4fd7b7a3d53712e0af59d26c",
        "partial-grid": "b3ce391546dcfa59eb225e945bd328da00df6fa311e972fe883d8fb376551537",
        "ode-finest": "d0916eafee110fe4ccb6132d4ff3e630e0463d91967d5ebecfd1b0f2a03b5a50",
        "ends-apart": "0deb00250cec6d885b0187e54c1c58f49c4fcaee2a75cb91d732813597bffe62",
        "bath-finest": "fdfc617c44a1312f5866810eb6b249bd4b80edd0bcc28f8f92d40587ae7c3b26",
        "coarse-blocks": "8efafbc297acd78b52f8e50edc9e05719e469aaf60b0bf04e338029e9c4289be",
        "shared-step": "edbcd8cc6fda9735d199779e5652facc1dad851839ed87934f9434f4525323c3",
        "seven": "f3aa2902dd46d5522825778533de2bb61d30916ba74cf2be9f29dccede5203ad",
    }

    BATH_DIGESTS = {
        "r10-json": (["--big-r", "10", "--format", "json"], {},
                     "112b74f878b3342de6da251f96d96073f2125642050a8b31b036a0c41a17c332"),
        "r1-16-modes": (["--big-r", "1", "--tau-max", "0.5"], {"n_modes": 16},
                        "2508622e921c346d528cf902736695db307d65d3b2103771cf64d856f4072929"),
    }

    STATE_ARGS = ["--big-r", "0.5", "--r1", "0.87", "--s", "0.3", "--phi", "0.7", "--format",
                  "json"]
    NUMERIC_DIGESTS = {
        "volterra-r10": (["--solver", "volterra", "--big-r", "10"],
                         "6c6c6d1708ec446877070a9a26e74d6dc913de2130d17df9e06717362b31281f"),
        "ode-r10": (["--solver", "ode", "--big-r", "10"],
                    "385c6543f97b270709d256fba149cb6490a7c8d1266dab3798dfbc6ab831b940"),
        "volterra-json": (["--solver", "volterra", *STATE_ARGS],
                          "943de62e6aba7415bdc6974656323ddd214db6abdaf712f9ffbedd821509a4f5"),
        "ode-json": (["--solver", "ode", *STATE_ARGS],
                     "1f3358e84e08a17a75571a750ecc67cc79c7ec55805993405a50887433766343"),
    }

    @staticmethod
    def digest(tmp_path, scenario, args):
        """sha256 of the table that a child writes for ``scenario args``."""
        root = os.path.dirname(os.path.dirname(scenarios.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "table.out"
        proc = subprocess.run(
            [sys.executable, "-m", "zeno_ent.cli", scenario, *args, "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("big_r", sorted(DIGESTS))
    def test_csv_matches_digest(self, tmp_path, big_r):
        assert self.digest(tmp_path, "solver-xcheck", ["--big-r", big_r]) == self.DIGESTS[big_r]

    @pytest.mark.parametrize("case", sorted(CONFIG_DIGESTS))
    def test_config_csv_matches_digest(self, tmp_path, case):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(WALK_CASES.get(case, {"big_r": 7.0})))
        assert (self.digest(tmp_path, "solver-xcheck", ["--config", str(config)])
                == self.CONFIG_DIGESTS[case])

    @pytest.mark.parametrize("case", sorted(BATH_DIGESTS))
    def test_bath_table_matches_digest(self, tmp_path, case):
        args, keys, want = self.BATH_DIGESTS[case]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(keys))
        argv = ["--solver", "bath", *args, "--config", str(config)]
        assert self.digest(tmp_path, "time-evolution", argv) == want

    @pytest.mark.parametrize("case", sorted(NUMERIC_DIGESTS))
    def test_numeric_table_matches_digest(self, tmp_path, case):
        args, want = self.NUMERIC_DIGESTS[case]
        assert self.digest(tmp_path, "time-evolution", args) == want
