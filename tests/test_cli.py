"""Scenario runners, serialization, and the command-line front end."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from zeno_ent import (
    CouplingSpec,
    InitialState,
    ScenarioConfig,
    ScenarioResult,
    SolverConfig,
    amplitudes_at,
    aux_ode_propagator,
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
from zeno_ent import scenarios, search
from zeno_ent.cli import main
from zeno_ent.scenarios import load_config_file, render_csv, render_json
from zeno_ent.search import grid_refine_max
from zeno_ent.solvers import step_limit

SQRT_HALF = math.sqrt(0.5)


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
        # at R = 25 the band edge needs dt < 1e-3, so the configured
        # dt_bath = 1e-3 is refined to 5e-3 / 6 instead of being refused
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
                    limit = step_limit(res, coup, solver, 20.0)
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
        # evaluated on the output grid only, and matches the endpoint of the
        # stride-1 run
        out = tmp_path / "long.csv"
        code = main(["time-evolution", "--solver", "volterra", "--tau-steps", "2",
                     "--tau-max", "99", "--out", str(out)])
        assert code == 0
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
                assert got == pytest.approx(ref.concurrence()[-1], abs=1e-13)

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
        np.testing.assert_allclose(frozen, init.initial_concurrence, rtol=0, atol=1e-12)
        np.testing.assert_allclose(2.0 * np.abs(c1 * np.conj(c2)),
                                   init.initial_concurrence, rtol=0, atol=1e-12)

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
        np.testing.assert_allclose(frozen, init.initial_concurrence, rtol=0, atol=1e-12)


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
        # one run per solver and r1, whatever the number of initial states
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
        run_solver_xcheck(dataclasses.replace(single, r1=(0.0, 0.87), s=(0.0, 0.3)))
        assert runs == pytest.approx([0.0, 0.87])
        runs.clear()
        code = main(["time-evolution", "--solver", solver, "--big-r", "0.5",
                     "--r1", "0.0,0.87", "--s", "0,0.3", "--tau-max", "0.5",
                     "--tau-steps", "11", "--out", str(tmp_path / "evo.csv")])
        assert code == 0
        assert runs == pytest.approx([0.0, 0.87])

    def test_closed_form_once_per_solver_grid(self, monkeypatch):
        # E(t) once per r1 on each solver's grid, not once per (s, solver)
        grids = []
        real = scenarios.survival_amplitude

        def counting(res, coup, t):
            grids.append((coup.r1, np.size(t)))
            return real(res, coup, t)

        monkeypatch.setattr(scenarios, "survival_amplitude", counting)
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5, r1=(0.3, 0.87),
                             s=(-1.0, 0.0, 0.3), tau_max=0.5)
        assert run_solver_xcheck(cfg).meta["passed"] is True
        # Volterra's grid (dt = 1e-4), then the ODE's and the bath's (1e-3)
        assert [size for _, size in grids] == [5001, 501, 501] * 2
        assert [r1 for r1, _ in grids] == pytest.approx([0.3] * 3 + [0.87] * 3)

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
                            ia, ib = scenarios._shared_points(sa, sb)
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
        assert mo.tau.size == 14287
        n = 14286
        # the table reads the gap off the two maps on the shared points: |D x|
        # for the real pair x of the state, bit for bit
        d = mv.p[..., ::7][..., :n] - mo.p[..., :n]
        x1, x2 = init.c01.real, init.c02.real
        assert init.c01.imag == init.c02.imag == 0.0
        gap = max(float(np.max(np.abs(d[i, 0] * x1 + d[i, 1] * x2))) for i in range(2))
        assert row[4] == n
        assert row[5] == gap
        # and it is the gap of the two series, up to their rounding
        sv, so = mv(init), mo(init)
        series_gap = max(float(np.max(np.abs(sv.c1[::7][:n] - so.c1[:n]))),
                         float(np.max(np.abs(sv.c2[::7][:n] - so.c2[:n]))))
        assert row[5] == pytest.approx(series_gap, rel=0, abs=1e-15)


class TestFindOptimum:
    def test_stationary_matches_analytic_argmax(self):
        cfg = ScenarioConfig(scenario="stationary-surface", s=(1.0,))
        opt = find_optimum("stationary", cfg)
        assert opt.params["r1"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-3)
        assert opt.value == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, abs=1e-6)

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


class TestOptimumGrids:
    def test_stationary_grid_equals_scalar_calls(self):
        xs = np.linspace(0.0, 1.0, 201)
        for _, s, phi in _optimum_draws(41, 12):
            init = InitialState.from_separability(s, phi)
            scalar = [stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)
                      for r1 in xs]
            assert scenarios._stationary_grid(xs.tolist(), [init])[:, 0].tolist() == scalar

    def test_stationary_optimum_equals_per_point_scan(self):
        # oracle: the grid filled by one scalar call per point, as the
        # search did before it took the broadcast values
        xs = np.linspace(0.0, 1.0, 201)
        for big_r, s, phi in _optimum_draws(42, 12):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi)
            init = InitialState.from_separability(s, phi)

            def f(r1):
                return stationary_concurrence(CouplingSpec.from_relative(1.0, r1), init)

            r1_best, value = grid_refine_max(f, xs, [f(x) for x in xs])
            opt = find_optimum("stationary", cfg)
            assert opt.params["r1"] == r1_best and opt.value == value

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

    def test_transient_refine_equals_amplitudes_at_objective(self, monkeypatch):
        # oracle: the refinement fed the objective it had before, a fresh
        # system, a validated Amplitudes and concurrence_closed per call,
        # from the same start point, brackets and bounds
        calls = []

        def spy(f, *args, **kwargs):
            out = search.coordinate_refine_max(f, *args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(scenarios, "coordinate_refine_max", spy)
        for big_r, s, phi in _optimum_draws(45, 12):
            cfg = ScenarioConfig(scenario="time-evolution", big_r=big_r, s=(s,), phi=phi)
            init = InitialState.from_separability(s, phi)

            def oracle(r1, t):
                res, coup = resonant_system(big_r, r1)
                return concurrence_closed(amplitudes_at(res, coup, init, t))

            calls.clear()
            opt = find_optimum("transient", cfg)
            (args, kwargs, out), = calls
            assert out == search.coordinate_refine_max(oracle, *args, **kwargs)
            # the result is the refined point, or the coarse start where that wins
            if (opt.params["r1"], opt.params["tau"]) != args[:2]:
                assert (opt.params["r1"], opt.params["tau"], opt.value) == out

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


def _oracle_json(result):
    rows = [list(vals) for vals in zip(*result.data)]
    payload = {
        "config": scenarios._json_safe(dataclasses.asdict(result.config)),
        "columns": list(result.columns),
        "rows": scenarios._json_safe(rows),
        "meta": scenarios._json_safe(result.meta),
    }
    return json.dumps(payload, indent=1) + "\n"


class TestSerialization:
    def test_templates_match_cellwise_oracles(self):
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072e-308,
                   1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]
        n = len(special)
        result = ScenarioResult(
            columns=["x", "n", "name", "y"],
            data=[np.array(special), np.arange(-3, n - 3) * 10 ** 12,
                  ["closed", "bath", 'quo"te', "caf\u00e9", "a\\b", "", "ode",
                   "volterra", "x y", "1e5", "NaN", "tab\t"],
                  np.array(special[::-1])],
            meta={"phi": 0.7, "passed": True, "tolerances": {"ode": 1e-6}},
            config=ScenarioConfig(scenario="solver-xcheck", r1=(0.5,), s=(-1.0,)))
        assert render_csv(result) == _oracle_csv(result)
        assert render_json(result) == _oracle_json(result)
        assert json.loads(render_json(result))["rows"][5][2] == ""

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
        assert ("configuration error: n_modes must be between 1 and 20000, "
                "got 1000000000000") in err
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("entry", [
        pytest.param({"big_r": "abc"}, id="big_r-string"),
        pytest.param({"phi": None}, id="phi-null"),
        pytest.param({"dt_ode": "1e-3"}, id="dt_ode-string"),
        pytest.param({"r1": [None]}, id="r1-null"),
        pytest.param({"tau_steps": 2.5}, id="tau_steps-fraction"),
        pytest.param({"tau_steps": "2001"}, id="tau_steps-string"),
        pytest.param({"n_modes": 2.5}, id="n_modes-fraction"),
        pytest.param({"include_bath": "no"}, id="include_bath-string"),
        # JSON booleans and strings ran as 1 and 0.5
        pytest.param({"big_r": True}, id="big_r-bool"),
        pytest.param({"phi": True}, id="phi-bool"),
        pytest.param({"s": ["0.5"]}, id="s-string-entry"),
        pytest.param({"r1": [True]}, id="r1-bool-entry"),
        pytest.param({"meas_intervals": "0.5"}, id="meas_intervals-string"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(entry))
        assert main(["time-evolution", "--config", str(cfg), "--tau-max", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"{next(iter(entry))} must be" in err

    def test_negative_list_is_a_value(self, tmp_path):
        # argparse took "-0.5,0.2" for an option and exited 2
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        base = ["stationary-surface", "--r1", "0.3,0.9", "--phi", "2.5"]
        assert main(base + ["--s", "-0.5,0.2", "--out", str(spaced)]) == 0
        assert main(base + ["--s=-0.5,0.2", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert spaced.read_text().count("\n") == 6

    def test_io_error_exits_4(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["stationary-surface", "--r1", "0.5", "--s", "1",
                     "--out", str(out)])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_tolerance_failure_exits_3_and_still_writes(self, tmp_path, capsys):
        # a comb reaching only one Rabi frequency either side of resonance
        # cuts the spectrum off at the vacuum-Rabi splitting, so its bath
        # rows miss the 1e-3 budget by two orders of magnitude
        cfg = tmp_path / "narrow-comb.json"
        cfg.write_text(json.dumps({"freq_window": 1.0}))
        out = tmp_path / "xcheck.csv"
        code = main(["solver-xcheck", "--config", str(cfg), "--big-r", "10",
                     "--r1", "0.7071067811865476", "--s", "0", "--tau-max", "2",
                     "--out", str(out)])
        assert code == 3
        assert "exceeded tolerance" in capsys.readouterr().err
        text = out.read_text()
        assert text.count("\n") >= 7
        assert ",0\n" in text or text.endswith(",0")

    def test_zeno_compare_defaults_write_table(self, tmp_path):
        # grid times a rounding step below a measurement boundary used to
        # give a negative local time and exit 2
        out = tmp_path / "zeno.csv"
        assert main(["zeno-compare", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,C[unmeasured],C[T=0.1],C[T=1.0],C[T=5.0]"
        assert len(lines) == 2002

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


GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "goldens.json")


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
