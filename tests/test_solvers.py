"""Numeric integrators against the closed form and against each other."""

import decimal
import math
import re

import numpy as np
import pytest

from zeno_ent import (
    CouplingSpec,
    InitialState,
    ReservoirSpec,
    ScenarioConfig,
    SolverConfig,
    aux_ode_propagator,
    bath_propagator,
    closed_form_series,
    resonant_system,
    run_solver_xcheck,
    survival_amplitude,
    volterra_propagator,
    zeno_rate,
)
from zeno_ent import scenarios, solvers
from zeno_ent.cli import build_parser
from zeno_ent.solvers import SOLVER_NAMES, comb_recurrence_time, step_limit


def max_gap(series, res, coup, init):
    ref = closed_form_series(res, coup, init, series.tau)
    return max(float(np.max(np.abs(series.c1 - ref.c1))),
               float(np.max(np.abs(series.c2 - ref.c2))))


def bath_cfg(dt, t_max, n_modes=2000, freq_window=20.0):
    return SolverConfig(dt=dt, t_max=t_max, n_modes=n_modes, freq_window=freq_window)


def rk4_bath_reference(res, coup, init, cfg):
    """Stage-vector RK4 (k1..k4) on the comb, the textbook form of the bath step."""
    rabi = coup.alpha_t * res.w
    offsets, g = solvers._comb(res, cfg.n_modes, cfg.freq_window * max(1.0, rabi / res.lam))
    idelta = -1j * offsets
    a1, a2 = coup.alpha1, coup.alpha2

    def rhs(y):
        out = np.empty_like(y)
        s = g @ y[2:]
        out[0] = -1j * a1 * s
        out[1] = -1j * a2 * s
        out[2:] = idelta * y[2:] - (1j * (a1 * y[0] + a2 * y[1])) * g
        return out

    dt = cfg.dt
    n = int(round(cfg.t_max / dt))
    y = np.zeros(cfg.n_modes + 2, dtype=complex)
    y[0], y[1] = init.c01, init.c02
    # the pair and the norm of every state, not the states: a production
    # comb over 10k steps would hold 320 MB
    pair = np.empty((n + 1, 2), dtype=complex)
    norm = np.empty(n + 1)
    for i in range(n + 1):
        if i:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pair[i] = y[:2]
        norm[i] = np.sum(np.abs(y) ** 2)
    return pair[:, 0], pair[:, 1], norm


def volterra_reference(res, coup, init, dt, n):
    """Trapezoid + Heun on the exponential kernel, one scalar step at a time."""
    a1, a2 = coup.alpha1, coup.alpha2
    decay = math.exp(-res.lam * dt)
    half = 0.5 * dt
    panel = half * res.w**2
    x1, x2, m = complex(init.c01), complex(init.c02), 0j
    u = a1 * x1 + a2 * x2
    c1, c2 = [x1], [x2]
    for _ in range(n):
        d1, d2 = -a1 * m, -a2 * m
        up = a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2)
        mp = decay * m + panel * (decay * u + up)
        x1 = x1 + half * (d1 - a1 * mp)
        x2 = x2 + half * (d2 - a2 * mp)
        un = a1 * x1 + a2 * x2
        m = decay * m + panel * (decay * u + un)
        u = un
        c1.append(x1)
        c2.append(x2)
    return np.array(c1), np.array(c2)


def volterra_full_history(f, coup, init, dt, n):
    """Trapezoid + Heun with the memory integral summed over the whole
    history from kernel samples ``f[i] = f(i*dt)`` at every step: O(n^2)."""
    a1, a2 = coup.alpha1, coup.alpha2
    u_hist = np.empty(n + 1, dtype=complex)
    u_hist[0] = a1 * init.c01 + a2 * init.c02
    x1, x2 = complex(init.c01), complex(init.c02)
    c1, c2 = [x1], [x2]

    def history(i, u_last):
        # trapezoid rule for int_0^{t_i} f(t_i - s) u(s) ds, with u(t_i) = u_last
        return dt * (0.5 * f[i] * u_hist[0] + np.dot(f[i - 1:0:-1], u_hist[1:i])
                     + 0.5 * f[0] * u_last)

    for i in range(1, n + 1):
        m = history(i - 1, u_hist[i - 1]) if i > 1 else 0j
        d1, d2 = -a1 * m, -a2 * m
        mp = history(i, a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2))
        x1 = x1 + 0.5 * dt * (d1 - a1 * mp)
        x2 = x2 + 0.5 * dt * (d2 - a2 * mp)
        u_hist[i] = a1 * x1 + a2 * x2
        c1.append(x1)
        c2.append(x2)
    return np.array(c1), np.array(c2)


def aux_ode_reference(res, coup, init, dt, n):
    """Classic RK4 on (c1, c2, z), one scalar step at a time."""
    a1, a2, lam, wsq = coup.alpha1, coup.alpha2, res.lam, res.w**2

    def rhs(x1, x2, z):
        return -a1 * z, -a2 * z, -lam * z + wsq * (a1 * x1 + a2 * x2)

    y = (complex(init.c01), complex(init.c02), 0j)
    c1, c2 = [y[0]], [y[1]]
    for _ in range(n):
        k1 = rhs(*y)
        k2 = rhs(*(v + 0.5 * dt * k for v, k in zip(y, k1)))
        k3 = rhs(*(v + 0.5 * dt * k for v, k in zip(y, k2)))
        k4 = rhs(*(v + dt * k for v, k in zip(y, k3)))
        y = tuple(v + (dt / 6.0) * (p + 2.0 * q + 2.0 * r + w)
                  for v, p, q, r, w in zip(y, k1, k2, k3, k4))
        c1.append(y[0])
        c2.append(y[1])
    return np.array(c1), np.array(c2)


class TestLinearMapEvaluation:
    """The blocked evaluation of the three-amplitude recurrences against
    the same recurrences stepped one scalar step at a time."""

    @pytest.mark.parametrize("n", [1, 2, 99, 2500])
    @pytest.mark.parametrize("r1", [0.0, 0.87, 1.0])
    @pytest.mark.parametrize("big_r", [0.1, 0.5, 10.0])
    def test_matches_scalar_stepping(self, big_r, r1, n):
        # n + 1 = 2, 3, 100 (a square) and 2501 (not a square)
        res, coup = resonant_system(big_r, r1)
        init = InitialState.from_separability(0.3, 0.7)
        dt = 1e-3
        for propagator, reference in ((volterra_propagator, volterra_reference),
                                      (aux_ode_propagator, aux_ode_reference)):
            series = propagator(res, coup, SolverConfig(dt=dt, t_max=n * dt))(init)
            c1, c2 = reference(res, coup, init, dt, n)
            assert series.c1.shape == series.tau.shape == (n + 1,)
            assert series.c1[0] == init.c01 and series.c2[0] == init.c02
            np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-11)
            np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-11)


# the working precision of the decimal references: 40 digits, with no
# dependence on the platform's float types
DECIMALS = decimal.Context(prec=40)


def decimal_matmul(a, b):
    """``a @ b`` for nested lists of decimals, rounded in the current context."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def decimal_mul(a, b):
    """The product of two complex numbers held as ``(re, im)`` decimals."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def amplitude_rows_per_state(d, y0, n):
    """The blocked evaluation with one complex state carried through the
    block loop, ``y_(j+1) = y_j + Q_K y_j``: the form in which the map
    served a single initial state, kept as the oracle of the shared map.
    The step's ``D = M - 1``, ``d``, is the solver's own, in doubles.  The
    two block loops run in 40-digit decimals and are rounded to doubles
    once, so the oracle's own rounding (3e-14 at R = 24 with the loops in
    doubles) stays far below the bound it is held to."""
    gen = d.tolist()
    block = math.isqrt(n + 1)
    count = -(-(n + 1) // block)
    with decimal.localcontext(DECIMALS):
        gen = [[decimal.Decimal(v) for v in row] for row in gen]
        heads = []
        power = [[decimal.Decimal(0)] * 3 for _ in range(3)]
        for _ in range(block):
            heads.append(power[:2])
            step = decimal_matmul(gen, power)
            power = [[a + b + c for a, b, c in zip(*rows)] for rows in zip(power, gen, step)]
        # the state as a 3x2 matrix: its real and imaginary parts
        y = [[decimal.Decimal(v.real), decimal.Decimal(v.imag)] for v in map(complex, y0)]
        states = []
        for _ in range(count):
            states.append(y)
            step = decimal_matmul(power, y)
            y = [[a + b for a, b in zip(*rows)] for rows in zip(y, step)]
        heads = np.array(heads, dtype=float).transpose(1, 0, 2)
        states = np.array(states, dtype=float)
    states = states[..., 0] + 1j * states[..., 1]
    rows = []
    for row, head in enumerate(heads):
        out = states @ head.T
        out += states[:, row:row + 1]
        rows.append(out.reshape(-1)[:n + 1])
    return tuple(rows)


class TestPropagators:
    """One Volterra or pseudomode-ODE map per coupling, read at several
    initial states."""

    INITS = [(-1.0, 0.0), (0.3, 0.7), (1.0, 0.0)]

    @pytest.mark.parametrize("n", [1, 2, 99, 2500])
    @pytest.mark.parametrize("big_r", [0.1, 10.0])
    def test_each_state_matches_scalar_stepping(self, big_r, n):
        res, coup = resonant_system(big_r, 0.87)
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_max=n * dt)
        for propagator, reference in ((volterra_propagator, volterra_reference),
                                      (aux_ode_propagator, aux_ode_reference)):
            run = propagator(res, coup, cfg)
            for s, phi in self.INITS:
                init = InitialState.from_separability(s, phi)
                series = run(init)
                c1, c2 = reference(res, coup, init, dt, n)
                assert series.c1.shape == series.tau.shape == (n + 1,)
                assert series.c1[0] == init.c01 and series.c2[0] == init.c02
                np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-11)
                np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("big_r", [1e-3, 0.1, 0.5, 10.0, 24.0])
    def test_shared_map_matches_per_state_blocks(self, monkeypatch, big_r):
        maps = []
        real = solvers._amplitude_rows

        def recording(d, n, stride):
            maps.append((d, n, stride))
            return real(d, n, stride)

        monkeypatch.setattr(solvers, "_amplitude_rows", recording)
        res, coup = resonant_system(big_r, 0.87)
        for propagator, dt in ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3)):
            run = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            d, n, stride = maps.pop()
            assert stride == 1
            for s, phi in self.INITS:
                init = InitialState.from_separability(s, phi)
                series = run(init)
                c1, c2 = amplitude_rows_per_state(d, (init.c01, init.c02, 0.0), n)
                np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-14)
                np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("propagator", [volterra_propagator, aux_ode_propagator,
                                            bath_propagator])
    def test_reservoir_whose_kernel_weight_overflows_is_refused(self, propagator):
        # each propagator raised a bare OverflowError from res.w**2
        coup = CouplingSpec(1e-200, 1e-200)
        cfg = SolverConfig(dt=1e-3, t_max=1.0)
        for w in (1.35e154, 1e200, 1.7e308):
            with pytest.raises(ValueError, match=f"^w = {re.escape(repr(w))} is too large: "
                                                 r"the kernel weight w\*\*2 overflows a double$"):
                propagator(ReservoirSpec(w=w, lam=1.0), coup, cfg)
        assert ReservoirSpec(w=1.34e154, lam=1.0).w ** 2 < math.inf

    def test_reservoir_whose_squared_linewidth_overflows_is_refused(self):
        # lam**2 overflowed in detuned_density and in E(t): a bare OverflowError
        coup = CouplingSpec(1.0, 1.0)
        cfg = SolverConfig(dt=1e-3, t_max=1.0)
        calls = [lambda res, run=run: run(res, coup, cfg)
                 for run in (volterra_propagator, aux_ode_propagator, bath_propagator)]
        calls += [lambda res, f=f: f(res, coup, 1.0) for f in (survival_amplitude, zeno_rate)]
        for lam in (1.35e154, 1e200, 1.7e308):
            message = (f"^lam = {re.escape(repr(lam))} is too large: "
                       r"the squared linewidth lam\*\*2 overflows a double$")
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call(ReservoirSpec(w=1.0, lam=lam))
        assert ReservoirSpec(w=1.0, lam=1.34e154).lam ** 2 < math.inf


class TestStride:
    """Every propagator read off on every ``stride``-th step against the
    stride-1 series, thinned."""

    RUNS = ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3), (bath_propagator, 1e-3))

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 1.0, 10.0, 20.0])
    def test_strided_series_is_the_thinned_series(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        inits = [InitialState.from_separability(s, phi) for s, phi in ((0.0, 0.0), (0.3, 0.7))]
        for propagator, dt in self.RUNS:
            full = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            n = round(10.0 / dt)
            # 7 does not divide the step count; n + 3 and 10**30 pass it,
            # leaving t = 0
            for stride in (5, 50, 7, n + 3, 10**30):
                thin = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0, stride=stride))
                for init in inits:
                    ref, got = full(init), thin(init)
                    assert np.array_equal(got.tau, ref.tau[::stride])
                    assert got.tau.dtype == float and got.c1.shape == (n // stride + 1,)
                    assert got.c1[0] == init.c01 and got.c2[0] == init.c02
                    np.testing.assert_allclose(got.c1, ref.c1[::stride], rtol=0, atol=1e-13)
                    np.testing.assert_allclose(got.c2, ref.c2[::stride], rtol=0, atol=1e-13)
                    if "norm_total" in ref.meta:
                        np.testing.assert_allclose(got.meta["norm_total"],
                                                   ref.meta["norm_total"][::stride],
                                                   rtol=0, atol=1e-13)

    def test_power_minus_one_matches_repeated_steps(self):
        gen = np.array([[-1e-3, 2e-4, 0.0], [3e-4, -2e-3, 1e-4], [5e-4, 0.0, -1e-3]])
        for k in (1, 2, 3, 5, 50, 64, 1000):
            power = np.zeros((3, 3))
            for _ in range(k):
                power += gen + gen @ power
            np.testing.assert_allclose(solvers._power_minus_one(gen, k, np.matmul), power,
                                       rtol=1e-13, atol=0)
        assert solvers._power_minus_one(gen, 1, np.matmul) is gen


class TestPowerTable:
    """The stacked powers ``M**i - 1`` built by doubling, against the same
    powers stepped one at a time and raised directly in 40-digit decimals.
    Each power rounds about once per factor, so the bounds grow with the
    count."""

    COUNTS = (1, 2, 3, 44, 100, 317)

    @staticmethod
    def sequential(d, count, mul):
        rows = [np.zeros_like(d)]
        for _ in range(count):
            rows.append(rows[-1] + d + mul(d, rows[-1]))
        return np.array(rows)

    @pytest.mark.parametrize("count", COUNTS)
    def test_matrix_table(self, count):
        gen = np.array([[-1e-3, 2e-4, 0.0], [3e-4, -2e-3, 1e-4], [5e-4, 0.0, -1e-3]])
        table = solvers._power_table(gen, count, np.matmul)
        assert table.shape == (count + 1, 3, 3)
        assert np.all(table[0] == 0.0) and np.array_equal(table[1], gen)
        np.testing.assert_allclose(table, self.sequential(gen, count, np.matmul),
                                   rtol=0, atol=1e-15)
        with decimal.localcontext(DECIMALS):
            one = [[decimal.Decimal(int(r == c)) for c in range(3)] for r in range(3)]
            m = [[decimal.Decimal(v) + u for v, u in zip(*rows)]
                 for rows in zip(gen.tolist(), one)]
            power, direct = one, []
            for _ in range(count + 1):
                direct.append([[a - b for a, b in zip(*rows)] for rows in zip(power, one)])
                power = decimal_matmul(power, m)
            direct = np.array(direct, dtype=float)
        np.testing.assert_allclose(table, direct, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("count", COUNTS)
    def test_elementwise_table(self, count):
        # RK4 factors minus one, as the bath's spectral sums raise them
        theta = np.array([1e-6, 3e-3, 0.05, 0.4, 1.0])
        z = -1j * theta
        d = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
        table = solvers._power_table(d, count, np.multiply)
        assert table.shape == (count + 1, d.size) and table.dtype == complex
        assert np.all(table[0] == 0.0) and np.array_equal(table[1], d)
        bound = 2e-16 * (count + 1)
        np.testing.assert_allclose(table, self.sequential(d, count, np.multiply),
                                   rtol=0, atol=bound)
        with decimal.localcontext(DECIMALS):
            direct = []
            for v in d.tolist():
                base = (1 + decimal.Decimal(v.real), decimal.Decimal(v.imag))
                power, column = (decimal.Decimal(1), decimal.Decimal(0)), []
                for _ in range(count + 1):
                    column.append(complex(float(power[0] - 1), float(power[1])))
                    power = decimal_mul(power, base)
                direct.append(column)
        np.testing.assert_allclose(table, np.array(direct).T, rtol=0, atol=bound)

    def test_zero_count(self):
        table = solvers._power_table(np.array([0.5 + 0.1j]), 0, np.multiply)
        assert table.shape == (1, 1) and table[0, 0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 99])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_spectral_sums_match_direct_powers(self, monkeypatch, n, stride):
        theta = np.array([0.0, 2e-3, 0.07, 0.3, 0.9])
        weight = np.array([0.05, 0.1, 0.2, 0.1, 0.05])
        with decimal.localcontext(DECIMALS):
            re_ref = [decimal.Decimal(0)] * (n + 1)
            ab_ref = [decimal.Decimal(0)] * (n + 1)
            for t, w in zip(theta.tolist(), weight.tolist()):
                t, w = decimal.Decimal(t), decimal.Decimal(w)
                # the RK4 polynomial of -i t: 1 - t^2/2 + t^4/24 - i (t - t^3/6)
                p = (1 - t**2 / 2 + t**4 / 24, t**3 / 6 - t)
                step = (decimal.Decimal(1), decimal.Decimal(0))
                for _ in range(stride):
                    step = decimal_mul(step, p)
                power = (decimal.Decimal(1), decimal.Decimal(0))
                for m in range(n + 1):
                    re_ref[m] += w * (power[0] - 1)
                    ab_ref[m] += w * (power[0] ** 2 + power[1] ** 2 - 1)
                    power = decimal_mul(power, step)
            re_ref = np.array(re_ref, dtype=float)
            ab_ref = np.array(ab_ref, dtype=float)
        bound = 2e-16 * (stride * n + 1)
        # the five modes fit in one chunk of the default size; chunks of one
        # or two elements split them
        for chunk in (1, 2, solvers._CHUNK):
            monkeypatch.setattr(solvers, "_CHUNK", chunk)
            re, ab = solvers._spectral_sums(theta, weight, n, stride)
            np.testing.assert_allclose(re, re_ref, rtol=0, atol=bound, err_msg=f"chunk {chunk}")
            np.testing.assert_allclose(ab, ab_ref, rtol=0, atol=bound, err_msg=f"chunk {chunk}")


class TestPairMap:
    """The propagators' pair maps: what a state reads off them, and their
    strided forms."""

    RUNS = ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3), (bath_propagator, 1e-3))

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 10.0, 20.0])
    def test_strided_map_is_the_thinned_map(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        for propagator, dt in self.RUNS:
            full = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            assert full.p.shape == (2, 2, full.tau.size) and full.p.dtype == float
            for stride in (5, 7, 50):
                thin = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0, stride=stride))
                assert np.array_equal(thin.tau, full.tau[::stride])
                # as the strided series, up to the rounding of the powers
                np.testing.assert_allclose(thin.p, full.p[..., ::stride], rtol=0, atol=2e-14)

    @pytest.mark.parametrize("big_r", [0.5, 10.0])
    def test_state_reads_x_plus_p_x(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        init = InitialState.from_separability(0.3, 0.7)
        x = np.array([init.c01, init.c02])
        for propagator, dt in self.RUNS:
            pair_map = propagator(res, coup, SolverConfig(dt=dt, t_max=2.0, n_modes=400))
            series = pair_map(init)
            c = x[:, None] + np.einsum("ijt,j->it", pair_map.p, x)
            assert series.tau is pair_map.tau
            assert series.meta["solver"] == pair_map.meta["solver"]
            np.testing.assert_allclose(series.c1, c[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(series.c2, c[1], rtol=0, atol=1e-15)
        # the comb's map is a a^T sigma, its drive the coupling vector
        a = np.array([coup.alpha1, coup.alpha2])
        np.testing.assert_array_equal(pair_map.p, np.multiply.outer(np.outer(a, a),
                                                                    pair_map.sigma))


class TestSolverConfig:
    @pytest.mark.parametrize("stride", [0, -1, True, 1.5])
    def test_rejects_bad_stride(self, stride):
        with pytest.raises(ValueError, match="stride must be"):
            SolverConfig(dt=1e-3, t_max=1.0, stride=stride)

    def test_numpy_stride_stored_as_int(self):
        cfg = SolverConfig(dt=1e-3, t_max=1.0, stride=np.int64(5))
        assert type(cfg.stride) is int and cfg.stride == 5
        assert SolverConfig(dt=1e-3, t_max=1.0).stride == 1

    def test_numpy_scalars_stored_as_floats(self):
        cfg = SolverConfig(dt=np.float64(1e-3), t_max=np.float64(2.0),
                           freq_window=np.float64(20.0))
        for name in ("dt", "t_max", "freq_window"):
            assert type(getattr(cfg, name)) is float

    def test_float64_step_gives_identical_output(self):
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.3, 0.7)
        for propagator in (volterra_propagator, aux_ode_propagator, bath_propagator):
            # 200 modes keep the comb's recurrence (3.14) past the horizon
            plain = propagator(res, coup, SolverConfig(dt=1e-3, t_max=2.0, n_modes=200))(init)
            wide = propagator(res, coup,
                              SolverConfig(dt=np.float64(1e-3), t_max=2.0, n_modes=200))(init)
            assert np.array_equal(plain.c1, wide.c1)
            assert np.array_equal(plain.c2, wide.c2)

    def test_refusal_message_prints_plain_step(self):
        res, coup = resonant_system(25.0, 0.87)
        init = InitialState.from_separability(0.0)
        with pytest.raises(ValueError, match=r"^dt = 0\.001 under-resolves"):
            bath_propagator(res, coup, bath_cfg(np.float64(1e-3), 1.0))(init)

    @pytest.mark.parametrize("n_modes", [2.5, True, "50", 50.0])
    def test_rejects_non_integer_mode_count(self, n_modes):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes)

    def test_numpy_mode_count_stored_as_int(self):
        assert type(SolverConfig(dt=1e-3, t_max=1.0, n_modes=np.int64(50)).n_modes) is int

    def test_rejects_comb_past_mode_ceiling(self):
        assert SolverConfig(dt=1e-3, t_max=1.0, n_modes=solvers.MAX_MODES).n_modes == 20000
        for n_modes in (solvers.MAX_MODES + 1, 10**12):
            with pytest.raises(ValueError, match=r"n_modes must be between 1 and 20000, "
                                                 f"got {n_modes}$"):
                SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes)

    def test_default_comb_within_bath_budget(self):
        # the bare defaults are the scenarios' comb, which reaches tau = 10
        # at R = 10 before it recurs
        cfg = SolverConfig(dt=1e-3, t_max=10.0)
        assert (cfg.n_modes, cfg.freq_window) == (2000, 20.0)
        config = ScenarioConfig(scenario="solver-xcheck")
        assert (config.n_modes, config.freq_window) == (cfg.n_modes, cfg.freq_window)
        for big_r in (0.5, 10.0):
            res, coup = resonant_system(big_r, 0.87)
            init = InitialState.from_separability(0.0)
            series = bath_propagator(res, coup, cfg)(init)
            assert max_gap(series, res, coup, init) <= scenarios.XCHECK_TOLERANCES["bath"]

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_max=-1.0)

    def test_rejects_step_too_coarse_for_dynamics(self):
        # dt = 0.5 cannot resolve a decade-fast coupling
        res, coup = resonant_system(10.0, 0.5)
        init = InitialState.from_separability(0.0)
        for propagator in (volterra_propagator, aux_ode_propagator, bath_propagator):
            with pytest.raises(ValueError, match="under-resolves"):
                propagator(res, coup, bath_cfg(0.5, 5.0))(init)


class TestVolterra:
    def test_reference_accuracy_weak_coupling(self):
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(1.0)
        series = volterra_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-5

    def test_reference_accuracy_strong_coupling(self):
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        series = volterra_propagator(res, coup, SolverConfig(dt=1e-4, t_max=10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-5

    def test_second_order_convergence(self):
        # halving dt divides the error by ~4
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        gaps = [max_gap(volterra_propagator(res, coup, SolverConfig(dt=dt, t_max=2.0))(init),
                        res, coup, init)
                for dt in (1.6e-2, 8e-3, 4e-3)]
        assert 3.6 < gaps[0] / gaps[1] < 4.4
        assert 3.6 < gaps[1] / gaps[2] < 4.4

    def test_subradiant_state_exactly_constant(self):
        res, coup = resonant_system(2.0, 0.7)
        init = coup.psi_minus()
        series = volterra_propagator(res, coup, SolverConfig(dt=1e-3, t_max=5.0))(init)
        np.testing.assert_allclose(series.c1, init.c01, atol=1e-12)
        np.testing.assert_allclose(series.c2, init.c02, atol=1e-12)

    def test_tabulated_kernel_matches_exponential_path(self):
        # the memory integral summed over the whole history from kernel
        # samples must reproduce the O(1) recursion to rounding accuracy
        res, coup = resonant_system(0.5, 0.3)
        init = InitialState.from_separability(-0.5, 1.0)
        dt, t_max = 1e-3, 2.0
        n = int(round(t_max / dt))
        fast = volterra_propagator(res, coup, SolverConfig(dt=dt, t_max=t_max))(init)
        c1, c2 = volterra_full_history(res.memory_kernel(np.arange(n + 1) * dt),
                                       coup, init, dt, n)
        np.testing.assert_allclose(c1, fast.c1, atol=1e-10)
        np.testing.assert_allclose(c2, fast.c2, atol=1e-10)


class TestAuxOde:
    def test_reference_accuracy(self):
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(1.0)
        series = aux_ode_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-6

    def test_reference_accuracy_strong_coupling(self):
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        series = aux_ode_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-6

    def test_fourth_order_convergence(self):
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        gaps = [max_gap(aux_ode_propagator(res, coup, SolverConfig(dt=dt, t_max=2.0))(init),
                        res, coup, init)
                for dt in (1.6e-2, 8e-3, 4e-3)]
        assert 14.0 < gaps[0] / gaps[1] < 18.0
        assert 14.0 < gaps[1] / gaps[2] < 18.0

    def test_agreement_with_volterra_at_shared_step(self):
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(1.0)
        sv = volterra_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))(init)
        sa = aux_ode_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))(init)
        gap = max(float(np.max(np.abs(sv.c1 - sa.c1))),
                  float(np.max(np.abs(sv.c2 - sa.c2))))
        assert gap < 1e-4


class TestDiscretizedBath:
    def test_mode_comb_weights_match_spectral_density(self):
        res = resonant_system(0.5, 0.5)[0]
        offsets, g = solvers._comb(res, n_modes=200, freq_window=10.0)
        omegas = res.omega0 + offsets
        assert omegas.shape == g.shape == (200,)
        d_omega = 2.0 * 10.0 * res.lam / 200
        for k in (0, 57, -1):
            assert g[k] ** 2 == pytest.approx(res.spectral_density(omegas[k]) * d_omega,
                                              rel=1e-12)
        # comb is symmetric around resonance
        assert omegas[0] - res.omega0 == pytest.approx(res.omega0 - omegas[-1], abs=1e-12)
        # ... exactly: offsets mirror and couplings match bit for bit
        offsets = omegas - res.omega0
        assert np.array_equal(offsets, -offsets[::-1])
        assert np.array_equal(g, g[::-1])

    def test_reference_accuracy_weak_coupling(self):
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(0.0)
        series = bath_propagator(res, coup, bath_cfg(1e-3, 10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-3

    def test_reference_accuracy_strong_coupling(self):
        # the comb reaches 20 Rabi frequencies either side, well past the splitting
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        series = bath_propagator(res, coup, bath_cfg(1e-3, 10.0))(init)
        assert max_gap(series, res, coup, init) < 1e-3

    def test_error_settles_with_mode_count(self):
        # coarse combs are visibly off; from 250 modes on the error is
        # pinned by the frozen frequency window, not the mode count
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(0.0)
        gaps = {n: max_gap(bath_propagator(res, coup,
                                           bath_cfg(1e-3, 10.0, n_modes=n))(init),
                           res, coup, init)
                for n in (100, 250, 500, 1000, 2000)}
        assert gaps[250] < gaps[100] / 10.0
        for n in (250, 500, 1000):
            assert gaps[2000] == pytest.approx(gaps[n], rel=0.01)
        assert gaps[2000] < 1e-3

    def test_series_independent_of_omega0(self):
        # the comb is built in detuning coordinates, so a large resonance
        # frequency cancels no digits
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState(1.0, 0.0)
        cfg = bath_cfg(1e-3, 2.0)
        base = bath_propagator(res, coup, cfg)(init)
        for omega0 in (1e9, 1e16):
            shifted = bath_propagator(ReservoirSpec(w=res.w, lam=res.lam, omega0=omega0),
                                      coup, cfg)(init)
            assert np.array_equal(shifted.c1, base.c1)
            assert np.array_equal(shifted.c2, base.c2)
            assert np.array_equal(shifted.meta["norm_total"], base.meta["norm_total"])

    def test_subradiant_state_exactly_constant(self):
        res, coup = resonant_system(0.5, 0.7)
        init = coup.psi_minus()
        series = bath_propagator(res, coup, bath_cfg(1e-3, 3.0, n_modes=400))(init)
        np.testing.assert_allclose(series.c1, init.c01, atol=1e-12)
        np.testing.assert_allclose(series.c2, init.c02, atol=1e-12)

    @pytest.mark.parametrize("big_r, n_modes", [(0.5, 50), (10.0, 50), (0.5, 51), (20.0, 400)])
    def test_nested_step_matches_stage_vector_rk4(self, big_r, n_modes):
        # one propagator run serves every initial state, including the
        # sub-radiant one that the comb never sees (a.x0 = 0); the folded
        # comb is checked on an even comb, an odd one with its centre mode
        # and the strong-coupling band edge; the horizon stops at the comb's
        # recurrence (1.57 for 50 modes at R = 10), past which runs are refused
        res, coup = resonant_system(big_r, 0.87)
        t_max = min(3.0, comb_recurrence_time(res, coup, n_modes, 20.0))
        cfg = bath_cfg(1e-3, t_max, n_modes=n_modes)
        propagate = bath_propagator(res, coup, cfg)
        inits = [InitialState(1.0, 0.0), InitialState(0.0, 1.0), coup.psi_minus(),
                 InitialState.from_separability(0.3, 0.7)]
        for init in inits:
            series = propagate(init)
            c1, c2, norm = rk4_bath_reference(res, coup, init, cfg)
            np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-13)
            np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-13)
            np.testing.assert_allclose(series.meta["norm_total"], norm, rtol=0, atol=1e-13)
        direct = bath_propagator(res, coup, cfg)(inits[-1])
        assert np.array_equal(direct.c1, series.c1)
        assert np.array_equal(direct.meta["norm_total"], series.meta["norm_total"])

    def test_xcheck_bath_series_carry_norm_total(self, monkeypatch):
        # a multi-s cross-check makes one comb run per coupling, and its map
        # gives each state the amplitudes and the norm of a direct run
        maps = []
        real = scenarios.bath_propagator

        def recording(res, coup, cfg):
            out = real(res, coup, cfg)
            maps.append((res, coup, cfg, out))
            return out

        monkeypatch.setattr(scenarios, "bath_propagator", recording)
        cfg = ScenarioConfig(scenario="solver-xcheck", big_r=0.5, r1=(0.87,),
                             s=(-1.0, 0.0, 0.3), phi=0.7, tau_max=2.0, n_modes=50)
        run_solver_xcheck(cfg)
        assert len(maps) == 1
        res, coup, scfg, pair_map = maps[0]
        for s in cfg.s:
            init = InitialState.from_separability(s, cfg.phi)
            out = pair_map(init)
            c1, c2, norm = rk4_bath_reference(res, coup, init, scfg)
            np.testing.assert_allclose(out.c1, c1, rtol=0, atol=1e-13)
            np.testing.assert_allclose(out.c2, c2, rtol=0, atol=1e-13)
            np.testing.assert_allclose(out.meta["norm_total"], norm, rtol=0, atol=1e-13)

    def test_total_excitation_conserved(self):
        res, coup = resonant_system(0.5, 0.87)
        init = InitialState.from_separability(0.0)
        series = bath_propagator(res, coup, bath_cfg(1e-3, 10.0))(init)
        norms = series.meta["norm_total"]
        assert float(np.max(np.abs(norms - norms[0]))) < 1e-8

    def test_refuses_horizon_past_recurrence(self):
        res, coup = resonant_system(0.1, 0.5)
        init = InitialState.from_separability(0.0)
        # 100 modes over [-20, 20]: recurrence at 2 pi / 0.4 ~ 15.7
        short = bath_propagator(res, coup, bath_cfg(1e-3, 10.0, n_modes=100))(init)
        assert short.meta["recurrence_time"] == pytest.approx(2.0 * math.pi / 0.4,
                                                              rel=1e-12)
        assert "recurrence_warning" not in short.meta
        with pytest.raises(ValueError, match=r"recurrence time 15\.708 .*"
                                             "raise n_modes or shorten tau_max"):
            bath_propagator(res, coup, bath_cfg(1e-3, 20.0, n_modes=100))


def folded_spectrum_all_poles(o, b, chunk=1 << 16, iterations=12):
    """The secular solve with every root iterated against every pole, in
    chunks of about ``chunk / len(o)`` roots: the form the solver had before
    it split the poles into near and far ones, kept as the oracle of that
    split.  Shares only :func:`solvers._model_root` with the solver."""
    m = o.size
    osq = o * o
    total = float(np.sum(b))
    lam = np.empty(m)
    weight = np.empty(m)
    rows = max(1, chunk // m)
    eps = np.finfo(float).eps
    for j0 in range(0, m, rows):
        j1 = min(j0 + rows, m)
        nr = j1 - j0
        r = np.arange(nr)
        j = np.arange(j0, j1)
        top = j == m - 1
        right = np.minimum(j + 1, m - 1)
        b_right = np.where(top, 0.0, b[right])
        half = 0.5 * np.where(top, total, (o[right] - o[j]) * (o[right] + o[j]))
        den = osq - (osq[j] + half)[:, None]
        den[r, j] = den[r, right] = np.inf
        rest = 1.0 + (b / den).sum(axis=1)
        flip = (rest + (b_right - b[j]) / half < 0.0) & ~top
        pole = np.where(flip, right, j)
        origin = o[pole]
        gap = (o - origin[:, None]) * (o + origin[:, None])
        left_pole = gap[r, j]
        right_pole = np.where(top, total, gap[r, right])
        delta = solvers._model_root(rest, b[j], b_right, left_pole, right_pole)
        b_pole = b[pole]
        on_left = np.where(flip, 0.0, b_pole)
        on_right = np.where(flip, b_pole, 0.0)
        band_left = np.where(np.tri(nr, dtype=bool), b[j0:j1], 0.0)
        band_right = b[j0:j1] - band_left
        rest_slope = np.empty(nr)
        live = r
        for it in range(iterations):
            inv = (gap if live.size == nr else gap[live]) - delta[live, None]
            inv[np.arange(live.size), pole[live]] = np.inf
            np.reciprocal(inv, out=inv)
            sq = inv * inv
            bl, br = band_left[live], band_right[live]
            psi = inv[:, :j0] @ b[:j0] + np.sum(inv[:, j0:j1] * bl, axis=1)
            phi = inv[:, j1:] @ b[j1:] + np.sum(inv[:, j0:j1] * br, axis=1)
            dpsi = sq[:, :j0] @ b[:j0] + np.sum(sq[:, j0:j1] * bl, axis=1)
            dphi = sq[:, j1:] @ b[j1:] + np.sum(sq[:, j0:j1] * br, axis=1)
            at = delta[live]
            rest_slope[live] = dpsi + dphi
            to_left = left_pole[live] - at
            to_right = right_pole[live] - at
            step = solvers._model_root(1.0 + psi - dpsi * to_left + phi - dphi * to_right,
                                       dpsi * to_left * to_left + on_left[live],
                                       dphi * to_right * to_right + on_right[live],
                                       left_pole[live], right_pole[live])
            sq_at = at * at
            noise = (sq_at * (1.0 + phi - psi) + b_pole[live] * np.abs(at)) / (
                sq_at * (dpsi + dphi) + b_pole[live])
            moving = np.abs(step - at) > 8.0 * eps * (np.abs(step) + noise)
            if it == iterations - 1 or not moving.any():
                break
            live = live[moving]
            delta[live] = step[moving]
        mu = origin * origin + delta
        lam[j0:j1] = np.sqrt(mu)
        weight[j0:j1] = 0.5 * (delta / mu) * (delta / (b_pole + delta * delta * rest_slope))
    return lam, weight


class TestBathSpectrum:
    """The comb run evaluated from the arrowhead's spectrum, against a dense
    eigensolver and against the comb stepped one RK4 step at a time."""

    @staticmethod
    def folded(big_r, n_modes, r1=0.87):
        res, coup = resonant_system(big_r, r1)
        window = 20.0 * max(1.0, big_r)
        offsets, g = solvers._comb(res, n_modes, window)
        c = coup.alpha_t * g
        lower = n_modes // 2
        mult = np.where(np.arange(lower, n_modes) == (n_modes - 1) / 2.0, 1.0, 2.0)
        return offsets, c, offsets[lower:], mult * c[lower:] ** 2

    @staticmethod
    def zero_weight(o, b):
        """Pair weight of the zero eigenvalue: 0 for an odd comb, else the
        squared first component of ``(1, -c/offsets)`` normalised."""
        return 0.0 if o[0] == 0.0 else 1.0 / (1.0 + math.fsum(b / (o * o)))

    # from 1000 modes the roots come in several blocks, some with far poles on
    # both sides
    @pytest.mark.parametrize("big_r", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 50, 51, 200, 1000, 1001])
    def test_roots_and_weights_match_dense_eigensolver(self, big_r, n_modes):
        offsets, c, o, b = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b)
        w0 = self.zero_weight(o, b)
        h = np.diag(np.concatenate(([0.0], offsets)))
        h[0, 1:] = h[1:, 0] = c
        evals, evecs = np.linalg.eigh(h)
        weights = evecs[0] ** 2
        # +-lam_j, and 0 for an even comb, with the pair's weight on each
        m = lam.size
        scale = float(np.max(np.abs(evals)))
        # eigh is backward stable, so its eigenvalues sit within a few ulps
        # of the norm; its weights lose digits as norm / gap for close roots
        np.testing.assert_allclose(evals[-m:], lam, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(evals[:m], -lam[::-1], rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(weights[-m:], w, rtol=1e-10, atol=0)
        np.testing.assert_allclose(weights[:m], w[::-1], rtol=1e-10, atol=0)
        if n_modes % 2:
            assert w0 == 0.0 and evals.size == 2 * m
        else:
            assert abs(evals[m]) < 1e-14 * scale
            assert w0 == pytest.approx(weights[m], rel=1e-10, abs=0)

    @pytest.mark.parametrize("big_r", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 50, 51, 200, 2000])
    def test_weights_complete_and_roots_interlace(self, big_r, n_modes):
        _, _, o, b = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b)
        w0 = self.zero_weight(o, b)
        assert abs(w0 + 2.0 * math.fsum(w) - 1.0) <= 1e-14
        assert np.all(w > 0.0)
        mu = lam * lam
        assert np.all(o * o < mu)
        assert np.all(mu[:-1] < o[1:] * o[1:])
        # equal for a lone mode, whose root is o^2 + b, up to the rounding of lam^2
        assert mu[-1] <= (o[-1] ** 2 + float(np.sum(b))) * (1.0 + 4e-16)

    @pytest.mark.parametrize("big_r", [0.01, 0.1, 0.5, 1.0, 10.0, 24.0])
    @pytest.mark.parametrize("n_modes", [2000, 2001, 20000])
    def test_far_field_matches_all_pole_solve(self, big_r, n_modes):
        self.check_against_all_poles(big_r, n_modes)

    def check_against_all_poles(self, big_r, n_modes):
        # the far poles' sums interpolated per block against every pole summed
        # per root; both are rounded, so they may part by an ulp or two
        _, _, o, b = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b)
        ref_lam, ref_w = folded_spectrum_all_poles(o, b)
        assert np.all(np.abs(lam - ref_lam) <= 2.0 * np.spacing(ref_lam))
        np.testing.assert_allclose(w, ref_w, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("big_r", [1e-8, 1e-100])
    @pytest.mark.parametrize("n_modes", [2000, 2001])
    def test_far_field_at_block_edge_matches_all_pole_solve(self, monkeypatch, big_r,
                                                            n_modes):
        # a root hugging the pole at its block's upper edge reads the far
        # field exactly on the last Chebyshev node
        hits = []
        real = solvers._far_sums

        def recording(t, nodes, samples):
            hits.append(int(np.sum(t[:, None] == nodes)))
            return real(t, nodes, samples)

        monkeypatch.setattr(solvers, "_far_sums", recording)
        self.check_against_all_poles(big_r, n_modes)
        assert sum(hits) > 0

    def test_far_field_interpolant(self):
        # a cubic is read back to rounding between the nodes, and a point on a
        # node takes that node's sample exactly
        nodes = 1.5 * (1.0 + solvers._CHEB_X)
        cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.25])
        samples = np.column_stack([cubic(nodes), 2.0 * cubic(nodes), cubic(nodes) ** 2,
                                   -cubic(nodes), np.ones(nodes.size)])
        t = np.array([nodes[0], 0.1234, 1.5, nodes[7], 2.999, nodes[-1]])
        out = solvers._far_sums(t, nodes, samples)
        for i in (1, 2, 4):
            v = cubic(t[i])
            np.testing.assert_allclose(out[i], [v, 2.0 * v, v * v, -v], rtol=1e-14, atol=1e-15)
        for i, node in ((0, 0), (3, 7), (5, -1)):
            assert np.array_equal(out[i], samples[node, :4])

    @pytest.mark.parametrize("big_r", [1e-8, 1e-100])
    @pytest.mark.parametrize("n_modes", [50, 51])
    def test_weak_coupling_matches_stage_vector_rk4(self, big_r, n_modes):
        # roots within b ~ big_r^2 of their poles, whose 1/delta^2 overflows
        # at 1e-100; the exchange c1 ~ big_r^2 keeps its relative digits
        res, coup = resonant_system(big_r, 0.87)
        cfg = bath_cfg(1e-3, 2.0, n_modes=n_modes)
        init = InitialState(0.0, 1.0)
        series = bath_propagator(res, coup, cfg)(init)
        c1, c2, norm = rk4_bath_reference(res, coup, init, cfg)
        scale = float(np.max(np.abs(c1)))
        assert scale > 0.0
        np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-13)
        np.testing.assert_allclose(series.meta["norm_total"], norm, rtol=0, atol=1e-13)

    def test_refuses_coupling_whose_comb_underflows(self):
        res, coup = resonant_system(1e-160, 0.87)
        with pytest.raises(ValueError, match="too weak a coupling for the bath comb"):
            bath_propagator(res, coup, bath_cfg(1e-3, 1.0))

    @pytest.mark.parametrize("big_r", [0.1, 10.0, 24.0])
    def test_production_comb_matches_stage_vector_rk4(self, big_r):
        # the default comb, 2000 modes to tau = 10 in 10k steps
        res, coup = resonant_system(big_r, 0.87)
        cfg = bath_cfg(1e-3, 10.0)
        propagate = bath_propagator(res, coup, cfg)
        init = InitialState.from_separability(0.3, 0.7)
        series = propagate(init)
        c1, c2, norm = rk4_bath_reference(res, coup, init, cfg)
        np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-13)
        np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-13)
        np.testing.assert_allclose(series.meta["norm_total"], norm, rtol=0, atol=1e-13)
        assert series.c1[0] == init.c01 and series.c2[0] == init.c02
        sub = propagate(coup.psi_minus())
        assert np.all(sub.c1 == coup.psi_minus().c01)
        assert np.all(sub.c2 == coup.psi_minus().c02)


class TestCombInputs:
    @pytest.mark.parametrize("call", [
        lambda res, coup: solvers._comb(res, 2.5, 10.0),
        lambda res, coup: solvers._comb(res, True, 10.0),
        lambda res, coup: solvers._comb(res, 10.0, 10.0),
        lambda res, coup: solvers._comb(res, "10", 10.0),
        lambda res, coup: comb_recurrence_time(res, coup, 0, 20.0),
        lambda res, coup: comb_recurrence_time(res, coup, -100, 20.0),
        lambda res, coup: comb_recurrence_time(res, coup, 2.5, 20.0),
        lambda res, coup: comb_recurrence_time(res, coup, True, 20.0),
        lambda res, coup: comb_recurrence_time(res, coup, 100, -1.0),
        lambda res, coup: comb_recurrence_time(res, coup, 100, 0.0),
        lambda res, coup: comb_recurrence_time(res, coup, 100, math.inf),
        lambda res, coup: comb_recurrence_time(res, coup, 100, math.nan),
    ], ids=["sample-2.5", "sample-True", "sample-10.0", "sample-str",
            "recur-0", "recur-neg", "recur-2.5", "recur-True",
            "recur-window-neg", "recur-window-0", "recur-window-inf", "recur-window-nan"])
    def test_rejects_bad_comb(self, call):
        res, coup = resonant_system(0.5, 0.87)
        with pytest.raises(ValueError, match="n_modes must be|freq_window must be"):
            call(res, coup)

    def test_step_limit_rejects_unknown_method(self):
        res, coup = resonant_system(0.5, 0.87)
        with pytest.raises(ValueError, match="volterra, ode, bath"):
            step_limit(res, coup, "bogus", 20.0)


class TestSolverNames:
    def test_one_name_per_solver(self):
        # the name step_limit takes, the series carries, the config's step
        # key and the cross-check budget use, and the CLI offers
        res, coup = resonant_system(0.5, 0.87)
        cfg = ScenarioConfig(scenario="solver-xcheck", tau_max=0.1, n_modes=50)
        init = InitialState.from_separability(0.0)
        for name in SOLVER_NAMES:
            assert step_limit(res, coup, name, cfg.freq_window) > 0.0
            dt = getattr(cfg, f"dt_{name}")
            series = scenarios._propagator(cfg, name, res, coup, dt)(init)
            assert series.meta["solver"] == name
        assert set(scenarios.XCHECK_TOLERANCES) == set(SOLVER_NAMES)
        solver = next(a for a in build_parser()._actions if a.dest == "solver")
        assert tuple(solver.choices) == ("closed",) + SOLVER_NAMES
        assert SOLVER_NAMES == ("volterra", "ode", "bath")


class TestTimeSeries:
    def test_grid_and_table_shape(self):
        res, coup = resonant_system(0.5, 0.5)
        init = InitialState.from_separability(0.0)
        series = aux_ode_propagator(res, coup, SolverConfig(dt=1e-2, t_max=1.0))(init)
        assert series.tau.size == 101
        assert series.tau[0] == 0.0
        assert series.tau[-1] == pytest.approx(1.0, abs=1e-12)

    def test_initial_point_is_exact(self):
        res, coup = resonant_system(0.5, 0.5)
        init = InitialState.from_separability(0.3, 0.8)
        for propagator in (volterra_propagator, aux_ode_propagator, bath_propagator):
            series = propagator(res, coup, SolverConfig(dt=1e-2, t_max=0.5, n_modes=50))(init)
            assert series.c1[0] == init.c01
            assert series.c2[0] == init.c02
