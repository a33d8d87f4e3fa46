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
from zeno_ent.solvers import BATH_TOLERANCE, SOLVER_NAMES, step_limit


def max_gap(series, res, coup, init):
    ref = closed_form_series(res, coup, init, series.tau)
    return max(float(np.max(np.abs(series.c1 - ref.c1))),
               float(np.max(np.abs(series.c2 - ref.c2))))


def whole_map(pair_map):
    """The map ``P = a a^T sigma`` on every point of its grid, shape ``(2,
    2, size)``, from the whole series ``rows(0, size)``."""
    a = np.array(pair_map.drive)
    return np.multiply.outer(np.outer(a, a), pair_map.rows(0, pair_map.size))


def bath_cfg(dt, t_max, n_modes=2000, freq_window=20.0):
    return SolverConfig(dt=dt, t_max=t_max, n_modes=n_modes, freq_window=freq_window)


def solver_comb(res, coup, cfg):
    """The solver's comb of ``cfg`` at this coupling, ``(edge, dω, offsets,
    b, total)`` of its upper half."""
    return solvers._comb(res, coup, solvers._bright_weight(res, coup), cfg.freq_window,
                         cfg.n_modes)


def full_comb(res, coup, cfg):
    """The whole comb of ``cfg`` at this coupling, the offsets of the upper
    half that the solver builds and their mirror below, with the couplings
    ``g`` of the density, ``g**2 = J(offset) dω``."""
    _, dw, offsets, _, _ = solver_comb(res, coup, cfg)
    offsets = np.concatenate((-offsets[::-1], offsets))
    return offsets, np.sqrt(res.detuned_density(offsets) * dw)


def recurrence_time(res, coup, n_modes):
    """``2 pi / dω`` of the default window's comb of ``n_modes`` modes at
    this coupling."""
    return 2.0 * math.pi / solver_comb(res, coup, bath_cfg(1.0, 1.0, n_modes=n_modes))[1]


def exact_bath_reference(res, coup, init, cfg):
    """The comb evolved exactly: the dense ``eigh`` of its full generator on
    ``(c1, c2, modes)``, with the phases ``e^{-i lam_j t}`` at every step.

    ``eigh``'s eigenvalues are off by up to ``eps * |H|``, which over ``t =
    3`` at R = 20 tilts the phase of the sub-radiant state by 1e-13; the
    Rayleigh quotients of its eigenvectors are off by the square of their
    error, so they serve as ``lam_j``."""
    offsets, g = full_comb(res, coup, cfg)
    h = np.diag(np.concatenate(([0.0, 0.0], offsets)))
    h[0, 2:] = h[2:, 0] = coup.alpha1 * g
    h[1, 2:] = h[2:, 1] = coup.alpha2 * g
    evecs = np.linalg.eigh(h)[1]
    evals = np.einsum("ij,ij->j", evecs, h @ evecs)
    y0 = np.zeros(cfg.n_modes + 2, dtype=complex)
    y0[0], y0[1] = init.c01, init.c02
    tau = np.arange(int(round(cfg.t_max / cfg.dt)) + 1) * cfg.dt
    y = evecs @ (np.exp(-1j * np.multiply.outer(evals, tau)) * (evecs.T @ y0)[:, None])
    return y[0], y[1]


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
        # one run, of the bright recurrence, serves every state; the oracle
        # carries the state's (s, u, m) through the decimal block loop, with
        # the pair's move a s and u's move |a|^2 s read off the run's D~
        steps = []
        real = solvers._blocked_powers

        def recording(d, n, mul):
            steps.append((d, n))
            return real(d, n, mul)

        monkeypatch.setattr(solvers, "_blocked_powers", recording)
        res, coup = resonant_system(big_r, 0.87)
        a = np.array([coup.alpha1, coup.alpha2])
        asq = solvers._bright_weight(res, coup)
        for propagator, dt in ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3)):
            run = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            (d, n), = steps
            steps.clear()
            assert d.shape == (2, 2)
            lifted = np.zeros((3, 3))
            lifted[0, 1:] = d[0]
            lifted[1, 1:] = asq * d[0]
            lifted[2, 1:] = d[1]
            for s, phi in self.INITS:
                init = InitialState.from_separability(s, phi)
                series = run(init)
                move, _ = amplitude_rows_per_state(lifted, (0.0, a @ [init.c01, init.c02], 0.0),
                                                   n)
                np.testing.assert_allclose(series.c1, init.c01 + a[0] * move, rtol=0, atol=1e-14)
                np.testing.assert_allclose(series.c2, init.c02 + a[1] * move, rtol=0, atol=1e-14)

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
    """Every propagator's map called on every ``stride``-th point against
    its whole series, thinned."""

    RUNS = ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3), (bath_propagator, 1e-3))

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 1.0, 10.0, 20.0])
    def test_strided_series_is_the_thinned_series(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        inits = [InitialState.from_separability(s, phi) for s, phi in ((0.0, 0.0), (0.3, 0.7))]
        for propagator, dt in self.RUNS:
            full = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            n = round(10.0 / dt)
            # 7 does not divide the step count; n + 3 passes it, leaving t = 0
            for stride in (5, 50, 7, n + 3):
                for init in inits:
                    ref, got = full(init), full(init, stride)
                    assert np.array_equal(got.tau, ref.tau[::stride])
                    assert got.tau.dtype == float and got.c1.shape == (n // stride + 1,)
                    assert got.c1[0] == init.c01 and got.c2[0] == init.c02
                    assert np.array_equal(got.c1, ref.c1[::stride])
                    assert np.array_equal(got.c2, ref.c2[::stride])

    def test_strided_concurrence_is_the_thinned_concurrence(self):
        # the concurrence of every 50th point of 100001 is that of the
        # 2001-point series bit for bit, though numpy's complex product
        # rounds the two lengths apart (214 of 2001 points differ by an ulp)
        res, coup = resonant_system(0.5, 0.87)
        init = InitialState.from_separability(0.0, 0.7)
        full = volterra_propagator(res, coup, SolverConfig(dt=1e-4, t_max=10.0))
        assert np.array_equal(full(init).concurrence()[::50], full(init, 50).concurrence())


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
        # exact phase steps e^{-i theta} - 1, as the bath's spectral sums raise them
        theta = np.array([1e-6, 3e-3, 0.05, 0.4, 1.0])
        d = -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)
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
        # the sums to stride * n, read on every stride-th point
        theta = np.array([0.0, 2e-3, 0.07, 0.3, 0.9])
        weight = np.array([0.05, 0.1, 0.2, 0.1, 0.05])
        with decimal.localcontext(DECIMALS):
            re_ref = [decimal.Decimal(0)] * (n + 1)
            for t, w in zip(theta.tolist(), weight.tolist()):
                w = decimal.Decimal(w)
                # e^{-i t} - 1 = -2 sin^2(t/2) - i sin(t), rounded to doubles,
                # then raised exactly
                p = (1 - 2 * decimal.Decimal(math.sin(0.5 * t)) ** 2,
                     -decimal.Decimal(math.sin(t)))
                step = (decimal.Decimal(1), decimal.Decimal(0))
                for _ in range(stride):
                    step = decimal_mul(step, p)
                power = (decimal.Decimal(1), decimal.Decimal(0))
                for m in range(n + 1):
                    re_ref[m] += w * (power[0] - 1)
                    power = decimal_mul(power, step)
            re_ref = np.array(re_ref, dtype=float)
        bound = 2e-16 * (stride * n + 1)
        # the five modes fit in one chunk of the default size; chunks of one
        # or two elements split them
        for chunk in (1, 2, solvers._CHUNK):
            monkeypatch.setattr(solvers, "_CHUNK", chunk)
            re = solvers._spectral_sums(theta, weight, stride * n)[::stride]
            np.testing.assert_allclose(re, re_ref, rtol=0, atol=bound, err_msg=f"chunk {chunk}")

    def test_spectral_sums_build_every_chunk_in_one_buffer(self, monkeypatch):
        # chunks of two modes split the five into three, the last one short:
        # each chunk's heads and tails are built in views of one work array,
        # sized for the heads and tails of the widest chunk
        theta = np.array([0.0, 2e-3, 0.07, 0.3, 0.9])
        weight = np.array([0.05, 0.1, 0.2, 0.1, 0.05])
        n = 99
        block, tall = math.isqrt(n + 1), n // math.isqrt(n + 1) + 1
        whole = solvers._spectral_sums(theta, weight, n)
        outs = []
        real = solvers._power_table

        def recording(d, count, mul, out=None):
            outs.append((d.size, out))
            return real(d, count, mul, out)

        monkeypatch.setattr(solvers, "_power_table", recording)
        monkeypatch.setattr(solvers, "_CHUNK", 2 * tall)
        got = solvers._spectral_sums(theta, weight, n)
        assert [size for size, _ in outs] == [2, 2, 2, 2, 1, 1]
        work = outs[0][1].base
        assert work is not None and work.shape == ((block + 1 + tall) * 2,)
        assert all(out.base is work and out.flags.c_contiguous for _, out in outs)
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-15 * n)


class TestPairMap:
    """The propagators' pair maps: what a state reads off them, and their
    strided reads."""

    RUNS = ((volterra_propagator, 1e-4), (aux_ode_propagator, 1e-3), (bath_propagator, 1e-3))

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 10.0, 20.0])
    def test_strided_map_is_the_thinned_map(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        a = np.array([coup.alpha1, coup.alpha2])
        for propagator, dt in self.RUNS:
            full = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            assert full.size == round(10.0 / dt) + 1
            assert tuple(full.drive) == tuple(a)
            p = whole_map(full)
            assert p.shape == (2, 2, full.size) and p.dtype == float
            for stride in (5, 7, 50):
                assert np.array_equal(full.times(0, full.size, stride),
                                      full.times(0, full.size)[::stride])
                thin = np.multiply.outer(np.outer(a, a), full.rows(0, full.size, stride))
                assert np.array_equal(thin, p[..., ::stride])

    @pytest.mark.parametrize("big_r", [0.5, 10.0])
    def test_state_reads_x_plus_p_x(self, big_r):
        res, coup = resonant_system(big_r, 0.87)
        init = InitialState.from_separability(0.3, 0.7)
        x = np.array([init.c01, init.c02])
        for propagator, dt in self.RUNS:
            pair_map = propagator(res, coup, SolverConfig(dt=dt, t_max=2.0, n_modes=400))
            series = pair_map(init)
            c = x[:, None] + np.einsum("ijt,j->it", whole_map(pair_map), x)
            assert np.array_equal(series.tau, pair_map.times(0, pair_map.size))
            np.testing.assert_allclose(series.c1, c[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(series.c2, c[1], rtol=0, atol=1e-15)
        # the comb's map is a a^T sigma, its drive the coupling vector
        assert pair_map.drive == (coup.alpha1, coup.alpha2)
        np.testing.assert_array_equal(pair_map.rows(0, pair_map.size), pair_map.sigma)


    @pytest.mark.parametrize("big_r", [0.5, 10.0, 24.0])
    def test_range_reads_are_slices_of_the_series(self, big_r):
        # PairMap.rows and PairMap.times on ranges that start and end inside
        # tail rows, and on strided ranges, are bit for bit those slices of
        # the whole series and grid
        res, coup = resonant_system(big_r, 0.87)
        rng = np.random.default_rng(7)
        for propagator, dt in self.RUNS:
            pair_map = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0))
            n = pair_map.size
            k = pair_map.factors[1][0].size if pair_map.factors else 1
            cuts = np.unique(np.concatenate(
                ([0, 1, k + 3, 3 * k - 2, n - k // 2, n], rng.integers(1, n, 12))))
            whole = pair_map.rows(0, n)
            tau = np.arange(n) * dt
            assert whole.shape == (n,) and whole.dtype == float
            assert np.array_equal(pair_map.times(0, n), tau)
            for lo, hi in zip(cuts.tolist(), cuts[1:].tolist()):
                assert np.array_equal(pair_map.rows(lo, hi), whole[lo:hi])
                assert np.array_equal(pair_map.times(lo, hi), tau[lo:hi])
                for step in (2, 7, k + 1):
                    assert np.array_equal(pair_map.rows(lo, hi, step), whole[lo:hi:step])
                    assert np.array_equal(pair_map.times(lo, hi, step), tau[lo:hi:step])

    # a step of -1 read nothing, True read every point, 0, 2.5 and 10**30
    # raised ZeroDivisionError, IndexError or TypeError, which differed
    # between the solvers, and rows(0, 5000) on 1001 points read 1023
    # values off the ODE's blocked powers and 1001 off the bath
    @pytest.mark.parametrize("call, name", [
        (lambda m: m.rows(0, m.size, -1), "step"),
        (lambda m: m.rows(0, m.size, 0), "step"),
        (lambda m: m.rows(0, m.size, True), "step"),
        (lambda m: m.rows(0, m.size, 2.5), "step"),
        (lambda m: m.times(0, m.size, 0), "step"),
        (lambda m: m(InitialState.from_separability(0.0), 0), "step"),
        (lambda m: m(InitialState.from_separability(0.0), -1), "step"),
        (lambda m: m.rows(0, 5 * m.size), "hi"),
        (lambda m: m.times(0, m.size + 1), "hi"),
        (lambda m: m.rows(0, -1), "hi"),
        (lambda m: m.rows(-1, 3), "lo"),
        (lambda m: m.times(5, 3), "lo"),
        (lambda m: m.rows(0.0, 3), "lo"),
    ], ids=["rows-step-negative", "rows-step-0", "rows-step-bool", "rows-step-float",
            "times-step-0", "call-step-0", "call-step-negative", "rows-hi-past-size",
            "times-hi-past-size", "rows-hi-negative", "rows-lo-negative", "times-lo-past-hi",
            "rows-lo-float"])
    def test_refuses_a_bad_read(self, call, name):
        res, coup = resonant_system(10.0, 0.87)
        for propagator, dt in self.RUNS:
            pair_map = propagator(res, coup, SolverConfig(dt=dt, t_max=1.0, n_modes=400))
            with pytest.raises(ValueError, match=f"^{name} must "):
                call(pair_map)

    def test_step_past_the_range_reads_its_first_point(self):
        res, coup = resonant_system(10.0, 0.87)
        for propagator, dt in self.RUNS:
            pair_map = propagator(res, coup, SolverConfig(dt=dt, t_max=1.0, n_modes=400))
            whole = pair_map.rows(0, pair_map.size)
            for lo in (0, 3, pair_map.size - 1):
                assert np.array_equal(pair_map.rows(lo, pair_map.size, 10**30), whole[lo:lo + 1])
                assert np.array_equal(pair_map.times(lo, pair_map.size, 10**30), [lo * dt])
            assert pair_map.rows(4, 4, 10**30).size == 0
            series = pair_map(InitialState.from_separability(0.0), 10**30)
            assert series.tau.tolist() == [0.0] and series.c1.size == 1


def volterra_increment(res, coup, dt):
    """The Volterra step's increment on the three amplitudes ``(c1, c2, m)``."""
    a1, a2 = coup.alpha1, coup.alpha2
    decay_m1 = math.expm1(-res.lam * dt)
    decay = 1.0 + decay_m1
    half = 0.5 * dt
    panel = half * res.w**2

    def increment(x1, x2, m):
        u = a1 * x1 + a2 * x2
        d1 = -a1 * m
        d2 = -a2 * m
        up = a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2)
        mp = decay * m + panel * (decay * u + up)
        dx1 = half * (d1 - a1 * mp)
        dx2 = half * (d2 - a2 * mp)
        un = u + a1 * dx1 + a2 * dx2
        return dx1, dx2, decay_m1 * m + panel * (decay * u + un)

    return increment


def aux_ode_increment(res, coup, dt):
    """The pseudomode RK4 step's increment on ``(c1, c2, z)``."""
    a1, a2, lam, wsq = coup.alpha1, coup.alpha2, res.lam, res.w**2

    def rhs(x1, x2, z):
        return -a1 * z, -a2 * z, -lam * z + wsq * (a1 * x1 + a2 * x2)

    def increment(*y):
        k1 = rhs(*y)
        k2 = rhs(*(v + 0.5 * dt * k for v, k in zip(y, k1)))
        k3 = rhs(*(v + 0.5 * dt * k for v, k in zip(y, k2)))
        k4 = rhs(*(v + dt * k for v, k in zip(y, k3)))
        return tuple((dt / 6.0) * (p + 2.0 * q + 2.0 * r + w)
                     for p, q, r, w in zip(k1, k2, k3, k4))

    return increment


class TestBrightReduction:
    """The two-variable bright recurrences against the full three-amplitude
    maps, ``(c1, c2, m)`` or ``(c1, c2, z)``, evaluated by the same blocked
    powers: the pair moves only along ``a``, by ``a a^T sigma``."""

    @staticmethod
    def full_map(increment, n):
        """``P = M**k - 1`` on the pair, shape ``(n + 1, 2, 2)``, from the
        3x3 step read off ``increment`` and its blocked powers."""
        d = np.array([increment(*unit) for unit in np.eye(3).tolist()]).T
        heads, tails = solvers._blocked_powers(d, n, np.matmul)
        grid = tails[:, None] + heads[None] + heads[None] @ tails[:, None]
        return grid.reshape(-1, 3, 3)[:n + 1, :2, :2]

    @pytest.mark.parametrize("r1", [0.0, 0.87])
    @pytest.mark.parametrize("big_r", [0.1, 10.0, 24.0])
    def test_sigma_matches_the_full_map(self, big_r, r1):
        res, coup = resonant_system(big_r, r1)
        a = np.array([coup.alpha1, coup.alpha2])
        asq = solvers._bright_weight(res, coup)
        dark = np.array([-a[1], a[0]]) / math.sqrt(asq)
        for propagator, increment, dt in ((volterra_propagator, volterra_increment, 1e-4),
                                          (aux_ode_propagator, aux_ode_increment, 1e-3)):
            n = round(10.0 / dt)
            full = self.full_map(increment(res, coup, dt), n)
            sigma = propagator(res, coup, SolverConfig(dt=dt, t_max=10.0)).rows(0, n + 1)
            # both within the rounding of the blocked powers, which reaches
            # 21 eps of max |P| in the full map's leak at R = 24
            bound = 64.0 * np.finfo(float).eps * float(np.max(np.abs(full)))
            # a^T P a / |a|^4, the full map's bright entry, is sigma
            bright = np.einsum("i,tij,j->t", a, full, a) / (asq * asq)
            assert asq * float(np.max(np.abs(sigma - bright))) <= bound
            # and the full map leaks nothing out of the dark direction
            assert float(np.max(np.abs(full @ dark))) <= bound


class TestCouplingOverflow:
    """``|a|^2`` of a coupling past about ``1.3e154`` overflows a double:
    every propagator refuses it by name, where the Volterra and ODE maps
    were NaN at every point and the bath called it too weak."""

    @pytest.mark.parametrize("propagator", [volterra_propagator, aux_ode_propagator,
                                            bath_propagator])
    def test_refuses_coupling_whose_weight_overflows(self, propagator):
        res, coup = resonant_system(2e154, 0.6)
        cfg = SolverConfig(dt=1e-4 / 2e154, t_max=1e-2 / 2e154)
        with pytest.raises(ValueError, match=r"big_r = 2e\+154 is too strong a coupling for "
                                             r"the solvers: \|a\|\^2 = alpha1\^2 \+ alpha2\^2 "
                                             "overflows a double"):
            propagator(res, coup, cfg)

    @pytest.mark.parametrize("propagator", [volterra_propagator, aux_ode_propagator])
    def test_strong_coupling_that_fits_still_builds(self, propagator):
        res, coup = resonant_system(1e153, 0.6)
        pair_map = propagator(res, coup, SolverConfig(dt=1e-4 / 1e153, t_max=1e-2 / 1e153))
        assert np.all(np.isfinite(pair_map.rows(0, pair_map.size)))

    # the default comb at 1e152 overflowed its secular solve and blamed
    # freq_window; at 1e153 its density warned of an overflow and the comb
    # was called too weak
    @pytest.mark.parametrize("n_modes, big_r", [(2000, 1e152), (2000, 1e153)])
    def test_bath_refuses_coupling_past_its_comb(self, n_modes, big_r):
        res, coup = resonant_system(big_r, 0.6)
        cfg = SolverConfig(dt=1e-4 / big_r, t_max=1e-2 / big_r, n_modes=n_modes)
        with pytest.raises(ValueError, match=f"^big_r = {re.escape(repr(big_r))} is too strong "
                                             "a coupling for the bath comb at freq_window"):
            bath_propagator(res, coup, cfg)

    @pytest.mark.parametrize("propagator", [volterra_propagator, aux_ode_propagator,
                                            bath_propagator])
    def test_refuses_numpy_scalar_coupling_without_warning(self, propagator):
        # a numpy float64 coupling was squared in numpy, which warned of the
        # overflow before the refusal; the warning fails here
        res, coup = resonant_system(np.float64(2e154), 0.6)
        cfg = SolverConfig(dt=1e-4 / 2e154, t_max=1e-2 / 2e154)
        with pytest.raises(ValueError, match=r"big_r = 2e\+154 is too strong a coupling for "
                                             "the solvers"):
            propagator(res, coup, cfg)

    def test_bath_refuses_coupling_whose_weight_underflows(self):
        # the squared couplings of a two-mode comb at w = 10 still fit at
        # alpha_t = 1e-154, but 2 / |a|^2 overflows; a lone mode at
        # R = 1e-154 met a 0 of the spectral sums there with a numpy warning
        res = ReservoirSpec(w=10.0, lam=1.0)
        cfg = SolverConfig(dt=0.01, t_max=0.1, n_modes=2, freq_window=20.0)
        coup = CouplingSpec.from_relative(1e-154, 0.6)
        big_r = re.escape(repr(coup.alpha_t * res.w / res.lam))
        with pytest.raises(ValueError, match=f"^big_r = {big_r} is too weak a coupling for "
                                             r"the bath comb: .* \|a\|\^2 to 1e-308"):
            bath_propagator(res, coup, cfg)
        pair_map = bath_propagator(res, CouplingSpec.from_relative(1.2e-154, 0.6), cfg)
        assert np.all(np.isfinite(pair_map.rows(0, pair_map.size)))

    def test_bath_builds_at_1e151(self):
        res, coup = resonant_system(1e151, 0.6)
        pair_map = bath_propagator(res, coup, SolverConfig(dt=1e-4 / 1e151, t_max=1e-2 / 1e151))
        assert np.all(np.isfinite(pair_map.rows(0, pair_map.size)))

    def test_bath_refuses_spectrum_that_overflows(self, monkeypatch):
        # no input is known to reach this guard past the comb's sampling
        # refusal, so a secular solve that overflows stands in for one: the
        # solve runs with numpy's overflow raised, and the refusal names it
        def overflowing(o, b, total, dw, lam, asq, density):
            return np.float64(1e308) * np.array([10.0]), None

        monkeypatch.setattr(solvers, "_folded_spectrum", overflowing)
        res, coup = resonant_system(0.1, 0.87)
        with pytest.raises(ValueError) as info:
            bath_propagator(res, coup, bath_cfg(1e-3, 1.0))
        assert str(info.value) == (
            "freq_window = 20.0 is too narrow a bath comb for double precision: its spectrum "
            "does not resolve (overflow encountered in multiply); pick a window near the "
            "default 20.0")
        assert info.value.__cause__ is None and info.value.__suppress_context__


class TestSolverConfig:
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
        # Volterra and the ODE need dt < 1 / (2 * 25) = 0.02 at R = 25
        res, coup = resonant_system(25.0, 0.87)
        cfg = SolverConfig(dt=np.float64(0.05), t_max=1.0)
        for propagator in (volterra_propagator, aux_ode_propagator):
            with pytest.raises(ValueError, match=r"^dt = 0\.05 under-resolves"):
                propagator(res, coup, cfg)

    def test_rejects_horizon_shorter_than_a_step(self):
        with pytest.raises(ValueError, match=r"^t_max = 5e-05 is shorter than one step, "
                                             r"dt = 0\.0001$"):
            SolverConfig(dt=np.float64(1e-4), t_max=5e-5)
        assert SolverConfig(dt=1e-4, t_max=1e-4).t_max == 1e-4

    @pytest.mark.parametrize("n_modes", [2.5, True, "50", 50.0])
    def test_rejects_non_integer_mode_count(self, n_modes):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes)

    def test_numpy_mode_count_stored_as_int(self):
        assert type(SolverConfig(dt=1e-3, t_max=1.0, n_modes=np.int64(50)).n_modes) is int

    def test_rejects_comb_past_mode_ceiling(self):
        assert SolverConfig(dt=1e-3, t_max=1.0, n_modes=solvers.MAX_MODES).n_modes == 20000
        for n_modes in (solvers.MAX_MODES + 2, 10**12):
            with pytest.raises(ValueError, match=r"^n_modes must be even and between 2 and "
                                                 f"20000, got {n_modes}$"):
                SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes)

    @pytest.mark.parametrize("n_modes", [1, 3, 51, 2001, 19999, 20001,
                                         pytest.param(np.int64(7), id="int64-7")])
    def test_rejects_odd_mode_count(self, n_modes):
        # an odd comb put a mode on resonance, which held the Lorentzian peak
        # of a coarse comb and had a secular solve of its own
        with pytest.raises(ValueError, match=r"^n_modes must be even and between 2 and "
                                             f"20000, got {int(n_modes)}$"):
            SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes)
        assert SolverConfig(dt=1e-3, t_max=1.0, n_modes=2).n_modes == 2

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

    @pytest.mark.parametrize("name", ["dt", "t_max", "freq_window"])
    def test_rejects_integer_too_large_for_a_double(self, name):
        # float() raised OverflowError on these
        kwargs = {"dt": 1e-3, "t_max": 1.0, name: 10**400}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolverConfig(**kwargs)

    def test_rejects_step_too_coarse_for_dynamics(self):
        # dt = 0.5 cannot resolve a decade-fast coupling
        res, coup = resonant_system(10.0, 0.5)
        init = InitialState.from_separability(0.0)
        for propagator in (volterra_propagator, aux_ode_propagator):
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
        kernel = res.w**2 * np.exp(-res.lam * (np.arange(n + 1) * dt))
        c1, c2 = volterra_full_history(kernel, coup, init, dt, n)
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
        res, coup = resonant_system(0.5, 0.5)
        cfg = bath_cfg(1e-3, 1.0, n_modes=200, freq_window=10.0)
        edge, d_omega, offsets, b, total = solver_comb(res, coup, cfg)
        assert (edge, d_omega) == (10.0 * res.lam, 2.0 * 10.0 * res.lam / 200)
        assert offsets.shape == b.shape == (100,)
        assert offsets[0] == 0.5 * d_omega
        assert offsets[-1] == pytest.approx(edge - 0.5 * d_omega, rel=1e-15)
        # each kept mode counts twice, for its mirror
        asq = solvers._bright_weight(res, coup)
        for k in (0, 57, -1):
            assert b[k] == pytest.approx(
                2.0 * asq * res.detuned_density(offsets[k]) * d_omega, rel=1e-12)
        assert total == pytest.approx(math.fsum(b), rel=1e-14)

    @pytest.mark.parametrize("n_modes", [2, 4, 200, 2000, 20000])
    @pytest.mark.parametrize("big_r", [0.1, 10.0])
    def test_mirrored_half_is_the_whole_comb(self, big_r, n_modes):
        # the kept half and its mirror are bit for bit the whole midpoint
        # comb, offsets (k - (n - 1) / 2) dω with the couplings b = 2 |a|^2
        # g^2 of their density, g = sqrt(J dω), and the couplings' sum
        res, coup = resonant_system(big_r, 0.87)
        cfg = bath_cfg(1e-3, 1.0, n_modes=n_modes)
        _, d_omega, o, b, total = solver_comb(res, coup, cfg)
        whole = (np.arange(n_modes) - (n_modes - 1) / 2.0) * d_omega
        assert np.array_equal(np.concatenate((-o[::-1], o)), whole)
        asq = solvers._bright_weight(res, coup)
        g = np.sqrt(res.detuned_density(whole) * d_omega)
        assert np.array_equal(np.concatenate((b[::-1], b)), asq * 2.0 * g ** 2)
        assert total == float(np.sum(b))

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

    def test_subradiant_state_exactly_constant(self):
        res, coup = resonant_system(0.5, 0.7)
        init = coup.psi_minus()
        series = bath_propagator(res, coup, bath_cfg(1e-3, 3.0, n_modes=400))(init)
        np.testing.assert_allclose(series.c1, init.c01, atol=1e-12)
        np.testing.assert_allclose(series.c2, init.c02, atol=1e-12)

    @pytest.mark.parametrize("big_r, n_modes", [(0.5, 50), (10.0, 50), (0.5, 52), (20.0, 400)])
    def test_nested_step_matches_stage_vector_rk4(self, big_r, n_modes):
        # against the dense eigensolver of the full comb with exact phases;
        # one propagator run serves every initial state, including the
        # sub-radiant one that the comb never sees (a.x0 = 0); the folded
        # comb is checked on small combs and a strong coupling; the horizon
        # stops at the comb's recurrence (0.785 for 50 modes at R = 10),
        # past which runs are refused
        res, coup = resonant_system(big_r, 0.87)
        t_max = min(3.0, recurrence_time(res, coup, n_modes))
        cfg = bath_cfg(1e-3, t_max, n_modes=n_modes)
        propagate = bath_propagator(res, coup, cfg)
        inits = [InitialState(1.0, 0.0), InitialState(0.0, 1.0), coup.psi_minus(),
                 InitialState.from_separability(0.3, 0.7)]
        for init in inits:
            series = propagate(init)
            c1, c2 = exact_bath_reference(res, coup, init, cfg)
            np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-13)
            np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-13)
        direct = bath_propagator(res, coup, cfg)(inits[-1])
        assert np.array_equal(direct.c1, series.c1)

    def test_xcheck_bath_series_match_exact_reference(self, monkeypatch):
        # a multi-s cross-check makes one comb run per coupling, and its map
        # gives each state the amplitudes of the comb evolved exactly
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
            c1, c2 = exact_bath_reference(res, coup, init, scfg)
            np.testing.assert_allclose(out.c1, c1, rtol=0, atol=1e-13)
            np.testing.assert_allclose(out.c2, c2, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("big_r", [0.1, 10.0, 24.0])
    def test_bath_map_independent_of_step(self, big_r):
        # the comb is evolved exactly, so the step only spaces the output:
        # every 5th step of 1e-3 is a step of 5e-3.  A step of 0.5, which
        # Volterra and the ODE refuse from R = 1, is taken too.  The phases
        # dt * lam_j round apart from the fine ones by up to an ulp of
        # lam_j t ~ 4800 at R = 24, weighted down by w_j: 1.1e-14 for 5e-3
        # and 5.2e-15 for 0.5 there
        res, coup = resonant_system(big_r, 0.87)
        assert step_limit(res, coup, "bath") == math.inf
        fine = bath_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0))
        coarse = bath_propagator(res, coup, SolverConfig(dt=5e-3, t_max=10.0))
        assert np.array_equal(coarse.times(0, coarse.size), fine.times(0, fine.size, 5))
        np.testing.assert_allclose(whole_map(coarse), whole_map(fine)[..., ::5],
                                   rtol=0, atol=2e-14)
        coarsest = bath_propagator(res, coup, SolverConfig(dt=0.5, t_max=10.0))
        np.testing.assert_allclose(coarsest.times(0, coarsest.size),
                                   fine.times(0, fine.size, 500), rtol=1e-15, atol=0)
        np.testing.assert_allclose(whole_map(coarsest), whole_map(fine)[..., ::500],
                                   rtol=0, atol=2e-14)

    def test_refuses_horizon_past_recurrence(self):
        res, coup = resonant_system(0.1, 0.5)
        init = InitialState.from_separability(0.0)
        # 100 modes over [-20, 20]: recurrence at 2 pi / 0.4 ~ 15.7, to the
        # last bit: a horizon there runs, one double past it is refused
        recurrence = 2.0 * math.pi / 0.4
        bath_propagator(res, coup, bath_cfg(1e-3, 10.0, n_modes=100))(init)
        bath_propagator(res, coup, bath_cfg(1e-3, recurrence, n_modes=100))(init)
        for t_max in (math.nextafter(recurrence, math.inf), 20.0):
            with pytest.raises(ValueError, match=r"recurrence time 15\.708 .*"
                                                 "raise n_modes or shorten tau_max"):
                bath_propagator(res, coup, bath_cfg(1e-3, t_max, n_modes=100))


def folded_spectrum_all_poles(o, b, chunk=1 << 16, iterations=12):
    """The secular solve with every root iterated against every pole, in
    chunks of about ``chunk / len(o)`` roots: the form the solver had before
    it split the poles into near and far ones, kept as the oracle of the
    closed-form sums that took that split's place.  Shares only
    :func:`solvers._model_root` with the solver."""
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
    eigensolver and against the phases summed directly."""

    @staticmethod
    def folded(big_r, n_modes, r1=0.87):
        res, coup = resonant_system(big_r, r1)
        cfg = bath_cfg(1e-3, 1e-3, n_modes=n_modes)
        dw = solver_comb(res, coup, cfg)[1]
        offsets, g = full_comb(res, coup, cfg)
        c = coup.alpha_t * g
        lower = n_modes // 2
        # the comb's spacing and Lorentzian, b_k = 2 asq density / (o_k^2 + lam^2)
        comb = (dw, res.lam, coup.alpha_t ** 2, res.detuned_density(0.0) * res.lam ** 2 * dw)
        return offsets, c, offsets[lower:], 2.0 * c[lower:] ** 2, comb

    @staticmethod
    def zero_weight(o, b):
        """Pair weight of the zero eigenvalue: the squared first component
        of ``(1, -c/offsets)`` normalised."""
        return 1.0 / (1.0 + math.fsum(b / (o * o)))

    # from 1000 modes the roots come in several blocks, some with far poles on
    # both sides
    @pytest.mark.parametrize("big_r", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("n_modes", [2, 4, 50, 52, 200, 1000, 1002])
    def test_roots_and_weights_match_dense_eigensolver(self, big_r, n_modes):
        offsets, c, o, b, comb = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b, float(np.sum(b)), *comb)
        w0 = self.zero_weight(o, b)
        h = np.diag(np.concatenate(([0.0], offsets)))
        h[0, 1:] = h[1:, 0] = c
        evals, evecs = np.linalg.eigh(h)
        weights = evecs[0] ** 2
        # +-lam_j and 0, with the pair's weight on each
        m = lam.size
        scale = float(np.max(np.abs(evals)))
        # eigh is backward stable, so its eigenvalues sit within a few ulps
        # of the norm; its weights lose digits as norm / gap for close roots
        np.testing.assert_allclose(evals[-m:], lam, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(evals[:m], -lam[::-1], rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(weights[-m:], w, rtol=1e-10, atol=0)
        np.testing.assert_allclose(weights[:m], w[::-1], rtol=1e-10, atol=0)
        assert abs(evals[m]) < 1e-14 * scale
        assert w0 == pytest.approx(weights[m], rel=1e-10, abs=0)

    @pytest.mark.parametrize("big_r", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("n_modes", [2, 4, 50, 52, 200, 2000])
    def test_weights_complete_and_roots_interlace(self, big_r, n_modes):
        _, _, o, b, comb = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b, float(np.sum(b)), *comb)
        w0 = self.zero_weight(o, b)
        assert abs(w0 + 2.0 * math.fsum(w) - 1.0) <= 1e-14
        assert np.all(w > 0.0)
        mu = lam * lam
        assert np.all(o * o < mu)
        assert np.all(mu[:-1] < o[1:] * o[1:])
        # equal for one kept mode, whose root is o^2 + b, up to the rounding of lam^2
        assert mu[-1] <= (o[-1] ** 2 + float(np.sum(b))) * (1.0 + 4e-16)

    @pytest.mark.parametrize("big_r", [0.01, 0.1, 0.5, 1.0, 10.0, 24.0])
    @pytest.mark.parametrize("n_modes", [2000, 2002, 20000])
    def test_far_field_matches_all_pole_solve(self, big_r, n_modes):
        self.check_against_all_poles(big_r, n_modes)

    def check_against_all_poles(self, big_r, n_modes):
        # the far poles' sums in closed form against every pole summed per
        # root; both are rounded, so they may part by an ulp or two
        _, _, o, b, comb = self.folded(big_r, n_modes)
        lam, w = solvers._folded_spectrum(o, b, float(np.sum(b)), *comb)
        ref_lam, ref_w = folded_spectrum_all_poles(o, b)
        assert np.all(np.abs(lam - ref_lam) <= 2.0 * np.spacing(ref_lam))
        np.testing.assert_allclose(w, ref_w, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("big_r", [1e-8, 1e-100])
    @pytest.mark.parametrize("n_modes", [2000, 2002])
    def test_far_field_at_block_edge_matches_all_pole_solve(self, big_r, n_modes):
        # every root hugs its pole, within about big_r^2 of it: the far
        # field's runs start one spacing from the root
        self.check_against_all_poles(big_r, n_modes)

    @pytest.mark.parametrize("big_r", [1e-8, 1e-100])
    @pytest.mark.parametrize("n_modes", [50, 52])
    def test_weak_coupling_matches_stage_vector_rk4(self, big_r, n_modes):
        # roots within b ~ big_r^2 of their poles, whose 1/delta^2 overflows
        # at 1e-100; the exchange c1 ~ big_r^2 keeps its relative digits.
        # The oracle is second-order perturbation theory, whose next term is
        # smaller by about big_r^2: sigma = -sum_k g_k^2 (1 - cos w_k t) / w_k^2
        res, coup = resonant_system(big_r, 0.87)
        cfg = bath_cfg(1e-3, 2.0, n_modes=n_modes)
        init = InitialState(0.0, 1.0)
        series = bath_propagator(res, coup, cfg)(init)
        offsets, g = full_comb(res, coup, cfg)
        tau = np.arange(2001) * 1e-3
        terms = (1.0 - np.cos(np.multiply.outer(tau, offsets))) / offsets ** 2
        sigma = -(terms @ g ** 2)
        a1, a2 = coup.alpha1, coup.alpha2
        c1, c2 = a1 * a2 * sigma, 1.0 + a2 * a2 * sigma
        scale = float(np.max(np.abs(c1)))
        assert scale > 0.0
        np.testing.assert_allclose(series.c1, c1, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(series.c2, c2, rtol=0, atol=1e-13)

    def test_refuses_coupling_whose_comb_underflows(self):
        res, coup = resonant_system(1e-160, 0.87)
        with pytest.raises(ValueError, match="too weak a coupling for the bath comb"):
            bath_propagator(res, coup, bath_cfg(1e-3, 1.0))

    @pytest.mark.parametrize("big_r", [0.1, 10.0, 24.0])
    def test_production_comb_matches_stage_vector_rk4(self, big_r):
        # the default comb, 2000 modes to tau = 10 in 10k steps, against the
        # phases summed directly on the folded spectrum, u - 1 = |a|^2 sigma =
        # 2 sum_j w_j (cos(lam_j t) - 1); the roots and weights have their own
        # eigensolver and all-pole tests, and a dense eigh of this comb is
        # off by its own phase error, 1.3e-13 at R = 24
        res, coup = resonant_system(big_r, 0.87)
        cfg = bath_cfg(1e-3, 10.0)
        propagate = bath_propagator(res, coup, cfg)
        init = InitialState.from_separability(0.3, 0.7)
        series = propagate(init)
        _, _, o, b, comb = self.folded(big_r, 2000)
        lam, w = solvers._folded_spectrum(o, b, float(np.sum(b)), *comb)
        tau = np.arange(10001) * 1e-3
        re = np.concatenate([(np.cos(np.multiply.outer(t, lam)) - 1.0) @ w
                             for t in np.array_split(tau, 20)])
        a1, a2 = coup.alpha1, coup.alpha2
        drift = (a1 * init.c01 + a2 * init.c02) * (2.0 / coup.alpha_t ** 2) * re
        np.testing.assert_allclose(series.c1, init.c01 + a1 * drift, rtol=0, atol=1e-13)
        np.testing.assert_allclose(series.c2, init.c02 + a2 * drift, rtol=0, atol=1e-13)
        assert series.c1[0] == init.c01 and series.c2[0] == init.c02
        sub = propagate(coup.psi_minus())
        assert np.all(sub.c1 == coup.psi_minus().c01)
        assert np.all(sub.c2 == coup.psi_minus().c02)


class TestPoleSums:
    """The secular function's sums over the poles on each side of a point,
    in closed form (:func:`solvers._pole_sums`), against ``math.fsum`` over
    every pole of the same comb, and the digammas they are made of."""

    @staticmethod
    def exact(o, b, lp, rp, shift):
        """The four sums at one point, each by ``fsum`` over every pole with
        the gaps formed as the solve forms them, ``(o_k - o_lp)(o_k + o_lp) -
        shift``; and for each its scale for the bound, ``sum |term_k| (1 +
        c o_k^2 / |o_k^2 - mu|)``, with ``c`` 1 for a sum and 2 for a slope."""
        gap = (o - o[lp]) * (o + o[lp]) - shift
        term, slope = b / gap, b / gap / gap
        drift = o * o / np.abs(gap)
        out = []
        for part in (slice(0, lp), slice(rp + 1, None)):
            out.append((math.fsum(term[part].tolist()),
                        float(np.sum(np.abs(term[part]) * (1.0 + drift[part])))))
        for part in (slice(0, lp), slice(rp + 1, None)):
            out.append((math.fsum(slope[part].tolist()),
                        float(np.sum(np.abs(slope[part]) * (1.0 + 2.0 * drift[part])))))
        return out

    # the closed form sums a comb of exactly uniform offsets, the oracle the
    # comb as rounded, each offset within half an ulp: that moves a term by
    # up to about 2 eps o_k^2 / |o_k^2 - mu| of itself (twice that for a
    # squared one), and the sums round by a few eps of their terms
    @pytest.mark.parametrize("big_r", [1e-100, 1e-8, 0.5, 24.0])
    @pytest.mark.parametrize("n_modes", [2, 4, 52, 2000, 2002])
    def test_matches_fsum_over_every_pole(self, n_modes, big_r):
        _, _, o, b, comb = TestBathSpectrum.folded(big_r, n_modes)
        m, dw = o.size, comb[0]
        total = float(np.sum(b))
        j = np.arange(m - 1)
        gap = (o[j + 1] - o[j]) * (o[j + 1] + o[j])
        # in every gap: within 1e-16 of either pole and halfway, measured
        # from the left pole and from the right one, so on both sides of a
        # flip, and from both at once, as the first guess reads it; then
        # the top gap, whose root lies past the next spacing at R >= 1
        lp = np.concatenate([j, j, j + 1, j + 1, j, np.full(3, m - 1)])
        rp = np.concatenate([j, j, j + 1, j + 1, j + 1, np.full(3, m - 1)])
        shift = np.concatenate([1e-16 * gap, 0.5 * gap, -1e-16 * gap, -0.5 * gap, 0.5 * gap,
                                np.array([1e-16, 0.5, 1.0]) * total])
        if big_r >= 1.0 and n_modes >= 2000:
            assert math.sqrt(o[-1] ** 2 + total) - o[-1] > dw
        got = solvers._pole_sums(o, b, *comb)(lp, rp, shift)
        bound = 8.0 * np.finfo(float).eps
        for i in range(lp.size):
            for value, (ref, scale) in zip((g[i] for g in got),
                                           self.exact(o, b, lp[i], rp[i], shift[i])):
                assert abs(value - ref) <= bound * scale, (i, lp[i], rp[i], shift[i])

    @pytest.mark.parametrize("n_modes", [4, 52, 2000])
    def test_values_alone_match_the_full_sums_bit_for_bit(self, n_modes):
        # the mid-gap pass asks for (psi, phi) alone: the same bits as the
        # first two of the four sums, at rows that sum the poles above
        # term by term and at rows that take them as runs
        _, _, o, b, comb = TestBathSpectrum.folded(0.5, n_modes)
        j = np.arange(o.size - 1)
        gap = (o[j + 1] - o[j]) * (o[j + 1] + o[j])
        lp, rp = np.concatenate([j, j]), np.concatenate([j, j + 1])
        shift = np.concatenate([0.25 * gap, 0.5 * gap])
        sums = solvers._pole_sums(o, b, *comb)
        full, alone = sums(lp, rp, shift), sums(lp, rp, shift, slopes=False)
        assert len(alone) == 2
        for got, want in zip(alone, full[:2]):
            assert np.array_equal(got, want)
        a = np.concatenate([np.geomspace(1e-3, 1e6, 40), [0.5, 10.0]])
        n = np.tile([0.0, 3.0, 40.0], a.size)
        a = np.repeat(a, 3)
        step, slope = solvers._digamma_steps(a, n, slopes=False)
        assert slope is None and np.array_equal(step, solvers._digamma_steps(a, n)[0])

    def test_digamma_steps_match_mpmath(self):
        # psi(a + n) - psi(a) and psi'(a) - psi'(a + n): sums of positive
        # terms, each formed to a few roundings of its value
        mp = pytest.importorskip("mpmath").mp
        a = np.concatenate([np.geomspace(1e-300, 1e6, 151), [0.5, 1.0, 1.5, 2.0, 3.0],
                            np.nextafter(10.0, [0.0, 20.0]), [10.0]])
        counts = [0.0, 1.0, 3.0, 9.0, 10.0, 40.0, 1e4]
        a, n = np.repeat(a, len(counts)), np.tile(counts, a.size)
        with np.errstate(over="ignore"):
            step, slope = solvers._digamma_steps(a, n)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            for x, k, d, t in zip(a.tolist(), n.tolist(), step.tolist(), slope.tolist()):
                ref_d = mp.digamma(x + k) - mp.digamma(x)
                ref_t = mp.polygamma(1, x) - mp.polygamma(1, x + k)
                assert abs(d - ref_d) <= 8.0 * eps * ref_d, (x, k)
                if ref_t > np.finfo(float).max:
                    assert t == math.inf, (x, k)
                else:
                    assert abs(t - ref_t) <= 8.0 * eps * ref_t, (x, k)


class TestCombInputs:
    # a comb's bad counts and windows, refused by SolverConfig before any
    # comb is built
    @pytest.mark.parametrize("n_modes, freq_window", [
        (0, 20.0), (-100, 20.0), (2.5, 20.0), (True, 20.0),
        (100, -1.0), (100, 0.0), (100, math.inf), (100, math.nan), (100, True),
        (100, 10**400),
    ], ids=["config-0", "config-neg", "config-2.5", "config-True",
            "config-window-neg", "config-window-0", "config-window-inf", "config-window-nan",
            "config-window-True", "config-window-huge"])
    def test_rejects_bad_comb(self, n_modes, freq_window):
        with pytest.raises(ValueError, match="^n_modes must be|^freq_window must be"):
            SolverConfig(dt=1e-3, t_max=1.0, n_modes=n_modes, freq_window=freq_window)

    @pytest.mark.parametrize("window", [5e-324, 1e-300, 1e-80])
    def test_rejects_window_past_double_precision(self, window):
        # 5e-324 spaced the modes by 0 and raised ZeroDivisionError; the
        # narrower windows that still space them overflowed the secular
        # solve and returned nan with numpy warnings, which fail here
        res, coup = resonant_system(0.1, 0.87)
        cfg = SolverConfig(dt=1e-3, t_max=10.0, freq_window=window)
        with pytest.raises(ValueError, match=f"freq_window = {window!r} "):
            bath_propagator(res, coup, cfg)

    # the comb's secular solve resolves these windows, and at 1e-60 the run
    # was 0.166 off the closed form in concurrence with exit 0; at R = 0.01
    # a window of 1.999 keeps its estimate within budget, but is below 2
    @pytest.mark.parametrize("big_r, window", [(0.1, 1e-60), (0.1, 1.0), (0.01, 1.999)])
    def test_window_too_narrow_to_sample_is_refused(self, big_r, window):
        res, coup = resonant_system(big_r, 0.87)
        cfg = SolverConfig(dt=1e-3, t_max=10.0, freq_window=window)
        with pytest.raises(ValueError, match=f"^freq_window = {window!r} is too narrow a bath "
                                             "comb to sample the reservoir at big_r = "
                                             f"{re.escape(repr(big_r))}: "):
            bath_propagator(res, coup, cfg)
        assert bath_propagator(res, coup, SolverConfig(dt=1e-3, t_max=10.0, freq_window=3.0))

    # R = 1 at freq_window = 10 sits on the budget, so the grid keeps off it
    @pytest.mark.parametrize("freq_window", [2.0, 3.0, 5.0, 20.0])
    @pytest.mark.parametrize("big_r", [0.1, 0.3, 1.0, 3.0, 10.0])
    def test_refused_exactly_where_truncation_exceeds_budget(self, big_r, freq_window):
        # the weight beyond the band edge moves E by about rabi^2 lam /
        # edge^3; that estimate bounds the worst |E_bath - E| of each comb
        # that runs (by 0.33-0.80 of it here), and the comb is refused
        # exactly where it exceeds the bath's budget
        res, coup = resonant_system(big_r, 0.87)
        edge = freq_window * max(1.0, big_r)
        estimate = big_r ** 2 / edge ** 3
        cfg = SolverConfig(dt=1e-2, t_max=10.0, n_modes=2000, freq_window=freq_window)
        if estimate > BATH_TOLERANCE:
            with pytest.raises(ValueError, match=f"^freq_window = {freq_window!r} is too "
                                                 "narrow a bath comb"):
                bath_propagator(res, coup, cfg)
            return
        pair_map = bath_propagator(res, coup, cfg)
        e_bath = 1.0 + coup.alpha_t ** 2 * pair_map.rows(0, pair_map.size)
        e_exact = survival_amplitude(res, coup, pair_map.times(0, pair_map.size))
        assert float(np.max(np.abs(e_bath - e_exact))) < estimate

    def test_step_limit_rejects_unknown_method(self):
        res, coup = resonant_system(0.5, 0.87)
        with pytest.raises(ValueError, match="volterra, ode, bath"):
            step_limit(res, coup, "bogus")


class TestSolverNames:
    def test_one_name_per_solver(self):
        # the name step_limit takes, the config's step key and the
        # cross-check budget use, and the CLI offers
        res, coup = resonant_system(0.5, 0.87)
        cfg = ScenarioConfig(scenario="solver-xcheck", tau_max=0.1, n_modes=50)
        init = InitialState.from_separability(0.0)
        for name in SOLVER_NAMES:
            assert step_limit(res, coup, name) > 0.0
            dt = getattr(cfg, f"dt_{name}")
            scenarios._propagator(cfg, name, res, coup, dt)(init)
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
