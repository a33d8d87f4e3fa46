"""Closed-form layer: survival amplitude, amplitudes, concurrence measures."""

import math

import numpy as np
import pytest

from zeno_ent import (
    Amplitudes,
    BellBasis,
    CouplingSpec,
    DensityMatrix4,
    InitialState,
    RegimeParams,
    ReservoirSpec,
    amplitudes_at,
    closed_form_series,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    resonant_system,
    stationary_concurrence,
    survival_amplitude,
)

TWO_OVER_E = 0.7357588823428847
SQRT_HALF = math.sqrt(0.5)


def rk4_survival(big_r, lam, t, n=200000):
    """Independent oracle: integrate E'' + lam E' + big_r^2 E = 0 by RK4."""
    if t == 0.0:
        return 1.0
    dt = t / n
    y = np.array([1.0, 0.0])

    def rhs(y):
        return np.array([y[1], -lam * y[1] - big_r * big_r * y[0]])

    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0])


class TestReservoirSpec:
    def test_spectral_density_peak_and_width(self):
        res = ReservoirSpec(w=1.0, lam=1.0)
        assert res.spectral_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        # half maximum exactly one half-width away from resonance
        assert res.spectral_density(1.0) == pytest.approx(0.5 / math.pi, rel=1e-15)

    def test_spectral_density_normalizes_to_w_squared(self):
        res = ReservoirSpec(w=2.0, lam=0.7)
        omega = np.linspace(-4000.0, 4000.0, 4000001)
        total = np.trapezoid(res.spectral_density(omega), omega)
        assert total == pytest.approx(4.0, rel=1e-3)

    def test_memory_kernel_is_exponential(self):
        res = ReservoirSpec(w=3.0, lam=0.5)
        tau = np.array([0.0, 0.1, 2.0])
        np.testing.assert_allclose(res.memory_kernel(tau), 9.0 * np.exp(-0.5 * tau),
                                   rtol=1e-15)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            ReservoirSpec(w=0.0, lam=1.0)
        with pytest.raises(ValueError):
            ReservoirSpec(w=1.0, lam=-2.0)


class TestCouplingSpec:
    def test_relative_weights_recovered(self):
        coup = CouplingSpec.from_relative(5.0, 0.3)
        assert coup.alpha_t == pytest.approx(5.0, rel=1e-15)
        assert coup.r1 == pytest.approx(0.3, rel=1e-15)
        assert coup.r2 == pytest.approx(math.sqrt(0.91), rel=1e-15)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            CouplingSpec(alpha1=0.0, alpha2=0.0)

    def test_single_qubit_edges_allowed(self):
        assert CouplingSpec.from_relative(1.0, 0.0).r2 == pytest.approx(1.0)
        assert CouplingSpec.from_relative(1.0, 1.0).r1 == pytest.approx(1.0)


class TestRegimeParams:
    def test_markov_rate_and_discriminant(self):
        res, coup = resonant_system(0.1, 0.87)
        reg = RegimeParams.from_specs(res, coup)
        assert reg.rabi == pytest.approx(0.1, rel=1e-15)
        assert reg.markov_rate == pytest.approx(0.02, rel=1e-15)
        assert reg.omega_sq == pytest.approx(1.0 - 0.04, rel=1e-15)


class TestInitialState:
    def test_separability_family_concurrence(self):
        for s in (-1.0, -0.4, 0.0, 0.7, 1.0):
            init = InitialState.from_separability(s, 0.3)
            assert init.initial_concurrence == pytest.approx(math.sqrt(1 - s * s),
                                                             abs=1e-12)
            assert init.s == pytest.approx(s, abs=1e-12)

    def test_phase_recovered(self):
        init = InitialState.from_separability(0.2, 1.1)
        assert init.phi == pytest.approx(1.1, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            InitialState(c01=0.9, c02=0.9)


class TestSurvivalAmplitude:
    def test_starts_at_one(self):
        for big_r in (0.05, 0.5, 3.0, 10.0):
            res, coup = resonant_system(big_r, 0.6)
            assert survival_amplitude(res, coup, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_critical_damping_value(self):
        # lam = 2 rabi puts the two decay exponents on top of each other;
        # at lam t = 2 the amplitude is exactly 2/e
        res, coup = resonant_system(0.5, 0.7)
        assert survival_amplitude(res, coup, 2.0) == pytest.approx(TWO_OVER_E,
                                                                   rel=1e-15)

    def test_matches_independent_rk4_oracle(self):
        for big_r, t in ((0.1, 5.0), (0.5, 3.0), (2.0, 1.5), (10.0, 0.7)):
            res, coup = resonant_system(big_r, 0.87)
            expected = rk4_survival(big_r, 1.0, t)
            assert survival_amplitude(res, coup, t) == pytest.approx(expected,
                                                                     abs=1e-11)

    def test_initial_slope_vanishes(self):
        # second-order one-sided difference; a plain forward difference
        # cannot reach this tolerance at strong coupling
        h = 1e-6
        for big_r in (0.1, 1.0, 10.0):
            res, coup = resonant_system(big_r, 0.5)
            e1 = survival_amplitude(res, coup, h)
            e2 = survival_amplitude(res, coup, 2 * h)
            slope = (4.0 * e1 - 3.0 - e2) / (2.0 * h)
            assert abs(slope) < 1e-6

    def test_magnitude_never_exceeds_one(self):
        rng = np.random.default_rng(20240817)
        big_r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=10000))
        t = rng.uniform(0.0, 50.0, size=10000)
        for r, ti in zip(big_r, t):
            res, coup = resonant_system(float(r), 0.5)
            assert abs(survival_amplitude(res, coup, float(ti))) <= 1.0 + 1e-12

    def test_continuous_across_damping_boundary(self):
        # the three analytic branches must agree where they meet
        t = 2.0
        res_c, coup_c = resonant_system(0.5, 0.5)
        at_boundary = survival_amplitude(res_c, coup_c, t)
        for eps in (1e-8, -1e-8):
            res, coup = resonant_system(0.5 * (1.0 + eps), 0.5)
            assert survival_amplitude(res, coup, t) == pytest.approx(at_boundary,
                                                                     abs=1e-6)

    def test_underdamped_extrema_follow_envelope(self):
        res, coup = resonant_system(10.0, 0.5)
        om = math.sqrt(399.0)
        for k in (1, 2, 3):
            tau_k = 2.0 * math.pi * k / om
            expected = (-1.0) ** k * math.exp(-math.pi * k / om)
            assert survival_amplitude(res, coup, tau_k) == pytest.approx(expected,
                                                                         rel=1e-12)

    def test_first_zero_location(self):
        res, coup = resonant_system(10.0, 0.5)
        om = math.sqrt(399.0)
        tau_zero = (2.0 / om) * (math.pi - math.atan(om))
        assert abs(survival_amplitude(res, coup, tau_zero)) < 1e-14

    def test_overdamped_no_overflow_at_long_times(self):
        res, coup = resonant_system(1e-3, 0.5)
        value = survival_amplitude(res, coup, 5e4)
        assert np.isfinite(value)
        assert 0.0 <= value <= 1.0

    # overdamped, critically damped, underdamped with and without revivals;
    # a float time takes the math-only check, an array the numpy one
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("big_r", [0.1, 0.5, 0.8, 10.0])
    def test_vectorized_matches_scalar(self, big_r, kind):
        res, coup = resonant_system(big_r, 0.3)
        tau = np.linspace(0.0, 6.0, 61)
        vec = survival_amplitude(res, coup, tau)
        for i, t in enumerate(tau):
            scalar = survival_amplitude(res, coup, kind(t))
            assert type(scalar) is float
            assert vec[i] == scalar

    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("t, message", [
        (math.nan, "t must be finite"),
        (math.inf, "t must be finite"),
        (-math.inf, "t must be finite"),
        (-1e-300, "t must be non-negative"),
        (-2.0, "t must be non-negative"),
    ], ids=["nan", "inf", "-inf", "tiny-negative", "negative"])
    def test_scalar_time_refusals(self, t, message, kind):
        res, coup = resonant_system(0.8, 0.3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            survival_amplitude(res, coup, kind(t))
        # the array check refuses the same time with the same message
        with pytest.raises(ValueError, match=f"^{message}$"):
            survival_amplitude(res, coup, np.array([0.0, t]))

    def test_negative_zero_time_is_the_start(self):
        for big_r in (0.1, 0.5, 0.8, 10.0):
            res, coup = resonant_system(big_r, 0.3)
            assert survival_amplitude(res, coup, -0.0) == 1.0
            assert survival_amplitude(res, coup, np.float64(-0.0)) == 1.0

    # 4 rabi**2 passes the largest double from rabi ~ 6.7e153; below 1.34e154
    # the old code returned NaN, above it raised OverflowError
    @pytest.mark.parametrize("big_r", [1e154, 1.3e154, 1e200])
    def test_refuses_coupling_whose_rate_overflows(self, big_r):
        res, coup = resonant_system(big_r, 0.5)
        with pytest.raises(ValueError, match="big_r"):
            RegimeParams.from_specs(res, coup)
        for t in (0.0, 1e-160, np.linspace(0.0, 1.0, 3)):
            with pytest.raises(ValueError, match="rabi"):
                survival_amplitude(res, coup, t)

    def test_strongest_coupling_below_overflow_is_finite(self):
        res, coup = resonant_system(6e153, 0.5)
        e = survival_amplitude(res, coup, np.linspace(0.0, 1e-150, 5))
        assert np.all(np.isfinite(e)) and e[0] == 1.0


class TestAmplitudes:
    def test_product_state_evolution_algebra(self):
        # s=1 start (only qubit 2 excited): the two branch weights are
        # r2 and -r1, so c1 grows from zero as r1 r2 (E - 1)
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(1.0)
        t = 3.0
        e = survival_amplitude(res, coup, t)
        amps = amplitudes_at(res, coup, init, t)
        r1, r2 = coup.r1, coup.r2
        assert amps.c1 == pytest.approx(r1 * r2 * (e - 1.0), abs=1e-14)
        assert amps.c2 == pytest.approx(r1 * r1 + r2 * r2 * e, abs=1e-14)

    def test_long_time_amplitudes_settle_on_subradiant_share(self):
        # with r1 = sqrt(3)/2 and only qubit 2 excited initially the
        # surviving amplitudes converge to (-sqrt(3)/4, 3/4)
        res, coup = resonant_system(0.1, math.sqrt(3.0) / 2.0)
        init = InitialState.from_separability(1.0)
        amps = amplitudes_at(res, coup, init, 4000.0)
        assert amps.c1 == pytest.approx(-math.sqrt(3.0) / 4.0, abs=1e-9)
        assert amps.c2 == pytest.approx(0.75, abs=1e-9)

    def test_subradiant_state_frozen(self):
        res, coup = resonant_system(10.0, 0.6)
        minus = coup.psi_minus()
        for t in (0.1, 1.0, 7.0):
            amps = amplitudes_at(res, coup, minus, t)
            assert amps.c1 == pytest.approx(minus.c01, abs=1e-14)
            assert amps.c2 == pytest.approx(minus.c02, abs=1e-14)

    def test_norm_decomposition(self):
        # |c1|^2 + |c2|^2 = |b-|^2 + |b+|^2 E^2 at every time
        res, coup = resonant_system(2.0, 0.44)
        init = InitialState.from_separability(-0.3, 0.9)
        basis = BellBasis.from_state(coup, init)
        for t in (0.0, 0.4, 2.2, 9.0):
            amps = amplitudes_at(res, coup, init, t)
            e = survival_amplitude(res, coup, t)
            expected = abs(basis.beta_minus) ** 2 + abs(basis.beta_plus) ** 2 * e * e
            assert amps.norm_sq == pytest.approx(expected, abs=1e-12)
            assert amps.norm_sq <= 1.0 + 1e-10

    def test_superradiant_start_decays_as_e_squared(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        init = InitialState.from_separability(0.0)
        tau = np.linspace(0.0, 30.0, 301)
        series = closed_form_series(res, coup, init, tau)
        e = survival_amplitude(res, coup, tau)
        np.testing.assert_allclose(series.concurrence(), e * e, atol=5e-16)

    def test_series_matches_pointwise_evaluation(self):
        res, coup = resonant_system(3.0, 0.25)
        init = InitialState.from_separability(0.5, 2.0)
        tau = np.linspace(0.0, 4.0, 9)
        series = closed_form_series(res, coup, init, tau)
        for i, t in enumerate(tau):
            amps = amplitudes_at(res, coup, init, float(t))
            assert series.c1[i] == amps.c1
            assert series.c2[i] == amps.c2

    def test_amplitudes_reject_norm_violation(self):
        with pytest.raises(ValueError):
            Amplitudes(c1=0.9, c2=0.9, t=0.0)


class TestDensityMatrix:
    def test_structure_and_trace(self):
        res, coup = resonant_system(0.5, 0.7)
        init = InitialState.from_separability(0.2, 0.4)
        rho = density_matrix(amplitudes_at(res, coup, init, 1.3)).entries
        assert rho.shape == (4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        # double-excitation row and column stay empty
        assert np.all(rho[0, :] == 0.0)
        assert np.all(rho[:, 0] == 0.0)
        # one-excitation block is the outer product of the amplitudes
        amps = amplitudes_at(res, coup, init, 1.3)
        assert rho[1, 1] == pytest.approx(abs(amps.c1) ** 2, abs=1e-15)
        assert rho[1, 2] == pytest.approx(amps.c1 * np.conj(amps.c2), abs=1e-15)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.5
        m[3, 3] = 0.5
        m[1, 2] = 0.3
        m[2, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix4(m)

    def test_rejects_population_outside_single_excitation_sector(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.5
        m[3, 3] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix4(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.5
        m[2, 2] = 0.1
        m[1, 2] = m[2, 1] = 0.4
        m[3, 3] = 0.4
        with pytest.raises(ValueError):
            DensityMatrix4(m)


class TestConcurrence:
    def test_closed_form_examples(self):
        assert concurrence_closed(Amplitudes(SQRT_HALF, SQRT_HALF, 0.0)) == \
            pytest.approx(1.0, rel=1e-15)
        # the long-time amplitudes of the r1 = sqrt(3)/2 product start
        assert concurrence_closed(Amplitudes(-math.sqrt(3.0) / 4.0, 0.25, 0.0)) == \
            pytest.approx(math.sqrt(3.0) / 8.0, rel=1e-15)

    def test_initial_concurrence_follows_separability(self):
        for s in (-0.9, 0.0, 0.6):
            init = InitialState.from_separability(s, 0.7)
            amps = Amplitudes(init.c01, init.c02, 0.0)
            assert concurrence_closed(amps) == pytest.approx(math.sqrt(1 - s * s),
                                                             abs=1e-12)

    def test_wootters_on_diagonal_state_is_zero(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.25
        m[2, 2] = 0.25
        m[3, 3] = 0.5
        assert concurrence_wootters(DensityMatrix4(m)) == pytest.approx(0.0,
                                                                        abs=1e-12)

    def test_wootters_on_maximally_entangled_state_is_one(self):
        rho = density_matrix(Amplitudes(SQRT_HALF, SQRT_HALF * 1j, 0.0))
        assert concurrence_wootters(rho) == pytest.approx(1.0, abs=1e-12)

    def test_wootters_matches_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(987)
        worst = 0.0
        for _ in range(1000):
            big_r = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            r1 = float(rng.uniform(0.0, 1.0))
            s = float(rng.uniform(-1.0, 1.0))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            t = float(rng.uniform(0.0, 20.0))
            res, coup = resonant_system(big_r, r1)
            init = InitialState.from_separability(s, phi)
            amps = amplitudes_at(res, coup, init, t)
            gap = abs(concurrence_wootters(density_matrix(amps))
                      - concurrence_closed(amps))
            worst = max(worst, gap)
        assert worst < 1e-10


class TestStationaryConcurrence:
    def test_value_at_known_optimum(self):
        init = InitialState.from_separability(1.0)
        coup = CouplingSpec.from_relative(1.0, math.sqrt(3.0) / 2.0)
        assert stationary_concurrence(coup, init) == pytest.approx(
            3.0 * math.sqrt(3.0) / 8.0, rel=1e-15)

    def test_mirror_optimum_for_opposite_product_state(self):
        init = InitialState.from_separability(-1.0)
        coup = CouplingSpec.from_relative(1.0, 0.5)
        assert stationary_concurrence(coup, init) == pytest.approx(
            3.0 * math.sqrt(3.0) / 8.0, rel=1e-15)

    def test_subradiant_start_with_balanced_coupling_keeps_full_entanglement(self):
        # phi = pi turns the balanced superposition into the decoupled state
        init = InitialState.from_separability(0.0, math.pi)
        coup = CouplingSpec.from_relative(1.0, SQRT_HALF)
        assert stationary_concurrence(coup, init) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_long_time_closed_form(self):
        res, coup = resonant_system(0.1, 0.87)
        init = InitialState.from_separability(1.0)
        c_inf = concurrence_closed(amplitudes_at(res, coup, init, 2000.0))
        assert c_inf == pytest.approx(stationary_concurrence(coup, init), abs=1e-8)

    def test_superradiant_start_loses_all_entanglement(self):
        init = InitialState.from_separability(0.0)
        coup = CouplingSpec.from_relative(1.0, SQRT_HALF)
        assert stationary_concurrence(coup, init) == pytest.approx(0.0, abs=1e-15)
