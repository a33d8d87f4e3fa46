"""Closed-form layer: survival amplitude, amplitudes, concurrence measures."""

import cmath
import copy
import dataclasses
import decimal
import hashlib
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest

from zeno_ent import (
    BellBasis,
    CouplingSpec,
    InitialState,
    MeasurementSchedule,
    ReservoirSpec,
    ScenarioConfig,
    SolverConfig,
    TimeSeries,
    amplitudes_at,
    closed_form_series,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    resonant_system,
    stationary_concurrence,
    stroboscopic_amplitudes,
    survival_amplitude,
    zeno_rate,
)
from zeno_ent import model

TWO_OVER_E = 0.7357588823428847
SQRT_HALF = math.sqrt(0.5)


def pair(c1, c2):
    """Pair amplitudes at one time, as :func:`amplitudes_at` returns them."""
    return TimeSeries(tau=0.0, c1=c1, c2=c2)


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
    # the spectral density J is read at a detuning from resonance
    def test_spectral_density_peak_and_width(self):
        res = ReservoirSpec(w=1.0, lam=1.0)
        assert res.detuned_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        # half maximum exactly one half-width away from resonance
        assert res.detuned_density(1.0) == pytest.approx(0.5 / math.pi, rel=1e-15)

    def test_spectral_density_normalizes_to_w_squared(self):
        res = ReservoirSpec(w=2.0, lam=0.7)
        detuning = np.linspace(-4000.0, 4000.0, 4000001)
        total = np.trapezoid(res.detuned_density(detuning), detuning)
        assert total == pytest.approx(4.0, rel=1e-3)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            ReservoirSpec(w=0.0, lam=1.0)
        with pytest.raises(ValueError):
            ReservoirSpec(w=1.0, lam=-2.0)

    # float() and math.isfinite raised OverflowError on these
    @pytest.mark.parametrize("call, name", [
        (lambda: ReservoirSpec(w=10**400, lam=1.0), "w"),
        (lambda: CouplingSpec(10**400, 1.0), "alpha1"),
        (lambda: resonant_system(10**400, 0.5), "alpha_t"),
        (lambda: InitialState.from_separability(10**400), "s"),
        (lambda: InitialState.from_separability(0.0, 10**400), "phi"),
        # complex() and np.asarray raised it on these
        (lambda: InitialState(10**400, 0), "c01"),
        (lambda: InitialState(0, -10**400), "c02"),
        (lambda: survival_amplitude(*resonant_system(1.0, 0.5), 10**400), "t"),
        (lambda: survival_amplitude(*resonant_system(1.0, 0.5), [0.0, 10**400]), "t"),
        (lambda: closed_form_series(*resonant_system(1.0, 0.5), InitialState(1.0, 0.0),
                                    [10**400]), "tau"),
        (lambda: ReservoirSpec(w=1.0, lam=1.0).detuned_density(10**400), "detuning"),
        (lambda: density_matrix(pair(10**400, 0)), "c1"),
        (lambda: density_matrix(pair(0, -10**400)), "c2"),
    ], ids=["w", "alpha1", "big_r", "s", "phi", "c01", "c02", "t", "t-list", "tau",
            "density-detuning", "amplitudes-c1", "amplitudes-c2"])
    def test_rejects_integer_too_large_for_a_double(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got an integer too large"):
            call()

    # a bool is an int to Python, and each of these took True for 1; a str,
    # None or complex failed later as a bare TypeError, or a str was parsed
    REAL_ARGUMENTS = {
        "interval": (lambda v: MeasurementSchedule(v, 1), "interval"),
        "zeno-rate": (lambda v: zeno_rate(*resonant_system(1.0, 0.5), v), "interval"),
        "stroboscopic": (lambda v: stroboscopic_amplitudes(
            *resonant_system(1.0, 0.5), InitialState(1.0, 0.0), v, [0.0]), "interval"),
        "w": (lambda v: ReservoirSpec(v, 1.0), "w"),
        "lam": (lambda v: ReservoirSpec(1.0, v), "lam"),
        "alpha1": (lambda v: CouplingSpec(v, 0.0), "alpha1"),
        "alpha2": (lambda v: CouplingSpec(1.0, v), "alpha2"),
        "big_r": (lambda v: resonant_system(v, 0.5), "alpha_t"),
        "r1": (lambda v: resonant_system(1.0, v), "r1"),
        "s": (lambda v: InitialState.from_separability(v), "s"),
        "phi": (lambda v: InitialState.from_separability(0.0, v), "phi"),
        "dt": (lambda v: SolverConfig(dt=v, t_max=1.0), "dt"),
        "t_max": (lambda v: SolverConfig(dt=1e-3, t_max=v), "t_max"),
        "freq_window": (lambda v: SolverConfig(dt=1e-3, t_max=1.0, freq_window=v),
                        "freq_window"),
        "t": (lambda v: survival_amplitude(*resonant_system(1.0, 0.5), v), "t"),
        "tau": (lambda v: closed_form_series(*resonant_system(1.0, 0.5), InitialState(1.0, 0.0),
                                             v), "tau"),
        "detuning": (lambda v: ReservoirSpec(w=1.0, lam=1.0).detuned_density(v), "detuning"),
    }
    AMPLITUDES = {
        "amplitudes-c1": (lambda v: density_matrix(pair(v, 0)), "c1"),
        "amplitudes-c2": (lambda v: density_matrix(pair(0, v)), "c2"),
        "c01": (lambda v: InitialState(v, 1.0), "c01"),
        "c02": (lambda v: InitialState(1.0, v), "c02"),
    }

    @pytest.mark.parametrize("call, name, bad", [
        *(pytest.param(call, name, bad, id=key if kind == "bool" else f"{key}-{kind}")
          for key, (call, name) in {**REAL_ARGUMENTS, **AMPLITUDES}.items()
          for kind, bad in (("bool", True), ("str", "1"), ("none", None))),
        *(pytest.param(call, name, 1j, id=f"{key}-complex")
          for key, (call, name) in REAL_ARGUMENTS.items()),
    ])
    def test_rejects_bool_for_a_real(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {re.escape(repr(bad))}"):
            call(bad)

    # one wording per rule, naming the argument and its value as given
    @pytest.mark.parametrize("call, message", [
        (lambda: CouplingSpec(-1.0, 1.0), "alpha1 must be >= 0, got -1.0"),
        (lambda: resonant_system(1.0, 1.5), "r1 must lie in [0, 1], got 1.5"),
        (lambda: InitialState.from_separability(-2), "s must lie in [-1, 1], got -2"),
        (lambda: InitialState.from_separability(0.0, math.inf), "phi must be finite, got inf"),
        (lambda: ReservoirSpec(1.0, 0), "lam must be positive and finite, got 0"),
        (lambda: MeasurementSchedule(0.1, 0), "count must be >= 1, got 0"),
        (lambda: ScenarioConfig(scenario="time-evolution", tau_steps=1),
         "tau_steps must be between 2 and 1000001, got 1"),
    ], ids=["one-sided", "range", "range-int", "finite", "positive", "integer-one-sided",
            "integer-range"])
    def test_refusal_names_argument_and_value(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


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

    @pytest.mark.parametrize("alpha1, alpha2", [
        (0.3, 0.4), (1e-300, 2.5), (7.0, 0.0), (0.0, 5e-324), (1e150, 3e153),
        (10.0 * 0.87, 10.0 * math.sqrt(1.0 - 0.87 ** 2)),
    ])
    def test_weights_derived_once_bit_for_bit(self, alpha1, alpha2):
        # set at construction from the calls that the properties made on
        # every read: math.hypot and _relative_weights
        coup = CouplingSpec(alpha1, alpha2)
        weights = (coup.alpha_t, coup.r1, coup.r2)
        expected = (math.hypot(alpha1, alpha2), *model._relative_weights(alpha1, alpha2))
        assert [w.hex() for w in weights] == [e.hex() for e in expected]

    def test_derived_weights_are_no_fields(self):
        coup = CouplingSpec(0.3, 0.4)
        assert [f.name for f in dataclasses.fields(coup)] == ["alpha1", "alpha2"]
        assert repr(coup) == "CouplingSpec(alpha1=0.3, alpha2=0.4)"
        assert dataclasses.asdict(coup) == {"alpha1": 0.3, "alpha2": 0.4}
        assert coup == CouplingSpec(0.3, 0.4) != CouplingSpec(0.4, 0.3)
        assert hash(coup) == hash((0.3, 0.4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            coup.r1 = 0.5
        moved = dataclasses.replace(coup, alpha2=0.0)
        assert (moved.alpha_t, moved.r1, moved.r2) == (0.3, 1.0, 0.0)
        for other in (pickle.loads(pickle.dumps(coup)), copy.copy(coup), copy.deepcopy(coup)):
            assert other == coup
            assert ([w.hex() for w in (other.alpha_t, other.r1, other.r2)]
                    == [w.hex() for w in (coup.alpha_t, coup.r1, coup.r2)])

    def test_unit_reservoir_is_shared(self):
        res, coup = resonant_system(10.0, 0.87)
        assert res is resonant_system(0.1, 0.3)[0]
        assert res == ReservoirSpec(w=1.0, lam=1.0)
        assert coup == CouplingSpec.from_relative(10.0, 0.87)


class TestRabiOmegaSq:
    def test_rabi_and_discriminant(self):
        res, coup = resonant_system(0.1, 0.87)
        rabi, omega_sq = model._rabi_omega_sq(res, coup)
        assert rabi == pytest.approx(0.1, rel=1e-15)
        assert omega_sq == pytest.approx(1.0 - 0.04, rel=1e-15)


class TestInitialState:
    def test_separability_family_concurrence(self):
        for s in (-1.0, -0.4, 0.0, 0.7, 1.0):
            init = InitialState.from_separability(s, 0.3)
            assert 2.0 * abs(init.c01) * abs(init.c02) == pytest.approx(math.sqrt(1 - s * s),
                                                                        abs=1e-12)
            assert abs(init.c02) ** 2 - abs(init.c01) ** 2 == pytest.approx(s, abs=1e-12)

    def test_phase_recovered(self):
        init = InitialState.from_separability(0.2, 1.1)
        assert cmath.phase(init.c02 / init.c01) == pytest.approx(1.1, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            InitialState(c01=0.9, c02=0.9)

    @pytest.mark.parametrize("c01, c02, message", [
        (complex("nan"), 1.0, r"^c01 must be finite, got \(nan\+0j\)$"),
        (1.0, complex("inf"), r"^c02 must be finite, got \(inf\+0j\)$"),
    ])
    def test_rejects_amplitude_that_is_not_finite(self, c01, c02, message):
        with pytest.raises(ValueError, match=message):
            InitialState(c01, c02)


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

    @pytest.mark.parametrize("big_r", [1e-2, 1e-4, 1e-6])
    def test_weak_coupling_against_decimal_reference(self, big_r):
        # the slow rate (om - lam)/2 used to cancel: 1.4e-13 relative at
        # R = 1e-2, 1.4e-9 at 1e-4 and 8.4e-5 at 1e-6, worst of these times
        res, coup = resonant_system(big_r, 0.87)
        gamma = 2.0 * big_r**2
        times = [1.0, 1.0 / gamma, 5.0 / gamma]
        with decimal.localcontext(decimal.Context(prec=40)):
            lam, rabi = decimal.Decimal(res.lam), decimal.Decimal(coup.alpha_t * res.w)
            om = (lam * lam - 4 * rabi * rabi).sqrt()
            ref = [float(((1 + lam / om) * ((om - lam) / 2 * decimal.Decimal(t)).exp()
                          + (1 - lam / om) * (-(om + lam) / 2 * decimal.Decimal(t)).exp()) / 2)
                   for t in times]
        for t, e in zip(times, ref):
            assert survival_amplitude(res, coup, t) == pytest.approx(e, rel=1e-15, abs=0), t
        np.testing.assert_allclose(survival_amplitude(res, coup, np.array(times)), ref,
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6, 4e-5])
    def test_near_critical_against_decimal_reference(self, delta):
        # at R = 0.5 (1 - delta), omega_sq is about 4 delta lam**2, and the
        # weights (1 +- lam/om)/2 of the two exponentials cancel: the plain
        # form was 2.6e-11 relative off at delta = 1e-12 and 8.3e-13 at 1e-9
        big_r = 0.5 * (1.0 - delta)
        res, coup = resonant_system(big_r, 0.87)
        times = [0.3, 1.0, 5.0, 20.0]
        with decimal.localcontext(decimal.Context(prec=50)):
            lam, rabi = decimal.Decimal(res.lam), decimal.Decimal(coup.alpha_t * res.w)
            om = (lam * lam - 4 * rabi * rabi).sqrt()
            ref = [float(((1 + lam / om) * ((om - lam) / 2 * decimal.Decimal(t)).exp()
                          + (1 - lam / om) * (-(om + lam) / 2 * decimal.Decimal(t)).exp()) / 2)
                   for t in times]
        vec = survival_amplitude(res, coup, np.array(times))
        np.testing.assert_allclose(vec, ref, rtol=3e-15, atol=0)
        for t, e, v in zip(times, ref, vec):
            assert survival_amplitude(res, coup, t) == v
            _, k, f = model._survival(res, coup, t)
            assert math.exp(k * t) * f == pytest.approx(e, rel=3e-15, abs=0), t

    @pytest.mark.parametrize("big_r", [0.05, 0.1, 0.3, 0.49, 0.4999])
    def test_plain_overdamped_form_kept_from_r_0_05(self, big_r):
        # the cancellation-free forms start below 4 rabi**2 = 9e-3 lam**2
        # and above omega_sq = 2e-4 lam**2 short of critical damping, so
        # every R the goldens and the benchmark use keeps its bits: 0.4999,
        # the nearest below 0.5 to four digits, has omega_sq = 4e-4 lam**2
        res, coup = resonant_system(big_r, 0.87)
        lam, rabi = res.lam, coup.alpha_t * res.w
        om = math.sqrt(lam**2 - 4.0 * rabi**2)
        tau = np.linspace(0.0, 50.0, 501)
        plain = (0.5 * (1.0 + lam / om) * np.exp(0.5 * (om - lam) * tau)
                 + 0.5 * (1.0 - lam / om) * np.exp(-0.5 * (om + lam) * tau))
        assert np.array_equal(survival_amplitude(res, coup, tau), plain)

    @pytest.mark.parametrize("big_r", [1e-4, 0.1, 0.4999])
    def test_amplitude_forms_no_overdamped_factor(self, monkeypatch, big_r):
        # E reads the two-exponential sum alone: two exps of the times, for a
        # float time and an array alike, where the factor took a third; the
        # factor zeno_rate reads is unchanged
        res, coup = resonant_system(big_r, 0.87)
        tau = np.linspace(0.0, 50.0, 11)
        f = model._survival(res, coup, tau)[2]
        calls = []
        real = np.exp

        def counting(x, *args, **kwargs):
            calls.append(x)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(model.np, "exp", counting)
        vec = survival_amplitude(res, coup, tau)
        assert len(calls) == 2
        assert [survival_amplitude(res, coup, t) for t in tau.tolist()] == vec.tolist()
        assert len(calls) == 2 + 2 * tau.size
        monkeypatch.undo()
        assert model._survival(res, coup, tau, factor=False)[2] is None
        assert f.shape == tau.shape and np.all(f > 0.0)

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
            model._rabi_omega_sq(res, coup)
        for t in (0.0, 1e-160, np.linspace(0.0, 1.0, 3)):
            with pytest.raises(ValueError, match="rabi"):
                survival_amplitude(res, coup, t)

    def test_overflow_refusal_names_the_coupling_from_every_reader(self):
        res, coup = resonant_system(1e200, 1.0)
        message = ("coupling too strong: 4*rabi**2 overflows a double at rabi = 1e+200 "
                   "(big_r = rabi/lam = 1e+200); E(t) needs rabi below about 6.7e153")
        for read in (lambda: model._rabi_omega_sq(res, coup),
                     lambda: survival_amplitude(res, coup, 0.5),
                     lambda: survival_amplitude(res, coup, np.array([0.5, 1.0])),
                     lambda: model._survival(res, coup, 0.5)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == message

    # an envelope exponent (x+ t and x- t overdamped, x+ t and -om t near
    # critical damping, -lam t / 2 underdamped) passes the largest double at
    # lam = 4, t = 1e308: the float call was silent and right, the array
    # call warned "overflow encountered in multiply"
    @pytest.mark.parametrize("coup", [
        CouplingSpec(0.1, 0.1), CouplingSpec(1.9999, 0.0), CouplingSpec(2.0, 0.0),
        CouplingSpec(10.0, 0.0),
    ], ids=["overdamped", "near-critical", "critical", "underdamped"])
    @pytest.mark.parametrize("t", [[1e308], [0.5, 1.7e308]], ids=["1e308", "0.5-1.7e308"])
    def test_no_warning_where_an_envelope_exponent_overflows(self, coup, t):
        res = ReservoirSpec(w=1.0, lam=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floats = np.array([survival_amplitude(res, coup, x) for x in t])
            arr = survival_amplitude(res, coup, np.array(t))
        assert arr.tobytes() == floats.tobytes()
        assert arr[-1] == 0.0
        if coup.alpha1 == 10.0:
            assert np.signbit(arr[-1])

    # 0.5 w t overflowed to inf past about 1e308 / w, and cos(inf) gave NaN
    # (R = 10 from t = 2e307); at critical damping 1 + lam t / 2 overflowed
    # and exp(-lam t / 2) * inf gave NaN
    @pytest.mark.parametrize("system, t", [
        (resonant_system(10.0, 0.87), 2e307),
        (resonant_system(10.0, 0.87), 1e308),
        (resonant_system(1e6, 0.87), 1e303),
        ((ReservoirSpec(w=2.0, lam=4.0), CouplingSpec.from_relative(1.0, 0.5)), 1e308),
    ], ids=["R10-2e307", "R10-1e308", "R1e6-1e303", "critical-1e308"])
    def test_zero_where_the_phase_overflows(self, system, t):
        res, coup = system
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert survival_amplitude(res, coup, t) == 0.0
            assert survival_amplitude(res, coup, [t]) == 0.0
        assert survival_amplitude(res, coup, np.array([0.0, t]))[0] == 1.0

    def test_phase_cap_keeps_every_finite_bit(self):
        # every time whose phase was finite gives the bits of the plain
        # formula, the sign of a zero included
        res, coup = resonant_system(10.0, 0.87)
        w = math.sqrt(-model._rabi_omega_sq(res, coup)[1])
        tau = np.array([0.0, 1.3, 900.0, 1600.0, 1e5, 1e300, 1e306, 1e307,
                        sys.float_info.max / (0.5 * w)])
        plain = np.exp(-0.5 * tau) * (np.cos(0.5 * w * tau) + (1.0 / w) * np.sin(0.5 * w * tau))
        assert np.all(np.isfinite(plain))
        assert survival_amplitude(res, coup, tau).tobytes() == plain.tobytes()
        assert np.signbit(plain).any() and not np.signbit(plain).all()

    def test_cap_is_the_largest_time_with_a_finite_product(self):
        # max / rate rounded, stepped down while its product overflows, is
        # the largest such double: the rates are every power of two with its
        # neighbours, those whose cap lands in the top 40 ulps of every
        # seventh binade with theirs, and random rates of every exponent
        top = sys.float_info.max
        rates = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        for e in range(-1022, 1024, 7):
            cap = math.ldexp(1.0, e + 1)
            for _ in range(40):
                cap = math.nextafter(cap, 0.0)
                rates.append(top / cap)
        rng = np.random.default_rng(20261020)
        rates += [math.ldexp(float(m), int(e)) for m, e in
                  zip(rng.uniform(1.0, 2.0, 2000), rng.integers(-1074, 1024, 2000))]
        rates = {r for rate in rates for r in (math.nextafter(rate, 0.0), rate,
                                               math.nextafter(rate, math.inf))
                 if 0.0 < r < math.inf}
        for rate in rates:
            cap = float(model._capped_time(math.inf, rate))
            assert rate * cap < math.inf, rate.hex()
            assert rate * math.nextafter(cap, math.inf) == math.inf, rate.hex()

    def test_strongest_coupling_below_overflow_is_finite(self):
        res, coup = resonant_system(6e153, 0.5)
        e = survival_amplitude(res, coup, np.linspace(0.0, 1e-150, 5))
        assert np.all(np.isfinite(e)) and e[0] == 1.0

    def test_bits_pinned_in_every_regime(self):
        # weak coupling, plain overdamped, its near-critical edge, both
        # sides of the critical window and its centre, underdamped and
        # strong coupling; times from 0 and the least subnormal to 1e300,
        # past where a phase is capped, on the array and the float path.
        # Pinned before the regimes of E and of its (k, f) split became
        # one table
        big_rs = (1e-8, 0.05, 0.4999, 0.5 * (1.0 - 1e-9), 0.5, 0.5 * (1.0 + 1e-9), 10.0, 1e3)
        tau = np.concatenate([[0.0, 5e-324], np.logspace(-320.0, 300.0, 621),
                              np.linspace(0.0, 60.0, 601)])
        digest = hashlib.sha256()
        for big_r in big_rs:
            for r1 in (0.3, 0.87, 1.0):
                res, coup = resonant_system(big_r, r1)
                digest.update(survival_amplitude(res, coup, tau).tobytes())
                digest.update(np.array([survival_amplitude(res, coup, float(t))
                                        for t in tau]).tobytes())
        assert digest.hexdigest() == (
            "4255197d13d54d2c1304419ecb5592317fed783d3a20ea29ca2721c1a1c8e3f3")


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
            norm_sq = abs(amps.c1) ** 2 + abs(amps.c2) ** 2
            assert norm_sq == pytest.approx(expected, abs=1e-12)
            assert norm_sq <= 1.0 + 1e-10

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

    def test_amplitudes_at_one_time_are_scalars(self):
        res, coup = resonant_system(3.0, 0.25)
        init = InitialState.from_separability(0.5, 2.0)
        amps = amplitudes_at(res, coup, init, 1)
        assert isinstance(amps, TimeSeries)
        assert type(amps.tau) is float and amps.tau == 1.0
        assert type(amps.c1) is complex and type(amps.c2) is complex
        c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, survival_amplitude(res, coup, 1.0))
        assert (amps.c1, amps.c2) == (c1, c2)

    def test_amplitudes_reject_norm_violation(self):
        with pytest.raises(ValueError, match=r"^\|c1\|\^2 \+ \|c2\|\^2 = 1.62.* exceeds 1"):
            density_matrix(pair(0.9, 0.9))


class TestDensityMatrix:
    def test_structure_and_trace(self):
        res, coup = resonant_system(0.5, 0.7)
        init = InitialState.from_separability(0.2, 0.4)
        rho = density_matrix(amplitudes_at(res, coup, init, 1.3))
        assert rho.shape == (4, 4) and rho.dtype == complex
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        # double-excitation row and column stay empty
        assert np.all(rho[0, :] == 0.0)
        assert np.all(rho[:, 0] == 0.0)
        # one-excitation block is the outer product of the amplitudes
        amps = amplitudes_at(res, coup, init, 1.3)
        assert rho[1, 1] == pytest.approx(abs(amps.c1) ** 2, abs=1e-15)
        assert rho[1, 2] == pytest.approx(amps.c1 * np.conj(amps.c2), abs=1e-15)

    def test_stack_over_the_amplitude_shape(self):
        res, coup = resonant_system(2.0, 0.6)
        init = InitialState.from_separability(-0.3, 0.4)
        series = closed_form_series(res, coup, init, np.linspace(0.0, 3.0, 6).reshape(2, 3))
        rho = density_matrix(series)
        assert rho.shape == (2, 3, 4, 4)
        for i, j in np.ndindex(2, 3):
            one = density_matrix(amplitudes_at(res, coup, init, float(series.tau[i, j])))
            assert np.array_equal(rho[i, j], one)

    @pytest.mark.parametrize("c1, c2, message", [
        (math.nan, 0.0, "c1 must be finite, got (nan+0j)"),
        (0.5, complex(0.0, math.inf), "c2 must be finite, got infj"),
        (np.array([0.1, math.nan]), np.zeros(2), "c1 must be finite, got (nan+0j)"),
    ])
    def test_rejects_amplitude_that_is_not_finite(self, c1, c2, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            density_matrix(pair(c1, c2))

    def test_rejects_norm_violation_in_a_stack(self):
        with pytest.raises(ValueError, match="exceeds 1$"):
            density_matrix(pair(np.array([0.1, 0.9]), np.array([0.1, 0.9])))

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.5
        m[3, 3] = 0.5
        m[1, 2] = 0.3
        m[2, 1] = 0.1
        with pytest.raises(ValueError, match="^matrix must be Hermitian within 1e-12$"):
            concurrence_wootters(m)

    def test_rejects_population_outside_single_excitation_sector(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.5
        m[3, 3] = 0.5
        with pytest.raises(ValueError, match="^entries outside the one-excitation block"):
            concurrence_wootters(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.5
        m[2, 2] = 0.1
        m[1, 2] = m[2, 1] = 0.4
        m[3, 3] = 0.4
        with pytest.raises(ValueError, match="^matrix must be positive semidefinite within 1e-10$"):
            concurrence_wootters(m)


class TestConcurrence:
    def test_closed_form_examples(self):
        assert concurrence_closed(pair(SQRT_HALF, SQRT_HALF)) == \
            pytest.approx(1.0, rel=1e-15)
        # the long-time amplitudes of the r1 = sqrt(3)/2 product start
        assert concurrence_closed(pair(-math.sqrt(3.0) / 4.0, 0.25)) == \
            pytest.approx(math.sqrt(3.0) / 8.0, rel=1e-15)

    def test_initial_concurrence_follows_separability(self):
        for s in (-0.9, 0.0, 0.6):
            init = InitialState.from_separability(s, 0.7)
            amps = pair(init.c01, init.c02)
            assert concurrence_closed(amps) == pytest.approx(math.sqrt(1 - s * s),
                                                             abs=1e-12)

    def test_wootters_on_diagonal_state_is_zero(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 0.25
        m[2, 2] = 0.25
        m[3, 3] = 0.5
        assert concurrence_wootters(m) == pytest.approx(0.0,
                                                                        abs=1e-12)

    def test_wootters_on_maximally_entangled_state_is_one(self):
        rho = density_matrix(pair(SQRT_HALF, SQRT_HALF * 1j))
        assert concurrence_wootters(rho) == pytest.approx(1.0, abs=1e-12)

    def test_wootters_stack_equals_each_matrix(self):
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.2, 1.1)
        series = closed_form_series(res, coup, init, np.linspace(0.0, 2.0, 41))
        stack = concurrence_wootters(density_matrix(series))
        assert stack.shape == (41,)
        ones = [concurrence_wootters(m) for m in density_matrix(series)]
        assert all(type(c) is float for c in ones)
        np.testing.assert_allclose(stack, ones, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stack, series.concurrence(), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("bad, message", [
        (np.eye(3) / 3.0, "expected a 4x4 matrix, got shape (3, 3)"),
        (np.zeros(4), "expected a 4x4 matrix, got shape (4,)"),
        (np.full((4, 4), math.nan), "matrix entries must be finite"),
        (np.diag([0.0, 0.5, 0.0, 0.0]), "trace must be 1 within 1e-10, got "),
    ], ids=["shape", "vector", "finite", "trace"])
    def test_wootters_refuses_what_is_no_pair_state(self, bad, message):
        # the trace is named as numpy writes a float64: np.float64(0.5) or 0.5
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            concurrence_wootters(bad)

    def test_wootters_refuses_a_stack_with_one_bad_matrix(self):
        stack = np.zeros((3, 4, 4), complex)
        stack[:, 3, 3] = 1.0
        stack[1, 3, 3] = 0.7
        with pytest.raises(ValueError, match=r"got (np\.float64\()?0\.7\)?$"):
            concurrence_wootters(stack)

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
