"""Measurement protocol: effective rate, measured survival and concurrence."""

import math

import numpy as np
import pytest

from zeno_ent import (
    BellBasis,
    CouplingSpec,
    InitialState,
    MeasurementSchedule,
    ReservoirSpec,
    amplitudes_at,
    concurrence_closed,
    concurrence_measured,
    resonant_system,
    simulate_stroboscopic,
    stationary_concurrence,
    stroboscopic_amplitudes,
    survival_amplitude,
    survival_probability_measured,
    zeno_rate,
)
from zeno_ent import zeno

SQRT_HALF = math.sqrt(0.5)

# Frozen interval survivals and protection floors for the strong-coupling
# schedule family (coupling ratio 10, balanced superposition start, total
# time 2).  Derived once from an independent RK4 integration of the
# amplitude equation; the implementation must land on the same numbers.
FROZEN_FLOORS = {
    0.01: (0.99502077374207754, 0.13578730334222652),
    0.005: (0.99875234060659834, 0.36833932211152065),
    0.001: (0.99995001707899955, 0.81878259613401805),
}
TOTAL_TIME = 2.0


def rk4_survival(big_r, lam, t, n=20000):
    """Independent oracle, see test_model.rk4_survival."""
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


def balanced_system():
    res, coup = resonant_system(10.0, SQRT_HALF)
    init = InitialState.from_separability(0.0)
    return res, coup, init


class TestMeasurementSchedule:
    def test_total_time(self):
        sched = MeasurementSchedule(interval=0.25, count=8)
        assert sched.total_time == pytest.approx(2.0, rel=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MeasurementSchedule(interval=0.0, count=5)
        with pytest.raises(ValueError):
            MeasurementSchedule(interval=1.0, count=0)
        # an integer too large for a double raised OverflowError
        with pytest.raises(ValueError, match="^interval must be finite"):
            MeasurementSchedule(interval=10**400, count=2)
        # ... and one in count built, then raised it from total_time
        with pytest.raises(ValueError, match="^count must be finite, got an integer too large"):
            MeasurementSchedule(interval=0.1, count=10**400)
        # a total time past the largest double came out inf
        message = r"^count \* interval = 1e\+308 \* 10\.0 overflows a double$"
        with pytest.raises(ValueError, match=message):
            MeasurementSchedule(interval=10.0, count=int(1e308))
        assert MeasurementSchedule(interval=1.0, count=int(1e308)).total_time == 1e308

    @pytest.mark.parametrize("count", [2.5, 3.0, True, np.float64(2.0), "3"])
    def test_rejects_count_that_is_not_an_integer(self, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            MeasurementSchedule(interval=0.1, count=count)

    def test_numpy_integer_count_stored_as_int(self):
        sched = MeasurementSchedule(interval=0.1, count=np.int64(3))
        assert type(sched.count) is int and sched.count == 3


class TestZenoRate:
    def test_rate_identity_with_interval_survival(self):
        res, coup, _ = balanced_system()
        for t_int in (0.003, 0.05, 0.2):
            zr = zeno_rate(res, coup, t_int)
            e = survival_amplitude(res, coup, t_int)
            assert zr.rate * t_int == pytest.approx(-2.0 * math.log(abs(e)),
                                                    abs=1e-12)
            assert zr.interval_survival == pytest.approx(e, abs=1e-15)

    def test_small_interval_series(self):
        # gamma_z(T) = rabi^2 T (1 - lam T / 3) + O(T^3)
        res, coup, _ = balanced_system()
        for t_int in (1e-4, 1e-3):
            zr = zeno_rate(res, coup, t_int)
            series = 100.0 * t_int * (1.0 - t_int / 3.0)
            assert zr.rate == pytest.approx(series, rel=1e-3)

    def test_rate_shrinks_linearly_with_interval(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        r1 = zeno_rate(res, coup, 1e-3).rate
        r2 = zeno_rate(res, coup, 2e-3).rate
        assert r1 == pytest.approx(1e-5, rel=1e-2)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-2)

    def test_long_interval_approaches_markov_rate(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        zr = zeno_rate(res, coup, 20.0)
        assert zr.rate == pytest.approx(0.02, rel=0.05)

    def test_rate_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            big_r = float(np.exp(rng.uniform(math.log(0.01), math.log(30.0))))
            t_int = float(rng.uniform(1e-4, 10.0))
            res, coup = resonant_system(big_r, 0.6)
            try:
                zr = zeno_rate(res, coup, t_int)
            except ValueError:
                continue
            assert zr.rate >= 0.0

    def test_rate_is_positive_zero_when_survival_rounds_to_one(self):
        # in the Zeno regime E(T) rounds to 1, and the rate comes from the
        # Taylor series of E(T) - 1: rabi**2 T (1 - lam T / 3) at R = 10
        res, coup = resonant_system(10.0, 0.87)
        zr = zeno_rate(res, coup, 1e-10)
        assert zr.interval_survival == 1.0
        assert zr.rate == pytest.approx(100.0 * 1e-10 * (1.0 - 1e-10 / 3.0), rel=1e-12)
        # where the plain form serves, max(lam, rabi) T >= 1e-3, an E(T) that
        # rounds to 1 gives +0.0, not -0.0
        res, coup = resonant_system(1e-9, 0.87)
        zr = zeno_rate(res, coup, 0.1)
        assert zr.interval_survival == 1.0
        assert zr.rate == 0.0 and math.copysign(1.0, zr.rate) == 1.0

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 1.0, 10.0, 1000.0])
    def test_rate_where_the_square_underflows(self, big_r):
        # (rabi T)**2 is subnormal or 0 from rabi T ~ 1.5e-154: the series
        # read 0.0 at R = 1, T = 1e-200; the rate is rabi**2 T (1 - lam T / 3)
        # to a few ulps, and lam T / 3 is below an ulp of 1 here
        res, coup = resonant_system(big_r, 0.5)
        rabi = coup.alpha_t * res.w
        for t in (1e-150, 1e-154, 1.5e-154 / rabi, 1e-160, 1e-200, 1e-250, 1e-300):
            ref = rabi * rabi * t
            assert zeno_rate(res, coup, t).rate == pytest.approx(ref, rel=1e-15, abs=0), t
        assert zeno_rate(*resonant_system(1.0, 0.5), 1e-200).rate == pytest.approx(
            1e-200, rel=1e-15, abs=0)

    @pytest.mark.parametrize("big_r", [0.1, 0.5, 1.0, 10.0, 1000.0])
    def test_zeno_regime_rate_against_mpmath(self, big_r):
        # the plain form read 2.3% low at R = 10, T = 1e-8, 0.0 from 1e-10
        # to 1e-14 and 0.222 at 1e-15
        mp = pytest.importorskip("mpmath").mp
        res, coup = resonant_system(big_r, 0.87)
        with mp.workdps(60):
            lam, rabi = mp.mpf(res.lam), mp.mpf(coup.alpha_t) * mp.mpf(res.w)
            root = mp.sqrt(mp.mpc(lam * lam - 4 * rabi * rabi))
            for t in [9.99e-4 / max(1.0, big_r)] + [10.0 ** -k for k in range(4, 16)]:
                if max(1.0, big_r) * t >= 1e-3:
                    continue
                half = root * t / 2
                sinhc = mp.sinh(half) / half if half else 1
                e = mp.exp(-lam * t / 2) * (mp.cosh(half) + lam * t / 2 * sinhc)
                ref = float(-2 * mp.log(abs(e)) / t)
                assert zeno_rate(res, coup, t).rate == pytest.approx(ref, rel=1e-14), t

    def test_plain_form_kept_outside_the_zeno_regime(self):
        # at and above max(lam, rabi) T = 1e-3 the rate is -log(E(T)**2) / T
        # to the bit, as criterion 7's intervals and the zeno-compare tables have it
        rng = np.random.default_rng(12)
        cases = [(10.0, t) for t in (1e-4, 1e-3, 0.01, 0.1, 1.0, 5.0)]
        cases += [(0.1, t) for t in (1e-3, 0.1, 1.0, 5.0)]
        for _ in range(200):
            big_r = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
            cases.append((big_r, float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
                          / max(1.0, big_r)))
        for big_r, t in cases:
            res, coup = resonant_system(big_r, 0.87)
            if max(res.lam, coup.alpha_t * res.w) * t < 1e-3:
                continue
            e = survival_amplitude(res, coup, t)
            if abs(e) < 1e-14:
                continue
            assert zeno_rate(res, coup, t).rate == max(0.0, -math.log(e * e) / t), (big_r, t)

    def test_oscillatory_flag_for_negative_survival(self):
        res, coup, _ = balanced_system()
        zr = zeno_rate(res, coup, 0.31)
        assert zr.oscillatory is True
        assert zr.rate > 0.0
        assert zeno_rate(res, coup, 0.01).oscillatory is False

    @pytest.mark.parametrize("big_r, t", [(0.1, 5000.0), (10.0, 100.0), (0.1, 1e300),
                                          (1.0, 1e300)])
    def test_decayed_interval_has_finite_rate(self, big_r, t):
        # |E(T)| is 1.2e-22, 1.8e-22, 0.0 and -0.0 here, below the 1e-14
        # floor by decay alone; these were refused as zeros of E
        mp = pytest.importorskip("mpmath").mp
        res, coup = resonant_system(big_r, 0.87)
        e = survival_amplitude(res, coup, t)
        assert abs(e) < 1e-14
        with mp.workdps(60):
            # log|E| at 60 digits with the decay exponent kept apart, so it
            # holds where E underflows
            lam, rabi = mp.mpf(res.lam), mp.mpf(coup.alpha_t) * mp.mpf(res.w)
            disc = lam * lam - 4 * rabi * rabi
            if disc > 0:
                om = mp.sqrt(disc)
                log_e = (om - lam) / 2 * t + mp.log((1 + lam / om) / 2
                                                    + (1 - lam / om) / 2 * mp.exp(-om * t))
            else:
                w = mp.sqrt(-disc)
                factor = mp.cos(w * t / 2) + lam / w * mp.sin(w * t / 2)
                log_e = -lam * t / 2 + mp.log(abs(factor))
            ref = float(-2 * log_e / t)
        zr = zeno_rate(res, coup, t)
        assert zr.rate == pytest.approx(ref, rel=1e-14, abs=0)
        assert zr.interval_survival == e
        # the sign of E, or of its underdamped factor where E underflows
        assert zr.oscillatory is (math.copysign(1.0, e) < 0.0)

    # E(T) was NaN where its phase, or the critical 1 + lam T / 2,
    # overflowed, and max(0.0, nan) made that a rate of 0: perfect
    # protection where the share decays at lam
    @pytest.mark.parametrize("system, t, rate", [
        (resonant_system(10.0, 0.87), 1e308, 1.0),
        (resonant_system(10.0, 0.87), 2e307, 1.0),
        ((ReservoirSpec(w=2.0, lam=4.0), CouplingSpec.from_relative(1.0, 0.5)), 1e308, 4.0),
    ], ids=["R10-1e308", "R10-2e307", "critical-1e308"])
    def test_rate_where_the_phase_overflows(self, system, t, rate):
        zr = zeno_rate(*system, t)
        assert zr.interval_survival == 0.0
        assert zr.rate == pytest.approx(rate, rel=1e-15)
        # the sign of E(T), a signed zero here, is the oscillatory flag
        assert zr.oscillatory is (math.copysign(1.0, zr.interval_survival) < 0.0)

    def test_interval_on_survival_zero_rejected(self):
        res, coup, _ = balanced_system()
        om = math.sqrt(399.0)
        tau_zero = (2.0 / om) * (math.pi - math.atan(om))
        with pytest.raises(ValueError):
            zeno_rate(res, coup, tau_zero)


class TestSurvivalProbabilityMeasured:
    def test_subradiant_start_has_no_superradiant_share(self):
        res, coup, _ = balanced_system()
        init = coup.psi_minus()
        for t_int in (0.01, 0.1):
            sched = MeasurementSchedule(interval=t_int, count=10)
            assert survival_probability_measured(res, coup, init, sched) == \
                pytest.approx(0.0, abs=1e-15)

    def test_equals_interval_survival_power(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        init = InitialState.from_separability(0.0)
        sched = MeasurementSchedule(interval=1.0, count=10)
        e = survival_amplitude(res, coup, 1.0)
        expected = abs(init.c01 * coup.r1 + init.c02 * coup.r2) ** 2 * e ** 20
        assert survival_probability_measured(res, coup, init, sched) == \
            pytest.approx(expected, rel=1e-12)

    def test_frequent_measurements_freeze_the_population(self):
        res, coup, init = balanced_system()
        values = [survival_probability_measured(
            res, coup, init, MeasurementSchedule(interval=t, count=n))
            for t, n in ((0.01, 200), (0.005, 400), (0.001, 2000))]
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.8


class TestConcurrenceMeasured:
    def test_subradiant_start_schedule_independent(self):
        res, coup = resonant_system(10.0, 0.6)
        init = coup.psi_minus()
        base = 2.0 * coup.r1 * coup.r2
        for t_int, n in ((0.003, 5), (0.17, 11), (1.0, 3)):
            sched = MeasurementSchedule(interval=t_int, count=n)
            assert concurrence_measured(res, coup, init, sched) == \
                pytest.approx(base, abs=1e-12)

    def test_monotone_approach_to_initial_concurrence(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        init = InitialState.from_separability(0.0)
        free = concurrence_closed(amplitudes_at(res, coup, init, 4.0))
        values = []
        for k in (1, 2, 3, 4, 5, 6):
            t_int = 4.0 / 2 ** k
            sched = MeasurementSchedule(interval=t_int, count=2 ** k)
            values.append(concurrence_measured(res, coup, init, sched))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v > free for v in values)
        assert values[-1] == pytest.approx(1.0, abs=3e-3)

    def test_odd_count_with_negative_survival_keeps_the_sign(self):
        # E(0.3) < 0 at R = 10: one measurement flips the super-radiant share
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        assert zeno_rate(res, coup, 0.3).oscillatory is True
        for n in (1, 2, 3):
            sched = MeasurementSchedule(interval=0.3, count=n)
            exact = simulate_stroboscopic(res, coup, init, sched).concurrence()[-1]
            assert concurrence_measured(res, coup, init, sched) == \
                pytest.approx(exact, abs=1e-12)
        single = MeasurementSchedule(interval=0.3, count=1)
        assert concurrence_measured(res, coup, init, single) == \
            pytest.approx(0.28545, abs=1e-5)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_interval_on_a_zero_of_survival_is_read(self, count):
        # E(T) = 1.3e-17 here, below the floor at which zeno_rate refuses
        # the interval: read through the rate, this valid schedule raised
        res, coup = resonant_system(10.0, 0.87)
        init = InitialState.from_separability(0.0)
        interval = 0.16228470118019392
        assert abs(survival_amplitude(res, coup, interval)) < 1e-14
        sched = MeasurementSchedule(interval=interval, count=count)
        measured = concurrence_measured(res, coup, init, sched)
        sampled = simulate_stroboscopic(res, coup, init, sched).concurrence()[-1]
        c1, c2 = stroboscopic_amplitudes(res, coup, init, interval, [count * interval])
        assert measured == pytest.approx(sampled, rel=0, abs=1e-12)
        assert measured == pytest.approx(2.0 * abs(c1[0] * c2[0].conjugate()), rel=0, abs=1e-12)
        assert measured == pytest.approx(stationary_concurrence(coup, init), rel=0, abs=1e-12)
        # the rate, and the population it sets, still refuse the interval
        with pytest.raises(ValueError, match="the effective rate diverges"):
            survival_probability_measured(res, coup, init, sched)

    def test_measurements_beat_free_decay(self):
        res, coup = resonant_system(0.1, SQRT_HALF)
        init = InitialState.from_separability(0.0)
        sched = MeasurementSchedule(interval=0.1, count=100)
        free = concurrence_closed(amplitudes_at(res, coup, init, 10.0))
        assert concurrence_measured(res, coup, init, sched) > free


class TestStroboscopic:
    def test_single_interval_reduces_to_free_evolution_bitwise(self):
        res, coup, init = balanced_system()
        tau = np.array([0.0, 0.07, 0.31, 1.9])
        c1, c2 = stroboscopic_amplitudes(res, coup, init, 5.0, tau)
        for i, t in enumerate(tau):
            amps = amplitudes_at(res, coup, init, float(t))
            assert c1[i] == amps.c1
            assert c2[i] == amps.c2

    @pytest.mark.parametrize("interval", [1e-320, 5e-324])
    def test_subnormal_interval_keeps_the_initial_amplitudes(self, interval):
        # tau / interval overflows a double: the count is inf and the local
        # time 0, with no numpy overflow warning
        res, coup, init = balanced_system()
        c1, c2 = stroboscopic_amplitudes(res, coup, init, interval, [0.0, 0.005, 1.0, 10.0])
        np.testing.assert_allclose(c1, init.c01, rtol=0, atol=1e-15)
        np.testing.assert_allclose(c2, init.c02, rtol=0, atol=1e-15)

    def test_rejects_time_too_large_for_a_double(self):
        # np.asarray raised OverflowError; closed_form_series refuses it so
        res, coup, init = balanced_system()
        with pytest.raises(ValueError, match="^tau must be finite, got an integer too large"):
            stroboscopic_amplitudes(res, coup, init, 0.1, [10**400])

    def test_matches_closed_form_when_survival_positive(self):
        res, coup, init = balanced_system()
        for t_int, n in ((0.01, 200), (0.005, 400)):
            sched = MeasurementSchedule(interval=t_int, count=n)
            series = simulate_stroboscopic(res, coup, init, sched)
            closed = concurrence_measured(res, coup, init, sched)
            assert series.concurrence()[-1] == pytest.approx(closed, abs=1e-12)

    def test_departs_from_free_evolution_after_negative_survival(self):
        # half an interval past a measurement at T = 0.31, where E(T) < 0:
        # the measured super-radiant amplitude is E(T) E(t - T), which the
        # free amplitude E(t) does not follow
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.31, count=1)
        series = simulate_stroboscopic(res, coup, init, sched)
        tau = np.array([0.31 * 1.5])
        c1, c2 = stroboscopic_amplitudes(res, coup, init, 0.31, tau)
        amps_free = amplitudes_at(res, coup, init, float(tau[0]))
        assert abs(c1[0] - amps_free.c1) > 1e-3
        assert series.meta["oscillatory"] is True

    def test_frozen_floor_values(self):
        res, coup, init = balanced_system()
        for t_int, (e_frozen, floor_frozen) in FROZEN_FLOORS.items():
            n = int(round(TOTAL_TIME / t_int))
            e_impl = survival_amplitude(res, coup, t_int)
            e_oracle = rk4_survival(10.0, 1.0, t_int)
            assert e_impl == pytest.approx(e_frozen, rel=1e-12)
            assert e_oracle == pytest.approx(e_frozen, rel=1e-10)
            sched = MeasurementSchedule(interval=t_int, count=n)
            series = simulate_stroboscopic(res, coup, init, sched)
            assert series.concurrence()[-1] == pytest.approx(floor_frozen,
                                                             rel=1e-9)

    def test_trajectory_never_below_final_floor_for_short_intervals(self):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.005, count=400)
        series = simulate_stroboscopic(res, coup, init, sched)
        c = series.concurrence()
        assert float(np.min(c)) >= c[-1] - 1e-12

    def test_ground_population_accumulates_to_lost_share(self):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.01, count=200)
        series = simulate_stroboscopic(res, coup, init, sched, samples_per_interval=32)
        # 1 - |c|**2 just before each measurement, read off the series
        gp = 1.0 - (np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2)[32::32]
        assert len(gp) == 200
        e = survival_amplitude(res, coup, 0.01)
        assert gp[0] == pytest.approx(1.0 - e * e, rel=1e-10)
        assert gp[-1] == pytest.approx(1.0 - e ** 400, rel=1e-10)

    def test_subradiant_start_constant_for_any_schedule(self):
        res, coup = resonant_system(10.0, 0.87)
        init = coup.psi_minus()
        for t_int, n in ((0.01, 50), (0.31, 4)):
            sched = MeasurementSchedule(interval=t_int, count=n)
            series = simulate_stroboscopic(res, coup, init, sched)
            np.testing.assert_allclose(series.c1, init.c01, atol=1e-12)
            np.testing.assert_allclose(series.c2, init.c02, atol=1e-12)

    def test_grid_covers_every_interval(self):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.5, count=4)
        series = simulate_stroboscopic(res, coup, init, sched,
                                       samples_per_interval=8)
        assert series.tau.size == 4 * 8 + 1
        assert series.tau[0] == 0.0
        assert series.tau[-1] == pytest.approx(2.0, rel=1e-12)
        assert float(np.min(np.diff(series.tau))) > 0.0

    @pytest.mark.parametrize("samples", [2.5, "8", True, np.float64(8.0)])
    def test_rejects_samples_that_are_not_an_integer(self, samples):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.5, count=4)
        with pytest.raises(ValueError, match="samples_per_interval must be an integer"):
            simulate_stroboscopic(res, coup, init, sched, samples_per_interval=samples)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_samples_below_one(self, samples):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.5, count=4)
        with pytest.raises(ValueError, match="samples_per_interval must be >= 1"):
            simulate_stroboscopic(res, coup, init, sched, samples_per_interval=samples)

    def test_numpy_integer_samples_match_plain_int(self):
        res, coup, init = balanced_system()
        sched = MeasurementSchedule(interval=0.5, count=4)
        series = simulate_stroboscopic(res, coup, init, sched, samples_per_interval=np.int64(8))
        plain = simulate_stroboscopic(res, coup, init, sched, samples_per_interval=8)
        assert np.array_equal(series.tau, plain.tau)
        assert np.array_equal(series.c1, plain.c1) and np.array_equal(series.c2, plain.c2)

    def test_sample_grid_matches_per_interval_concatenation(self):
        # oracle: one linspace per interval, concatenated, then the last
        # measurement time
        res, coup, init = balanced_system()
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            t_int = float(rng.uniform(1e-3, 2.0))
            n = int(rng.integers(1, 41))
            samples = int(rng.integers(1, 65))
            series = simulate_stroboscopic(res, coup, init,
                                           MeasurementSchedule(t_int, n), samples)
            local = np.linspace(0.0, t_int, samples + 1)[:-1]
            oracle = np.concatenate([kk * t_int + local for kk in range(n)] + [[n * t_int]])
            assert np.array_equal(series.tau, oracle)

    @pytest.mark.parametrize("count, samples", [(1, 1), (7, 32), (60, 64)])
    def test_survival_read_at_one_interval_of_offsets(self, monkeypatch, count, samples):
        points = []

        def counting(res, coup, t):
            points.append(np.size(t))
            return survival_amplitude(res, coup, t)

        monkeypatch.setattr(zeno, "survival_amplitude", counting)
        res, coup, init = balanced_system()
        series = simulate_stroboscopic(res, coup, init, MeasurementSchedule(0.31, count), samples)
        assert series.tau.size == count * samples + 1
        assert sum(points) <= samples + 1

    def test_matches_free_grid_sampler_on_random_schedules(self):
        # E(T)**k E(offset) against E on every point of the same grid, with
        # the local times tau - k T that carry the rounding of k T: 3.5e-15
        # apart at most over these draws, 69 of them with E(T) < 0.  The
        # ground population read off the series is E(T)**k E(0) at the
        # measurement points, and E(0) rounds an ulp off 1 in the
        # overdamped form, so it is within 1e-15 of the one at E(T)**k.
        rng = np.random.default_rng(20261019)
        oscillatory = 0
        for _ in range(300):
            big_r = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            res, coup = resonant_system(big_r, float(rng.uniform(0.0, 1.0)))
            init = InitialState.from_separability(float(rng.uniform(-1.0, 1.0)),
                                                  float(rng.uniform(0.0, 2.0 * math.pi)))
            t_int, n = float(rng.uniform(0.02, 1.5)), int(rng.integers(1, 61))
            samples = int(rng.integers(1, 65))
            series = simulate_stroboscopic(res, coup, init, MeasurementSchedule(t_int, n),
                                           samples)
            c1, c2 = stroboscopic_amplitudes(res, coup, init, t_int, series.tau)
            assert np.max(np.abs(series.c1 - c1)) <= 1e-14
            assert np.max(np.abs(series.c2 - c2)) <= 1e-14
            e_t = survival_amplitude(res, coup, t_int)
            g1, g2 = BellBasis.from_state(coup, init).amplitudes(coup, e_t ** np.arange(1, n + 1))
            ground = 1.0 - (np.abs(g1) ** 2 + np.abs(g2) ** 2)
            read = 1.0 - (np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2)[samples::samples]
            assert np.max(np.abs(read - ground)) <= 1e-15
            assert series.meta == {"oscillatory": bool(e_t < 0.0)}
            oscillatory += series.meta["oscillatory"]
        assert oscillatory >= 50

    # worst absolute amplitude error against 40 digits, E(T)**k E(offset)
    # against E on every grid point: 7.1e-16 and 2.9e-16 at R = 10, 6.0e-16
    # both at R = 0.1, 2.2e-16 and 2.0e-16 at R = 50, and 5.8e-15 both at
    # R = 0.5, which is E's own error at critical damping; the ground
    # population read off the series at the measurement points is at most
    # 1.1e-14 off
    @pytest.mark.parametrize("big_r, r1, s, interval, count, samples", [
        (10.0, SQRT_HALF, 0.0, 0.31, 7, 16),
        (0.1, 0.5, -0.4, 1.2, 5, 9),
        (0.5, 0.3, 0.6, 0.05, 60, 8),
        (50.0, 0.7, 0.2, 0.02, 40, 5),
    ])
    def test_against_mpmath_piecewise_reference(self, big_r, r1, s, interval, count, samples):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 40
        res, coup = resonant_system(big_r, r1)
        init = InitialState.from_separability(s, 0.9)
        series = simulate_stroboscopic(res, coup, init, MeasurementSchedule(interval, count),
                                       samples)
        # E(t) = exp(-lam t/2) (cosh(om t/2) + lam/om sinh(om t/2)), om**2 =
        # lam**2 - 4 rabi**2 of either sign, at the exact coupling of the doubles
        lam, a1, a2 = mp.mpf(res.lam), mp.mpf(coup.alpha1), mp.mpf(coup.alpha2)
        alpha_t = mp.sqrt(a1 * a1 + a2 * a2)
        r1_, r2_ = a1 / alpha_t, a2 / alpha_t
        om = mp.sqrt(mp.mpc(lam * lam - 4 * (alpha_t * mp.mpf(res.w)) ** 2))

        def e(t):
            return (mp.exp(-lam * t / 2) * (mp.cosh(om * t / 2)
                                            + lam / om * mp.sinh(om * t / 2))).real

        bm = r2_ * mp.mpc(init.c01) - r1_ * mp.mpc(init.c02)
        bp = r1_ * mp.mpc(init.c01) + r2_ * mp.mpc(init.c02)
        t_int = mp.mpf(interval)
        e_t = e(t_int)
        c1, c2 = [], []
        for i, t in enumerate(series.tau.tolist()):
            k = min(i // samples, count)
            f = e_t ** k * e(mp.mpf(t) - k * t_int)
            c1.append(complex(r2_ * bm + r1_ * f * bp))
            c2.append(complex(-r1_ * bm + r2_ * f * bp))
        ground = [float(1 - abs(r2_ * bm + r1_ * e_t ** k * bp) ** 2
                        - abs(-r1_ * bm + r2_ * e_t ** k * bp) ** 2) for k in range(1, count + 1)]
        assert np.max(np.abs(series.c1 - c1)) <= 1e-14
        assert np.max(np.abs(series.c2 - c2)) <= 1e-14
        read = 1.0 - (np.abs(series.c1) ** 2 + np.abs(series.c2) ** 2)[samples::samples]
        assert np.max(np.abs(read - ground)) <= 2e-14
