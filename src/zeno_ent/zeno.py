"""Repeated nonselective measurements of the collective excitation.

Projecting the reservoir back to its vacuum every ``interval`` erases the
memory built up during the interval, so after each measurement the
super-radiant share restarts its decay from the current amplitude.  After
``N`` intervals the share has shrunk by ``E(T)**N``, equivalently by
``exp(-zeno_rate * N * T / 2)`` with ``zeno_rate = -log(E(T)**2) / T``.
Frequent enough measurements make the effective rate vanish and freeze the
state, entanglement included; the sub-radiant share is untouched by the
whole protocol.

The rate form ``exp(-zeno_rate * t / 2) = |E(T)|**N`` drops the sign of
``E(T)``.  In the underdamped regime the survival amplitude oscillates, and
an interval with ``E(T) < 0`` flips the sign of the super-radiant share at
every measurement, which changes the concurrence at odd counts.  The
amplitudes and the measured concurrence therefore use the signed
``E(T)**N``; the rate only sets the populations, where the sign drops out.
Results carry an ``oscillatory`` flag when ``E(T) < 0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    BellBasis,
    CouplingSpec,
    InitialState,
    ReservoirSpec,
    TimeSeries,
    _checked_times,
    _integer,
    _positive,
    _survival,
    _to_float,
    survival_amplitude,
)

__all__ = [
    "MeasurementSchedule",
    "ZenoRate",
    "concurrence_measured",
    "simulate_stroboscopic",
    "stroboscopic_amplitudes",
    "survival_probability_measured",
    "zeno_rate",
]

# |E(T)| below this is indistinguishable from an exact zero in double
# precision: near its zeros the closed form carries ~1e-16 absolute noise,
# so the log of anything smaller is rounding artifact, not physics.  It is
# a zero only where the oscillating factor of E, not its decay, is below it.
_SURVIVAL_FLOOR = 1e-14

# max(lam, rabi) * T below which the rate is read off the Taylor series of
# E(T) - 1: E(T) itself lies within about (rabi T)**2 of 1 there, so its log
# keeps few of the rate's digits, or none once that falls under an ulp
_SERIES_BOUND = 1e-3


def _survival_deficit(lam_t: float, rabi_t: float) -> float:
    """``E(T) - 1`` from the Taylor series of ``E'' + lam E' + rabi**2 E = 0``
    (``E(0) = 1``, ``E'(0) = 0``), given ``lam T`` and ``rabi T`` below
    :data:`_SERIES_BOUND`.  The terms ``a_k = e_k T**k`` follow
    ``a_{k+2} = -(lam T (k+1) a_{k+1} + (rabi T)**2 a_k) / ((k+2)(k+1))``
    and fall by about ``max(lam, rabi) T`` each, so eight of them carry
    every digit; scaled by ``T``, no coefficient overflows."""
    a0, a1, total = 1.0, 0.0, 0.0
    for k in range(8):
        a0, a1 = a1, -(lam_t * (k + 1) * a1 + rabi_t * rabi_t * a0) / ((k + 2) * (k + 1))
        total += a1
    return total


@dataclass(frozen=True)
class MeasurementSchedule:
    """``count`` equally spaced nonselective measurements, one every ``interval``."""

    interval: float
    count: int

    def __post_init__(self):
        _positive("interval", self.interval)
        object.__setattr__(self, "count", _integer("count", self.count, 1))
        count = _to_float("count", self.count)
        if not math.isfinite(count * self.interval):
            raise ValueError(f"count * interval = {count!r} * {self.interval!r} "
                             "overflows a double")

    @property
    def total_time(self) -> float:
        return self.count * self.interval


@dataclass(frozen=True)
class ZenoRate:
    """Effective decay rate under a given measurement interval."""

    rate: float
    interval_survival: float
    oscillatory: bool


def zeno_rate(res: ReservoirSpec, coup: CouplingSpec, interval: float) -> ZenoRate:
    """Effective rate ``-log(E(T)**2) / T`` for measurement interval ``T``.

    Always non-negative; shrinks linearly with ``T`` for short intervals, so
    frequent measurements suppress the decay.  Where
    ``max(lam, rabi) T < 1e-3`` (the Zeno regime) the rate is
    ``-2 log1p(E(T) - 1) / T`` with ``E(T) - 1`` summed from its Taylor
    series, about ``rabi**2 T (1 - lam T / 3)``, since ``E(T)`` rounds to
    1 there; ``interval_survival`` is ``E(T)`` either way.  Raises if the
    interval lands on a zero of the survival amplitude, where the
    underdamped factor ``cos(w T/2) + (lam/w) sin(w T/2)`` is below 1e-14
    and the rate diverges.  An interval over which ``E`` merely decayed
    below 1e-14 has the rate ``-2 log|E(T)| / T``, with ``log|E(T)| / T``
    taken as the decay rate plus the log of that factor over ``T`` where
    ``E(T)`` underflows, e.g. ``lam`` at ``R = 1``, ``T = 1e300``.  ``oscillatory``
    is set when ``E(T) < 0`` (or its factor, where ``E(T)`` underflows),
    where the super-radiant share changes sign at every measurement (see
    module docstring).
    """
    _positive("interval", interval)
    e = survival_amplitude(res, coup, interval)
    if abs(e) < _SURVIVAL_FLOOR:
        _, k, f = _survival(res, coup, float(interval))
        if abs(f) < _SURVIVAL_FLOOR:
            raise ValueError(
                f"measurement interval {float(interval)!r} lands on a zero of the "
                "survival amplitude; the effective rate diverges")
        if abs(e) >= sys.float_info.min:
            rate = -2.0 * math.log(abs(e)) / interval
        else:
            rate = -2.0 * (k + math.log(abs(f)) / interval)
        return ZenoRate(rate=rate, interval_survival=float(e), oscillatory=bool(f < 0.0))
    # max(lam, rabi) T < _SERIES_BOUND with rabi = alpha_t w; lam T is tested
    # first, so a long interval costs one product
    lam_t = res.lam * interval
    if lam_t >= _SERIES_BOUND or (rabi_t := coup.alpha_t * res.w * interval) >= _SERIES_BOUND:
        rate = -math.log(e * e) / interval
    elif rabi_t * rabi_t >= sys.float_info.min:
        rate = -2.0 * math.log1p(_survival_deficit(lam_t, rabi_t)) / interval
    else:
        # (rabi T)**2 underflows: E - 1 is (rabi T)**2 D(r) / r**2, D the
        # deficit at any r whose square is normal and negligible, here
        # 2**-300, and log1p(E - 1) is E - 1 itself
        deficit = _survival_deficit(lam_t, 2.0**-300) * 2.0**600
        rate = -2.0 * rabi_t * (rabi_t / interval) * deficit
    # rounding can push E a hair above 1, clamp the rate at zero; max keeps
    # the first of equal values, so 0.0 goes first and -0.0 never comes out
    rate = max(0.0, rate)
    return ZenoRate(rate=rate, interval_survival=float(e), oscillatory=bool(e < 0.0))


def survival_probability_measured(res: ReservoirSpec, coup: CouplingSpec,
                                  init: InitialState, sched: MeasurementSchedule) -> float:
    """Super-radiant population left after the schedule: |beta_plus|^2 e^{-rate t}."""
    zr = zeno_rate(res, coup, sched.interval)
    bp = BellBasis.from_state(coup, init).beta_plus
    return abs(bp) ** 2 * math.exp(-zr.rate * sched.total_time)


def concurrence_measured(res: ReservoirSpec, coup: CouplingSpec,
                         init: InitialState, sched: MeasurementSchedule) -> float:
    """Concurrence right after the last measurement of the schedule.

    Closed form: ``2 |c1 c2|`` with the pair amplitudes of
    :meth:`BellBasis.amplitudes` at ``e = E(T)**N``, the signed interval
    survival raised to the measurement count.  This is the piecewise
    evolution at its last measurement in every regime, including intervals
    with ``E(T) < 0`` and intervals on a zero of ``E``, which only the rate
    refuses.
    """
    g = survival_amplitude(res, coup, sched.interval) ** sched.count
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, g)
    return 2.0 * abs(c1 * c2.conjugate())


def stroboscopic_amplitudes(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                            interval: float, tau):
    """Pair amplitudes under measurements every ``interval``, on a free grid.

    Piecewise closed-form evolution: within interval ``k`` the super-radiant
    share is ``beta_plus * E(T)**k * E(tau - k T)``.  The amplitudes are
    continuous across measurements (the measurement only severs the
    reservoir correlations), so grid points on a boundary are unambiguous.
    Returns ``(c1, c2)`` arrays matching ``tau``.
    """
    _positive("interval", interval)
    tau = np.asarray(_checked_times(tau, "tau"))
    # k stays a float: an integer cast wraps once tau/interval passes 2**63.
    # Past the largest double (a subnormal interval) the count is inf, and
    # the local time below is then 0, which it is to within the interval
    with np.errstate(over="ignore"):
        k = np.floor(tau / interval)
    # rounding can put tau a hair below k*interval; the local time is then 0
    local = np.maximum(tau - k * interval, 0.0)
    e = survival_amplitude(res, coup, local)
    e_t = survival_amplitude(res, coup, interval)
    basis = BellBasis.from_state(coup, init)
    decayed = BellBasis(basis.beta_minus, basis.beta_plus * np.power(e_t, k))
    c1, c2 = decayed.amplitudes(coup, e)
    return np.asarray(c1, complex), np.asarray(c2, complex)


def simulate_stroboscopic(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                          sched: MeasurementSchedule, samples_per_interval: int = 32) -> TimeSeries:
    """Piecewise evolution under the schedule, sampled inside every interval.

    ``samples_per_interval``, a positive integer, evenly spaced points start
    each interval, and the series ends on the last measurement: interval
    ``k`` holds ``E(T)**k E(offset)``, the last point ``E(T)**N``.  Ground
    truth for the measured dynamics in all regimes, including intervals
    where the survival amplitude has gone negative.  ``meta`` holds the
    oscillatory flag alone.  The population already leaked to the ground
    state just before measurement ``k`` is ``1 - |c1|**2 - |c2|**2`` at
    index ``k * samples_per_interval``.
    """
    samples_per_interval = _integer("samples_per_interval", samples_per_interval, 1)
    t_int = sched.interval
    n = sched.count
    local = np.linspace(0.0, t_int, samples_per_interval + 1)[:-1]
    tau = np.append((np.arange(n)[:, None] * t_int + local).ravel(), n * t_int)
    e_t = survival_amplitude(res, coup, t_int)
    powers = e_t ** np.arange(n + 1)
    e = np.append((powers[:-1, None] * survival_amplitude(res, coup, local)).ravel(), powers[-1])
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
    return TimeSeries(tau=tau, c1=c1, c2=c2, meta={"oscillatory": bool(e_t < 0.0)})
