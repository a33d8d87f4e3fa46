"""Independent numerical routes to the pair dynamics.

Three integrators check the closed form from :mod:`zeno_ent.model` without
sharing any of its algebra.  All take ``(res, coup, init, cfg)``: the
Lorentzian reservoir, whose memory kernel is ``f(tau) = w^2 e^{-lam tau}``,
the couplings, the initial amplitudes and a :class:`SolverConfig`.

* ``solve_volterra``     -- the memory-kernel integro-differential equations
  ``cj' = -int_0^t f(t-s) [alphaj^2 cj(s) + alphaj alphak ck(s)] ds``
  stepped with a trapezoidal quadrature and a Heun predictor-corrector
  (global error O(dt^2)).
* ``solve_aux_ode``      -- the memory integral
  ``z(t) = int_0^t w^2 e^{-lam (t-s)} (alpha1 c1 + alpha2 c2) ds`` obeys
  ``z' = -lam z + w^2 (alpha1 c1 + alpha2 c2)``, turning the system into
  three coupled ODEs, integrated with classical RK4 (global error O(dt^4)).
* ``solve_discretized_bath`` -- brute force: the Lorentzian reservoir is
  sampled on a uniform frequency comb and the full (2 + n_modes)-amplitude
  Schroedinger system is integrated with RK4.  Slowest, fewest assumptions.
  :func:`bath_propagator` makes the comb run once per coupling and serves
  any number of initial states from it.

Each solver refuses a step at or above its :func:`step_limit`.  Every one
of these steps is a constant linear map ``y[n+1] = M y[n]``, and that is
how they are evaluated.  The Volterra step and the pseudomode RK4 step act
on three amplitudes; ``M - 1`` is read off the scalar step's increment and
the powers of ``M`` are applied blockwise (:func:`_amplitude_rows`).
The comb generator is a diagonal plus a rank-1 coupling ``g a^T``, so its
RK4 polynomial ``sum_{k<=4} (hA)^k / k!`` is a diagonal plus a rank-5
update, built once per run.  The pair enters the modes only through
``u = a.x`` and moves only along ``a``, so one run driven by ``u = 1`` from
empty modes gives every initial state's amplitudes and total norm.  The
qubits sit on resonance of a symmetric Lorentzian, so the comb is mirrored
about their frequency and that run never leaves the mirror-symmetric
sector: only the upper half of the comb is stepped, and the pair reads it
through five real scalars.

All three conserve the sub-radiant share and reduce to single-qubit decay
when one coupling vanishes; the tests drive them against the closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import CouplingSpec, InitialState, ReservoirSpec, TimeSeries

__all__ = [
    "SolverConfig",
    "bath_propagator",
    "comb_recurrence_time",
    "sample_lorentzian_modes",
    "solve_aux_ode",
    "solve_discretized_bath",
    "solve_volterra",
    "step_limit",
]

METHOD_VOLTERRA = "trapezoid-volterra"
METHOD_AUX_ODE = "aux-ode-rk4"
METHOD_BATH = "bath-rk4"
METHODS = (METHOD_VOLTERRA, METHOD_AUX_ODE, METHOD_BATH)


@dataclass(frozen=True)
class SolverConfig:
    """Grid parameters shared by the integrators.

    ``n_modes`` and ``freq_window`` only matter for the discretized bath:
    the comb covers ``omega0 +- K*max(lam, rabi)`` with ``K = freq_window``,
    i.e. K units of the fastest rate, so it always reaches past the
    vacuum-Rabi splitting.  For ``rabi <= lam`` that is ``omega0 +- K*lam``.
    ``dt``, ``t_max`` and ``freq_window`` are stored as Python floats, so
    numpy scalars passed in neither slow the scalar stepping loops nor leak
    into messages.
    """

    dt: float
    t_max: float
    n_modes: int = 200
    freq_window: float = 10.0

    def __post_init__(self):
        for name in ("dt", "t_max", "freq_window"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least one step long")
        object.__setattr__(self, "n_modes", _check_comb(self.n_modes, self.freq_window))


def _check_comb(n_modes, freq_window) -> int:
    """Refuse a comb that is not a positive integer count of modes over a
    positive, finite window; returns the count as an ``int``."""
    if isinstance(n_modes, bool) or not isinstance(n_modes, numbers.Integral):
        raise ValueError(f"n_modes must be an integer, got {n_modes!r}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes!r}")
    if not (math.isfinite(freq_window) and freq_window > 0.0):
        raise ValueError(f"freq_window must be positive and finite, got {freq_window!r}")
    return int(n_modes)


def _check_resolution(dt: float, bound: float):
    """Reject steps that cannot resolve the fastest timescale."""
    if dt >= bound:
        raise ValueError(f"dt = {dt!r} under-resolves the dynamics; need dt < {bound!r}")


def _comb_window(res: ReservoirSpec, coup: CouplingSpec, freq_window: float) -> float:
    """Half-width of the bath comb in linewidths, ``K * max(1, rabi/lam)``.

    The comb must reach past the vacuum-Rabi splitting at ``+-rabi``, or its
    truncation floor grows as ``R**2``.
    """
    return freq_window * max(1.0, coup.alpha_t * res.w / res.lam)


def comb_recurrence_time(res: ReservoirSpec, coup: CouplingSpec, n_modes: int,
                         freq_window: float) -> float:
    """Recurrence time ``2*pi/dω`` of the bath comb; past it the comb's
    discrete spectrum sends the emitted excitation back to the qubits."""
    n_modes = _check_comb(n_modes, freq_window)
    dw = 2.0 * _comb_window(res, coup, freq_window) * res.lam / n_modes
    return 2.0 * math.pi / dw


def step_limit(res: ReservoirSpec, coup: CouplingSpec, method: str,
               freq_window: float) -> float:
    """Steps strictly below ``1 / (2 * fastest rate)`` pass ``method``'s
    resolution check.  The rates are the memory decay ``lam`` and the
    vacuum-Rabi frequency; only the bath, whose band edge counts as a rate,
    reads ``freq_window``.  ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {', '.join(METHODS)}")
    rates = [res.lam, coup.alpha_t * res.w]
    if method == METHOD_BATH:
        rates.append(_comb_window(res, coup, freq_window) * res.lam)
    return 1.0 / (2.0 * max(rates))


def _grid(cfg: SolverConfig):
    n = int(round(cfg.t_max / cfg.dt))
    n = max(n, 1)
    return n, np.arange(n + 1) * cfg.dt


def _amplitude_rows(increment, y0, n: int):
    """Rows ``x1`` and ``x2`` of ``M**k @ y0`` for ``k = 0..n``.

    ``increment(x1, x2, v)`` is ``(M - 1) y`` for one step ``y -> M y`` of
    a linear recurrence on three amplitudes; ``D = M - 1`` is read off as
    its images of the unit vectors.  With ``K = isqrt(n + 1)`` and
    ``J = ceil((n + 1) / K)``, the powers ``M**i = 1 + Q_i`` (``i < K``) and
    the block states ``y_j = M**(j*K) @ y0`` (``j < J``) give
    ``M**(j*K + i) @ y0 = y_j + Q_i @ y_j`` for every ``k``, so each row is
    one ``(J, K)`` product and the loop runs ``K + J ~ 2 sqrt(n)`` times
    instead of ``n``.  Carrying ``D`` and ``Q_i`` rather than ``M`` and its
    powers keeps the rounding of the entries near 1 out of the map: each
    block step adds a small correction to the state, as the scalar step
    does, instead of applying one rounded matrix ``n`` times.
    """
    gen = np.array([increment(*unit) for unit in np.eye(3).tolist()]).T
    block = math.isqrt(n + 1)
    count = -(-(n + 1) // block)
    heads = np.empty((2, block, 3))
    power = np.zeros((3, 3))
    for i in range(block):
        heads[:, i] = power[:2]
        power += gen + gen @ power
    states = np.empty((count, 3), dtype=complex)
    y = np.array(y0, dtype=complex)
    for j in range(count):
        states[j] = y
        y = y + power @ y
    rows = []
    for row, head in enumerate(heads):
        out = states @ head.T
        out += states[:, row:row + 1]
        rows.append(out.reshape(-1)[:n + 1])
    return tuple(rows)


def solve_volterra(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                   cfg: SolverConfig) -> TimeSeries:
    """Integrate the memory-kernel equations with trapezoid + Heun stepping.

    The history integral of the kernel ``w^2 e^{-lam tau}`` is carried by
    the O(1) recursion ``m(t+dt) = e^{-lam dt} m(t) + panel``, which
    reproduces the composite trapezoid sum over the whole history exactly,
    so the step is a constant linear map on ``(c1, c2, m)`` and is applied
    through :func:`_amplitude_rows`.  Global error is O(dt^2).
    """
    _check_resolution(cfg.dt, step_limit(res, coup, METHOD_VOLTERRA, cfg.freq_window))
    a1, a2 = coup.alpha1, coup.alpha2
    n, tau = _grid(cfg)

    dt = cfg.dt
    decay_m1 = math.expm1(-res.lam * dt)
    decay = 1.0 + decay_m1
    half = 0.5 * dt
    panel = half * res.w**2

    def increment(x1, x2, m):
        u = a1 * x1 + a2 * x2
        d1 = -a1 * m
        d2 = -a2 * m
        # predictor (explicit Euler), then one trapezoidal correction
        up = a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2)
        mp = decay * m + panel * (decay * u + up)
        dx1 = half * (d1 - a1 * mp)
        dx2 = half * (d2 - a2 * mp)
        un = u + a1 * dx1 + a2 * dx2
        return dx1, dx2, decay_m1 * m + panel * (decay * u + un)

    c1, c2 = _amplitude_rows(increment, (init.c01, init.c02, 0.0), n)
    return TimeSeries(tau=tau, c1=c1, c2=c2, meta={"solver": METHOD_VOLTERRA, "dt": dt})


def solve_aux_ode(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                  cfg: SolverConfig) -> TimeSeries:
    """RK4 on the pseudo-mode reduction of the exponential kernel.

    The RK4 step is a constant linear map on ``(c1, c2, z)``, applied
    through :func:`_amplitude_rows`.
    """
    _check_resolution(cfg.dt, step_limit(res, coup, METHOD_AUX_ODE, cfg.freq_window))
    a1, a2 = coup.alpha1, coup.alpha2
    lam = res.lam
    wsq = res.w**2
    n, tau = _grid(cfg)

    dt = cfg.dt

    def increment(x1, x2, z):
        k1a, k1b, k1c = -a1 * z, -a2 * z, -lam * z + wsq * (a1 * x1 + a2 * x2)
        y1, y2, yz = x1 + 0.5 * dt * k1a, x2 + 0.5 * dt * k1b, z + 0.5 * dt * k1c
        k2a, k2b, k2c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        y1, y2, yz = x1 + 0.5 * dt * k2a, x2 + 0.5 * dt * k2b, z + 0.5 * dt * k2c
        k3a, k3b, k3c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        y1, y2, yz = x1 + dt * k3a, x2 + dt * k3b, z + dt * k3c
        k4a, k4b, k4c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        return ((dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
                (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b),
                (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c))

    c1, c2 = _amplitude_rows(increment, (init.c01, init.c02, 0.0), n)

    return TimeSeries(tau=tau, c1=c1, c2=c2,
                      meta={"solver": METHOD_AUX_ODE, "dt": dt})


def _comb(res: ReservoirSpec, n_modes: int, freq_window: float):
    """Offsets from ``omega0`` and couplings of the comb; see
    :func:`sample_lorentzian_modes`.  The offsets are exactly antisymmetric,
    ``offsets == -offsets[::-1]``, and the couplings exactly symmetric."""
    n_modes = _check_comb(n_modes, freq_window)
    dw = 2.0 * (freq_window * res.lam) / n_modes
    offsets = (np.arange(n_modes) - (n_modes - 1) / 2.0) * dw
    return offsets, np.sqrt(res.detuned_density(offsets) * dw)


def sample_lorentzian_modes(res: ReservoirSpec, n_modes: int, freq_window: float):
    """Uniform midpoint comb over ``[omega0 - K lam, omega0 + K lam]``.

    Returns the mode frequencies and couplings ``(omegas, g)`` as arrays.
    Couplings follow ``g_k**2 = J(omega_k) * dω``.  The comb is mirrored
    exactly about resonance: its offsets from omega0 are built in detuning
    coordinates, so mode ``-k`` sits at minus the offset of mode ``k`` and
    has the same coupling.  An even comb has no mode at omega0; an odd comb
    puts its centre mode exactly there (``n_modes = 3`` gives offsets
    ``-2/3, 0, 2/3`` in units of ``K lam``), and :func:`bath_propagator`
    carries it with weight 1 beside the mirror pairs.
    """
    offsets, g = _comb(res, n_modes, freq_window)
    return res.omega0 + offsets, g


def solve_discretized_bath(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                           cfg: SolverConfig) -> TimeSeries:
    """RK4 on the full qubit-pair + sampled-reservoir amplitude system.

    One run of :func:`bath_propagator`, read at ``init``; see there for the
    comb, the step and the metadata.
    """
    return bath_propagator(res, coup, cfg)(init)


def bath_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Step the comb once for this coupling; returns ``init -> TimeSeries``.

    Works in the frame rotating at each mode's detuning, which leaves the
    qubit amplitudes untouched and makes the right-hand side autonomous.
    The comb is a uniform midpoint grid of ``cfg.n_modes`` modes over
    ``omega0 +- band_edge`` with ``band_edge = cfg.freq_window *
    max(lam, rabi)``: at strong coupling it scales with the vacuum-Rabi
    frequency instead of cutting the spectrum off near the splitting at
    ``+-rabi``.  The band edge enters the step check like any other rate,
    so with ``dt = 1e-3`` and ``freq_window = 20`` the check rejects
    ``R = rabi/lam >= 25`` (:func:`step_limit` gives the bound).

    Each step is the RK4 polynomial of the constant generator, applied as
    a diagonal plus a rank-5 update built once per run.  The generator
    reads the pair ``x`` only through ``u = a.x`` and moves it only along
    the coupling vector ``a = (alpha1, alpha2)``.  The modes start empty
    and the step is linear, so the modes and the summed pair increment
    ``sigma`` of a run from ``u0 = a.x0`` are ``u0`` times those of one run
    driven by ``u0 = 1``: ``x = x0 + a u0 sigma`` and the total norm is
    ``|x|^2 + |u0|^2 nu`` with ``nu = |m|^2`` of that run.  That run is made
    here, and every initial state is read off it.

    Precondition: both qubits sit on resonance of a symmetric spectral
    density, so the comb is mirrored about the qubit frequency (offsets
    ``-d`` and ``d`` with equal couplings).  The generator is then real
    symmetric up to the factor ``-i``, and a run from a real drive and
    empty modes keeps ``u`` real and mode ``-k`` equal to ``-conj`` of mode
    ``k``.  Only the upper half of the comb is stepped: one mode of each
    mirror pair scaled by ``sqrt(2)``, plus an odd comb's centre mode with
    weight 1, so ``nu`` is the squared norm of the kept modes.  The pair
    reads the modes through the real five-vector ``z = (u, r_0..r_3)``
    and the RK4 step is evaluated on that half (see the comments below).

    Metadata carries the full mode count, the discrete recurrence time
    ``2*pi/dω`` (a warning flag is set when the horizon exceeds it; the
    scenarios refuse such runs) and the total-excitation norm per step for
    conservation checks.
    """
    _check_resolution(cfg.dt, step_limit(res, coup, METHOD_BATH, cfg.freq_window))
    a1, a2 = coup.alpha1, coup.alpha2
    window = _comb_window(res, coup, cfg.freq_window)
    n, tau = _grid(cfg)

    offsets, g = _comb(res, cfg.n_modes, window)
    recurrence = comb_recurrence_time(res, coup, cfg.n_modes, cfg.freq_window)

    # Fold: keep modes [lower:], the upper half (the first kept mode of an
    # odd comb is its centre, at offset 0).  With mult the multiplicity of
    # a kept mode (2 for a mirror pair, 1 for the centre), m~ = sqrt(mult) m and
    # g~ = sqrt(mult) g, the mirror symmetry gives g.m = i g~.Im(m~) over
    # the full comb, and the generator of y' = A y on (u, m~) is
    #   u' = |a|^2 g~.Im(m~),   m~' = i delta m~ - i u g~,
    # real-linear in m~.  One classic RK4 step is sum_{k<=4} (hA)^k / k!.
    # With E = i h delta and g_h = h g~, every (hA)^k y is linear in
    # E^k m~ and in the five reals z = (u, Im(g_h.E^j m~) for j = 0..3),
    # so the step is
    #   m~' = m~ + ((Phi - 1) m~ + W z),   x' = x + a (ell.z),
    # with Phi = sum_{k<=4} E^k / k!.  Writing (hA)^k y as
    # (u_k = c_k.z, m_k = E^k m~ + V_k z), the recursion
    #   Im(g_h.m_k) = p_k.z,  p_k = e_{1+k} + Im(V_k)^T g_h,
    #   V_{k+1} = E V_k - i g_h c_k^T,  c_{k+1} = |a|^2 p_k,
    # gives W = sum V_k / k! and ell = sum p_{k-1} / k!, both built here.
    # Below, rot is E with delta = -offsets, gh is g_h, reading holds the
    # rows that map the float view of m~ to z[1:] (Im(v.m) = Re(v).Im(m) +
    # Im(v).Re(m), so each row is the float view of i conj(g_h E^j)), drive
    # is the float view of W^T (z is real, so z @ drive is the float view of
    # W z) and diag is Phi - 1, summed without forming Phi.  Since
    # x' = x + a (ell.z), the drive of the unit-drive run is
    # z[0] = a.x = 1 + |a|^2 sigma.
    lower = cfg.n_modes // 2
    weight = np.full(cfg.n_modes - lower, math.sqrt(2.0))
    weight[: cfg.n_modes % 2] = 1.0
    dt = cfg.dt
    asq = a1 * a1 + a2 * a2
    rot = -1j * dt * offsets[lower:]
    gh = dt * weight * g[lower:]
    moments = np.empty((4, rot.size), dtype=complex)
    moments[0] = gh
    for j in range(1, 4):
        moments[j] = moments[j - 1] * rot
    reading = (1j * moments.conj()).view(float)
    unit = np.eye(5)
    coef_u = unit[0]
    tail_t = np.zeros((5, rot.size), dtype=complex)
    drive_t = np.zeros((5, rot.size), dtype=complex)
    ell = np.zeros(5)
    fact = 1.0
    for k in range(4):
        p = unit[1 + k] + tail_t.imag @ gh
        tail_t = tail_t * rot - 1j * np.outer(coef_u, gh)
        coef_u = asq * p
        fact *= k + 1
        drive_t += tail_t / fact
        ell += p / fact
    drive = drive_t.view(float)
    diag = rot * (1.0 + rot / 2.0 * (1.0 + rot / 3.0 * (1.0 + rot / 4.0)))

    # the unit-drive run: sigma is the summed pair increment, nu = |m~|^2
    l0, l1, l2, l3, l4 = ell.tolist()
    acc = 0.0
    sigma = [acc]
    nu = [acc]
    modes = np.zeros(rot.size, dtype=complex)
    flat = modes.view(float)
    inc = np.empty_like(modes)
    spread = np.empty_like(modes)
    spread_flat = spread.view(float)
    z = np.empty(5)
    for _ in range(n):
        u = 1.0 + asq * acc
        z[0] = u
        np.matmul(reading, flat, out=z[1:])
        np.multiply(diag, modes, out=inc)
        np.matmul(z, drive, out=spread_flat)
        inc += spread
        modes += inc
        _, r0, r1, r2, r3 = z.tolist()
        acc += l0 * u + l1 * r0 + l2 * r1 + l3 * r2 + l4 * r3
        sigma.append(acc)
        nu.append(np.dot(flat, flat))
    sigma = np.array(sigma)
    nu = np.array(nu)

    meta = {
        "solver": METHOD_BATH,
        "dt": dt,
        "n_modes": cfg.n_modes,
        "freq_window": cfg.freq_window,
        "recurrence_time": recurrence,
        "recurrence_warning": bool(cfg.t_max > recurrence),
    }

    def series(init: InitialState) -> TimeSeries:
        u0 = a1 * init.c01 + a2 * init.c02
        drift = u0 * sigma
        c1 = init.c01 + a1 * drift
        c2 = init.c02 + a2 * drift
        norm = np.abs(c1) ** 2 + np.abs(c2) ** 2 + abs(u0) ** 2 * nu
        return TimeSeries(tau=tau, c1=c1, c2=c2, meta={**meta, "norm_total": norm})

    return series
