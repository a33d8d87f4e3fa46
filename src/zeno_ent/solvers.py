"""Independent numerical routes to the pair dynamics.

Three integrators check the closed form from :mod:`zeno_ent.model` without
sharing any of its algebra:

* ``solve_volterra``     -- the memory-kernel integro-differential equations
  ``cj' = -int_0^t f(t-s) [alphaj^2 cj(s) + alphaj alphak ck(s)] ds``
  stepped with a trapezoidal quadrature and a Heun predictor-corrector
  (global error O(dt^2)).
* ``solve_aux_ode``      -- for the exponential kernel the memory integral
  ``z(t) = int_0^t w^2 e^{-lam (t-s)} (alpha1 c1 + alpha2 c2) ds`` obeys
  ``z' = -lam z + w^2 (alpha1 c1 + alpha2 c2)``, turning the system into
  three coupled ODEs, integrated with classical RK4 (global error O(dt^4)).
* ``solve_discretized_bath`` -- brute force: the Lorentzian reservoir is
  sampled on a uniform frequency comb and the full (2 + n_modes)-amplitude
  Schroedinger system is integrated with RK4, written as the nested degree-4
  Taylor polynomial of its constant generator.  Slowest, fewest assumptions.

All three conserve the sub-radiant share and reduce to single-qubit decay
when one coupling vanishes; the tests drive them against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CouplingSpec, InitialState, ReservoirSpec, TimeSeries

__all__ = [
    "BathMode",
    "KernelSpec",
    "SolverConfig",
    "sample_lorentzian_modes",
    "solve_aux_ode",
    "solve_discretized_bath",
    "solve_volterra",
]

METHOD_VOLTERRA = "trapezoid-volterra"
METHOD_AUX_ODE = "aux-ode-rk4"
METHOD_BATH = "bath-rk4"


@dataclass(frozen=True)
class KernelSpec:
    """Reservoir correlation function, either analytic or sampled.

    ``exponential`` kernels carry ``w_sq`` and ``lam`` with
    ``f(tau) = w_sq * exp(-lam*tau)``; ``tabulated`` kernels carry samples
    ``values[i] = f(i*dtau)`` on a uniform grid, which must coincide with the
    solver grid.
    """

    kind: str
    w_sq: float = 0.0
    lam: float = 0.0
    values: np.ndarray | None = None
    dtau: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential":
            if not (math.isfinite(self.w_sq) and self.w_sq > 0.0):
                raise ValueError(f"w_sq must be positive and finite, got {self.w_sq!r}")
            if not (math.isfinite(self.lam) and self.lam > 0.0):
                raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        elif self.kind == "tabulated":
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1 or vals.size < 2:
                raise ValueError("tabulated kernel needs a 1-d array of at least 2 samples")
            if not np.all(np.isfinite(vals)):
                raise ValueError("kernel samples must be finite")
            if not (math.isfinite(self.dtau) and self.dtau > 0.0):
                raise ValueError(f"dtau must be positive and finite, got {self.dtau!r}")
            object.__setattr__(self, "values", vals)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def exponential(cls, w_sq: float, lam: float) -> "KernelSpec":
        return cls(kind="exponential", w_sq=w_sq, lam=lam)

    @classmethod
    def tabulated(cls, values, dtau: float) -> "KernelSpec":
        return cls(kind="tabulated", values=np.asarray(values, dtype=float), dtau=dtau)

    @classmethod
    def from_reservoir(cls, res: ReservoirSpec) -> "KernelSpec":
        return cls.exponential(w_sq=res.w**2, lam=res.lam)

    @property
    def f0(self) -> float:
        """Kernel value at zero delay."""
        if self.kind == "exponential":
            return self.w_sq
        return float(self.values[0])


@dataclass(frozen=True)
class BathMode:
    """One sampled reservoir mode: frequency, coupling, detuning from omega0."""

    omega: float
    g: float
    delta: float


@dataclass(frozen=True)
class SolverConfig:
    """Grid and method parameters shared by the integrators.

    ``method`` may be left as None, in which case each solver uses its own;
    a mismatching explicit value is rejected.  ``n_modes`` and
    ``freq_window`` only matter for the discretized bath: the comb covers
    ``omega0 +- K*max(lam, rabi)`` with ``K = freq_window``, i.e. K units of
    the fastest rate, so it always reaches past the vacuum-Rabi splitting.
    For ``rabi <= lam`` that is ``omega0 +- K*lam``.  ``dt``, ``t_max`` and
    ``freq_window`` are stored as Python floats, so numpy scalars passed in
    neither slow the scalar stepping loops nor leak into messages.
    """

    dt: float
    t_max: float
    method: str | None = None
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
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes!r}")
        if not (math.isfinite(self.freq_window) and self.freq_window > 0.0):
            raise ValueError(f"freq_window must be positive, got {self.freq_window!r}")


def _check_method(cfg: SolverConfig, expected: str):
    if cfg.method is not None and cfg.method != expected:
        raise ValueError(f"config selects method {cfg.method!r}, solver implements {expected!r}")


def _check_resolution(dt: float, *rates: float):
    """Reject steps that cannot resolve the fastest timescale."""
    fastest = max(rates)
    if dt >= 1.0 / (2.0 * fastest):
        raise ValueError(
            f"dt = {dt!r} under-resolves the dynamics; need dt < {1.0 / (2.0 * fastest)!r}"
        )


def _grid(cfg: SolverConfig):
    n = int(round(cfg.t_max / cfg.dt))
    n = max(n, 1)
    return n, np.arange(n + 1) * cfg.dt


def solve_volterra(kernel: KernelSpec, coup: CouplingSpec, init: InitialState,
                   cfg: SolverConfig) -> TimeSeries:
    """Integrate the memory-kernel equations with trapezoid + Heun stepping.

    For exponential kernels the history integral is carried by the O(1)
    recursion ``m(t+dt) = e^{-lam dt} m(t) + panel``, which reproduces the
    composite trapezoid sum exactly; tabulated kernels fall back to the full
    O(n) history sum per step.  Global error is O(dt^2) either way.
    """
    _check_method(cfg, METHOD_VOLTERRA)
    a1, a2 = coup.alpha1, coup.alpha2
    rabi = coup.alpha_t * math.sqrt(kernel.f0)
    if kernel.kind == "exponential":
        _check_resolution(cfg.dt, kernel.lam, rabi)
    else:
        _check_resolution(cfg.dt, rabi)
        if abs(kernel.dtau - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
            raise ValueError("tabulated kernel spacing must equal the solver dt")
    n, tau = _grid(cfg)

    c1 = np.empty(n + 1, dtype=complex)
    c2 = np.empty(n + 1, dtype=complex)
    c1[0] = init.c01
    c2[0] = init.c02

    dt = cfg.dt
    if kernel.kind == "exponential":
        decay = math.exp(-kernel.lam * dt)
        wsq = kernel.w_sq
        x1 = complex(init.c01)
        x2 = complex(init.c02)
        u = a1 * x1 + a2 * x2
        m = 0j
        half = 0.5 * dt
        panel = half * wsq
        for i in range(1, n + 1):
            d1 = -a1 * m
            d2 = -a2 * m
            # predictor (explicit Euler), then one trapezoidal correction
            up = a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2)
            mp = decay * m + panel * (decay * u + up)
            x1 = x1 + half * (d1 - a1 * mp)
            x2 = x2 + half * (d2 - a2 * mp)
            un = a1 * x1 + a2 * x2
            m = decay * m + panel * (decay * u + un)
            u = un
            c1[i] = x1
            c2[i] = x2
    else:
        f = kernel.values
        if f.size < n + 1:
            raise ValueError(f"tabulated kernel too short: {f.size} samples, need {n + 1}")
        u_hist = np.empty(n + 1, dtype=complex)
        u_hist[0] = a1 * init.c01 + a2 * init.c02
        x1 = complex(init.c01)
        x2 = complex(init.c02)
        for i in range(1, n + 1):
            k = i - 1
            if k == 0:
                m = 0j
            else:
                m = dt * (0.5 * f[k] * u_hist[0]
                          + np.dot(f[k - 1:0:-1], u_hist[1:k])
                          + 0.5 * f[0] * u_hist[k])
            d1 = -a1 * m
            d2 = -a2 * m
            up = a1 * (x1 + dt * d1) + a2 * (x2 + dt * d2)
            mp = dt * (0.5 * f[i] * u_hist[0]
                       + np.dot(f[i - 1:0:-1], u_hist[1:i])
                       + 0.5 * f[0] * up)
            x1 = x1 + 0.5 * dt * (d1 - a1 * mp)
            x2 = x2 + 0.5 * dt * (d2 - a2 * mp)
            u_hist[i] = a1 * x1 + a2 * x2
            c1[i] = x1
            c2[i] = x2

    return TimeSeries(tau=tau, c1=c1, c2=c2,
                      meta={"solver": METHOD_VOLTERRA, "dt": dt, "kernel": kernel.kind})


def solve_aux_ode(kernel: KernelSpec, coup: CouplingSpec, init: InitialState,
                  cfg: SolverConfig) -> TimeSeries:
    """RK4 on the pseudo-mode reduction (exponential kernels only)."""
    _check_method(cfg, METHOD_AUX_ODE)
    if kernel.kind != "exponential":
        raise ValueError("the auxiliary-ODE reduction requires an exponential kernel")
    a1, a2 = coup.alpha1, coup.alpha2
    lam = kernel.lam
    wsq = kernel.w_sq
    rabi = coup.alpha_t * math.sqrt(wsq)
    _check_resolution(cfg.dt, lam, rabi)
    n, tau = _grid(cfg)

    c1 = np.empty(n + 1, dtype=complex)
    c2 = np.empty(n + 1, dtype=complex)
    c1[0] = init.c01
    c2[0] = init.c02

    dt = cfg.dt
    x1 = complex(init.c01)
    x2 = complex(init.c02)
    z = 0j
    for i in range(1, n + 1):
        k1a, k1b, k1c = -a1 * z, -a2 * z, -lam * z + wsq * (a1 * x1 + a2 * x2)
        y1, y2, yz = x1 + 0.5 * dt * k1a, x2 + 0.5 * dt * k1b, z + 0.5 * dt * k1c
        k2a, k2b, k2c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        y1, y2, yz = x1 + 0.5 * dt * k2a, x2 + 0.5 * dt * k2b, z + 0.5 * dt * k2c
        k3a, k3b, k3c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        y1, y2, yz = x1 + dt * k3a, x2 + dt * k3b, z + dt * k3c
        k4a, k4b, k4c = -a1 * yz, -a2 * yz, -lam * yz + wsq * (a1 * y1 + a2 * y2)
        x1 = x1 + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        x2 = x2 + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        z = z + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        c1[i] = x1
        c2[i] = x2

    return TimeSeries(tau=tau, c1=c1, c2=c2,
                      meta={"solver": METHOD_AUX_ODE, "dt": dt})


def sample_lorentzian_modes(res: ReservoirSpec, n_modes: int, freq_window: float) -> list[BathMode]:
    """Uniform midpoint comb over ``[omega0 - K lam, omega0 + K lam]``.

    Couplings follow ``g_k**2 = J(omega_k) * dω``; the comb is symmetric
    about resonance and never places a mode exactly at omega0.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not (math.isfinite(freq_window) and freq_window > 0.0):
        raise ValueError("freq_window must be positive")
    half = freq_window * res.lam
    dw = 2.0 * half / n_modes
    offsets = -half + (np.arange(n_modes) + 0.5) * dw
    omegas = res.omega0 + offsets
    gs = np.sqrt(res.spectral_density(omegas) * dw)
    return [BathMode(omega=float(w), g=float(g), delta=float(res.omega0 - w))
            for w, g in zip(omegas, gs)]


def solve_discretized_bath(res: ReservoirSpec, coup: CouplingSpec, init: InitialState,
                           cfg: SolverConfig) -> TimeSeries:
    """RK4 on the full qubit-pair + sampled-reservoir amplitude system.

    Works in the frame rotating at each mode's detuning, which leaves the
    qubit amplitudes untouched and makes the right-hand side autonomous.
    The comb is a uniform midpoint grid of ``cfg.n_modes`` modes over
    ``omega0 +- band_edge`` with ``band_edge = cfg.freq_window *
    max(lam, rabi)``: at strong coupling it scales with the vacuum-Rabi
    frequency instead of cutting the spectrum off near the splitting at
    ``+-rabi``.  The band edge enters the step check like any other rate,
    so with ``dt = 1e-3`` and ``freq_window = 20`` the check rejects
    ``R = rabi/lam >= 25``.

    Metadata carries the discrete recurrence time ``2*pi/dω`` (a warning flag
    is set when the horizon exceeds it) and the total-excitation norm per
    step for conservation checks.
    """
    _check_method(cfg, METHOD_BATH)
    a1, a2 = coup.alpha1, coup.alpha2
    rabi = coup.alpha_t * res.w
    # half-width in linewidths: the comb must reach past the vacuum-Rabi
    # splitting at +-rabi, or its truncation floor grows as R**2
    window = cfg.freq_window * max(1.0, rabi / res.lam)
    band_edge = window * res.lam
    _check_resolution(cfg.dt, res.lam, rabi, band_edge)
    n, tau = _grid(cfg)

    comb = sample_lorentzian_modes(res, cfg.n_modes, window)
    g = np.array([m.g for m in comb])
    delta = np.array([m.delta for m in comb])
    dw = 2.0 * band_edge / cfg.n_modes
    recurrence = 2.0 * math.pi / dw

    c1 = np.empty(n + 1, dtype=complex)
    c2 = np.empty(n + 1, dtype=complex)
    norm = np.empty(n + 1)
    x1, x2 = init.c01, init.c02
    c1[0] = x1
    c2[0] = x2
    norm[0] = abs(x1) ** 2 + abs(x2) ** 2

    # The generator A of y' = A y is constant, so one classic RK4 step is
    # the degree-4 Taylor polynomial of exp(hA), evaluated here in nested
    # form: y + hA(y + h/2 A(y + h/3 A(y + h/4 A y))).  Each stage applies
    #   A(v1, v2, m) = (-i a1 g.m, -i a2 g.m, i delta m - i (a1 v1 + a2 v2) g)
    # with the qubit amplitudes as Python scalars and the modes in
    # preallocated buffers.
    dt = cfg.dt
    stages = (dt / 4.0, dt / 3.0, dt / 2.0, dt)
    stage_rot = [1j * h * delta for h in stages]
    gc = g.astype(complex)
    modes = np.zeros(cfg.n_modes, dtype=complex)
    spare = [np.empty_like(modes), np.empty_like(modes)]
    drive = np.empty_like(modes)
    for i in range(1, n + 1):
        w1, w2, wm = x1, x2, modes
        for j, h in enumerate(stages):
            out = spare[j & 1]
            s = complex(gc @ wm)
            np.multiply(stage_rot[j], wm, out=out)
            out += modes
            np.multiply(g, -1j * h * (a1 * w1 + a2 * w2), out=drive)
            out += drive
            k = -1j * h * s
            w1 = x1 + k * a1
            w2 = x2 + k * a2
            wm = out
        # the last stage wrote spare[1]; the old modes become its buffer
        x1, x2 = w1, w2
        modes, spare[1] = wm, modes
        c1[i] = x1
        c2[i] = x2
        norm[i] = abs(x1) ** 2 + abs(x2) ** 2 + np.vdot(modes, modes).real

    return TimeSeries(
        tau=tau, c1=c1, c2=c2,
        meta={
            "solver": METHOD_BATH,
            "dt": dt,
            "n_modes": cfg.n_modes,
            "freq_window": cfg.freq_window,
            "recurrence_time": recurrence,
            "recurrence_warning": bool(cfg.t_max > recurrence),
            "norm_total": norm,
        },
    )
