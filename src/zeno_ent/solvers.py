"""Independent numerical routes to the pair dynamics.

Three integrators check the closed form from :mod:`zeno_ent.model` without
sharing any of its algebra.  Each is a propagator, ``(res, coup, cfg) ->
PairMap``, over the Lorentzian reservoir, whose memory kernel is ``f(tau) =
w^2 e^{-lam tau}``, the couplings and a :class:`SolverConfig`.  The
propagator is the one entry point of its solver: it does its work once per
coupling and returns the real map ``P(t) = M(t) - 1`` that takes the pair
``x = (c1, c2)`` from empty memory or modes to ``x + P x`` at each output
time (:class:`PairMap`), held as one scalar series.  The map serves any number of initial states:
called on one, it gives its ``TimeSeries``.  Each solver has one name, in
:data:`SOLVER_NAMES`, which :func:`step_limit` takes and
``TimeSeries.meta["solver"]`` carries:

* ``"volterra"``, :func:`volterra_propagator` -- the memory-kernel
  integro-differential equations
  ``cj' = -int_0^t f(t-s) [alphaj^2 cj(s) + alphaj alphak ck(s)] ds``
  stepped with a trapezoidal quadrature and a Heun predictor-corrector
  (global error O(dt^2)).
* ``"ode"``, :func:`aux_ode_propagator` -- the memory integral
  ``z(t) = int_0^t w^2 e^{-lam (t-s)} (alpha1 c1 + alpha2 c2) ds`` obeys
  ``z' = -lam z + w^2 (alpha1 c1 + alpha2 c2)``, turning the system into
  ODEs without memory, integrated with classical RK4 (global error O(dt^4)).
* ``"bath"``, :func:`bath_propagator` -- brute force: the Lorentzian
  reservoir is sampled on a uniform frequency comb and the full
  (2 + n_modes)-amplitude Schroedinger system of that comb is evolved
  exactly.  Fewest assumptions.

Each solver refuses a step at or above its :func:`step_limit`.  Every one
of these steps is a constant linear map ``y[n+1] = M y[n]``, and that is
how they are evaluated.  A run needs the powers ``M**i - 1`` at the ``n +
1`` points of its ``dt`` grid, and :func:`_blocked_powers` is the one
place that lays them out: heads and tails on a ``J x K`` grid, ``K =
isqrt(n + 1)``, each built by doubling (:func:`_power_table`), in
``O(sqrt n)`` work and memory.  No map holds its grid's times, and a
caller reads the points it needs off the map (:meth:`PairMap.rows`,
:meth:`PairMap.times`).  Only the super-radiant amplitude ``u = a.x``,
with ``a = (alpha1, alpha2)``, couples to the reservoir, and the pair
moves only along ``a``, so every map is ``P = a a^T sigma`` for one real
series ``sigma`` (:class:`PairMap`).  The Volterra and the pseudomode RK4
steps are recurrences on ``u`` and the memory variable, which read the
coupling only through ``|a|^2``, and ``sigma`` is an entry of their
blocked powers (:func:`_bright_propagator`).  The comb is driven by ``u =
1`` from empty modes, and its run is ``sigma`` itself.
The comb's step is ``e^{-i dt H}`` for a real symmetric
arrowhead ``H``, so ``k`` steps are the phases ``e^{-i k dt lam_j}`` on
the eigenvectors of ``H``: the run is read off the spectrum, found from a
secular equation over the upper half of the mirrored comb
(:func:`_folded_spectrum`), and summed over it with the same blocked
powers taken elementwise (:func:`_spectral_sums`), with no loop over the
steps.  The run is the comb's exact evolution, rounding aside, so its
error is the comb's frequency sampling alone.

All three conserve the sub-radiant share and reduce to single-qubit decay
when one coupling vanishes; the tests drive them against the closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import CouplingSpec, InitialState, ReservoirSpec, TimeSeries, _to_float

__all__ = [
    "MAX_MODES",
    "SOLVER_NAMES",
    "PairMap",
    "SolverConfig",
    "aux_ode_propagator",
    "bath_propagator",
    "comb_recurrence_time",
    "step_limit",
    "volterra_propagator",
]

SOLVER_NAMES = ("volterra", "ode", "bath")

# most modes a bath comb may hold: a 10k-step run at the ceiling takes about
# 0.22 s on a 2-core x86 host (2000 modes take 0.02 s)
MAX_MODES = 20_000

# the bath's phase sums: most elements of their tallest work array (1 MB)
_CHUNK = 1 << 16
# the secular solve: the cap on root iterations, roots per block and the
# Chebyshev points (second kind, on [-1, 1]) at which a block samples its
# far poles' sums, with their barycentric weights
_ITERATIONS = 12
_BLOCK = 128
_SAMPLES = 32
_CHEB_X = np.sin(0.5 * np.pi * np.arange(1 - _SAMPLES, _SAMPLES, 2) / (_SAMPLES - 1))
_CHEB_W = np.where(np.arange(_SAMPLES) % 2, -1.0, 1.0)
_CHEB_W[[0, -1]] *= 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Grid parameters shared by the integrators.

    ``n_modes`` and ``freq_window`` only matter for the discretized bath:
    the comb covers resonance ``+- K*max(lam, rabi)`` with ``K = freq_window``,
    i.e. K units of the fastest rate, so it always reaches past the
    vacuum-Rabi splitting.  For ``rabi <= lam`` that is resonance ``+- K*lam``.
    The defaults, 2000 modes over ``K = 20``, are the comb every scenario
    runs; to ``t_max = 10`` it stays within the cross-check's bath budget
    (1e-3) up to ``R = 26`` (worst error 7.4e-4, and 1.5e-3 at ``R = 28``).
    A comb of more than :data:`MAX_MODES` (20000) modes is refused before
    anything is allocated.
    ``dt``, ``t_max`` and ``freq_window`` are stored as Python floats, so
    numpy scalars passed in neither change the arithmetic nor leak into
    messages.
    """

    dt: float
    t_max: float
    n_modes: int = 2000
    freq_window: float = 20.0

    def __post_init__(self):
        for name in ("dt", "t_max", "freq_window"):
            object.__setattr__(self, name, _to_float(name, getattr(self, name)))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least one step long")
        object.__setattr__(self, "n_modes", _check_comb(self.n_modes, self.freq_window))


@dataclass(frozen=True, eq=False)
class PairMap:
    """A solver's run at one coupling, as the map of the pair amplitudes.

    The map is ``P(t) = M(t) - 1 = a a^T sigma(t)`` with ``a = drive``, the
    coupling vector: the pair ``x = (c1, c2)`` at ``t = 0``, with empty
    memory or modes, is ``x + a (u sigma)`` at ``t``, ``u = a.x``, and a
    state that the reservoir never sees (``u = 0``) stays put exactly.  It
    is real, since the qubits sit on resonance of a symmetric Lorentzian.
    Called on an :class:`~zeno_ent.model.InitialState`, the map gives that
    state's :class:`~zeno_ent.model.TimeSeries` on every ``step``-th point
    of its grid, with ``meta`` in its ``meta``.

    The grid is the ``size`` points ``i dt`` from 0, held as those two
    numbers: :meth:`times` forms the times asked for.  The bath holds
    ``sigma`` whole.  A numeric solver holds the head and tail vectors of
    its blocked powers (``factors``, see :func:`_bright_propagator`), and
    :meth:`rows` builds ``sigma`` on the points it is asked for alone.
    """

    dt: float
    size: int
    meta: dict
    drive: tuple[float, float]
    sigma: np.ndarray | None = None
    factors: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] | None = None

    def _checked_read(self, lo, hi, step) -> tuple[int, int, int]:
        """The points ``lo, lo + step, ...`` below ``hi`` as ints, refused
        by name unless they are integers with ``step >= 1`` and ``0 <= lo <=
        hi <= size``; a step past the range reads ``lo`` alone."""
        for name, v, least, most in (("step", step, 1, math.inf), ("hi", hi, 0, self.size),
                                     ("lo", lo, 0, hi)):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not least <= v <= most:
                raise ValueError(f"{name} must be an integer in [{least}, {most}], got {v!r}")
        return int(lo), int(hi), int(min(step, max(hi - lo, 1)))

    def times(self, lo: int, hi: int, step: int = 1) -> np.ndarray:
        """The grid's times at the points ``lo, lo + step, ...`` below
        ``hi``: the point counts as floats, exact below ``2**53``, scaled in
        place, so each is bit for bit its entry of ``arange(size) * dt``."""
        lo, hi, step = self._checked_read(lo, hi, step)
        t = np.arange(lo, hi, step, dtype=float)
        t *= self.dt
        return t

    def rows(self, lo: int, hi: int, step: int = 1) -> np.ndarray:
        """``sigma`` at the points ``lo, lo + step, ...`` below ``hi``.

        From ``factors``, the point ``j K + i`` is ``t0_j + h0_i + t0_j h1_i
        + t1_j h2_i``: broadcast over the tail rows that cover a contiguous
        range, or on the gathered entries of a strided one.  Each point is
        rounded alike either way, so every read is bit for bit its slice of
        the whole series."""
        lo, hi, step = self._checked_read(lo, hi, step)
        if self.factors is None:
            return self.sigma[lo:hi:step]
        (t0, t1), heads = self.factors
        k = heads[0].size
        if step == 1:
            j0 = lo // k
            rows = slice(j0, -(-hi // k))
            t0, t1, cut = t0[rows, None], t1[rows, None], slice(lo - j0 * k, hi - j0 * k)
        else:
            j, i = np.divmod(np.arange(lo, hi, step), k)
            t0, t1, heads, cut = t0[j], t1[j], [h[i] for h in heads], slice(None)
        h0, h1, h2 = heads
        return (t0 + h0 + t0 * h1 + t1 * h2).reshape(-1)[cut]

    def __call__(self, init: InitialState, step: int = 1) -> TimeSeries:
        x1, x2 = init.c01, init.c02
        a1, a2 = self.drive
        drift = (a1 * x1 + a2 * x2) * self.rows(0, self.size, step)
        return TimeSeries(tau=self.times(0, self.size, step), c1=x1 + a1 * drift,
                          c2=x2 + a2 * drift, meta=dict(self.meta))


def _bright_weight(coup: CouplingSpec) -> float:
    """``|a|^2 = alpha1^2 + alpha2^2``, the one float of the coupling that a
    solver's arithmetic reads; its step check and comb read ``alpha_t``."""
    return coup.alpha1 * coup.alpha1 + coup.alpha2 * coup.alpha2


def _check_comb(n_modes, freq_window) -> int:
    """Refuse a comb that is not 1 to :data:`MAX_MODES` modes over a
    positive, finite window; returns the count as an ``int``."""
    if isinstance(n_modes, bool) or not isinstance(n_modes, numbers.Integral):
        raise ValueError(f"n_modes must be an integer, got {n_modes!r}")
    if not 1 <= n_modes <= MAX_MODES:
        raise ValueError(f"n_modes must be between 1 and {MAX_MODES}, got {n_modes!r}")
    if not (math.isfinite(_to_float("freq_window", freq_window)) and freq_window > 0.0):
        raise ValueError(f"freq_window must be positive and finite, got {freq_window!r}")
    return int(n_modes)


def _comb_window(res: ReservoirSpec, coup: CouplingSpec, freq_window: float) -> float:
    """Half-width of the bath comb in linewidths, ``K * max(1, rabi/lam)``.

    The comb must reach past the vacuum-Rabi splitting at ``+-rabi``, or its
    truncation floor grows as ``R**2``.
    """
    return freq_window * max(1.0, coup.alpha_t * res.w / res.lam)


def comb_recurrence_time(res: ReservoirSpec, coup: CouplingSpec, n_modes: int,
                         freq_window: float) -> float:
    """Recurrence time ``2*pi/dω`` of the bath comb; past it the comb's
    discrete spectrum sends the emitted excitation back to the qubits.  A
    window whose spacing ``dω`` rounds to 0 or overflows is refused."""
    n_modes = _check_comb(n_modes, freq_window)
    dw = 2.0 * _comb_window(res, coup, freq_window) * res.lam / n_modes
    if not (math.isfinite(dw) and dw > 0.0):
        raise ValueError(f"freq_window = {freq_window!r} gives the bath comb a mode spacing "
                         f"of {dw!r} at double precision; pick a window near the default "
                         f"{SolverConfig.freq_window!r}")
    return 2.0 * math.pi / dw


def step_limit(res: ReservoirSpec, coup: CouplingSpec, solver: str) -> float:
    """Steps strictly below ``1 / (2 * fastest rate)`` pass ``solver``'s
    resolution check.  The rates are the memory decay ``lam`` and the
    vacuum-Rabi frequency.  The bath's limit is ``inf``: its step is exact
    and resolves any rate.  ``solver`` is one of :data:`SOLVER_NAMES`."""
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; pick one of {', '.join(SOLVER_NAMES)}")
    return math.inf if solver == "bath" else 1.0 / (2.0 * max(res.lam, coup.alpha_t * res.w))


def _grid(cfg: SolverConfig, limit: float) -> int:
    """The step count, the last index of the ``dt`` grid.  A step at or
    above ``limit``, the solver's :func:`step_limit`, cannot resolve the
    fastest timescale and is refused."""
    if cfg.dt >= limit:
        raise ValueError(f"dt = {cfg.dt!r} under-resolves the dynamics; need dt < {limit!r}")
    return max(int(round(cfg.t_max / cfg.dt)), 1)


def _power_table(d, count: int, mul):
    """``Q_i = M**i - 1`` for ``i = 0..count``, stacked on a new first axis,
    from ``d = M - 1``.

    ``mul`` is the product: a matrix product such as ``np.matmul``, or
    ``np.multiply`` elementwise.  The table is built by doubling: with ``Q_0 .. Q_h`` in hand, ``Q_(h+i) = Q_i + Q_h +
    Q_i Q_h`` gives the next ``h`` rows in one product, so it takes about
    ``log2(count)`` products where stepping ``q += d + d q`` took ``count``.
    ``(1 + a)(1 + b) - 1 = a + b + a b`` combines two powers, so each row
    is a small correction formed without rounding it against the 1.
    """
    table = np.empty((count + 1,) + d.shape, dtype=d.dtype)
    table[0] = 0.0
    if count:
        table[1] = d
    h = 1
    while h < count:
        m = min(h, count - h)
        rows, top, out = table[1:m + 1], table[h], table[h + 1:h + m + 1]
        mul(rows, top, out=out)
        out += rows
        out += top
        h += m
    return table


def _blocked_powers(d, n: int, mul):
    """The powers ``M**k - 1`` for ``k = 0..n``, from ``d = M - 1``, as the
    heads ``Q_i`` and tails ``A_j`` that combine them.

    ``mul`` is the product, as in :func:`_power_table`.  With ``K =
    isqrt(n + 1)`` and ``J = ceil((n + 1) / K)``, ``Q_i = M**i - 1`` (``i <
    K``) and ``A_j = M**(j*K) - 1`` (``j < J``), each a
    :func:`_power_table` stacked on the first axis, give ``M**(j*K + i) - 1
    = A_j + Q_i + Q_i A_j``: the ``n + 1`` powers are read off the ``J x
    K`` grid in row order, in one product over ``J`` and ``K``, from
    ``O(sqrt n)`` heads and tails.  Carrying ``D``, ``Q_i`` and ``A_j``
    rather than ``M`` and its powers keeps the rounding of the entries near
    1 out of the powers.
    """
    block = math.isqrt(n + 1)
    heads = _power_table(d, block, mul)
    return heads[:block], _power_table(heads[block], n // block, mul)


def _bright_propagator(solver: str, res: ReservoirSpec, coup: CouplingSpec,
                       cfg: SolverConfig, increment) -> PairMap:
    """The :class:`PairMap` of a numeric solver: ``increment(u, m)`` gives
    the step's ``(ds, dm)`` from ``u = a.x`` and the memory variable, where
    the pair moves by ``a ds`` and ``u`` by ``|a|^2 ds``.

    ``D`` is read off it with ``u``'s row over ``|a|^2``, ``D~ = diag(1 /
    |a|^2, 1) D``; sums keep that form and ``(X Y)~ = X~ G Y~`` with ``G =
    diag(|a|^2, 1)``, so :func:`_blocked_powers` builds the powers in it,
    and ``sigma``, the run from ``u = 1``, ``m = 0``, is entry ``(0, 0)`` of
    ``(A_j + Q_i + Q_i A_j)~``: ``A~_j[0,0] + Q~_i[0,0] + A~_j[0,0] |a|^2
    Q~_i[0,0] + A~_j[1,0] Q~_i[0,1]``, with no division by ``|a|^2``, which
    may underflow.  The map keeps these two tail and three head vectors."""
    n = _grid(cfg, step_limit(res, coup, solver))
    asq = _bright_weight(coup)
    d = np.array([increment(1.0, 0.0), increment(0.0, 1.0)]).T
    g = np.array([[asq], [1.0]])

    def mul(x, y, out=None):
        return np.matmul(x, g * y, out=out)

    heads, tails = _blocked_powers(d, n, mul)
    h0 = heads[:, 0, 0]
    factors = (tails[:, 0, 0], tails[:, 1, 0]), (h0, asq * h0, heads[:, 0, 1])
    return PairMap(dt=cfg.dt, size=n + 1, meta={"solver": solver, "dt": cfg.dt},
                   drive=(coup.alpha1, coup.alpha2), factors=factors)


def volterra_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Build the Volterra step map once for this coupling; returns its
    :class:`PairMap`.

    The history integral of the kernel ``w^2 e^{-lam tau}`` is carried by
    the O(1) recursion ``m(t+dt) = e^{-lam dt} m(t) + panel``, which
    reproduces the composite trapezoid sum over the whole history exactly,
    so the step is a constant linear map on ``(u, m)``, stepped with
    trapezoid + Heun.  Global error is O(dt^2).
    """
    asq = _bright_weight(coup)
    dt = cfg.dt
    decay_m1 = math.expm1(-res.lam * dt)
    decay = 1.0 + decay_m1
    half = 0.5 * dt
    panel = half * res.w**2

    def increment(u, m):
        # predictor (explicit Euler), then one trapezoidal correction
        up = u - dt * asq * m
        mp = decay * m + panel * (decay * u + up)
        ds = -half * (m + mp)
        un = u + asq * ds
        return ds, decay_m1 * m + panel * (decay * u + un)

    return _bright_propagator("volterra", res, coup, cfg, increment)


def aux_ode_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Build the pseudomode RK4 step map once for this coupling; returns
    its :class:`PairMap`.

    The RK4 step on the pseudo-mode reduction of the exponential kernel,
    ``s' = -z`` for the pair's move ``a s`` and ``z' = -lam z + w^2 u``,
    is a constant linear map on ``(u, z)``.
    """
    asq = _bright_weight(coup)
    lam = res.lam
    wsq = res.w**2
    dt = cfg.dt

    def rates(u, z):
        return -z, -lam * z + wsq * u

    def increment(u, z):
        k1s, k1z = rates(u, z)
        k2s, k2z = rates(u + 0.5 * dt * asq * k1s, z + 0.5 * dt * k1z)
        k3s, k3z = rates(u + 0.5 * dt * asq * k2s, z + 0.5 * dt * k2z)
        k4s, k4z = rates(u + dt * asq * k3s, z + dt * k3z)
        return ((dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
                (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))

    return _bright_propagator("ode", res, coup, cfg, increment)


def _comb(res: ReservoirSpec, n_modes: int, freq_window: float):
    """Uniform midpoint comb over resonance ``+- K lam``.

    Returns the mode offsets from resonance and the couplings ``g`` as
    arrays, with ``g_k**2 = J(offset_k) * dω``.  The offsets are
    built in detuning coordinates and are exactly antisymmetric,
    ``offsets == -offsets[::-1]``, and the couplings exactly symmetric.  An
    even comb has no mode at resonance; an odd comb puts its centre mode
    exactly there (``n_modes = 3`` gives offsets ``-2/3, 0, 2/3`` in units
    of ``K lam``), and :func:`bath_propagator` carries it with weight 1
    beside the mirror pairs.
    """
    n_modes = _check_comb(n_modes, freq_window)
    dw = 2.0 * (freq_window * res.lam) / n_modes
    offsets = (np.arange(n_modes) - (n_modes - 1) / 2.0) * dw
    return offsets, np.sqrt(res.detuned_density(offsets) * dw)


def bath_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Run the comb once for this coupling; returns its :class:`PairMap`.

    Works in the frame rotating at each mode's detuning, which leaves the
    qubit amplitudes untouched and makes the right-hand side autonomous.
    The comb is a uniform midpoint grid of ``cfg.n_modes`` modes over
    resonance ``+- band_edge`` with ``band_edge = cfg.freq_window *
    max(lam, rabi)``: at strong coupling it scales with the vacuum-Rabi
    frequency instead of cutting the spectrum off near the splitting at
    ``+-rabi``.  The comb is evolved exactly, so no step is refused and
    ``dt`` only spaces the output: the comb's frequency sampling alone sets
    the error.  A horizon past the comb's recurrence time
    ``2*pi/dω`` is refused: there the discrete spectrum sends the emitted
    excitation back to the qubits.  So is a coupling too weak to
    represent, ``R`` below about ``1e-151`` for the default comb, where
    the squared mode couplings underflow, and a comb too narrow for double
    precision, ``freq_window = 1e-80`` say, whose secular solve overflows.

    The generator reads the pair ``x`` only through ``u = a.x`` and moves
    it only along the coupling vector ``a = (alpha1, alpha2)``.  The modes
    start empty and the evolution is linear, so the modes and the summed
    pair increment ``sigma`` of a run from ``u0 = a.x0`` are ``u0`` times
    those of one run driven by ``u0 = 1``: the map is ``P = a a^T sigma``
    and ``x = x0 + a u0 sigma``.  That run is made here, and every initial
    state is read off it.

    The run is evaluated from the comb's spectrum, with no loop over the
    steps.  With ``v = u/|a|`` the generator is ``-i H`` on ``(v, m)``,
    ``H = [[0, c^T], [c, diag(offsets)]]`` with ``c = |a| g``, a real
    symmetric arrowhead, so the evolution to ``t`` is ``sum_j e^{-i lam_j
    t}`` times the projector on eigenvector ``j``.  The unit drive starts
    on the pair, so only the weights ``w_j``, the squared pair components
    of the eigenvectors, enter.  The qubits sit on resonance of a
    symmetric spectral density, so the comb is mirrored about their
    frequency: the spectrum is ``+-lam_j``, plus ``0`` for an even comb,
    and :func:`_folded_spectrum` finds it from the upper half of the comb.
    The roots cost about ``modes^2 / 16`` array operations for the far
    poles plus ``128 * modes`` per iteration for the near ones, and the
    sums over the spectrum (:func:`_spectral_sums`) ``modes * steps / 2``.

    Metadata carries the full mode count and the recurrence time, and each
    series the total-excitation norm at each output step for conservation
    checks.
    """
    recurrence = comb_recurrence_time(res, coup, cfg.n_modes, cfg.freq_window)
    if cfg.t_max > recurrence:
        raise ValueError(
            f"tau_max = {cfg.t_max!r} runs past the bath comb's recurrence time "
            f"{recurrence:.6g} (2*pi/d_omega for {cfg.n_modes} modes at "
            f"big_r = {coup.alpha_t * res.w / res.lam!r}), where the comb sends the "
            "emitted excitation back; raise n_modes or shorten tau_max")
    n = _grid(cfg, step_limit(res, coup, "bath"))
    window = _comb_window(res, coup, cfg.freq_window)

    offsets, g = _comb(res, cfg.n_modes, window)
    # the upper half of the comb: a mirror pair counts twice in c^T c, an
    # odd comb's centre mode (the first kept one, at offset 0) once
    lower = cfg.n_modes // 2
    mult = np.full(cfg.n_modes - lower, 2.0)
    mult[: cfg.n_modes % 2] = 1.0
    asq = _bright_weight(coup)
    b = asq * mult * g[lower:] ** 2
    if not np.min(b) >= np.finfo(float).tiny:
        raise ValueError(
            f"big_r = {coup.alpha_t * res.w / res.lam!r} is too weak a coupling for the "
            f"bath comb: its squared mode couplings fall to {np.min(b):.3g} and underflow; "
            "the pair does not move at double precision there, so use the closed form")
    # a comb too narrow for double precision overflows its secular solve
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lam, weight = _folded_spectrum(offsets[lower:], b)
    except FloatingPointError as exc:
        raise ValueError(
            f"freq_window = {cfg.freq_window!r} is too narrow a bath comb for double "
            f"precision: its spectrum does not resolve ({exc}); pick a window near "
            f"the default {SolverConfig.freq_window!r}") from None
    # u - 1 = |a|^2 sigma = 2 sum_j w_j Re(e^{-i lam_j t} - 1)
    sigma = (2.0 / asq) * _spectral_sums(cfg.dt * lam, weight, n)

    meta = {
        "solver": "bath",
        "dt": cfg.dt,
        "n_modes": cfg.n_modes,
        "freq_window": cfg.freq_window,
        "recurrence_time": recurrence,
    }
    return PairMap(dt=cfg.dt, size=n + 1, meta=meta, drive=(coup.alpha1, coup.alpha2),
                   sigma=sigma)


def _folded_spectrum(o, b):
    """Spectrum of the mirrored arrowhead from the upper half of its comb.

    ``o`` are the kept offsets, ascending and ``>= 0`` (an odd comb's
    centre first, at 0), ``b`` their couplings ``c_k^2`` times the
    multiplicity (2 for a mirror pair, 1 for the centre); the spacing need
    not be uniform.  The nonzero eigenvalues are ``+-lam_j`` with
    ``mu_j = lam_j^2`` the roots of ``1 = sum_k b_k / (mu - o_k^2)``, one in
    each gap ``(o_j^2, o_{j+1}^2)`` and the last within ``sum b`` above
    ``o^2`` of the top mode.  Returns ``(lam, w)`` with the pair weight
    ``w_j = 1 / (2 mu_j sum_k b_k / (mu_j - o_k^2)^2)`` of each of
    ``+-lam_j``.  An even comb also has the eigenvalue 0, which the run
    never sees, with weight ``w0 = 1 / (1 + sum_k b_k / o_k^2)``, and
    ``w0 + 2 sum w = 1``.

    Each root is found as its offset ``delta`` from the nearer pole, so
    that a root hugging a pole keeps its digits, with the pole gaps formed
    as ``(o_k - o_r)(o_k + o_r)``.  The iteration matches the sums over
    the poles left and right of the root, in value and slope, by one pole
    each, and takes the root of that two-pole model in the gap (as in
    LAPACK's ``dlaed4``).

    The roots are taken in blocks of ``_BLOCK`` consecutive ones, counted
    from the top, so that only the bottom block may be short: the top one
    keeps a positive width even where ``sum b`` is too small to move ``o^2``
    of the top mode.  A block's roots lie in ``[lo, hi]``, from its lowest
    pole to the pole above its highest root (``sqrt(o^2 + sum b)`` of the
    top mode for the top block).  Only the near poles, within half that
    width of it, are summed exactly per root.  The far poles sit at least
    a half-width outside, so their four sums (left and right, value and
    slope) are smooth in ``lam`` there: each is sampled once per block at
    ``_SAMPLES`` Chebyshev points of ``[lo, hi]`` and read off by
    barycentric interpolation (Berrut and Trefethen, SIAM Rev. 46, 501
    (2004)), whose relative error is about ``(2 + sqrt 3)^-32 ~ 5e-19``.
    They are sampled in ``lam - lo``, not in ``mu``, in which the far poles
    at the bottom of the comb come within half a half-width.  For ``m``
    kept poles the solve then costs about ``m^2 / 4`` far terms plus
    ``2 _BLOCK`` near terms per root and iteration, where summing every
    pole cost ``m`` per root and iteration.
    """
    m = o.size
    osq = o * o
    total = float(np.sum(b))
    lam = np.empty(m)
    weight = np.empty(m)
    eps = np.finfo(float).eps
    ends = np.arange(m, 0, -_BLOCK)[::-1]
    starts = np.concatenate(([0], ends[:-1]))
    lows = o[starts]
    highs = np.append(o[ends[:-1]], math.sqrt(o[-1] * o[-1] + total))
    reach = 0.5 * (highs - lows)
    near_lo = np.searchsorted(o, lows - reach, side="left")
    near_hi = np.searchsorted(o, highs + reach, side="right")
    # work buffers, shared by every block and iteration
    rows_max = int(np.max(ends - starts))
    near_max = int(np.max(near_hi - near_lo))
    gap_buf = np.empty(rows_max * near_max)
    inv_buf = np.empty(rows_max * near_max)
    far_buf = np.empty(_SAMPLES * (m - int(np.min(near_hi - near_lo))))
    samples = np.ones((_SAMPLES, 5))
    lower_tri = np.tri(rows_max, dtype=bool)
    for j0, j1, lo, hi, k0, k1 in zip(starts.tolist(), ends.tolist(), lows.tolist(),
                                       highs.tolist(), near_lo.tolist(), near_hi.tolist()):
        nr = j1 - j0
        nn = k1 - k0
        r = np.arange(nr)
        j = np.arange(j0, j1)
        top = j == m - 1
        right = np.minimum(j + 1, m - 1)
        # columns of the root's own pole and the one above it, and where
        # the block's own band [j0, j1) starts and ends among the near poles
        own, above = j - k0, right - k0
        band0, band1 = j0 - k0, j1 - k0
        far = k0 > 0 or k1 < m
        if far:
            nodes = (0.5 * (hi - lo)) * (1.0 + _CHEB_X)
            _sample_far(o, b, lo, nodes, k0, k1, far_buf, samples)
        # F = 1 + sum_k b_k / (o_k^2 - mu) at mid-gap rises through the gap,
        # so F(mid) >= 0 puts the root in the left half, nearer the left
        # pole; the two end poles give +-b/half, the others keep enough
        # digits in plain squares
        b_right = np.where(top, 0.0, b[right])
        half = 0.5 * np.where(top, total, (o[right] - o[j]) * (o[right] + o[j]))
        work = inv_buf[:nr * nn].reshape(nr, nn)
        np.subtract(osq[k0:k1], (osq[j] + half)[:, None], out=work)
        work[r, own] = work[r, above] = np.inf
        np.reciprocal(work, out=work)
        rest = 1.0 + work @ b[k0:k1]
        if far:
            mid = np.sqrt(osq[j] + half)
            sums = _far_sums((o[j] - lo) + half / (mid + o[j]), nodes, samples)
            rest += sums[:, 0] + sums[:, 1]
        flip = (rest + (b_right - b[j]) / half < 0.0) & ~top
        pole = np.where(flip, right, j)
        origin = o[pole]
        gap = gap_buf[:nr * nn].reshape(nr, nn)
        np.subtract(o[k0:k1], origin[:, None], out=gap)
        np.add(o[k0:k1], origin[:, None], out=work)
        gap *= work
        left_pole = gap[r, own]
        right_pole = np.where(top, total, gap[r, above])
        # start from the two-pole model with the other poles frozen at mid-gap
        delta = _model_root(rest, b[j], b_right, left_pole, right_pole)
        # the origin pole's term is carried exactly: in the model it adds
        # b_p to the slope weight of its side and cancels from the rest
        b_pole = b[pole]
        pole_col = pole - k0
        on_left = np.where(flip, 0.0, b_pole)
        on_right = np.where(flip, b_pole, 0.0)
        band_left = np.where(lower_tri[:nr, :nr], b[j0:j1], 0.0)
        band_right = b[j0:j1] - band_left
        b_below, b_above = b[k0:j0], b[j1:k1]
        rest_slope = np.empty(nr)
        live = r
        for it in range(_ITERATIONS):
            n = live.size
            at = delta[live]
            inv = inv_buf[:n * nn].reshape(n, nn)
            if n == nr:
                np.subtract(gap, at[:, None], out=inv)
                bl, br = band_left, band_right
            else:
                np.take(gap, live, axis=0, out=inv, mode="clip")
                inv -= at[:, None]
                bl, br = band_left[live], band_right[live]
            inv[np.arange(n), pole_col[live]] = np.inf
            np.reciprocal(inv, out=inv)
            band = inv[:, band0:band1]
            psi = inv[:, :band0] @ b_below + np.einsum("ij,ij->i", band, bl)
            phi = inv[:, band1:] @ b_above + np.einsum("ij,ij->i", band, br)
            np.multiply(inv, inv, out=inv)
            dpsi = inv[:, :band0] @ b_below + np.einsum("ij,ij->i", band, bl)
            dphi = inv[:, band1:] @ b_above + np.einsum("ij,ij->i", band, br)
            if far:
                # lam - lo, with lam - origin formed without rounding lam^2
                base = origin[live]
                sums = _far_sums((base - lo) + at / (np.sqrt(base * base + at) + base),
                                 nodes, samples)
                psi += sums[:, 0]
                phi += sums[:, 1]
                dpsi += sums[:, 2]
                dphi += sums[:, 3]
            rest_slope[live] = dpsi + dphi
            to_left = left_pole[live] - at
            to_right = right_pole[live] - at
            step = _model_root(1.0 + psi - dpsi * to_left + phi - dphi * to_right,
                               dpsi * to_left * to_left + on_left[live],
                               dphi * to_right * to_right + on_right[live],
                               left_pole[live], right_pole[live])
            # settled once the step is within the rounding of F over its
            # slope, both scaled by delta^2 to keep the pole term finite
            sq_at = at * at
            noise = (sq_at * (1.0 + phi - psi) + b_pole[live] * np.abs(at)) / (
                sq_at * (dpsi + dphi) + b_pole[live])
            moving = np.abs(step - at) > 8.0 * eps * (np.abs(step) + noise)
            if it == _ITERATIONS - 1 or not moving.any():
                break
            live = live[moving]
            delta[live] = step[moving]
        mu = origin * origin + delta
        lam[j0:j1] = np.sqrt(mu)
        # 1 / (2 mu (b_p / delta^2 + rest)), free of 0/0 when the pole is 0
        weight[j0:j1] = 0.5 * (delta / mu) * (delta / (b_pole + delta * delta * rest_slope))
    return lam, weight


def _sample_far(o, b, lo, nodes, k0, k1, buf, samples):
    """Fill columns 0-3 of ``samples`` with the far poles' sums at
    ``lam = lo + nodes``: ``sum b_k / (o_k^2 - lam^2)`` over the poles below
    ``k0``, then over those from ``k1``, then the same with squared
    reciprocals.  ``o_k^2 - lam^2`` is formed as ``(o_k - lo)(o_k + lo) -
    nodes (2 lo + nodes)``, whose terms do not cancel for a far pole."""
    shift = (nodes * (2.0 * lo + nodes))[:, None]
    below, above = o[:k0], o[k1:]
    nb = below.size
    far = buf[:nodes.size * (nb + above.size)].reshape(nodes.size, -1)
    np.subtract((below - lo) * (below + lo), shift, out=far[:, :nb])
    np.subtract((above - lo) * (above + lo), shift, out=far[:, nb:])
    np.reciprocal(far, out=far)
    samples[:, 0] = far[:, :nb] @ b[:k0]
    samples[:, 1] = far[:, nb:] @ b[k1:]
    np.multiply(far, far, out=far)
    samples[:, 2] = far[:, :nb] @ b[:k0]
    samples[:, 3] = far[:, nb:] @ b[k1:]


def _far_sums(t, nodes, samples):
    """The four far sums at ``lam = lo + t``: the barycentric interpolant
    (second form) through ``samples`` at the Chebyshev ``nodes``, whose last
    column of ones gives the denominator."""
    diff = t[:, None] - nodes
    hit = diff == 0.0
    if hit.any():
        # a point on a node takes that node's sample
        diff[hit] = np.inf
        out = (_CHEB_W / diff) @ samples
        rows, cols = np.nonzero(hit)
        out[rows] = samples[cols]
    else:
        out = (_CHEB_W / diff) @ samples
    return out[:, :4] / out[:, 4:]


def _model_root(c, s, t, left, right):
    """Root in ``(left, right)`` of ``c + s/(left - x) + t/(right - x)``,
    ``s > 0``, ``t >= 0``, with ``left <= 0 <= right`` and a pole at ``0``.

    The root solves ``c x^2 - q x + p = 0`` with ``q = c (left + right) +
    s + t`` and ``p = c left right + s right + t left``; ``2 p / (q +
    sqrt(q^2 - 4 c p))`` is the root inside the interval for either sign
    of ``c`` and cancels no digits.  With ``t = 0``, ``right`` only caps
    the root.  The root scales with the interval, which is taken to unit
    width first, so that products of tiny weights and gaps cannot underflow.
    """
    width = right - left
    left, right, s, t = left / width, right / width, s / width, t / width
    q = c * (left + right) + s + t
    p = c * left * right + s * right + t * left
    return width * (2.0 * p / (q + np.sqrt(np.maximum(q * q - 4.0 * c * p, 0.0))))


def _spectral_sums(theta, weight, n: int):
    """``sum_j w_j Re(e^{-i theta_j k} - 1)`` for ``k = 0..n``.

    The step ``e^{-i theta} - 1 = -2 sin^2(theta/2) - i sin(theta)`` is
    formed without rounding it against the 1 and raised elementwise by
    :func:`_blocked_powers`, so with the heads conjugated, ``Re(A_j Q_i)``
    is a real product of the float views, and the sum is one ``(J, K)``
    product over the modes.  The modes are taken in chunks, so that the
    tails, the tallest work array, hold at most ``_CHUNK`` elements.
    """
    half = np.sin(0.5 * theta)
    step = -2.0 * half * half - 1j * np.sin(theta)
    # the J x K layout of the sums, read off the powers of no modes
    heads, tails = _blocked_powers(theta[:0], n, np.multiply)
    out = np.zeros((len(tails), len(heads)))
    width = max(1, _CHUNK // len(tails))
    for lo in range(0, theta.size, width):
        w = weight[lo:lo + width]
        heads, tails = _blocked_powers(step[lo:lo + width], n, np.multiply)
        np.conjugate(heads, out=heads)
        tails *= w
        out += tails.view(float) @ heads.view(float).T
        out += tails.real.sum(axis=1)[:, None] + heads.real @ w
        # freed before the next powers are built
        del heads, tails
    return out.reshape(-1)[:n + 1]
