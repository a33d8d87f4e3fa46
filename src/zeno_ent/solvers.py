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
:data:`SOLVER_NAMES`, which :func:`step_limit` takes:

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
from dataclasses import dataclass

import numpy as np

from .model import (CouplingSpec, InitialState, ReservoirSpec, TimeSeries, _integer,
                    _positive, _real)

__all__ = [
    "BATH_TOLERANCE",
    "MAX_MODES",
    "SOLVER_NAMES",
    "PairMap",
    "SolverConfig",
    "aux_ode_propagator",
    "bath_propagator",
    "step_limit",
    "volterra_propagator",
]

SOLVER_NAMES = ("volterra", "ode", "bath")

# most modes a bath comb may hold: a 10k-step run at the ceiling takes about
# 0.07 s on a 2-core x86 host (2000 modes take about 0.01 s)
MAX_MODES = 20_000
# the most |E_bath - E| the bath may be off: the cross-check's bath budget,
# and the bound on a comb's band-edge truncation that it must sample within
BATH_TOLERANCE = 1e-3

# the bath's phase sums: most elements of one chunk's tails (1 MB); a call
# builds every chunk's heads and tails in one work array of about twice
# that, so that a repeated run takes its memory back from the heap
_CHUNK = 1 << 16
# the secular solve: the cap on root iterations, the poles from the origin
# whose sums above are taken term by term, and the Bernoulli terms B_2k/2k
# and B_2k of the digamma's and trigamma's series, highest power first
_ITERATIONS = 12
_DIRECT = 4
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510])
_SERIES = np.column_stack([_BERNOULLI / np.arange(2, 18, 2), _BERNOULLI])[::-1]


@dataclass(frozen=True)
class SolverConfig:
    """Grid parameters shared by the integrators.

    ``n_modes`` and ``freq_window`` only matter for the discretized bath:
    the comb covers resonance ``+- K*max(lam, rabi)`` with ``K = freq_window``,
    i.e. K units of the fastest rate, so it always reaches past the
    vacuum-Rabi splitting.  For ``rabi <= lam`` that is resonance ``+- K*lam``.
    The comb is an even count of modes, mirrored about resonance with
    none on it; a count that is odd, below 2 or above :data:`MAX_MODES`
    (20000) is refused before anything is allocated.
    The defaults, 2000 modes over ``K = 20``, are the comb every scenario
    runs; to ``t_max = 10`` it stays within the cross-check's bath budget
    (:data:`BATH_TOLERANCE`) up to ``R = 26`` (worst error 7.4e-4, and
    1.5e-3 at ``R = 28``).
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
            object.__setattr__(self, name, _positive(name, _real(name, getattr(self, name))))
        if self.t_max < self.dt:
            raise ValueError(f"t_max = {self.t_max!r} is shorter than one step, dt = {self.dt!r}")
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
    of its grid.

    The grid is the ``size`` points ``i dt`` from 0, held as those two
    numbers: :meth:`times` forms the times asked for.  The bath holds
    ``sigma`` whole.  A numeric solver holds the head and tail vectors of
    its blocked powers (``factors``, see :func:`_bright_propagator`), and
    :meth:`rows` builds ``sigma`` on the points it is asked for alone.
    """

    dt: float
    size: int
    drive: tuple[float, float]
    sigma: np.ndarray | None = None
    factors: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]] | None = None

    def _checked_read(self, lo, hi, step) -> tuple[int, int, int]:
        """The points ``lo, lo + step, ...`` below ``hi`` as ints, refused
        by name unless they are integers with ``step >= 1`` and ``0 <= lo <=
        hi <= size``; a step past the range reads ``lo`` alone."""
        step = _integer("step", step, 1)
        hi = _integer("hi", hi, 0, self.size)
        lo = _integer("lo", lo, 0, hi)
        return lo, hi, min(step, max(hi - lo, 1))

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
        # ((t0 + h0) + t0 h1) + t1 h2 in one output and one scratch array
        out = np.add(t0, h0)
        part = np.multiply(t0, h1)
        out += part
        out += np.multiply(t1, h2, out=part)
        return out.reshape(-1)[cut]

    def __call__(self, init: InitialState, step: int = 1) -> TimeSeries:
        x1, x2 = init.c01, init.c02
        a1, a2 = self.drive
        drift = (a1 * x1 + a2 * x2) * self.rows(0, self.size, step)
        return TimeSeries(tau=self.times(0, self.size, step), c1=x1 + a1 * drift,
                          c2=x2 + a2 * drift)


def _bright_weight(res: ReservoirSpec, coup: CouplingSpec) -> float:
    """``|a|^2 = alpha1^2 + alpha2^2``, the one float of the coupling that a
    solver's arithmetic reads; its step check and comb read ``alpha_t``.  A
    coupling whose ``|a|^2`` overflows is refused, naming its ``big_r``."""
    # squared as Python floats, which overflow to inf without a warning
    a1, a2 = float(coup.alpha1), float(coup.alpha2)
    asq = a1 * a1 + a2 * a2
    if not math.isfinite(asq):
        raise ValueError(
            f"big_r = {coup.alpha_t * res.w / res.lam!r} is too strong a coupling for the "
            "solvers: |a|^2 = alpha1^2 + alpha2^2 overflows a double")
    return asq


def _check_comb(n_modes, freq_window) -> int:
    """Refuse a comb that is not an even count of 2 to :data:`MAX_MODES`
    modes over a positive, finite window; returns the count as an ``int``."""
    # the type alone: the count's bounds and parity are one refusal below
    n_modes = _integer("n_modes", n_modes, -math.inf)
    if n_modes % 2 or not 2 <= n_modes <= MAX_MODES:
        raise ValueError(f"n_modes must be even and between 2 and {MAX_MODES}, got {n_modes}")
    _positive("freq_window", freq_window)
    return n_modes


def step_limit(res: ReservoirSpec, coup: CouplingSpec, solver: str) -> float:
    """Steps strictly below ``1 / (2 * fastest rate)`` pass ``solver``'s
    resolution check.  The rates are the memory decay ``lam`` and the
    vacuum-Rabi frequency.  The bath's limit is ``inf``: its step is exact
    and resolves any rate.  ``solver`` is one of :data:`SOLVER_NAMES`."""
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; pick one of {', '.join(SOLVER_NAMES)}")
    return math.inf if solver == "bath" else 1.0 / (2.0 * max(res.lam, coup.alpha_t * res.w))


def _grid(cfg: SolverConfig, limit: float) -> int:
    """The step count, the ``dt`` grid's last index: at least 1, as ``t_max
    >= dt``.  A step at or above ``limit``, the solver's :func:`step_limit`,
    cannot resolve the fastest timescale and is refused."""
    if cfg.dt >= limit:
        raise ValueError(f"dt = {cfg.dt!r} under-resolves the dynamics; need dt < {limit!r}")
    return int(round(cfg.t_max / cfg.dt))


def _power_table(d, count: int, mul, out=None):
    """``Q_i = M**i - 1`` for ``i = 0..count``, stacked on a new first axis,
    from ``d = M - 1``; built in ``out``, of shape ``(count + 1,) +
    d.shape``, when it is given, else in a new array.

    ``mul`` is the product: a matrix product such as ``np.matmul``, or
    ``np.multiply`` elementwise.  The table is built by doubling: with ``Q_0 .. Q_h`` in hand, ``Q_(h+i) = Q_i + Q_h +
    Q_i Q_h`` gives the next ``h`` rows in one product, so it takes about
    ``log2(count)`` products where stepping ``q += d + d q`` took ``count``.
    ``(1 + a)(1 + b) - 1 = a + b + a b`` combines two powers, so each row
    is a small correction formed without rounding it against the 1.
    """
    table = np.empty((count + 1,) + d.shape, dtype=d.dtype) if out is None else out
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


def _blocks(n: int) -> tuple[int, int]:
    """``(K, J)`` of :func:`_blocked_powers` for the powers to ``n``:
    ``K = isqrt(n + 1)`` heads and ``J = ceil((n + 1) / K)`` tails."""
    block = math.isqrt(n + 1)
    return block, n // block + 1


def _blocked_powers(d, n: int, mul, out=None):
    """The powers ``M**k - 1`` for ``k = 0..n``, from ``d = M - 1``, as the
    heads ``Q_i`` and tails ``A_j`` that combine them.

    ``mul`` is the product, as in :func:`_power_table`.  With ``K =
    isqrt(n + 1)`` and ``J = ceil((n + 1) / K)`` (:func:`_blocks`), ``Q_i =
    M**i - 1`` (``i < K``) and ``A_j = M**(j*K) - 1`` (``j < J``), each a
    :func:`_power_table` stacked on the first axis, give ``M**(j*K + i) - 1
    = A_j + Q_i + Q_i A_j``: the ``n + 1`` powers are read off the ``J x
    K`` grid in row order, in one product over ``J`` and ``K``, from
    ``O(sqrt n)`` heads and tails.  Carrying ``D``, ``Q_i`` and ``A_j``
    rather than ``M`` and its powers keeps the rounding of the entries near
    1 out of the powers.  The ``K + 1`` rows of the heads' table and then
    the tails are built at the front of one flat array of ``d``'s dtype,
    each contiguous: ``out``, with at least ``(K + 1 + J) d.size`` entries,
    when it is given, else a new one.
    """
    block, tall = _blocks(n)
    cut = (block + 1) * d.size
    if out is None:
        out = np.empty(cut + tall * d.size, dtype=d.dtype)
    heads = _power_table(d, block, mul, out[:cut].reshape((block + 1,) + d.shape))
    tails = out[cut:cut + tall * d.size].reshape((tall,) + d.shape)
    return heads[:block], _power_table(heads[block], tall - 1, mul, tails)


def _bright_propagator(solver: str, res: ReservoirSpec, coup: CouplingSpec,
                       cfg: SolverConfig, asq: float, increment) -> PairMap:
    """The :class:`PairMap` of a numeric solver: ``increment(u, m)`` gives
    the step's ``(ds, dm)`` from ``u = a.x`` and the memory variable, where
    the pair moves by ``a ds`` and ``u`` by ``|a|^2 ds``, ``|a|^2 = asq``.

    ``D`` is read off it with ``u``'s row over ``|a|^2``, ``D~ = diag(1 /
    |a|^2, 1) D``; sums keep that form and ``(X Y)~ = X~ G Y~`` with ``G =
    diag(|a|^2, 1)``, so :func:`_blocked_powers` builds the powers in it,
    and ``sigma``, the run from ``u = 1``, ``m = 0``, is entry ``(0, 0)`` of
    ``(A_j + Q_i + Q_i A_j)~``: ``A~_j[0,0] + Q~_i[0,0] + A~_j[0,0] |a|^2
    Q~_i[0,0] + A~_j[1,0] Q~_i[0,1]``, with no division by ``|a|^2``, which
    may underflow.  The map keeps these two tail and three head vectors."""
    n = _grid(cfg, step_limit(res, coup, solver))
    d = np.array([increment(1.0, 0.0), increment(0.0, 1.0)]).T
    g = np.array([[asq], [1.0]])

    def mul(x, y, out=None):
        return np.matmul(x, g * y, out=out)

    heads, tails = _blocked_powers(d, n, mul)
    h0 = heads[:, 0, 0]
    factors = (tails[:, 0, 0], tails[:, 1, 0]), (h0, asq * h0, heads[:, 0, 1])
    return PairMap(dt=cfg.dt, size=n + 1, drive=(coup.alpha1, coup.alpha2), factors=factors)


def volterra_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Build the Volterra step map once for this coupling; returns its
    :class:`PairMap`.

    The history integral of the kernel ``w^2 e^{-lam tau}`` is carried by
    the O(1) recursion ``m(t+dt) = e^{-lam dt} m(t) + panel``, which
    reproduces the composite trapezoid sum over the whole history exactly,
    so the step is a constant linear map on ``(u, m)``, stepped with
    trapezoid + Heun.  Global error is O(dt^2).
    """
    asq = _bright_weight(res, coup)
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

    return _bright_propagator("volterra", res, coup, cfg, asq, increment)


def aux_ode_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Build the pseudomode RK4 step map once for this coupling; returns
    its :class:`PairMap`.

    The RK4 step on the pseudo-mode reduction of the exponential kernel,
    ``s' = -z`` for the pair's move ``a s`` and ``z' = -lam z + w^2 u``,
    is a constant linear map on ``(u, z)``.
    """
    asq = _bright_weight(res, coup)
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

    return _bright_propagator("ode", res, coup, cfg, asq, increment)


def _comb(res: ReservoirSpec, coup: CouplingSpec, asq: float, window: float, n_modes: int):
    """The bath comb of ``n_modes`` modes over the window ``K``: ``(edge,
    dω, offsets, b, total)``.

    The band edge ``K max(lam, rabi)`` reaches past the vacuum-Rabi
    splitting at ``+-rabi``, or the truncation floor grows as ``R**2``.
    The modes sit on the midpoint grid spaced by ``dω = 2 edge / n_modes``
    about resonance, and only the upper half is built, the offsets ``(k +
    1/2) dω``, ``k < n_modes / 2``: their exact mirror ``-offsets[::-1]``
    completes it, bit for bit ``(arange(n_modes) - (n_modes - 1) / 2) *
    dω``, with no mode on resonance.  Each kept mode's coupling is ``b = 2
    asq g^2``, ``g^2 = J(offset) dω``, twice for its mirror, and ``total``
    is their sum, the top root's reach above the top mode, which the secular
    solve squares as it does the offsets.  Past a double the spacing is 0
    or inf, a density 0 and a coupling inf or nan, which the caller refuses."""
    edge = window * max(1.0, coup.alpha_t * res.w / res.lam) * res.lam
    dw = 2.0 * edge / n_modes
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = (np.arange(n_modes // 2) + 0.5) * dw
        b = asq * 2.0 * np.sqrt(res.detuned_density(offsets) * dw) ** 2
        return edge, dw, offsets, b, float(np.sum(b))


def bath_propagator(res: ReservoirSpec, coup: CouplingSpec, cfg: SolverConfig):
    """Run the comb once for this coupling; returns its :class:`PairMap`.

    Works in the frame rotating at each mode's detuning, which leaves the
    qubit amplitudes untouched and makes the right-hand side autonomous.
    The comb is ``cfg.n_modes`` modes, an even count, on a uniform
    midpoint grid over resonance ``+- edge``, ``edge = cfg.freq_window *
    max(lam, rabi)`` (:func:`_comb`), which at strong coupling
    scales with the vacuum-Rabi frequency instead of cutting the spectrum
    off near the splitting at ``+-rabi``.  The comb is evolved exactly, so
    no step is refused and ``dt`` only spaces the output: the comb's
    frequency sampling alone sets the error.  Its weight beyond the band
    edge moves ``E`` by about ``rabi^2 lam / edge^3``, the second-order
    shift of the detuned modes, which bounds the error from ``freq_window =
    2`` on; a narrower comb, or one whose estimate exceeds
    :data:`BATH_TOLERANCE`, cannot sample the reservoir and is refused.  So
    is a horizon past the comb's recurrence time ``2*pi/dω``, where the
    discrete spectrum sends the emitted excitation back to the qubits; a
    coupling too weak or too strong for the default comb, ``R`` below about
    ``1e-151``, where the squared mode couplings underflow, or from about
    ``4e151``, where the secular solve would square their sum past a
    double; and a comb whose solve overflows at double precision.

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
    frequency: the spectrum is ``+-lam_j`` and ``0``, and only the upper
    half of the comb is built (:func:`_comb`).  :func:`_folded_spectrum`
    finds the spectrum from it, iterating every root at once on
    closed-form sums over the poles: each pass costs ``O(modes)``, and the
    sums over the spectrum (:func:`_spectral_sums`) ``modes * steps / 2``.
    """
    asq = _bright_weight(res, coup)
    big_r = coup.alpha_t * res.w / res.lam
    edge, dw, offsets, b, total = _comb(res, coup, asq, cfg.freq_window, cfg.n_modes)
    if not (math.isfinite(dw) and dw > 0.0):
        raise ValueError(f"freq_window = {cfg.freq_window!r} gives the bath comb a mode "
                         f"spacing of {dw!r} at double precision; pick a window near the "
                         f"default {SolverConfig.freq_window!r}")
    # multiplied, not squared by **, which raises on overflow
    reach = coup.alpha_t * res.w / edge
    estimate = reach * reach * (res.lam / edge)
    if cfg.freq_window < 2.0 or estimate > BATH_TOLERANCE:
        raise ValueError(
            f"freq_window = {cfg.freq_window!r} is too narrow a bath comb to sample the "
            f"reservoir at big_r = {big_r!r}: it needs freq_window >= 2 and a band-edge "
            f"truncation rabi^2 lam / edge^3 within the bath's budget {BATH_TOLERANCE:g}, "
            f"and has {estimate:.3g}")
    recurrence = 2.0 * math.pi / dw
    if cfg.t_max > recurrence:
        raise ValueError(
            f"tau_max = {cfg.t_max!r} runs past the bath comb's recurrence time "
            f"{recurrence:.6g} (2*pi/d_omega for {cfg.n_modes} modes at "
            f"big_r = {big_r!r}), where the comb sends the "
            "emitted excitation back; raise n_modes or shorten tau_max")
    n = _grid(cfg, step_limit(res, coup, "bath"))
    edge_sq, sum_sq = edge * edge, 4.0 * total * total
    if not (edge_sq < math.inf and sum_sq < math.inf):
        squares = (f"its secular solve squares its band edge {edge:.3g} to {edge_sq:.3g} and "
                   f"twice its couplings' sum, {2.0 * total:.3g}, to {sum_sq:.3g}")
        # the window is at fault where the default one's comb squares both
        # within a double: too wide where its edge overflows, else too
        # narrow, the lowest mode's coupling growing as 1/dω while dω >> lam
        usual, *_, usual_total = _comb(res, coup, asq, SolverConfig.freq_window, cfg.n_modes)
        if usual * usual < math.inf and 4.0 * usual_total * usual_total < math.inf:
            raise ValueError(
                f"freq_window = {cfg.freq_window!r} is too "
                f"{'narrow' if edge_sq < math.inf else 'wide'} a bath comb at big_r = "
                f"{big_r!r}: {squares}; pick a window near the default "
                f"{SolverConfig.freq_window!r}")
        raise ValueError(f"big_r = {big_r!r} is too strong a coupling for the bath comb at "
                         f"freq_window = {cfg.freq_window!r}: {squares}")
    # sigma is read off the spectrum as 2 / |a|^2 times its sums
    if not (np.min(b) >= np.finfo(float).tiny and 2.0 / asq < math.inf):
        raise ValueError(
            f"big_r = {big_r!r} is too weak a coupling for the "
            f"bath comb: its squared mode couplings fall to {np.min(b):.3g} and |a|^2 to "
            f"{asq:.3g}, where they underflow; the pair does not move at double precision "
            "there, so use the closed form")
    # a comb too narrow for double precision overflows its secular solve
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lam, weight = _folded_spectrum(offsets, b, total, dw, res.lam, asq,
                                           res.detuned_density(0.0) * res.lam**2 * dw)
    except FloatingPointError as exc:
        raise ValueError(
            f"freq_window = {cfg.freq_window!r} is too narrow a bath comb for double "
            f"precision: its spectrum does not resolve ({exc}); pick a window near "
            f"the default {SolverConfig.freq_window!r}") from None
    # u - 1 = |a|^2 sigma = 2 sum_j w_j Re(e^{-i lam_j t} - 1)
    sigma = (2.0 / asq) * _spectral_sums(cfg.dt * lam, weight, n)
    return PairMap(dt=cfg.dt, size=n + 1, drive=(coup.alpha1, coup.alpha2), sigma=sigma)


def _folded_spectrum(o, b, total, dw, lam, asq, density):
    """Spectrum of the mirrored arrowhead from the upper half of its comb.

    ``o`` are the kept offsets ``o_k = (k + 1/2) dw`` of an even comb,
    ``b`` their couplings ``c_k^2`` times 2, for the mode and its mirror,
    Lorentzian up to rounding: ``b_k = 2 asq density / (o_k^2 + lam^2)``,
    and ``total`` their sum.
    The nonzero eigenvalues are ``+-lam_j`` with ``mu_j = lam_j^2`` the
    roots of ``1 = sum_k b_k / (mu - o_k^2)``, one in each gap ``(o_j^2,
    o_{j+1}^2)`` and the last within ``total`` above ``o^2`` of the top
    mode.  Returns ``(lam, w)`` with the pair weight ``w_j = 1 / (2 mu_j
    sum_k b_k / (mu_j - o_k^2)^2)`` of each of ``+-lam_j``.  The comb also
    has the eigenvalue 0, which the run never sees, with weight ``w0 = 1 /
    (1 + sum_k b_k / o_k^2)``, and ``w0 + 2 sum w = 1``.

    Each root is found as its offset ``delta`` from the nearer pole ``p``,
    so that a root hugging a pole keeps its digits, with the pole gaps
    formed as ``(o_k - o_p)(o_k + o_p)``.  The iteration matches the sums
    over the poles left and right of the root, in value and slope, by one
    pole each, and takes the root of that two-pole model in the gap (as in
    LAPACK's ``dlaed4``); the pole ``p`` is carried exactly, with its own
    ``b_p``.  Every root is iterated at once on closed-form sums over the
    other poles (:func:`_pole_sums`), so a pass costs ``O(m)`` for ``m``
    kept poles, where summing every pole cost ``m^2``.
    """
    m = o.size
    sums = _pole_sums(o, b, dw, lam, asq, density)
    eps = np.finfo(float).eps
    j = np.arange(m)
    top = j == m - 1
    right = np.minimum(j + 1, m - 1)
    # F = 1 + sum_k b_k / (o_k^2 - mu) at mid-gap rises through the gap, so
    # F(mid) >= 0 puts the root in the left half, nearer the left pole
    b_right = np.where(top, 0.0, b[right])
    half = 0.5 * np.where(top, total, (o[right] - o) * (o[right] + o))
    rest = 1.0 + sum(sums(j, right, half, slopes=False))
    flip = (rest + (b_right - b) / half < 0.0) & ~top
    pole = np.where(flip, right, j)
    origin = o[pole]
    left_pole = (o - origin) * (o + origin)
    right_pole = np.where(top, total, (o[right] - origin) * (o[right] + origin))
    # start from the two-pole model with the other poles frozen at mid-gap
    delta = _model_root(rest, b, b_right, left_pole, right_pole)
    # the origin pole's term is carried exactly: in the model it adds b_p
    # to the slope weight of its side
    b_pole = b[pole]
    on_left = np.where(flip, 0.0, b_pole)
    on_right = np.where(flip, b_pole, 0.0)
    rest_slope = np.empty(m)
    live = j
    for it in range(_ITERATIONS):
        at = delta[live]
        psi, phi, dpsi, dphi = sums(pole[live], pole[live], at)
        rest_slope[live] = dpsi + dphi
        to_left = left_pole[live] - at
        to_right = right_pole[live] - at
        step = _model_root(1.0 + psi - dpsi * to_left + phi - dphi * to_right,
                           dpsi * to_left * to_left + on_left[live],
                           dphi * to_right * to_right + on_right[live],
                           left_pole[live], right_pole[live])
        # settled once the step is within the rounding of F over its slope,
        # both scaled by delta^2 to keep the pole term finite
        sq_at = at * at
        noise = (sq_at * (1.0 + phi - psi) + b_pole[live] * np.abs(at)) / (
            sq_at * (dpsi + dphi) + b_pole[live])
        moving = np.abs(step - at) > 8.0 * eps * (np.abs(step) + noise)
        if it == _ITERATIONS - 1 or not moving.any():
            break
        live = live[moving]
        delta[live] = step[moving]
    mu = origin * origin + delta
    # 1 / (2 mu (b_p / delta^2 + rest)), free of 0/0 when the pole is 0
    weight = 0.5 * (delta / mu) * (delta / (b_pole + delta * delta * rest_slope))
    return np.sqrt(mu), weight


def _pole_sums(o, b, dw, lam, asq, density):
    """The secular function's sums beside a point, for the comb of
    :func:`_folded_spectrum`: a function ``(lp, rp, shift) -> (psi, phi,
    dpsi, dphi)``, elementwise, giving ``sum_k b_k / (o_k^2 - mu)`` over
    ``k < lp`` and over ``k > rp``, then the same of ``b_k / (o_k^2 -
    mu)^2``, at ``mu = o_lp^2 + shift`` between ``o_{lp-1}^2`` and
    ``o_{rp+1}^2``, ``rp`` being ``lp`` or ``lp + 1``; with ``slopes=False``
    it forms ``(psi, phi)`` alone, bit for bit the same.

    Partial fractions split ``b_k / (o_k^2 - mu)`` into ``2 beta / (mu +
    lam^2)``, formed as ``asq (density / (mu + lam^2))`` since ``beta``
    overflows at strong coupling, times ``1 / (o_k^2 - mu) - 1 / (o_k^2 +
    lam^2)``.  The second part is a prefix or suffix sum of the comb; over
    the mirrored comb the first is ``-1/x``, ``x = sqrt(mu)``, times sums of
    ``1 / (x - w)`` over runs of offsets ``w`` spaced by ``dw``
    (:func:`_digamma_steps`): the upper and then the mirrored poles below
    ``lp``, and the upper and the mirrored ones above ``rp``, each measured
    from its pole, so that ``x - o_lp`` comes from ``shift``.  The runs'
    offsets are exactly uniform and the comb's rounded, which moves the
    nearest term most, by up to ``eps o / dw`` of itself, so the poles
    ``lp - 1`` and ``rp + 1`` are summed as they are; so are the poles above
    the lowest few roots, where the runs above cancel.
    """
    m = o.size
    lsq = lam * lam
    v = 2.0 / (o * o + lsq)
    # sum_k 2 / (o_k^2 + lam^2) below and above each pole, the above
    # sums formed from the top down
    below = np.concatenate(([0.0], _running_sum(v[:-1])))
    above = np.concatenate((_running_sum(v[:0:-1])[::-1], [0.0]))
    # the comb padded with a pole at infinity of weight 0 at each end
    pad_o = np.concatenate(([np.inf], o, [np.inf]))
    pad_b = np.concatenate(([0.0], b, [0.0]))

    def sums(lp, rp, shift, slopes=True):
        base = o[lp]
        # the poles lp - 1 and rp + 1
        k = np.stack([lp, rp + 2])
        inv = 1.0 / ((pad_o[k] - base) * (pad_o[k] + base) - shift)
        terms = pad_b[k] * inv
        # x - o_lp over dw, formed without rounding mu
        x = np.sqrt(base * base + shift)
        lt = shift / ((x + base) * dw)
        rt = lt - (rp - lp)
        # rows with rp within _DIRECT of the origin sum the poles above it
        # term by term, below, so they have no runs there
        direct = rp < _DIRECT
        count = np.where(direct, 0, m - 1 - rp)
        left, right = np.minimum(lp, 1), np.minimum(count, 1)
        # the runs, as the distance from x of their first pole over dw and
        # their length, past those two poles
        run, run_slope = _digamma_steps(
            np.stack([1.0 + lt + left, rt + (2 * rp + 2) + right,
                      np.where(count > 0, 2.0 - rt, 1.0)]),
            np.stack([2 * np.maximum(lp - 1, 0), count - right, count - right]), slopes)
        left_run = run[0] / dw
        right_run = (run[1] - run[2]) / dw
        mu = x * x
        scale = asq * (density / (mu + lsq))
        psi = -scale * (left_run / x + below[lp - left])
        phi = -scale * (right_run / x + above[rp + right])
        out = [psi + terms[0], phi + terms[1]]
        if slopes:
            # their slopes are -sum / (mu + lam^2) plus scale times the
            # slopes of the comb's own sums, sum 2 / (o_k^2 - mu)^2, which
            # are the runs' slopes in x over 2 mu
            near = inv * inv * pad_b[k]
            curve = 0.5 / x / x
            dpsi = scale * ((run_slope[0] / dw / dw + left_run / x) * curve) - psi / (mu + lsq)
            dphi = scale * (((run_slope[1] + run_slope[2]) / dw / dw + right_run / x)
                            * curve) - phi / (mu + lsq)
            out += [dpsi + near[0], dphi + near[1]]
        rows = np.flatnonzero(direct)
        if rows.size:
            beyond = np.arange(m) > rp[rows, None]
            gap = (o - base[rows, None]) * (o + base[rows, None]) - shift[rows, None]
            inv = 1.0 / np.where(beyond, gap, np.inf)
            out[1][rows] = inv @ b
            if slopes:
                out[3][rows] = (inv * inv) @ b
        return out

    return sums


def _running_sum(v):
    """``cumsum(v)`` with each addition's rounding error, by Knuth's two-sum,
    added back: the plain one drifts by tens of roundings over 10^4 terms."""
    out = np.cumsum(v)
    low, high = out[:-1], out[1:]
    part = high - low
    out[1:] += np.cumsum((low - (high - part)) + (v[1:] - part))
    return out


def _digamma_steps(a, n, slopes=True):
    """``psi(a + n) - psi(a)`` and ``psi'(a) - psi'(a + n)``, elementwise for
    ``a > 0`` and counts ``n >= 0``, the sums of ``1 / (a + k)`` and its
    square over ``k < n``: below 10 up to ten terms as they are, the rest as
    the difference, term by term and with ``log1p``, of eight Bernoulli
    terms of the asymptotic series (the next is below ``1e-17``).  With
    ``slopes=False`` the second is ``None`` and is not formed."""
    peel = np.where(a < 10.0, np.minimum(n, 10.0), 0.0)
    w = np.maximum(a + peel, 10.0)
    d = n - peel
    v = w + d
    r2 = 1.0 / np.stack([w, v]) ** 2
    kinds = 2 if slopes else 1
    series = np.zeros((kinds,) + r2.shape)
    for c in _SERIES[:, :kinds]:
        series += c.reshape((kinds,) + (1,) * r2.ndim)
        series *= r2
    wv = w * v
    step = np.log1p(d / w) + 0.5 * d / wv - (series[0, 1] - series[0, 0])
    slope = None
    if slopes:
        slope = d / wv + 0.5 * d * (w + v) / (wv * wv) + (series[1, 0] / w - series[1, 1] / v)
    low = peel > 0
    if low.any():
        k = np.arange(10.0)[:, None]
        inv = (k < peel[low]) / (a[low] + k)
        step[low] += inv.sum(axis=0)
        if slopes:
            slope[low] += (inv * inv).sum(axis=0)
    return step, slope


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
    tails hold at most ``_CHUNK`` elements, and every chunk's powers are
    built in one work array, sized for the widest chunk.
    """
    half = np.sin(0.5 * theta)
    step = -2.0 * half * half - 1j * np.sin(theta)
    block, tall = _blocks(n)
    out = np.zeros((tall, block))
    width = max(1, _CHUNK // tall)
    work = np.empty((block + 1 + tall) * min(width, theta.size), dtype=step.dtype)
    for lo in range(0, theta.size, width):
        w = weight[lo:lo + width]
        heads, tails = _blocked_powers(step[lo:lo + width], n, np.multiply, work)
        np.conjugate(heads, out=heads)
        tails *= w
        out += tails.view(float) @ heads.view(float).T
        out += tails.real.sum(axis=1)[:, None] + heads.real @ w
    return out.reshape(-1)[:n + 1]
