"""Exact single-excitation dynamics of two resonant qubits in a lossy resonator.

Two two-level emitters couple with strengths ``alpha1`` and ``alpha2`` to a
common zero-temperature bosonic reservoir whose spectral density is a
Lorentzian of half-width ``lam`` and integrated weight ``w**2`` centred on
their shared resonance.  With one excitation shared between the pair and
the reservoir, the pair state is ``c1(t)|10> + c2(t)|01>`` plus a reservoir
branch, and the whole evolution is carried by a single scalar function: the
survival amplitude ``E(t)`` of the super-radiant superposition
``r1|10> + r2|01>`` (``rj = alphaj / alpha_t``).  The orthogonal sub-radiant
combination ``r2|10> - r1|01>`` is decoupled from the reservoir and keeps its
share of the excitation indefinitely.

``E(t)`` obeys a damped-oscillator equation with damping ``lam`` and
frequency ``rabi = alpha_t * w``, so the dynamics splits into an overdamped
regime (``lam > 2*rabi``, monotone decay), an underdamped regime
(``lam < 2*rabi``, oscillatory decay with revivals) and the critically damped
boundary.  Everything here is a pure function of the value types below;
times are usually quoted in units of ``1/lam`` (set ``lam = 1``), which
leaves ``big_r = rabi / lam`` as the only free dynamical parameter.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BellBasis",
    "CouplingSpec",
    "InitialState",
    "ReservoirSpec",
    "TimeSeries",
    "amplitudes_at",
    "closed_form_series",
    "concurrence_closed",
    "concurrence_wootters",
    "density_matrix",
    "resonant_system",
    "stationary_concurrence",
    "survival_amplitude",
]

# Relative width of the critically damped window around lam**2 = 4*rabi**2.
_DEGENERATE_EPS = 1e-12
# Top of the near-critical overdamped range, in omega_sq / lam**2, where E is
# formed without the cancelling 1/om weights: below it they cost up to 1e-10
# relative against 50 digits (1.1e-14 in [1e-4, 2e-4), 7.7e-15 above it)
_NEAR_CRITICAL = 2e-4

_NORM_TOL = 1e-12
_AMPLITUDE_NORM_SLACK = 1e-10


def _to_float(name, value, kind=float):
    """``kind(value)``, ``float`` by default, refused by ``name`` for a
    ``bool``, ``str`` or ``None``, which are no numbers, for a value that
    ``kind`` cannot take, such as a complex one for a real, and for an
    integer too large for a double, where ``float``, ``complex``, numpy and
    ``math`` raise ``OverflowError``."""
    if value is None or isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large "
                         "for a double") from None
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _real(name, value) -> float:
    """``value`` as a ``float``, refused by ``name`` unless a real number,
    which no ``bool``, ``str``, ``None`` or complex is; with :func:`_finite`,
    :func:`_positive` and :func:`_integer`, every number check of the package."""
    if type(value) is float:    # the scalar paths pass floats; isinstance costs 0.4 us
        return value
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return _to_float(name, value)


def _finite(name, value, low=-math.inf, high=math.inf) -> float:
    """:func:`_real`, refused unless finite and within ``[low, high]``."""
    v = _real(name, value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not low <= v <= high:
        bound = f"be >= {low:g}" if high == math.inf else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{name} must {bound}, got {value!r}")
    return v


def _positive(name, value) -> float:
    """:func:`_real`, refused unless positive and finite."""
    v = _real(name, value)
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return v


def _integer(name, value, least, most=math.inf) -> int:
    """``value`` as an ``int``, refused by ``name`` unless it is an integer,
    and no ``bool``, within ``[least, most]``."""
    if type(value) is bool or type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        bound = f">= {least}" if most == math.inf else f"between {least} and {most}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ReservoirSpec:
    """Lorentzian reservoir parameters.

    ``w`` sets the integrated coupling weight ``w**2`` of the spectral
    density and ``lam`` is its half-width alias the memory decay rate.
    Both qubits sit exactly on resonance, so frequencies are read as
    detunings from it.  A ``w`` or ``lam`` whose square overflows a double
    (above about 1.34e154) is refused.
    """

    w: float
    lam: float

    def __post_init__(self):
        for name, square in (("w", "the kernel weight w**2"),
                             ("lam", "the squared linewidth lam**2")):
            v = _positive(name, getattr(self, name))
            if not math.isfinite(v * v):
                raise ValueError(f"{name} = {getattr(self, name)!r} is too large: {square} "
                                 "overflows a double")

    def detuned_density(self, detuning):
        """Spectral density J at ``detuning`` from resonance, a Lorentzian
        of half-width ``lam`` and weight ``w**2``; the one place it is written."""
        detuning = _to_float("detuning", detuning, lambda v: np.asarray(v, dtype=float))
        out = (self.w**2 / math.pi) * self.lam / (detuning**2 + self.lam**2)
        return out if out.ndim else float(out)


def _relative_weights(alpha1: float, alpha2: float) -> tuple[float, float]:
    """``(r1, r2) = (alpha1, alpha2) / hypot(alpha1, alpha2)``; the one place
    the relative weights of a coupling pair are computed."""
    alpha_t = math.hypot(alpha1, alpha2)
    return alpha1 / alpha_t, alpha2 / alpha_t


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling strengths of the two qubits to the common reservoir.

    Only non-negative couplings are accepted; relative weights are
    ``r1 = alpha1/alpha_t`` and ``r2 = alpha2/alpha_t`` with
    ``alpha_t = sqrt(alpha1**2 + alpha2**2) > 0``.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        _finite("alpha1", self.alpha1, 0.0)
        _finite("alpha2", self.alpha2, 0.0)
        if self.alpha1 == 0.0 and self.alpha2 == 0.0:
            raise ValueError("at least one coupling must be nonzero")
        # alpha_t, r1 and r2 are set once, as attributes outside the fields:
        # ==, hash, repr and asdict see the couplings alone, and a pickle or
        # copy carries the weights with them
        d = self.__dict__
        d["alpha_t"] = math.hypot(self.alpha1, self.alpha2)
        d["r1"], d["r2"] = _relative_weights(self.alpha1, self.alpha2)

    @classmethod
    def from_relative(cls, alpha_t: float, r1: float) -> "CouplingSpec":
        """Build from the total strength and the relative weight of qubit 1."""
        _positive("alpha_t", alpha_t)
        _finite("r1", r1, 0.0, 1.0)
        return cls(alpha_t * r1, alpha_t * math.sqrt(1.0 - r1 * r1))

    def psi_minus(self) -> "InitialState":
        """The sub-radiant (decoherence-free) single-excitation state."""
        return InitialState(complex(self.r2), complex(-self.r1))


def _rabi_omega_sq(res: ReservoirSpec, coup: CouplingSpec) -> tuple[float, float]:
    """``(rabi, lam**2 - 4 rabi**2)``, the two floats of the regime that
    ``E(t)`` reads; a coupling whose ``4 rabi**2`` overflows is refused."""
    rabi = coup.alpha_t * res.w
    try:
        four_rabi_sq = 4.0 * rabi**2
    except OverflowError:
        four_rabi_sq = math.inf
    if four_rabi_sq == math.inf:
        raise ValueError(
            f"coupling too strong: 4*rabi**2 overflows a double at rabi = {rabi!r} "
            f"(big_r = rabi/lam = {rabi / res.lam!r}); E(t) needs rabi below about 6.7e153")
    return rabi, res.lam**2 - four_rabi_sq


@dataclass(frozen=True)
class InitialState:
    """One shared excitation: ``c01|10> + c02|01>`` with unit norm.

    ``from_separability`` parametrises the usual one-parameter family
    ``c01 = sqrt((1-s)/2)``, ``c02 = sqrt((1+s)/2) * exp(i*phi)`` whose
    initial concurrence is ``sqrt(1 - s**2)``.  Raw amplitude pairs are
    accepted too and must be normalised to 1e-12.
    """

    c01: complex
    c02: complex

    def __post_init__(self):
        for name in ("c01", "c02"):
            v = _to_float(name, getattr(self, name), complex)
            if not cmath.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        norm = abs(self.c01) ** 2 + abs(self.c02) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|c01|^2 + |c02|^2 must be 1 within {_NORM_TOL}, got {norm!r}")

    @classmethod
    def from_separability(cls, s: float, phi: float = 0.0) -> "InitialState":
        _finite("s", s, -1.0, 1.0)
        _finite("phi", phi)
        c01 = math.sqrt((1.0 - s) / 2.0)
        c02 = math.sqrt((1.0 + s) / 2.0) * cmath.exp(1j * phi)
        return cls(complex(c01), c02)


@dataclass(frozen=True)
class BellBasis:
    """Overlaps of a state with the sub- and super-radiant basis.

    ``beta_minus = <psi_minus|psi(0)>`` is the protected share,
    ``beta_plus = <psi_plus|psi(0)>`` the decaying one; together they
    exhaust the excitation: |beta_minus|^2 + |beta_plus|^2 = 1.
    """

    beta_minus: complex
    beta_plus: complex

    @classmethod
    def from_state(cls, coup: CouplingSpec, init: InitialState) -> "BellBasis":
        r1, r2 = coup.r1, coup.r2
        return cls(
            beta_minus=r2 * init.c01 - r1 * init.c02,
            beta_plus=r1 * init.c01 + r2 * init.c02,
        )

    def amplitudes(self, coup: CouplingSpec, e):
        """Pair amplitudes ``(c1, c2)`` with the super-radiant share scaled by ``e``.

        The inverse basis change ``c1 = r2 beta_minus + r1 e beta_plus``,
        ``c2 = -r1 beta_minus + r2 e beta_plus``; ``e`` is a scalar or an
        array of survival factors.
        """
        r1, r2 = coup.r1, coup.r2
        bm, bp = self.beta_minus, self.beta_plus
        return r2 * bm + r1 * e * bp, -r1 * bm + r2 * e * bp


@dataclass(eq=False)
class TimeSeries:
    """Pair amplitudes ``c1``, ``c2`` at the times ``tau``: arrays over a
    uniform grid, or scalars at one time (:func:`amplitudes_at`); ``meta``
    holds a stroboscopic run's oscillatory flag (:mod:`zeno_ent.zeno`), else
    nothing."""

    tau: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    meta: dict = field(default_factory=dict)

    def concurrence(self) -> np.ndarray:
        """``2 |c1 conj(c2)|``, its parts formed in real arithmetic, so it
        rounds alike at any series length, as numpy's complex product does not."""
        re = self.c1.real * self.c2.real + self.c1.imag * self.c2.imag
        im = self.c1.imag * self.c2.real - self.c1.real * self.c2.imag
        return 2.0 * np.abs(re + 1j * im)


_UNIT_RESERVOIR = ReservoirSpec(w=1.0, lam=1.0)


def resonant_system(big_r: float, r1: float):
    """Reservoir/coupling pair with unit linewidth and ratio ``big_r = rabi/lam``.

    Convenience constructor for the dimensionless convention used throughout:
    with ``lam = 1`` all times are in units of the memory time.
    """
    return _UNIT_RESERVOIR, CouplingSpec.from_relative(alpha_t=big_r, r1=r1)


def _checked_times(t, name="t"):
    """``t`` as a Python float (a ``float`` or ``np.float64`` in) or an array;
    ``name`` is the argument that refusals name."""
    if isinstance(t, float):
        # math-only check: the array check below costs most of a scalar E(t)
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite")
        if t < 0.0:
            raise ValueError(f"{name} must be non-negative")
        return float(t)
    t = _to_float(name, t, lambda v: np.asarray(v, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} must be finite")
    if np.any(t < 0.0):
        raise ValueError(f"{name} must be non-negative")
    return t


def survival_amplitude(res: ReservoirSpec, coup: CouplingSpec, t):
    """Survival amplitude E(t) of the super-radiant superposition.

    Solves ``E'' + lam*E' + rabi**2*E = 0`` with ``E(0) = 1``, ``E'(0) = 0``:

    * overdamped  (lam**2 > 4*rabi**2):   sum of two decaying exponentials,
      whose slow rate is formed without cancellation at weak coupling
      (``4 rabi**2 < 9e-3 lam**2``), so E keeps a few ulps down to
      ``rabi = 1e-6 lam``; near critical damping (``omega_sq = lam**2 - 4
      rabi**2`` below ``2e-4 lam**2``) the two weights ``(1 +- lam/om)/2``
      grow as ``1/om`` and cancel, so there it is ``exp(xp t) (1/2 (1 +
      exp(-om t)) - lam/(2 om) expm1(-om t))``, within a few ulps,
    * underdamped (lam**2 < 4*rabi**2):   ``exp(-lam*t/2) * (cos(w*t/2) + (lam/w) sin(w*t/2))``
      with ``w = sqrt(4*rabi**2 - lam**2)``,
    * critically damped boundary:         ``exp(-lam*t/2) * (1 + lam*t/2)``.

    The boundary branch is taken inside a window ``|lam**2 - 4 rabi**2| <
    1e-12 * lam**2`` where the generic formulas lose precision.  Accepts a
    scalar or an array of times; ``t`` is in the same units as ``1/lam``.
    A ``float`` time is checked with ``math`` alone and gives a ``float``;
    both kinds go through the same numpy ufuncs, so a scalar equals the
    matching array entry bit for bit.
    """
    t = _checked_times(t)
    if isinstance(t, float):
        return float(_survival(res, coup, t, factor=False)[0])
    # a decay exponent past the largest double is -inf and its exp the right
    # 0, which a float time's product gives silently
    with np.errstate(over="ignore"):
        e = _survival(res, coup, t, factor=False)[0]
    return e if e.ndim else float(e)


def _survival(res: ReservoirSpec, coup: CouplingSpec, t, factor: bool = True):
    """``(E, k, f)`` at checked times ``t``, in the regimes of
    :func:`survival_amplitude`: ``E(t) = exp(k t) * f`` with ``k`` the
    slowest decay rate and ``f`` a factor that grows at most linearly, so
    ``log|E| / t = k + log|f| / t`` holds where ``E`` underflows and where
    ``k t`` overflows.  The overdamped ``E`` is its two-exponential sum;
    the other regimes form it from ``(k, f)``.  Only the underdamped factor
    ``cos(w t/2) + (lam/w) sin(w t/2)`` has zeros, which are those of
    ``E``.  Without ``factor``, the overdamped ``f`` is ``None``: ``E``
    does not read it."""
    lam = res.lam
    rabi, omega_sq = _rabi_omega_sq(res, coup)
    if omega_sq >= _NEAR_CRITICAL * lam * lam:
        # E = ap exp(xp t) + am exp(xm t): both rates are negative, so no
        # overflow for large t, unlike the cosh/sinh form.  At weak coupling,
        # 4 rabi**2 < 9e-3 lam**2, the slow rate (om - lam)/2 and its weight
        # (1 - lam/om)/2 cancel, so they are formed as -2 rabi**2 / (lam +
        # om) and xp / om; above that bound the cancellation costs under
        # 1e-13 relative, and the plain form keeps the bits of every R from
        # 0.05 up
        om = math.sqrt(omega_sq)
        if 4.0 * rabi * rabi < 9e-3 * lam * lam:
            xp = -2.0 * rabi * rabi / (lam + om)
            am = xp / om
        else:
            xp = 0.5 * (om - lam)
            am = 0.5 * (1.0 - lam / om)
        xm, ap = -0.5 * (om + lam), 0.5 * (1.0 + lam / om)
        e = ap * np.exp(xp * t) + am * np.exp(xm * t)
        return e, xp, ap + am * np.exp((xm - xp) * t) if factor else None
    eps = _DEGENERATE_EPS * lam * lam
    if omega_sq >= eps:
        # the weights (1 +- lam/om)/2 of the two exponentials grow as 1/om
        # and cancel; gathered over expm1 they do not
        om = math.sqrt(omega_sq)
        k = 0.5 * (om - lam)
        f = 0.5 * (1.0 + np.exp(-om * t)) - lam / (2.0 * om) * np.expm1(-om * t)
    elif omega_sq <= -eps:
        w = math.sqrt(-omega_sq)
        half = 0.5 * w * _capped_time(t, 0.5 * w)
        k, f = -0.5 * lam, np.cos(half) + (lam / w) * np.sin(half)
    else:
        k, f = -0.5 * lam, 1.0 + 0.5 * lam * _capped_time(t, 0.5 * lam)
    return np.exp(k * t) * f, k, f


def _capped_time(t, rate: float):
    """``t`` capped at the largest double whose product with ``rate > 0``
    is finite.  A product that was finite keeps its bits.  One that would
    overflow lies far past the time where the decay envelope of ``E``
    underflows, and stays finite, so the factor it feeds is no NaN and
    ``E`` is 0 there."""
    if isinstance(t, float) and rate * t < math.inf:
        return t
    # the double above the cap has an infinite product: the loop stepped
    # down from it, or the cap is max / rate rounded, where the product is
    # over max + rate ulp(cap) / 2 > max + 2**970 - 2**917 and a multiple of
    # 2**918 or more, like max, so at least max + 2**970, which rounds to inf
    cap = sys.float_info.max / rate
    while rate * cap == math.inf:
        cap = math.nextafter(cap, 0.0)
    return np.minimum(t, cap)


def amplitudes_at(res: ReservoirSpec, coup: CouplingSpec, init: InitialState, t: float) -> TimeSeries:
    """Pair amplitudes at time ``t``, a :class:`TimeSeries` with a scalar
    ``tau``, ``c1`` and ``c2``: the sub-radiant share is frozen, the
    super-radiant one carries the survival amplitude."""
    e = survival_amplitude(res, coup, t)
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
    return TimeSeries(tau=float(t), c1=c1, c2=c2)


def closed_form_series(res: ReservoirSpec, coup: CouplingSpec, init: InitialState, tau) -> TimeSeries:
    """Vectorised ``amplitudes_at`` over a time grid."""
    tau = np.atleast_1d(_checked_times(tau, "tau"))
    e = survival_amplitude(res, coup, tau)
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
    return TimeSeries(tau=tau, c1=np.asarray(c1, complex), c2=np.asarray(c2, complex))


def _to_amplitudes(name, value) -> np.ndarray:
    """``value`` as a complex array of finite amplitudes, refused by
    ``name`` as :class:`InitialState` refuses one."""
    v = _to_float(name, value, lambda x: np.asarray(x, dtype=complex))
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {complex(v[~finite][0])!r}")
    return v


def density_matrix(amps) -> np.ndarray:
    """Density matrix of the pair after tracing out the reservoir, complex
    of shape ``(..., 4, 4)`` over the shape of ``amps.c1`` and ``amps.c2``,
    in the product basis |11>, |10>, |01>, |00>.

    With ``v = (0, c1, c2, 0)`` it is ``v v^dag`` plus the leaked
    excitation ``1 - |c1|^2 - |c2|^2`` in |00>.  An amplitude that is a
    ``bool``, an integer too large for a double or not finite is refused
    by name, and so is a norm above 1 + 1e-10.
    """
    c1 = _to_amplitudes("c1", amps.c1)
    c2 = _to_amplitudes("c2", amps.c2)
    norm_sq = np.abs(c1) ** 2 + np.abs(c2) ** 2
    if (norm_sq > 1.0 + _AMPLITUDE_NORM_SLACK).any():
        raise ValueError(f"|c1|^2 + |c2|^2 = {float(norm_sq.max())!r} exceeds 1")
    v = np.zeros(norm_sq.shape + (4,), complex)
    v[..., 1] = c1
    v[..., 2] = c2
    m = v[..., :, None] * v[..., None, :].conj()
    m[..., 3, 3] = 1.0 - norm_sq
    return m


def concurrence_closed(amps: TimeSeries) -> float:
    """Concurrence of the pair state, ``2 |c1 * conj(c2)|``."""
    return 2.0 * abs(amps.c1 * amps.c2.conjugate())


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
# the entries that vanish with at most one excitation: the |11> row and
# column, and the coherences between the one-excitation block and |00>
_OUTSIDE_SECTOR = np.ones((4, 4), dtype=bool)
_OUTSIDE_SECTOR[1:3, 1:3] = _OUTSIDE_SECTOR[3, 3] = False


# States in this family are rank-deficient; eigenvalues of rho below this
# floor are rounding residue and are set to 0 before the square root, which
# would otherwise amplify 1e-16 noise into 1e-8 errors in the lambdas.
_EIG_CLIP = 1e-12


def concurrence_wootters(rho):
    """Concurrence from the spin-flipped spectrum (Wootters, PRL 80, 2245
    (1998)), a cross-check of ``concurrence_closed``: a float for one 4x4
    matrix of :func:`density_matrix`, an array for a ``(..., 4, 4)`` stack.
    Each matrix must be finite, Hermitian within 1e-12, of trace 1 within
    1e-10, positive semidefinite within 1e-10 and 0 within 1e-12 outside
    the one-excitation block and the ground population.

    The lambdas are the decreasing square roots of the eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` and the result is
    ``max(0, l1 - l2 - l3 - l4)``.  They are evaluated as the singular
    values of ``F.T (sy x sy) F`` for any factorization ``rho = F F^dag``,
    which has the same spectrum but keeps near-zero lambdas at machine
    precision instead of sqrt(machine precision); ``F`` comes from the
    eigendecomposition that the positivity check reads.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if (np.abs(m - np.swapaxes(m, -1, -2).conj()) > 1e-12).any():
        raise ValueError("matrix must be Hermitian within 1e-12")
    tr = m.diagonal(0, -2, -1).sum(-1).real
    off = np.abs(tr - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"trace must be 1 within 1e-10, got {tr[off][0]!r}")
    w, v = np.linalg.eigh(m)
    if (w < -1e-10).any():
        raise ValueError("matrix must be positive semidefinite within 1e-10")
    if (np.abs(m[..., _OUTSIDE_SECTOR]) > 1e-12).any():
        raise ValueError("entries outside the one-excitation block and the "
                         "ground population must vanish")
    factor = v * np.sqrt(w * (w > _EIG_CLIP))[..., None, :]
    lams = np.linalg.svd(np.swapaxes(factor, -1, -2) @ _SIGMA_YY @ factor, compute_uv=False)
    c = np.maximum(0.0, 2.0 * lams[..., 0] - lams.sum(-1))    # l1 - l2 - l3 - l4
    return c if c.ndim else float(c)


def stationary_concurrence(coup: CouplingSpec, init: InitialState) -> float:
    """Long-time concurrence ``2 r1 r2 |beta_minus|^2``.

    Only the sub-radiant share survives once the survival amplitude has
    decayed, which happens for every regime except the exact lossless limit.
    """
    basis = BellBasis.from_state(coup, init)
    return 2.0 * coup.r1 * coup.r2 * abs(basis.beta_minus) ** 2
