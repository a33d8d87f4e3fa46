"""Exact single-excitation dynamics of two resonant qubits in a lossy resonator.

Two two-level emitters couple with strengths ``alpha1`` and ``alpha2`` to a
common zero-temperature bosonic reservoir whose spectral density is a
Lorentzian of half-width ``lam`` and integrated weight ``w**2`` centred at
``omega0``.  With one excitation shared between the pair and the reservoir,
the pair state is ``c1(t)|10> + c2(t)|01>`` plus a reservoir branch, and the
whole evolution is carried by a single scalar function: the survival
amplitude ``E(t)`` of the super-radiant superposition
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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Amplitudes",
    "BellBasis",
    "CouplingSpec",
    "DensityMatrix4",
    "InitialState",
    "RegimeParams",
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

_NORM_TOL = 1e-12
_AMPLITUDE_NORM_SLACK = 1e-10


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ReservoirSpec:
    """Lorentzian reservoir parameters.

    ``w`` sets the integrated coupling weight (the memory kernel starts at
    ``w**2``), ``lam`` is the spectral half-width alias memory decay rate,
    and ``omega0`` is the resonance frequency, kept for bookkeeping only:
    both qubits sit exactly on resonance, so nothing downstream depends on
    its absolute value.
    """

    w: float
    lam: float
    omega0: float = 0.0

    def __post_init__(self):
        for name in ("w", "lam", "omega0"):
            _require_finite(name, getattr(self, name))
        if self.w <= 0.0:
            raise ValueError(f"w must be positive, got {self.w!r}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")

    def spectral_density(self, omega):
        """J(omega), a Lorentzian of half-width ``lam`` centred at ``omega0``."""
        return self.detuned_density(np.asarray(omega, dtype=float) - self.omega0)

    def detuned_density(self, detuning):
        """J at ``omega = omega0 + detuning``; the Lorentzian is written here only.

        Read from the detuning, it loses no digits to a large ``omega0``.
        """
        detuning = np.asarray(detuning, dtype=float)
        out = (self.w**2 / math.pi) * self.lam / (detuning**2 + self.lam**2)
        return out if out.ndim else float(out)

    def memory_kernel(self, tau):
        """Reservoir correlation function ``w**2 * exp(-lam * tau)`` for tau >= 0."""
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0.0):
            raise ValueError("memory kernel is defined for tau >= 0")
        out = self.w**2 * np.exp(-self.lam * tau)
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
        _require_finite("alpha1", self.alpha1)
        _require_finite("alpha2", self.alpha2)
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("couplings must be non-negative")
        if self.alpha1 == 0.0 and self.alpha2 == 0.0:
            raise ValueError("at least one coupling must be nonzero")

    @classmethod
    def from_relative(cls, alpha_t: float, r1: float) -> "CouplingSpec":
        """Build from the total strength and the relative weight of qubit 1."""
        _require_finite("alpha_t", alpha_t)
        _require_finite("r1", r1)
        if alpha_t <= 0.0:
            raise ValueError(f"alpha_t must be positive, got {alpha_t!r}")
        if not 0.0 <= r1 <= 1.0:
            raise ValueError(f"r1 must lie in [0, 1], got {r1!r}")
        return cls(alpha_t * r1, alpha_t * math.sqrt(1.0 - r1 * r1))

    @property
    def alpha_t(self) -> float:
        return math.hypot(self.alpha1, self.alpha2)

    @property
    def r1(self) -> float:
        return _relative_weights(self.alpha1, self.alpha2)[0]

    @property
    def r2(self) -> float:
        return _relative_weights(self.alpha1, self.alpha2)[1]

    def psi_plus(self) -> "InitialState":
        """The super-radiant single-excitation state, fully reservoir-coupled."""
        return InitialState(complex(self.r1), complex(self.r2))

    def psi_minus(self) -> "InitialState":
        """The sub-radiant (decoherence-free) single-excitation state."""
        return InitialState(complex(self.r2), complex(-self.r1))


@dataclass(frozen=True)
class RegimeParams:
    """Derived dynamical parameters of a reservoir/coupling pair."""

    rabi: float
    big_r: float
    omega_sq: float
    markov_rate: float

    @classmethod
    def from_specs(cls, res: ReservoirSpec, coup: CouplingSpec) -> "RegimeParams":
        """Refuses a coupling whose ``4 rabi**2`` overflows a double: there
        ``omega_sq`` is ``-inf`` and ``E(t)`` would come out NaN."""
        rabi = coup.alpha_t * res.w
        try:
            four_rabi_sq = 4.0 * rabi**2
        except OverflowError:
            four_rabi_sq = math.inf
        if four_rabi_sq == math.inf:
            raise ValueError(
                f"coupling too strong: 4*rabi**2 overflows a double at rabi = {rabi!r} "
                f"(big_r = rabi/lam = {rabi / res.lam!r}); E(t) needs rabi below about 6.7e153")
        return cls(
            rabi=rabi,
            big_r=rabi / res.lam,
            omega_sq=res.lam**2 - four_rabi_sq,
            markov_rate=2.0 * rabi**2 / res.lam,
        )


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
            v = complex(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v!r}")
        norm = abs(self.c01) ** 2 + abs(self.c02) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|c01|^2 + |c02|^2 must be 1 within {_NORM_TOL}, got {norm!r}")

    @classmethod
    def from_separability(cls, s: float, phi: float = 0.0) -> "InitialState":
        _require_finite("s", s)
        _require_finite("phi", phi)
        if not -1.0 <= s <= 1.0:
            raise ValueError(f"s must lie in [-1, 1], got {s!r}")
        c01 = math.sqrt((1.0 - s) / 2.0)
        c02 = math.sqrt((1.0 + s) / 2.0) * cmath.exp(1j * phi)
        return cls(complex(c01), c02)

    @property
    def s(self) -> float:
        """Population imbalance; equals the separability parameter of the family."""
        return abs(self.c02) ** 2 - abs(self.c01) ** 2

    @property
    def phi(self) -> float:
        """Relative phase of c02 against c01, folded into [0, 2*pi)."""
        if self.c01 == 0 or self.c02 == 0:
            return 0.0
        return (cmath.phase(self.c02) - cmath.phase(self.c01)) % (2.0 * math.pi)

    @property
    def initial_concurrence(self) -> float:
        return 2.0 * abs(self.c01) * abs(self.c02)


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


@dataclass(frozen=True)
class Amplitudes:
    """Qubit-pair amplitudes at one instant; norm may only shrink below 1."""

    c1: complex
    c2: complex
    t: float

    def __post_init__(self):
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite")
        _require_finite("t", self.t)
        if self.t < 0.0:
            raise ValueError(f"t must be non-negative, got {self.t!r}")
        if self.norm_sq > 1.0 + _AMPLITUDE_NORM_SLACK:
            raise ValueError(f"|c1|^2 + |c2|^2 = {self.norm_sq!r} exceeds 1")

    @property
    def norm_sq(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """Two-qubit density matrix in the product basis |11>, |10>, |01>, |00>.

    Valid instances carry at most one excitation: the |11> row and column
    vanish, as do the coherences between the one-excitation block and |00>.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix must be Hermitian within 1e-12")
        tr = m.trace().real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1 within 1e-10, got {tr!r}")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("matrix must be positive semidefinite within 1e-10")
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        mask[3, 3] = True
        if np.max(np.abs(m[~mask])) > 1e-12:
            raise ValueError("entries outside the one-excitation block and the "
                             "ground population must vanish")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(eq=False)
class TimeSeries:
    """Uniformly sampled pair amplitudes with optional solver metadata."""

    tau: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    meta: dict = field(default_factory=dict)

    def concurrence(self) -> np.ndarray:
        return 2.0 * np.abs(self.c1 * np.conj(self.c2))

    def norm_sq(self) -> np.ndarray:
        return np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2

    def as_table(self) -> np.ndarray:
        """Plain (t, Re c1, Im c1, Re c2, Im c2) table."""
        return np.column_stack([
            self.tau,
            self.c1.real, self.c1.imag,
            self.c2.real, self.c2.imag,
        ])


def resonant_system(big_r: float, r1: float, lam: float = 1.0):
    """Reservoir/coupling pair with linewidth ``lam`` and ratio ``big_r = rabi/lam``.

    Convenience constructor for the dimensionless convention used throughout:
    with the default ``lam = 1`` all times are in units of the memory time.
    """
    res = ReservoirSpec(w=lam, lam=lam)
    coup = CouplingSpec.from_relative(alpha_t=big_r, r1=r1)
    return res, coup


def _checked_times(t):
    """``t`` as a Python float (a ``float`` or ``np.float64`` in) or an array."""
    if isinstance(t, float):
        # math-only check: the array check below costs most of a scalar E(t)
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        if t < 0.0:
            raise ValueError("t must be non-negative")
        return float(t)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    return t


def survival_amplitude(res: ReservoirSpec, coup: CouplingSpec, t):
    """Survival amplitude E(t) of the super-radiant superposition.

    Solves ``E'' + lam*E' + rabi**2*E = 0`` with ``E(0) = 1``, ``E'(0) = 0``:

    * overdamped  (lam**2 > 4*rabi**2):   sum of two decaying exponentials,
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
    lam = res.lam
    reg = RegimeParams.from_specs(res, coup)
    eps = _DEGENERATE_EPS * lam * lam
    if reg.omega_sq >= eps:
        # Two-exponential form: both rates are negative, so no overflow for
        # large t, unlike the cosh/sinh form.
        om = math.sqrt(reg.omega_sq)
        xp = 0.5 * (om - lam)
        xm = -0.5 * (om + lam)
        ap = 0.5 * (1.0 + lam / om)
        am = 0.5 * (1.0 - lam / om)
        e = ap * np.exp(xp * t) + am * np.exp(xm * t)
    elif reg.omega_sq <= -eps:
        w = math.sqrt(-reg.omega_sq)
        half = 0.5 * w * t
        e = np.exp(-0.5 * lam * t) * (np.cos(half) + (lam / w) * np.sin(half))
    else:
        e = np.exp(-0.5 * lam * t) * (1.0 + 0.5 * lam * t)
    return e if e.ndim else float(e)


def amplitudes_at(res: ReservoirSpec, coup: CouplingSpec, init: InitialState, t: float) -> Amplitudes:
    """Pair amplitudes at time ``t``: the sub-radiant share is frozen, the
    super-radiant one carries the survival amplitude."""
    e = survival_amplitude(res, coup, t)
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
    return Amplitudes(c1=c1, c2=c2, t=float(t))


def closed_form_series(res: ReservoirSpec, coup: CouplingSpec, init: InitialState, tau) -> TimeSeries:
    """Vectorised ``amplitudes_at`` over a time grid."""
    tau = _checked_times(np.atleast_1d(tau))
    e = survival_amplitude(res, coup, tau)
    c1, c2 = BellBasis.from_state(coup, init).amplitudes(coup, e)
    return TimeSeries(tau=tau, c1=np.asarray(c1, complex), c2=np.asarray(c2, complex),
                      meta={"solver": "closed"})


def density_matrix(amps: Amplitudes) -> DensityMatrix4:
    """Density matrix of the pair after tracing out the reservoir.

    Populations |c1|^2 and |c2|^2 with their mutual coherence, the leaked
    excitation in |00>, and nothing in |11>.
    """
    p1 = abs(amps.c1) ** 2
    p2 = abs(amps.c2) ** 2
    if p1 + p2 > 1.0 + _AMPLITUDE_NORM_SLACK:
        raise ValueError("amplitude norm exceeds 1; not a physical state")
    coh = amps.c1 * amps.c2.conjugate()
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = p1
    m[1, 2] = coh
    m[2, 1] = coh.conjugate()
    m[2, 2] = p2
    m[3, 3] = 1.0 - p1 - p2
    return DensityMatrix4(m)


def concurrence_closed(amps: Amplitudes) -> float:
    """Concurrence of the pair state, ``2 |c1 * conj(c2)|``."""
    return 2.0 * abs(amps.c1 * amps.c2.conjugate())


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


# States in this family are rank-deficient; eigenvalues of rho below this
# floor are rounding residue and are dropped before the square root, which
# would otherwise amplify 1e-16 noise into 1e-8 errors in the lambdas.
_EIG_CLIP = 1e-12


def concurrence_wootters(rho: DensityMatrix4) -> float:
    """Concurrence from the spin-flipped spectrum; independent of the
    closed-form shortcut, kept as a cross-check of ``concurrence_closed``.

    The lambdas are the decreasing square roots of the eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` and the result is
    ``max(0, l1 - l2 - l3 - l4)``.  They are evaluated as the singular
    values of ``F.T (sy x sy) F`` for any factorization ``rho = F F^dag``,
    which has the same spectrum but keeps near-zero lambdas at machine
    precision instead of sqrt(machine precision).
    """
    w, v = np.linalg.eigh(rho.entries)
    keep = w > _EIG_CLIP
    factor = v[:, keep] * np.sqrt(w[keep])
    cross = factor.T @ _SIGMA_YY @ factor
    sing = np.linalg.svd(cross, compute_uv=False)
    lams = np.zeros(4)
    lams[: sing.size] = np.sort(sing)[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def stationary_concurrence(coup: CouplingSpec, init: InitialState) -> float:
    """Long-time concurrence ``2 r1 r2 |beta_minus|^2``.

    Only the sub-radiant share survives once the survival amplitude has
    decayed, which happens for every regime except the exact lossless limit.
    """
    basis = BellBasis.from_state(coup, init)
    return 2.0 * coup.r1 * coup.r2 * abs(basis.beta_minus) ** 2
