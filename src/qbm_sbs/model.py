"""Domain types and disorder sampling.

The central system is a harmonic oscillator of mass ``mass_M`` and angular
frequency ``omega_big``, linearly coupled to a bath of oscillators whose
frequencies are drawn i.i.d. uniformly from a band that must be off-resonant
with the central frequency.  The sampled bath is stored as arrays and sliced
into one unobserved (traced) fraction and one or more observed macro-fractions
of equal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError

DEFAULT_RESONANCE_RATIO = 5.0


def _require_finite(error: type[Exception], **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


class SqueezeAxis(Enum):
    """Initial squeezing axis of the central oscillator.

    Momentum squeezing drives the bath along a cosine trajectory of the
    central position, position squeezing along a sine trajectory.
    """

    MOMENTUM = "momentum"
    POSITION = "position"


@dataclass(frozen=True)
class SystemParams:
    """Central oscillator parameters and the branch separation |X - X'|."""

    mass_M: float  # kg
    omega_big: float  # rad/s
    x_sep: float  # m
    squeezing_axis: SqueezeAxis = SqueezeAxis.MOMENTUM

    def __post_init__(self):
        _require_finite(DomainError, mass_M=self.mass_M, omega_big=self.omega_big, x_sep=self.x_sep)
        if self.mass_M <= 0:
            raise DomainError(f"mass_M must be > 0, got {self.mass_M}")
        if self.omega_big <= 0:
            raise DomainError(f"omega_big must be > 0, got {self.omega_big}")
        if self.x_sep < 0:
            raise DomainError(f"x_sep must be >= 0, got {self.x_sep}")


@dataclass(frozen=True)
class Oscillator:
    """One environmental mode."""

    omega: float  # rad/s
    mass: float  # kg
    coupling: float  # SI, fixed by the bilinear position-position interaction

    def __post_init__(self):
        if self.omega <= 0:
            raise DomainError(f"omega must be > 0, got {self.omega}")
        if self.mass <= 0:
            raise DomainError(f"mass must be > 0, got {self.mass}")
        if not math.isfinite(self.coupling):
            raise DomainError(f"coupling must be finite, got {self.coupling}")


@dataclass(frozen=True, eq=False)
class Modes:
    """Bath modes as arrays: frequencies and prefactors C_k / (2 sqrt(2 m_k omega_k))."""

    omega: np.ndarray  # rad/s
    pref: np.ndarray

    def __len__(self) -> int:
        return len(self.omega)

    def __getitem__(self, index: slice) -> Modes:
        if not isinstance(index, slice):
            raise TypeError(f"Modes takes slices only, got {type(index).__name__}")
        return Modes(self.omega[index], self.pref[index])


@dataclass(frozen=True)
class EnvironmentSpec:
    """Disorder distribution and partition layout of the bath."""

    macrofraction_size: int
    omega_low: float  # rad/s
    omega_high: float  # rad/s
    gamma0: float  # s^-4, coupling scale
    m_env: float  # kg, common bath mass
    n_macrofractions: int
    traced_size: int

    def __post_init__(self):
        _require_finite(
            ConfigurationError,
            omega_low=self.omega_low,
            omega_high=self.omega_high,
            gamma0=self.gamma0,
            m_env=self.m_env,
        )
        if not 0 < self.omega_low <= self.omega_high:
            raise ConfigurationError(
                f"need 0 < omega_low <= omega_high, got [{self.omega_low}, {self.omega_high}]"
            )
        if self.gamma0 <= 0:
            raise ConfigurationError(f"gamma0 must be > 0, got {self.gamma0}")
        if self.m_env <= 0:
            raise ConfigurationError(f"m_env must be > 0, got {self.m_env}")
        if min(self.traced_size, self.macrofraction_size, self.n_macrofractions) < 1:
            raise ConfigurationError("traced_size, macrofraction_size and n_macrofractions must be >= 1")

    @property
    def n_total(self) -> int:
        return self.traced_size + self.macrofraction_size * self.n_macrofractions


@dataclass(frozen=True, eq=False)
class EnvironmentRealization:
    """One sampled bath: the traced fraction and the equal observed blocks."""

    traced: Modes
    macrofractions: tuple[Modes, ...]


@dataclass(frozen=True)
class EnvInitialState:
    """Thermal temperature plus optional single-mode Gaussian parameters.

    A displacement of the initial bath state is not a parameter: it only
    contributes phases that the modulus removes.
    """

    temperature: float  # K
    squeeze_r: float = 0.0
    squeeze_theta: float = 0.0
    rot_psi: float = 0.0

    def __post_init__(self):
        _require_finite(
            DomainError,
            temperature=self.temperature,
            squeeze_r=self.squeeze_r,
            squeeze_theta=self.squeeze_theta,
            rot_psi=self.rot_psi,
        )
        if self.temperature < 0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        if self.squeeze_r < 0:
            raise DomainError(f"squeeze_r must be >= 0, got {self.squeeze_r}")
        # The kernel scales every mode by cosh(r)^2; an infinite gain times the
        # zero amplitude at t = 0 would give NaN instead of an error.
        with np.errstate(over="ignore"):
            gain = np.cosh(self.squeeze_r) ** 2
        if not np.isfinite(gain):
            raise DomainError(f"cosh(squeeze_r)**2 is not finite for squeeze_r={self.squeeze_r}")


def coupling_constant(mass_M: float, m_k: float, gamma0: float) -> float:
    """Bilinear coupling strength, depending on the two masses and a scale.

    Note the square of the result is proportional to ``m_k``, which cancels
    the 1/m_k of the displacement amplitude; the bath mass is cosmetic.
    """
    if mass_M <= 0 or m_k <= 0 or gamma0 <= 0:
        raise DomainError(
            f"coupling_constant needs positive inputs, got M={mass_M}, m_k={m_k}, gamma0={gamma0}"
        )
    c = 2.0 * math.sqrt(mass_M * m_k * gamma0 / math.pi)
    if not math.isfinite(c):
        raise DomainError(f"coupling constant overflows for M={mass_M}, m_k={m_k}, gamma0={gamma0}")
    return c


def is_off_resonant(omega: float, omega_big: float, ratio: float = DEFAULT_RESONANCE_RATIO) -> bool:
    """True if omega is outside the resonant band [omega_big/ratio, omega_big*ratio]."""
    if ratio <= 1:
        raise ConfigurationError(f"resonance ratio must be > 1, got {ratio}")
    return omega < omega_big / ratio or omega > omega_big * ratio


def sample_environment(spec: EnvironmentSpec, sys: SystemParams, seed: int) -> EnvironmentRealization:
    """Draw one disorder realization; deterministic function of ``seed``.

    The first ``traced_size`` draws are the traced fraction and the rest is
    cut into contiguous macro-fractions.  The draws are i.i.d., so the
    contiguous split is statistically equivalent to any other.
    """
    lo, hi = spec.omega_low, spec.omega_high
    band_lo = sys.omega_big / DEFAULT_RESONANCE_RATIO
    band_hi = sys.omega_big * DEFAULT_RESONANCE_RATIO
    if lo < band_hi and hi > band_lo:
        raise ConfigurationError(
            f"frequency range [{lo:g}, {hi:g}] overlaps the resonant band "
            f"[{band_lo:g}, {band_hi:g}] around the central frequency {sys.omega_big:g} "
            f"(off-resonance ratio {DEFAULT_RESONANCE_RATIO:g})"
        )
    omega = np.random.default_rng(seed).uniform(lo, hi, spec.n_total)
    c = coupling_constant(sys.mass_M, spec.m_env, spec.gamma0)
    # 2 m_env omega can overflow to inf (pref 0) or underflow to 0 (pref inf or NaN).
    with np.errstate(all="ignore"):
        pref = c / (2.0 * np.sqrt(2.0 * spec.m_env * omega))
    if not np.all((pref > 0) & (pref < math.inf)):
        raise DomainError(
            f"bath prefactor C / (2 sqrt(2 m_env omega)) is not finite and > 0 for "
            f"m_env={spec.m_env}, omega in [{lo:g}, {hi:g}], coupling {c}"
        )
    bath = Modes(omega, pref)
    start, size = spec.traced_size, spec.macrofraction_size
    return EnvironmentRealization(
        traced=bath[:start],
        macrofractions=tuple(
            bath[start + i * size : start + (i + 1) * size] for i in range(spec.n_macrofractions)
        ),
    )
