"""Domain types, disorder sampling and macro-fraction partitioning.

The central system is a harmonic oscillator of mass ``mass_M`` and angular
frequency ``omega_big``, linearly coupled to a bath of oscillators whose
frequencies are drawn i.i.d. uniformly from a band that must be off-resonant
with the central frequency.  The bath is split into one unobserved (traced)
fraction and one or more observed macro-fractions of equal size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError

DEFAULT_RESONANCE_RATIO = 5.0


def _require_finite(error: type[Exception], **values: complex) -> None:
    for name, value in values.items():
        if not cmath.isfinite(value):
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


@dataclass(frozen=True)
class EnvironmentSpec:
    """Disorder distribution and partition layout of the bath."""

    n_total: int
    omega_low: float  # rad/s
    omega_high: float  # rad/s
    gamma0: float  # s^-4, coupling scale
    m_env: float  # kg, common bath mass
    n_macrofractions: int
    traced_size: int
    seed: int

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
        if self.n_macrofractions < 1 or self.traced_size < 1:
            raise ConfigurationError("traced_size and n_macrofractions must be >= 1")
        observed = self.n_total - self.traced_size
        if observed < self.n_macrofractions:
            raise ConfigurationError(
                f"n_total={self.n_total} leaves {observed} observed oscillators for "
                f"{self.n_macrofractions} macro-fractions"
            )
        if observed % self.n_macrofractions != 0:
            raise ConfigurationError(
                f"{observed} observed oscillators are not divisible into "
                f"{self.n_macrofractions} equal macro-fractions"
            )

    @property
    def macrofraction_size(self) -> int:
        return (self.n_total - self.traced_size) // self.n_macrofractions


@dataclass(frozen=True)
class EnvironmentRealization:
    """One sampled bath, partitioned into traced and observed fractions."""

    traced: tuple[Oscillator, ...]
    macrofractions: tuple[tuple[Oscillator, ...], ...]

    def __post_init__(self):
        sizes = {len(m) for m in self.macrofractions}
        if len(sizes) > 1:
            raise ConfigurationError(f"macro-fractions must be equal-sized, got sizes {sorted(sizes)}")


@dataclass(frozen=True)
class EnvInitialState:
    """Thermal temperature plus optional single-mode Gaussian parameters.

    ``displacement_gamma`` is recorded for completeness but does not enter the
    decoherence factor or the macro-fraction overlap: a displacement of the
    initial bath state only contributes phases that the modulus removes.
    """

    temperature: float  # K
    squeeze_r: float = 0.0
    squeeze_theta: float = 0.0
    rot_psi: float = 0.0
    displacement_gamma: complex = 0j

    def __post_init__(self):
        _require_finite(
            DomainError,
            temperature=self.temperature,
            squeeze_r=self.squeeze_r,
            squeeze_theta=self.squeeze_theta,
            rot_psi=self.rot_psi,
            displacement_gamma=self.displacement_gamma,
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
    return 2.0 * math.sqrt(mass_M * m_k * gamma0 / math.pi)


def is_off_resonant(omega: float, omega_big: float, ratio: float = DEFAULT_RESONANCE_RATIO) -> bool:
    """True if omega is outside the resonant band [omega_big/ratio, omega_big*ratio]."""
    if ratio <= 1:
        raise ConfigurationError(f"resonance ratio must be > 1, got {ratio}")
    return omega < omega_big / ratio or omega > omega_big * ratio


def partition_macrofractions(
    oscillators: list[Oscillator] | tuple[Oscillator, ...],
    n_macrofractions: int,
    traced_size: int,
) -> EnvironmentRealization:
    """Split an oscillator list into the traced fraction and equal observed blocks.

    The first ``traced_size`` entries become the traced fraction; the rest is
    cut into contiguous equal blocks.  Sampling already randomizes the order,
    so the contiguous split is statistically equivalent to any other.
    """
    observed = len(oscillators) - traced_size
    if traced_size < 1 or observed < n_macrofractions:
        raise ConfigurationError(
            f"{len(oscillators)} oscillators cannot hold traced_size={traced_size} plus "
            f"{n_macrofractions} macro-fractions"
        )
    if observed % n_macrofractions != 0:
        raise ConfigurationError(
            f"{observed} observed oscillators are not divisible by {n_macrofractions}"
        )
    size = observed // n_macrofractions
    traced = tuple(oscillators[:traced_size])
    macs = tuple(
        tuple(oscillators[traced_size + i * size : traced_size + (i + 1) * size])
        for i in range(n_macrofractions)
    )
    return EnvironmentRealization(traced=traced, macrofractions=macs)


def sample_environment(
    spec: EnvironmentSpec,
    sys: SystemParams,
    resonance_ratio: float = DEFAULT_RESONANCE_RATIO,
) -> EnvironmentRealization:
    """Draw one disorder realization; deterministic function of ``spec.seed``."""
    lo, hi = spec.omega_low, spec.omega_high
    band_lo = sys.omega_big / resonance_ratio
    band_hi = sys.omega_big * resonance_ratio
    if lo < band_hi and hi > band_lo:
        raise ConfigurationError(
            f"frequency range [{lo:g}, {hi:g}] overlaps the resonant band "
            f"[{band_lo:g}, {band_hi:g}] around the central frequency {sys.omega_big:g} "
            f"(off-resonance ratio {resonance_ratio:g})"
        )
    rng = np.random.default_rng(spec.seed)
    omegas = rng.uniform(lo, hi, spec.n_total)
    c = coupling_constant(sys.mass_M, spec.m_env, spec.gamma0)
    oscillators = [Oscillator(omega=float(w), mass=spec.m_env, coupling=c) for w in omegas]
    return partition_macrofractions(oscillators, spec.n_macrofractions, spec.traced_size)
