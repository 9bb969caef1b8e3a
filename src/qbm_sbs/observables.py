"""Decoherence factor, macro-fraction overlap and the regime classifier.

Both observables are products over bath modes of exponentials whose exponents
share the same displacement amplitude; they differ only in a thermal weight,
coth for the decoherence factor and tanh for the overlap.  The sums of log
factors are the ground truth; the exponentiated values underflow to zero for
large baths at strong coupling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .constants import HBAR, KB
from .errors import ConfigurationError, DomainError
from .model import EnvInitialState, Oscillator, SqueezeAxis, SystemParams

DEFAULT_EPS = 0.05
DEFAULT_EPS_HI = 0.3


class RegimeFlag(Enum):
    SBS = "SBS"
    CLASSICAL_QUANTUM = "ClassicalQuantum"
    COHERENT = "Coherent"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class LogExponents:
    """ln|Gamma| and ln B, optionally resolved per oscillator."""

    gamma_log: np.ndarray | float
    b_log: np.ndarray | float
    per_oscillator: list[tuple[int, float, float]] | None = None


def _fraction_arrays(fraction: Sequence[Oscillator]):
    omega = np.array([o.omega for o in fraction], dtype=float)
    pref = np.array(
        [o.coupling / (2.0 * np.sqrt(2.0 * o.mass * o.omega)) for o in fraction], dtype=float
    )
    return omega, pref


def _thermal_weight(omega: np.ndarray, temperature: float, kind: str) -> np.ndarray:
    """coth or tanh of (hbar omega / 2 kB T); both are exactly 1 in the T=0 limit."""
    if temperature == 0.0:
        return np.ones_like(omega)
    x = HBAR * omega / (2.0 * KB * temperature)
    return 1.0 / np.tanh(x) if kind == "coth" else np.tanh(x)


def _exponent_sum(
    fraction: Sequence[Oscillator],
    sys: SystemParams,
    env_state: EnvInitialState,
    t,
    kind: str,
) -> np.ndarray:
    """Positive exponent sum_k (dX^2 / 2 hbar) |alpha~_k(t)|^2 weight_k."""
    if len(fraction) == 0:
        raise DomainError("oscillator fraction must be non-empty")
    if env_state.temperature < 0:
        raise DomainError(f"temperature must be >= 0, got {env_state.temperature}")
    omega, pref = _fraction_arrays(fraction)
    weight = _thermal_weight(omega, env_state.temperature, kind)
    axis = kernels.AXIS_MOMENTUM if sys.squeezing_axis is SqueezeAxis.MOMENTUM else kernels.AXIS_POSITION
    times = np.atleast_1d(np.asarray(t, dtype=float))
    sums = kernels.exponent_series(
        times,
        omega,
        pref,
        weight,
        sys.omega_big,
        axis,
        env_state.squeeze_r,
        env_state.squeeze_theta,
        env_state.rot_psi,
    )
    # A numpy square overflows to inf where a Python float one raises; an
    # overflowed gain or phase then gives inf * 0 = NaN, at t = 0 first.
    ex = np.float64(sys.x_sep) ** 2 / (2.0 * HBAR) * sums
    if np.isnan(ex).any():
        raise DomainError(
            "exponent sum is NaN: a per-mode gain (x_sep, masses, coupling, "
            "temperature, squeeze_r) or a phase (t) overflowed"
        )
    return ex


def decoherence_factor(
    fraction: Sequence[Oscillator],
    sys: SystemParams,
    env_state: EnvInitialState,
    t,
):
    """|Gamma(t)| due to the traced bath fraction; scalar t gives a scalar."""
    ex = _exponent_sum(fraction, sys, env_state, t, "coth")
    out = np.exp(-ex)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def overlap_macrofraction(
    mac: Sequence[Oscillator],
    sys: SystemParams,
    env_state: EnvInitialState,
    t,
):
    """Generalized overlap B(t) of the macro-fraction records of the two branches."""
    ex = _exponent_sum(mac, sys, env_state, t, "tanh")
    out = np.exp(-ex)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def log_exponents(
    traced: Sequence[Oscillator],
    observed: Sequence[Oscillator],
    sys: SystemParams,
    env_state: EnvInitialState,
    t,
    per_oscillator: bool = False,
) -> LogExponents:
    """Numerically stable sum-of-logs form of both observables.

    With ``per_oscillator=True`` (scalar t only) the individual log factors of
    the traced (gamma) and observed (b) fractions are returned, paired by
    position for equal-length fractions.
    """
    g = -_exponent_sum(traced, sys, env_state, t, "coth")
    b = -_exponent_sum(observed, sys, env_state, t, "tanh")
    per = None
    if per_oscillator:
        if np.ndim(t) != 0:
            raise DomainError("per_oscillator breakdown needs a scalar time")
        per = []
        for k, osc in enumerate(traced):
            per.append((k, float(-_exponent_sum([osc], sys, env_state, t, "coth")[0]), np.nan))
        for k, osc in enumerate(observed):
            lb = float(-_exponent_sum([osc], sys, env_state, t, "tanh")[0])
            if k < len(per):
                per[k] = (k, per[k][1], lb)
            else:
                per.append((k, np.nan, lb))
    scalar = np.isscalar(t) or np.ndim(t) == 0
    return LogExponents(
        gamma_log=float(g[0]) if scalar else g,
        b_log=float(b[0]) if scalar else b,
        per_oscillator=per,
    )


def classify_regime(
    gamma_avg: float,
    b_avg: float,
    eps: float = DEFAULT_EPS,
    eps_hi: float = DEFAULT_EPS_HI,
) -> RegimeFlag:
    """Classify time-averaged observables into broadcast / classical-quantum / coherent."""
    if not 0.0 < eps < eps_hi < 1.0:
        raise ConfigurationError(f"need 0 < eps < eps_hi < 1, got eps={eps}, eps_hi={eps_hi}")
    if not (0.0 <= gamma_avg <= 1.0 and 0.0 <= b_avg <= 1.0):
        raise DomainError(f"averages must lie in [0, 1], got ({gamma_avg}, {b_avg})")
    if gamma_avg < eps and b_avg < eps:
        return RegimeFlag.SBS
    if gamma_avg < eps and b_avg >= eps_hi:
        return RegimeFlag.CLASSICAL_QUANTUM
    if gamma_avg >= eps_hi:
        return RegimeFlag.COHERENT
    return RegimeFlag.INDETERMINATE
