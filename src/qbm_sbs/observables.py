"""Decoherence factor, macro-fraction overlap and the regime classifier.

Both observables are products over bath modes of exponentials whose exponents
share the same displacement amplitude; they differ only in a thermal weight,
coth for the decoherence factor and tanh for the overlap.  The sums of log
factors are the ground truth, and ``_exponent_sum`` always adds every mode.
The exponentiated values underflow to zero for large baths at strong
coupling, so the factors stop adding modes at a time once its exponent
reaches ``UNDERFLOW``: exp(-x) is then exactly 0, as it is for the full sum.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import kernels
from .constants import HBAR, KB
from .errors import ConfigurationError, DomainError
from .model import EnvInitialState, Modes, SqueezeAxis, SystemParams

DEFAULT_EPS = 0.05
DEFAULT_EPS_HI = 0.3
# np.exp(-x) is exactly 0.0 for every x >= UNDERFLOW: float64 exp underflows
# from x = 745.1334, far below UNDERFLOW less one rounding of the cap.
UNDERFLOW = 746.0


class RegimeFlag(Enum):
    SBS = "SBS"
    CLASSICAL_QUANTUM = "ClassicalQuantum"
    COHERENT = "Coherent"
    INDETERMINATE = "Indeterminate"


def _thermal_weight(omega: np.ndarray, temperature: float, kind: str) -> np.ndarray:
    """coth or tanh of (hbar omega / 2 kB T); both are exactly 1 in the T=0 limit."""
    if temperature == 0.0:
        return np.ones_like(omega)
    x = HBAR * omega / (2.0 * KB * temperature)
    return 1.0 / np.tanh(x) if kind == "coth" else np.tanh(x)


def _exponent_sum(
    fraction: Modes,
    sys: SystemParams,
    env_state: EnvInitialState,
    t,
    kind: str,
    *,
    capped: bool = False,
) -> np.ndarray:
    """Positive exponent sum_k (dX^2 / 2 hbar) |alpha~_k(t)|^2 weight_k.

    With ``capped``, a time whose exponent reaches ``UNDERFLOW`` may get a
    partial sum that is >= ``UNDERFLOW`` (up to rounding) instead: the kernel
    stops adding its modes.
    """
    if len(fraction) == 0:
        raise DomainError("oscillator fraction must be non-empty")
    axis = kernels.AXIS_MOMENTUM if sys.squeezing_axis is SqueezeAxis.MOMENTUM else kernels.AXIS_POSITION
    times = np.asarray(t, dtype=float).ravel()
    r = env_state.squeeze_r
    # x_sep is squared as a numpy scalar, which overflows to inf where a Python
    # float raises.  An overflowed gain, phase or square gives inf, or
    # inf * 0 = NaN at t = 0; the check below reports both, so numpy's
    # warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weight = _thermal_weight(fraction.omega, env_state.temperature, kind)
        scale = np.float64(sys.x_sep) ** 2 / (2.0 * HBAR)
        # The terms are >= 0, so a time's running sum only grows and a capped
        # time's full exponent is >= UNDERFLOW too.  The cap is set only where
        # the bound shows that no sum overflows, so it hides no error.
        cap = math.inf
        if capped:
            bound = kernels.exponent_bound(times, fraction.omega, fraction.pref, weight, sys.omega_big, axis, r)
            if scale * bound < math.inf:
                cap = UNDERFLOW / scale
        sums = kernels.exponent_series(
            times,
            fraction.omega,
            fraction.pref,
            weight,
            sys.omega_big,
            axis,
            r,
            env_state.squeeze_theta,
            0.0,  # psi: a rotation of the bath state only shifts squeeze_theta
            cap=cap,
        )
        sums *= scale
    if not np.isfinite(sums).all():
        raise DomainError(
            "exponent sum is not finite: a per-mode gain (x_sep, masses, coupling, "
            "temperature, squeeze_r) or a phase (t) overflowed"
        )
    return sums


def _factor(fraction: Modes, sys: SystemParams, env_state: EnvInitialState, t, kind: str):
    """exp(-exponent sum) with the ``kind`` weight, in the shape of t; scalar t gives a scalar."""
    out = _exponent_sum(fraction, sys, env_state, t, kind, capped=True)
    np.exp(np.negative(out, out=out), out=out)
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


def decoherence_factor(fraction: Modes, sys: SystemParams, env_state: EnvInitialState, t):
    """|Gamma(t)| due to the traced bath fraction; scalar t gives a scalar."""
    return _factor(fraction, sys, env_state, t, "coth")


def overlap_macrofraction(mac: Modes, sys: SystemParams, env_state: EnvInitialState, t):
    """Generalized overlap B(t) of the macro-fraction records of the two branches."""
    return _factor(mac, sys, env_state, t, "tanh")


def check_thresholds(eps: float, eps_hi: float) -> None:
    """Raise ``ConfigurationError`` unless 0 < eps < eps_hi < 1."""
    if not 0.0 < eps < eps_hi < 1.0:
        raise ConfigurationError(f"need 0 < eps < eps_hi < 1, got eps={eps}, eps_hi={eps_hi}")


def classify_regime(
    gamma_avg: float,
    b_avg: float,
    eps: float = DEFAULT_EPS,
    eps_hi: float = DEFAULT_EPS_HI,
) -> RegimeFlag:
    """Classify time-averaged observables into broadcast / classical-quantum / coherent."""
    check_thresholds(eps, eps_hi)
    if not (0.0 <= gamma_avg <= 1.0 and 0.0 <= b_avg <= 1.0):
        raise DomainError(f"averages must lie in [0, 1], got ({gamma_avg}, {b_avg})")
    if gamma_avg < eps and b_avg < eps:
        return RegimeFlag.SBS
    if gamma_avg < eps and b_avg >= eps_hi:
        return RegimeFlag.CLASSICAL_QUANTUM
    if gamma_avg >= eps_hi:
        return RegimeFlag.COHERENT
    return RegimeFlag.INDETERMINATE
