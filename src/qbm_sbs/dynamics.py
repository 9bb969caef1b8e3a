"""Closed-form complex displacement amplitudes of the driven bath modes.

Each bath mode, driven along the classical trajectory of the central
oscillator, ends up displaced in phase space by an amplitude proportional to
the initial central position.  Only the modulus of that amplitude enters the
observables; the accompanying dynamical phase cancels there and is not
computed.
"""

from __future__ import annotations

import numpy as np

from .errors import ResonanceError
from .model import Oscillator, SystemParams

# Guard against floating-point blowup of the 1/(omega - Omega) denominator.
RESONANCE_FLOOR = 1.0e3  # rad/s


def _check_detuning(omega: float, omega_big: float) -> None:
    if abs(omega - omega_big) < RESONANCE_FLOOR:
        raise ResonanceError(
            f"|omega - Omega| = {abs(omega - omega_big):g} rad/s is below the "
            f"resonance floor {RESONANCE_FLOOR:g} rad/s"
        )


def _brackets(omega: float, omega_big: float, t):
    plus = (np.exp(1j * (omega + omega_big) * t) - 1.0) / (omega + omega_big)
    minus = (np.exp(1j * (omega - omega_big) * t) - 1.0) / (omega - omega_big)
    return plus, minus


def alpha_momentum(osc: Oscillator, sys: SystemParams, t):
    """Displacement amplitude for a cosine central trajectory (momentum squeezing).

    ``t`` may be a scalar or an ndarray of times in seconds.
    """
    _check_detuning(osc.omega, sys.omega_big)
    plus, minus = _brackets(osc.omega, sys.omega_big, np.asarray(t, dtype=float))
    pref = osc.coupling / (2.0 * np.sqrt(2.0 * osc.mass * osc.omega))
    return -pref * (plus + minus)


def alpha_position(osc: Oscillator, sys: SystemParams, t):
    """Displacement amplitude for a sine central trajectory (position squeezing)."""
    _check_detuning(osc.omega, sys.omega_big)
    plus, minus = _brackets(osc.omega, sys.omega_big, np.asarray(t, dtype=float))
    pref = osc.coupling / (2.0j * np.sqrt(2.0 * osc.mass * osc.omega))
    return -pref * (plus - minus)


def alpha_sq_momentum(osc: Oscillator, sys: SystemParams, t):
    """|alpha|^2 for the momentum-squeezing case, in closed real form.

    Dual route to ``abs(alpha_momentum)**2``; the two are cross-checked in the
    test suite to 1e-12 relative.
    """
    _check_detuning(osc.omega, sys.omega_big)
    w, om = osc.omega, sys.omega_big
    t = np.asarray(t, dtype=float)
    pref = osc.coupling**2 * w / (2.0 * osc.mass * (w**2 - om**2) ** 2)
    bracket = (np.cos(w * t) - np.cos(om * t)) ** 2 + (
        np.sin(w * t) - (om / w) * np.sin(om * t)
    ) ** 2
    return pref * bracket


def alpha_gaussian(alpha, r: float, theta: float, psi: float):
    """Amplitude transform for a squeezed-rotated Gaussian initial bath state.

    For r=0 the result is a pure phase rotation of ``alpha``, so all moduli
    are unchanged.
    """
    ch = np.cosh(r)
    th = np.tanh(r)
    return ch * (np.exp(-1j * psi) * alpha - np.exp(1j * (psi + theta)) * np.conj(alpha) * th)
