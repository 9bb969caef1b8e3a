"""The hot amplitude-sum kernel: weighted exponent sums over the bath, chunked
over time, in one numpy implementation with no build step.

The amplitudes are built in real arithmetic from one tangent per
(time, mode) element: u = tan(omega_k t / 2) gives the halves
sin(omega_k t) / 2 = u / (1 + u^2) and (1 - cos(omega_k t)) / 2 = u * (sin / 2).
Multiplying by 2 or 4 is exact in binary floating point, so a half carries
the rounding of its whole.  For the thermal state (r = 0) only |alpha_k|^2
enters, and it is taken in the frame rotating with each bath mode: the phase
e^{-i omega_k t} turns the lab-frame components of alpha_k / pref_k into
a (V - v) and b S - a s (s, v for omega_k t and S, V for Omega t, below), so
|alpha_k|^2 = 4 a^2 pref_k^2 [(V/2 - v/2)^2 + (s/2 - (b/a) S/2)^2].  The
squeeze map (r != 0) mixes alpha_k with its conjugate and needs the lab-frame
components.  Every term carries one of sin(omega_k t), 1 - cos(omega_k t),
sin(Omega t) or 1 - cos(Omega t), so the sums are exactly zero at t = 0.  The
mode sum is a numpy row reduction, never a BLAS product, so a time evaluated
alone gives the same bits as in a batch.
"""

from __future__ import annotations

import numpy as np

AXIS_MOMENTUM = 0
AXIS_POSITION = 1

# Rows per chunk: a few (rows x modes) work arrays of this height stay in
# cache and keep the peak memory of a 100k-sample call low.
_CHUNK = 2048


def backend_name() -> str:
    """Kernel name recorded in CSV headers and benchmark environment lines."""
    return "numpy"


def _tan_half_sin(half: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tan(x/2), sin(x) / 2) for x = 2 * ``half``, written over ``half`` and ``spare``."""
    u = np.tan(half, out=half)
    q = np.multiply(u, u, out=spare)
    q += 1.0
    return u, np.divide(u, q, out=q)


def exponent_series(
    times: np.ndarray,
    omega: np.ndarray,
    pref: np.ndarray,
    weight: np.ndarray,
    omega_big: float,
    axis: int,
    r: float,
    theta: float,
    psi: float,
) -> np.ndarray:
    """sum_k weight[k] * |alpha~_k(t)|^2 for every t.

    ``pref[k]`` is the amplitude prefactor C_k / (2 sqrt(2 m_k omega_k)).
    """
    times = np.ascontiguousarray(times, dtype=float)
    omega = np.asarray(omega, dtype=float)
    pref = np.asarray(pref, dtype=float)
    weight = np.asarray(weight, dtype=float)
    # The momentum amplitude is alpha_k = -pref_k (plus + minus), with
    # plus = (e^{i(w+W)t} - 1) / (w+W) and minus = (e^{i(w-W)t} - 1) / (w-W).
    # With s = sin wt, v = 1 - cos wt, S = sin Wt, V = 1 - cos Wt, C = cos Wt:
    #   alpha_k / pref_k = [a (C v + V) - b S s] + i [b S (1 - v) - a C s]
    # where a = 1/(w+W) + 1/(w-W) = 2w/(w^2-W^2) and b = 1/(w-W) - 1/(w+W) =
    # 2W/(w^2-W^2).  The position amplitude i pref_k (plus - minus) is i times
    # the same form with a and b swapped, and that factor i flips the sign of
    # tanh(r) in the squeeze map.
    inv_plus = 1.0 / (omega + omega_big)
    inv_minus = 1.0 / (omega - omega_big)
    a = inv_plus + inv_minus
    b = inv_minus - inv_plus
    th = np.tanh(r)
    if axis != AXIS_MOMENTUM:
        a, b, th = b, a, -th
    n = times.shape[0]
    out = np.empty(n)
    shape = (min(n, _CHUNK), omega.shape[0])
    half_omega = 0.5 * omega
    if r == 0.0:
        # In the frame rotating with mode k, alpha_k e^{-i w t} / pref_k has the
        # components a (V - v) and b S - a s, so with halves
        #   |alpha_k|^2 = 4 a^2 pref_k^2 [(V/2 - v/2)^2 + (s/2 - (b/a) S/2)^2],
        # where each squared term vanishes at t = 0 on its own.
        gain = weight * pref**2 * (2.0 * a) ** 2
        # b / a, without the roundings of a and b.
        ratio = omega_big / omega if axis == AXIS_MOMENTUM else omega / omega_big
        buf_u, buf_q, buf_x = (np.empty(shape) for _ in range(3))
        for lo in range(0, n, _CHUNK):
            t = times[lo : lo + _CHUNK, None]
            m = t.shape[0]
            big_u, big_half_sin = _tan_half_sin(0.5 * omega_big * t, np.empty_like(t))
            big_half_versin = np.multiply(big_u, big_half_sin, out=big_u)
            u, half_sin = _tan_half_sin(np.multiply(half_omega, t, out=buf_u[:m]), buf_q[:m])
            # (V - v) / 2
            x = np.multiply(u, half_sin, out=u)
            np.subtract(big_half_versin, x, out=x)
            x *= x
            # (s - (b/a) S) / 2
            y = np.multiply(big_half_sin, ratio, out=buf_x[:m])
            np.subtract(half_sin, y, out=half_sin)
            half_sin *= half_sin
            x += half_sin
            x *= gain
            out[lo : lo + m] = x.sum(axis=1)
        return out

    # |ch (e^{-i psi} z - e^{i(psi+theta)} conj(z) th)|^2 = ch^2 |z - e^{i phi} conj(z) th|^2
    # with phi = 2 psi + theta; for z = x + iy the second factor is x'^2 + y'^2 with
    #   x' = (1 - th cos phi) x - th sin phi y,   y' = (1 + th cos phi) y - th sin phi x.
    phi = 2.0 * psi + theta
    th_cos, th_sin = th * np.cos(phi), th * np.sin(phi)
    gain = weight * pref**2 * np.cosh(r) ** 2
    buf_u, buf_q, buf_x, buf_y = (np.empty(shape) for _ in range(4))
    for lo in range(0, n, _CHUNK):
        t = times[lo : lo + _CHUNK, None]
        m = t.shape[0]
        u, q, x, y = buf_u[:m], buf_q[:m], buf_x[:m], buf_y[:m]
        big_u, big_sin = _tan_half_sin(0.5 * omega_big * t, np.empty_like(t))
        big_sin *= 2.0
        big_versin = np.multiply(big_u, big_sin, out=big_u)
        big_cos = 1.0 - big_versin
        u, s = _tan_half_sin(np.multiply(half_omega, t, out=u), q)
        s *= 2.0
        v = np.multiply(u, s, out=u)
        # x = a (C v + V) - b S s
        np.multiply(big_cos, v, out=x)
        x += big_versin
        x *= a
        np.multiply(big_sin, s, out=y)
        y *= b
        x -= y
        # y = b S (1 - v) - a C s
        cos = np.subtract(1.0, v, out=v)
        np.multiply(big_sin, cos, out=y)
        y *= b
        s *= big_cos
        s *= a
        y -= s
        np.multiply(x, th_sin, out=u)
        np.multiply(y, th_sin, out=q)
        x *= 1.0 - th_cos
        x -= q
        y *= 1.0 + th_cos
        y -= u
        x *= x
        y *= y
        x += y
        x *= gain
        out[lo : lo + m] = x.sum(axis=1)
    return out
