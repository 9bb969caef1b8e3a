"""The hot amplitude-sum kernel: weighted exponent sums over the bath, chunked
over time, in one numpy implementation with no build step.

The amplitudes are built in real arithmetic from one tangent per
(mode, time) element: u = tan(omega_k t / 2) gives the halves
sin(omega_k t) / 2 = u / (1 + u^2) and (1 - cos(omega_k t)) / 2 = u * (sin / 2).
Multiplying by 2 or 4 is exact in binary floating point, so a half carries
the rounding of its whole.  Both bodies write |alpha_k|^2 as
4 a_k^2 pref_k^2 |z_k|^2, with z_k built from these halves and the exact ratio
b/a = Omega/omega_k (omega_k/Omega on the position axis), and every term of
z_k carries one of sin(omega_k t), 1 - cos(omega_k t), sin(Omega t) or
1 - cos(Omega t), so the sums are exactly zero at t = 0.

- For the thermal state (r = 0) only |z_k| enters, and it is taken in the
  frame rotating with each bath mode, where z_k has the components
  (V - v)/2 and (s - (b/a) S)/2 (s, v for omega_k t and S, V for Omega t).
- The squeeze map (r != 0) needs the lab-frame z_k, projected on the
  squeeze's quadrature axes e1 = (cos phi/2, sin phi/2) and
  e2 = (-sin phi/2, cos phi/2), phi = 2 psi + theta:
  |alpha~_k|^2 = 4 a^2 pref^2 [e^{-2r} (e1 . z_k)^2 + e^{2r} (e2 . z_k)^2],
  with the two gains swapped on the position axis.  e^{-r} and e^{r} are
  folded into the projection coefficients and the per-mode gain comes last,
  so no 1 - tanh r is formed and no intermediate exceeds the stretched
  quadrature's term e^{2r} (e . z_k)^2.

Work arrays are mode-major, (modes x times) per chunk: per-mode factors are
columns, per-time factors rows.  One chunk loop serves both bodies, which
differ only in how they form and square the two quadrature components; one
gain multiply and one mode sum then finish each chunk.  The mode sum adds
whole rows in a fixed order, never a pairwise or BLAS reduction, so a time
evaluated alone gives the same bits as in a batch.
"""

from __future__ import annotations

import numpy as np

AXIS_MOMENTUM = 0
AXIS_POSITION = 1

# Elements (modes x times) per chunk, so that the work arrays stay in cache
# at any mode count: the squeezed body's five take 1.25 MiB.  Measured at 10,
# 30 and 100 modes, 2**15 to 2**16 was fastest; smaller chunks pay numpy's
# per-call cost on short time rows, larger ones spill the cache.
_CHUNK_ELEMENTS = 2**15


def backend_name() -> str:
    """Kernel name recorded in CSV headers and benchmark environment lines."""
    return "numpy"


def _tan_half_sin(half: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin(x) / 2, (1 - cos(x)) / 2) for x = 2 * ``half``, written over ``spare`` and ``half``."""
    u = np.tan(half, out=half)
    q = np.multiply(u, u, out=spare)
    q += 1.0
    half_sin = np.divide(u, q, out=q)
    return half_sin, np.multiply(u, half_sin, out=u)


def _add_rows(x: np.ndarray, out: np.ndarray) -> None:
    """out += x[0], then x[1], ...: the same order for one time as for many."""
    for row in x:
        out += row


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
    # the same form with a and b swapped, and that factor i swaps the gains of
    # the two squeezed quadratures.
    inv_plus = 1.0 / (omega + omega_big)
    inv_minus = 1.0 / (omega - omega_big)
    a = inv_plus + inv_minus
    # b / a, without the roundings of a and b.
    ratio = omega_big / omega
    if axis != AXIS_MOMENTUM:
        a, ratio = inv_minus - inv_plus, omega / omega_big
    gain = (weight * pref**2 * (2.0 * a) ** 2)[:, None]
    ratio = ratio[:, None]
    half_omega = 0.5 * omega[:, None]
    # The squeezed body's projection coefficients (unused at r = 0):
    # |ch (e^{-i psi} z - e^{i(psi+theta)} conj(z) th)| = ch |z - e^{i phi} conj(z) th|, and
    # with z = e^{i phi/2} (p + i q), p = e1 . z and q = e2 . z, this is
    # ch |(1 - th) p + i (1 + th) q|, where ch (1 -+ th) = e^{-+r}.
    low, high = np.exp(-r), np.exp(r)
    if axis != AXIS_MOMENTUM:
        low, high = high, low
    half_phi = psi + 0.5 * theta
    p_x, p_y = low * np.cos(half_phi), low * np.sin(half_phi)
    q_x, q_y = -high * np.sin(half_phi), high * np.cos(half_phi)
    n, k = times.shape[0], omega.shape[0]
    out = np.zeros(n)
    rows = max(1, _CHUNK_ELEMENTS // max(k, 1))
    bufs = [np.empty(k * min(n, rows)) for _ in range(3 if r == 0.0 else 5)]
    for lo in range(0, n, rows):
        t = times[lo : lo + rows]
        work = [buf[: k * t.shape[0]].reshape(k, t.shape[0]) for buf in bufs]
        big_half_sin, big_half_versin = _tan_half_sin(0.5 * omega_big * t, np.empty_like(t))
        half_sin, half_versin = _tan_half_sin(np.multiply(half_omega, t, out=work[0]), work[1])
        # Each body leaves the two squared quadrature components in c1 and c2.
        if r == 0.0:
            # In the frame rotating with mode k, z_k = alpha_k e^{-i w t} / (2 a pref_k)
            # has the components (V - v)/2 and (s - (b/a) S)/2, each vanishing at t = 0.
            c1 = np.subtract(big_half_versin, half_versin, out=half_versin)
            c1 *= c1
            np.multiply(ratio, big_half_sin, out=work[2])
            c2 = np.subtract(half_sin, work[2], out=half_sin)
            c2 *= c2
        else:
            x, y, spare = work[2:]
            big_cos = 1.0 - 2.0 * big_half_versin
            # The lab-frame z / (2a): x = C v/2 + V/2 - (b/a) S s/2
            np.multiply(big_cos, half_versin, out=x)
            x += big_half_versin
            np.multiply(ratio, 2.0 * big_half_sin, out=y)
            np.multiply(y, half_sin, out=spare)
            x -= spare
            # and y = (b/a) S (1/2 - v/2) - C s/2.
            np.subtract(0.5, half_versin, out=half_versin)
            y *= half_versin
            half_sin *= big_cos
            y -= half_sin
            # c1 = e^{-r} e1 . z and c2 = e^{r} e2 . z (the gains swapped on the position axis)
            c1 = np.multiply(x, p_x, out=half_versin)
            np.multiply(y, p_y, out=spare)
            c1 += spare
            x *= q_x
            y *= q_y
            c2 = np.add(x, y, out=x)
            c1 *= c1
            c2 *= c2
        c1 += c2
        c1 *= gain
        _add_rows(c1, out[lo : lo + t.shape[0]])
    return out
