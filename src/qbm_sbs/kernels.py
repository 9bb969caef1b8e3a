"""The hot amplitude-sum kernel: weighted exponent sums over the bath, in one
numpy implementation with no build step.

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

Work arrays are mode-major, (modes x times) per block of modes: per-mode
factors are columns, per-time factors rows.  One block loop serves both
bodies, which differ only in how they form and square the two quadrature
components; one gain multiply and one mode sum then finish each block.  The
mode sum adds whole rows in a fixed order, mode 0, 1, 2, ..., never a
pairwise or BLAS reduction, so a time evaluated alone gives the same bits as
in a batch, and its running sum after mode m - 1 is the sum over the first m
modes.

That fixed order lets a caller cap the sum.  Every call runs the modes in
blocks of 1, 2, 4, then 4 modes each, over segments of times; after each
block the times whose running sum is finite and >= ``cap`` are dropped from
the segment, with their per-time factors, and keep that partial sum.  Every other
time continues the same sequential sum and ends with the uncapped bits, and
with the default cap = inf no time is dropped.  The terms are >= 0 for
weights >= 0, so a dropped time's full sum is >= cap too.
``exponent_bound`` bounds the sum from the per-mode gains, so that a caller
can tell that no sum overflows before it lets the cap skip any mode.

Each block runs over the live times of its segment in chunks that fill one
fixed work tile.  The chunk ends change no bits: every element sees the same
operations in the same order however the times are cut.  A segment holds
several tiles of times, so its drop checks are few and each numpy call
covers tens of thousands of elements; a pool thread then spends long
stretches in numpy, which releases the GIL, instead of leaving the other
thread waiting for it between short calls.
"""

from __future__ import annotations

import math

import numpy as np

AXIS_MOMENTUM = 0
AXIS_POSITION = 1

# Widest mode block.
_BLOCK_MODES = 4
# Elements per work array: a block of w modes runs in chunks of
# _TILE_ELEMENTS // w times, so at any mode count the work arrays stay this
# size (the squeezed body's four take 1.5 MiB).
_TILE_ELEMENTS = _BLOCK_MODES * 3 * 2**12
# Times per segment, which keeps the drop state of a call (running sums,
# positions and per-time factors) per segment.  A block's drop check and its
# chunks span the live times of a segment, so a longer segment makes fewer and
# longer numpy calls, during which the other pool thread is not left waiting
# for the GIL, but holds more per-time memory per thread.  On a sweep of
# 10 + 10 squeezed modes on two threads, against 3 * 2**12 the median wall
# time fell 15% at 6 * 2**12, 19% at 9 * 2**12 and 26% at 12 * 2**12, and
# each 3 * 2**12 more raised the peak RSS by about 1.4 MB; 12 * 2**12 also
# leaves a 1696-time tail segment at 100k times.
_SEGMENT_TIMES = 9 * 2**12


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


def _mode_coefficients(
    omega: np.ndarray, pref: np.ndarray, weight: np.ndarray, omega_big: float, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """(gain_k, ratio_k) with weight_k |alpha_k|^2 = gain_k |z_k|^2 and ratio_k = b/a."""
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
    return weight * pref**2 * (2.0 * a) ** 2, ratio


def exponent_bound(
    times: np.ndarray,
    omega: np.ndarray,
    pref: np.ndarray,
    weight: np.ndarray,
    omega_big: float,
    axis: int,
    r: float,
) -> float:
    """An upper bound of ``exponent_series`` at every one of ``times`` for weights >= 0.

    It is inf (or NaN) wherever the series may not be finite: a phase omega_k t / 2
    that overflows, or a gain or e^{2r} that does.
    """
    times, omega = np.asarray(times, dtype=float), np.asarray(omega, dtype=float)
    # An overflowed phase gives NaN from its mode on, which a cap could skip.
    t_max = max(times.max(initial=0.0), -times.min(initial=0.0))
    if not np.isfinite(0.5 * omega.max(initial=0.0) * t_max):
        return math.inf
    gain, ratio = _mode_coefficients(
        omega, np.asarray(pref, dtype=float), np.asarray(weight, dtype=float), omega_big, axis
    )
    # The halves lie in [-1/2, 1/2] and [0, 1], so the lab-frame components of
    # z_k (in _add_block) obey |x| <= 2 + ratio/2 and |y| <= (1 + ratio)/2, the
    # rotating frame's two obey the same, and the squeeze stretches |z_k|^2 by
    # at most e^{2|r|}.  Twice the exact bound covers the roundings of every step.
    per_mode = gain * ((2.0 + 0.5 * ratio) ** 2 + (0.5 * (1.0 + ratio)) ** 2)
    return float(2.0 * np.exp(2.0 * abs(r)) * per_mode.sum())


def _time_factors(t: np.ndarray, omega_big: float, lab_frame: bool) -> list[np.ndarray]:
    """The per-time factors of a body: [t, S/2, V/2] in the rotating frame, else
    [t, S, V/2, C], for S = sin Wt, V = 1 - cos Wt and C = cos Wt."""
    big_half_sin, big_half_versin = _tan_half_sin(np.multiply(0.5 * omega_big, t), np.empty_like(t))
    if not lab_frame:
        return [t, big_half_sin, big_half_versin]
    big_cos = np.multiply(2.0, big_half_versin)
    np.subtract(1.0, big_cos, out=big_cos)
    big_half_sin *= 2.0
    return [t, big_half_sin, big_half_versin, big_cos]


def _add_block(
    acc: np.ndarray,
    work: list[np.ndarray],
    per_time: list[np.ndarray],
    half_omega: np.ndarray,
    ratio: np.ndarray,
    gain: np.ndarray,
    proj: tuple[float, float, float, float] | None,
) -> None:
    """acc += gain_k |z_k|^2 for one block of modes, mode by mode, in the (modes x times) work arrays."""
    t = per_time[0]
    half_sin, half_versin = _tan_half_sin(np.multiply(half_omega, t, out=work[0]), work[1])
    # Each body leaves the two squared quadrature components in c1 and c2.
    if proj is None:
        # In the frame rotating with mode k, z_k = alpha_k e^{-i w t} / (2 a pref_k)
        # has the components (V - v)/2 and (s - (b/a) S)/2, each vanishing at t = 0.
        _, big_half_sin, big_half_versin = per_time
        c1 = np.subtract(big_half_versin, half_versin, out=half_versin)
        c1 *= c1
        np.multiply(ratio, big_half_sin, out=work[2])
        c2 = np.subtract(half_sin, work[2], out=half_sin)
        c2 *= c2
    else:
        _, big_sin, big_half_versin, big_cos = per_time
        p_x, p_y, q_x, q_y = proj
        x, y = work[2:]
        # The lab-frame z / (2a): x = C v/2 + V/2 - (b/a) S s/2
        np.multiply(big_cos, half_versin, out=x)
        x += big_half_versin
        np.multiply(ratio, big_sin, out=y)
        y *= half_sin
        x -= y
        # and y = (b/a) S (1/2 - v/2) - C s/2, with (b/a) S formed again
        # rather than kept in a fifth work array.
        np.multiply(ratio, big_sin, out=y)
        np.subtract(0.5, half_versin, out=half_versin)
        y *= half_versin
        half_sin *= big_cos
        y -= half_sin
        # c1 = e^{-r} e1 . z and c2 = e^{r} e2 . z (the gains swapped on the position axis)
        c1 = np.multiply(x, p_x, out=half_versin)
        c1 += np.multiply(y, p_y, out=half_sin)
        x *= q_x
        y *= q_y
        c2 = np.add(x, y, out=x)
        c1 *= c1
        c2 *= c2
    c1 += c2
    c1 *= gain
    _add_rows(c1, acc)


def _sum_segment(
    seg: np.ndarray,
    t: np.ndarray,
    omega_big: float,
    edges: list[int],
    bufs: list[np.ndarray],
    modes: tuple[np.ndarray, np.ndarray, np.ndarray],
    proj: tuple[float, float, float, float] | None,
    cap: float,
) -> None:
    """seg += the sums at the times t over the mode blocks [edges[i], edges[i+1]),
    each time stopping after the first block where its sum is finite and >= cap.

    The per-time factors and the drop state live in this call, so that they
    are freed before the next segment's are formed."""
    half_omega, ratio, gain = modes
    per_time = _time_factors(t, omega_big, proj is not None)
    # acc holds the running sums of the times still summed, at the positions
    # ``live`` of the segment (None while acc is the segment itself).
    acc, live = seg, None
    for first, stop in zip(edges, edges[1:]):
        if first and (reached := acc >= cap).any():
            reached &= acc < math.inf
            if live is not None:
                seg[live] = acc
            keep = np.flatnonzero(~reached)
            live = keep if live is None else live[keep]
            acc = acc[keep]
            # The per-time factors follow their times, one at a time, so
            # that each old array is freed before the next is copied.
            for i in range(len(per_time)):
                per_time[i] = per_time[i][keep]
            if not acc.size:
                break
        # The block runs in chunks of the live times that fill the work tile.
        # No view of a chunk outlives its call, so that the next drop frees
        # the arrays it replaces.
        width = stop - first
        step = _TILE_ELEMENTS // width
        for c in range(0, acc.size, step):
            m = min(step, acc.size - c)
            work = [buf[: width * m].reshape(width, m) for buf in bufs]
            _add_block(
                acc[c : c + m],
                work,
                [x[c : c + m] for x in per_time],
                half_omega[first:stop],
                ratio[first:stop],
                gain[first:stop],
                proj,
            )
    if live is not None:
        seg[live] = acc


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
    *,
    cap: float = math.inf,
) -> np.ndarray:
    """sum_k weight[k] * |alpha~_k(t)|^2 for every t.

    ``pref[k]`` is the amplitude prefactor C_k / (2 sqrt(2 m_k omega_k)).

    The modes run in blocks of 1, 2, 4, then 4 modes each, in their fixed
    order, and after each block a time whose running sum is finite and
    >= ``cap`` stops and returns that partial sum.  Every other time returns
    the full sum, with the same bits as without a cap.  With weights >= 0 the
    running sums only grow, so a stopped time's full sum is >= ``cap`` too.
    """
    times = np.ascontiguousarray(times, dtype=float)
    omega = np.asarray(omega, dtype=float)
    gain, ratio = _mode_coefficients(
        omega, np.asarray(pref, dtype=float), np.asarray(weight, dtype=float), omega_big, axis
    )
    modes = (0.5 * omega[:, None], ratio[:, None], gain[:, None])
    # The squeezed body's projection coefficients (unused at r = 0):
    # |ch (e^{-i psi} z - e^{i(psi+theta)} conj(z) th)| = ch |z - e^{i phi} conj(z) th|, and
    # with z = e^{i phi/2} (p + i q), p = e1 . z and q = e2 . z, this is
    # ch |(1 - th) p + i (1 + th) q|, where ch (1 -+ th) = e^{-+r}.
    proj = None
    if r != 0.0:
        low, high = np.exp(-r), np.exp(r)
        if axis != AXIS_MOMENTUM:
            low, high = high, low
        half_phi = psi + 0.5 * theta
        cos, sin = np.cos(half_phi), np.sin(half_phi)
        proj = (low * cos, low * sin, -high * sin, high * cos)
    n, k = times.shape[0], omega.shape[0]
    # Mode blocks [edges[i], edges[i+1]) of 1, 2, 4, then 4 modes, with the
    # capped times dropped between blocks (none with cap = inf).
    edges = [0]
    while (e := edges[-1]) < k:
        edges.append(min(k, e + min(e + 1, _BLOCK_MODES)))
    out = np.zeros(n)
    size = min(_TILE_ELEMENTS, min(k, _BLOCK_MODES) * min(n, _SEGMENT_TIMES))
    bufs = [np.empty(size) for _ in range(3 if proj is None else 4)]
    for lo in range(0, n, _SEGMENT_TIMES):
        seg = slice(lo, lo + _SEGMENT_TIMES)
        _sum_segment(out[seg], times[seg], omega_big, edges, bufs, modes, proj, cap)
    return out
