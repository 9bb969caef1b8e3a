"""Kernel consistency with the per-mode definitions."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from qbm_sbs import kernels
from qbm_sbs.dynamics import alpha_gaussian, alpha_momentum, alpha_position
from qbm_sbs.model import Oscillator, SystemParams, coupling_constant

from conftest import GAMMA0, M_ENV, MASS_M, OMEGA_BIG, X_SEP


def random_fraction(n, seed):
    rng = np.random.default_rng(seed)
    omega = rng.uniform(3e9, 6e9, n)
    pref_c = coupling_constant(MASS_M, M_ENV, GAMMA0)
    oscs = [Oscillator(omega=float(w), mass=M_ENV, coupling=pref_c) for w in omega]
    pref = np.array([o.coupling / (2.0 * np.sqrt(2.0 * o.mass * o.omega)) for o in oscs])
    weight = rng.uniform(0.5, 5.0, n)
    return oscs, omega, pref, weight


CASES = [
    # (axis, r, theta, psi)
    (kernels.AXIS_MOMENTUM, 0.0, 0.0, 0.0),
    (kernels.AXIS_POSITION, 0.0, 0.0, 0.0),
    (kernels.AXIS_MOMENTUM, 0.7, 1.1, 0.3),
    (kernels.AXIS_POSITION, 0.7, 1.1, 0.3),
    (kernels.AXIS_POSITION, 1.5, np.pi, 0.0),
    (kernels.AXIS_POSITION, 5.0, np.pi, 0.0),
]


@pytest.mark.parametrize("axis,r,theta,psi", CASES)
def test_kernel_matches_per_mode_definition(axis, r, theta, psi):
    oscs, omega, pref, weight = random_fraction(8, 23)
    sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)
    alpha_fn = alpha_momentum if axis == kernels.AXIS_MOMENTUM else alpha_position
    short = np.linspace(1e-10, 1.5e-8, 50)
    long = np.random.default_rng(5).uniform(0.0, 1e-5, 200)  # the sweeps' tau
    for times in (short, long):
        expected = np.zeros_like(times)
        for osc, w in zip(oscs, weight):
            a = alpha_gaussian(alpha_fn(osc, sys, times), r, theta, psi)
            expected += w * np.abs(a) ** 2
        got = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, theta, psi)
        # Both sides round the phases (omega +- Omega) t; over the long window
        # that rounding, one ulp of the largest phase, sets the tolerance.
        tol = max(1e-12, np.finfo(float).eps * (omega.max() + OMEGA_BIG) * times.max())
        assert np.max(np.abs(got - expected)) < tol * np.max(expected)


@pytest.mark.parametrize("axis,r,theta,psi", CASES)
def test_kernel_exact_at_zero_and_batch_invariant(axis, r, theta, psi):
    for n_modes in (1, 8, 9, 30, 100):
        _, omega, pref, weight = random_fraction(n_modes, 23)

        def series(times):
            return kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, theta, psi)

        assert series(np.array([0.0]))[0] == 0.0
        # Past one segment, whose end is the only place where every block cuts the times.
        times = np.random.default_rng(9).uniform(0.0, 1e-5, kernels._SEGMENT_TIMES + 5)
        batched = series(times)
        # The times on both sides of the segment end and of every chunk end
        # that a block of 1 to _BLOCK_MODES modes has in the first segment,
        # and at both ends of the call.
        picks = {0, 1, kernels._SEGMENT_TIMES - 1, kernels._SEGMENT_TIMES, times.size - 1}
        for width in range(1, kernels._BLOCK_MODES + 1):
            for end in range(0, kernels._SEGMENT_TIMES, kernels._TILE_ELEMENTS // width)[1:]:
                picks |= {end - 1, end}
        for i in sorted(picks):
            assert series(times[i : i + 1])[0] == batched[i]


@pytest.mark.parametrize("r", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("axis", [kernels.AXIS_MOMENTUM, kernels.AXIS_POSITION])
def test_kernel_output_does_not_depend_on_the_tiling(monkeypatch, axis, r):
    # Small segments and tiles cut every block into chunks of 12, 6, 4 or 3
    # live times (or of 4, 2, 1 or 1), also after the cap has dropped times.
    times = np.random.default_rng(9).uniform(0.0, 1e-5, 400)
    times[7] = 0.0
    for n_modes in (1, 9, 30):
        _, omega, pref, weight = random_fraction(n_modes, 23)

        def series(**kwargs):
            return kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, 1.1, 0.3, **kwargs)

        full = series()
        caps = (np.inf, float(np.median(full)))
        expected = [series(cap=cap) for cap in caps]
        for segment, tile in ((7, 12), (13, 12), (50, 4)):
            with monkeypatch.context() as m:
                m.setattr(kernels, "_SEGMENT_TIMES", segment)
                m.setattr(kernels, "_TILE_ELEMENTS", tile)
                for cap, want in zip(caps, expected):
                    assert np.array_equal(series(cap=cap), want)


@pytest.mark.parametrize("r", [0.0, 0.7])
@pytest.mark.parametrize("axis", [kernels.AXIS_MOMENTUM, kernels.AXIS_POSITION])
def test_kernel_leaves_its_inputs_unchanged(axis, r):
    # A C-contiguous float64 ``times`` reaches the kernel as the caller's own
    # array, and the kernel reuses its work buffers in place.
    for n_modes in (1, 9, 30):
        _, omega, pref, weight = random_fraction(n_modes, 23)
        times = np.random.default_rng(9).uniform(0.0, 1e-5, kernels._SEGMENT_TIMES + 5)
        inputs = (times, omega, pref, weight)
        before = [x.copy() for x in inputs]
        kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, 1.1, 0.3)
        for x, y in zip(inputs, before):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("r", [0.0, 0.5])
def test_kernel_peak_memory_does_not_grow_with_the_mode_count(r):
    # The work arrays hold one tile of _TILE_ELEMENTS elements at any mode
    # count, so only the per-mode coefficients grow with the mode count.
    times = np.random.default_rng(9).uniform(0.0, 1e-5, 50_000)
    peaks = []
    for n_modes in (10, 1000):
        _, omega, pref, weight = random_fraction(n_modes, 23)
        tracemalloc.start()
        try:
            kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, kernels.AXIS_MOMENTUM, r, 1.1, 0.3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def block_end_sums(series, n_modes, times, cap):
    """The capped kernel's result from uncapped calls on the modes up to each block end:
    a time takes the running sum of the first block end where it is finite and
    >= cap, else the full sum.  Also returns which times stopped early."""
    expected = series(times, n_modes)
    stopped = np.zeros(times.shape, dtype=bool)
    end = 1
    while end < n_modes:
        prefix = series(times, end)
        now = ~stopped & (prefix >= cap) & (prefix < np.inf)
        expected[now] = prefix[now]
        stopped |= now
        end += min(end + 1, kernels._BLOCK_MODES)
    return expected, stopped


@pytest.mark.parametrize("axis,r,theta,psi", CASES)
def test_capped_kernel_stops_at_block_ends(axis, r, theta, psi):
    for n_modes in (1, 9, 30, 100):
        _, omega, pref, weight = random_fraction(n_modes, 23)

        def series(times, m, **kwargs):
            return kernels.exponent_series(
                times, omega[:m], pref[:m], weight[:m], OMEGA_BIG, axis, r, theta, psi, **kwargs
            )

        # More than one segment, and t = 0, whose sum 0 reaches a cap of 0.
        times = np.random.default_rng(9).uniform(0.0, 1e-5, kernels._SEGMENT_TIMES + 100)
        times[7] = 0.0
        first = series(times, 1)
        shares = []
        for cap in (0.0, float(np.median(first)), float(np.quantile(first, 0.99)), 1e300):
            expected, stopped = block_end_sums(series, n_modes, times, cap)
            np.testing.assert_array_equal(series(times, n_modes, cap=cap), expected)
            shares.append(stopped.mean())
        if n_modes > 1:
            assert shares[0] == 1.0 and 0.0 < shares[1] < 1.0 and shares[3] == 0.0
        else:
            assert shares == [0.0] * 4


def test_capped_kernel_never_stops_a_nan_or_inf_sum():
    # After the first mode the sums are inf (t > 0) or NaN (inf * 0 at t = 0,
    # and a NaN time); the second mode's NaN weight then makes every full sum NaN.
    _, omega, pref, weight = random_fraction(9, 23)
    weight[0], weight[1] = np.inf, np.nan
    times = np.array([np.nan, 0.0, 1e-6, 2e-6])
    with np.errstate(invalid="ignore"):
        capped = kernels.exponent_series(
            times, omega, pref, weight, OMEGA_BIG, kernels.AXIS_MOMENTUM, 0.0, 0.0, 0.0, cap=1.0
        )
    assert np.isnan(capped).all()


@pytest.mark.parametrize("axis,r,theta,psi", CASES)
def test_exponent_bound_holds(axis, r, theta, psi):
    for n_modes in (1, 9, 100):
        _, omega, pref, weight = random_fraction(n_modes, 23)
        times = np.concatenate([np.logspace(-15, -5, 200), np.random.default_rng(5).uniform(0.0, 1e-5, 5000)])
        series = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, theta, psi)
        bound = kernels.exponent_bound(times, omega, pref, weight, OMEGA_BIG, axis, r)
        assert series.max() <= bound < np.inf


def test_exponent_bound_is_inf_where_a_sum_may_not_be_finite():
    _, omega, pref, weight = random_fraction(9, 23)
    # The phase omega_k t / 2 of the fastest modes overflows while the slowest stay finite.
    t_over = np.finfo(float).max / (0.5 * omega.max()) * 1.01
    assert 0.5 * omega.min() * t_over < np.inf

    def bound(times, pref=pref, r=0.0):
        with np.errstate(over="ignore"):
            return kernels.exponent_bound(times, omega, pref, weight, OMEGA_BIG, kernels.AXIS_MOMENTUM, r)

    for times in (np.array([1e-6, t_over]), np.array([-t_over]), np.array([np.nan])):
        assert bound(times) == np.inf
    assert bound(np.array([1e-6]), r=355.0) == np.inf  # e^{2r} overflows
    assert bound(np.array([1e-6]), pref=pref * 1e160) == np.inf  # pref^2 overflows


def mpmath_series(times, omega, pref, weight, axis, r, theta, psi):
    """The kernel's sum from the per-mode definition, in 50-digit arithmetic."""
    out = []
    with mpmath.workdps(50):
        big = mpmath.mpf(OMEGA_BIG)
        ch, th = mpmath.cosh(r), mpmath.tanh(r)
        for t in map(mpmath.mpf, times):
            total = mpmath.mpf(0)
            for w, p, g in zip(map(mpmath.mpf, omega), pref, weight):
                plus = (mpmath.expj((w + big) * t) - 1) / (w + big)
                minus = (mpmath.expj((w - big) * t) - 1) / (w - big)
                alpha = -p * (plus + minus) if axis == kernels.AXIS_MOMENTUM else 1j * p * (plus - minus)
                rot = mpmath.expj(-psi) * alpha - mpmath.expj(psi + theta) * mpmath.conj(alpha) * th
                total += g * abs(ch * rot) ** 2
            out.append(float(total))
    return np.array(out)


def assert_matches_mpmath(axis, r, theta, short_tol):
    """Within ``short_tol`` relative where |omega t| <= 1, one ulp of the phase beyond."""
    _, omega, pref, weight = random_fraction(4, 23)
    times = np.logspace(-15, -5, 81)
    got = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, r, theta, 0.0)
    expected = mpmath_series(times, omega, pref, weight, axis, r, theta, 0.0)
    short = omega.max() * times <= 1.0
    assert np.all(np.abs(got[short] - expected[short]) <= short_tol * expected[short])
    # Past |omega t| = 1 the kernel rounds the phases (omega +- Omega) t, and
    # one ulp of the phase at each time bounds the deviation.
    tol = np.maximum(1e-12, np.finfo(float).eps * (omega.max() + OMEGA_BIG) * times[~short])
    assert np.all(np.abs(got[~short] - expected[~short]) <= tol * expected[~short].max())


@pytest.mark.parametrize("theta", [0.0, np.pi / 2])
@pytest.mark.parametrize("axis", [kernels.AXIS_MOMENTUM, kernels.AXIS_POSITION])
def test_thermal_kernel_matches_mpmath(axis, theta):
    assert_matches_mpmath(axis, 0.0, theta, 1e-12)


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi])
@pytest.mark.parametrize("r", [0.5, 5.0])
def test_squeezed_momentum_kernel_matches_mpmath(r, theta):
    # No momentum component cancels for |omega t| <= 1, so a few ulps bound
    # the error there, and 1e-14 leaves a factor 10; forming 1 - tanh r would
    # show as 5e-13 at r = 5, theta = pi.  The position axis is not pinned: its
    # amplitude gets its t^2 order by cancellation, and near t = 0 its error
    # reaches 3e-7 at r = 5.
    assert_matches_mpmath(kernels.AXIS_MOMENTUM, r, theta, 1e-14)


def test_squeezed_kernel_is_finite_where_its_true_sum_is():
    # The sum is near 1e290 at r = 353, while cosh(r)^2 weight pref^2 is not
    # finite: the squeeze must not be applied as one per-mode gain.
    assert_matches_mpmath(kernels.AXIS_MOMENTUM, 353.0, 0.0, 1e-14)


@pytest.mark.parametrize("axis", [kernels.AXIS_MOMENTUM, kernels.AXIS_POSITION])
def test_thermal_body_agrees_with_squeezed_body(axis):
    # At r = 1e-300, e^{-r} = e^{r} = 1: the squeezed body's quadrature
    # projection leaves |alpha|^2 as it is, so the two bodies compute one sum.
    _, omega, pref, weight = random_fraction(8, 23)
    short = np.logspace(-15, -9, 200)
    long = np.random.default_rng(5).uniform(0.0, 1e-5, 3000)
    for times in (short, long):
        thermal = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, 0.0, 0.0, 0.0)
        lab = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, axis, 1e-300, 0.0, 0.0)
        assert np.all(np.abs(thermal - lab) <= 1e-14 * lab)


def test_backend_name_reports_known_value():
    assert kernels.backend_name() == "numpy"


def test_empty_times():
    _, omega, pref, weight = random_fraction(4, 3)
    out = kernels.exponent_series(
        np.array([]), omega, pref, weight, OMEGA_BIG, kernels.AXIS_MOMENTUM, 0.0, 0.0, 0.0
    )
    assert out.shape == (0,)
