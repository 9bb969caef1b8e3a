"""Property-based invariants over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbm_sbs.dynamics import alpha_gaussian
from qbm_sbs.model import SystemParams, coupling_constant, sample_environment
from qbm_sbs.observables import classify_regime
from qbm_sbs.oracle import b_closed, gamma_closed

from conftest import GAMMA0, M_ENV, MASS_M, OMEGA_BIG, OMEGA_HIGH, OMEGA_LOW, X_SEP, make_spec

finite = dict(allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, **finite)
unit = st.floats(min_value=0.0, max_value=1.0, **finite)
small_r = st.floats(min_value=0.0, max_value=2.0, **finite)
amplitudes = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    mass_M=st.floats(min_value=1e-8, max_value=1e-2, **finite),
    m_k=st.floats(min_value=1e-28, max_value=1e-20, **finite),
    gamma0=st.floats(min_value=1e12, max_value=1e20, **finite),
)
def test_coupling_constant_scaling(mass_M, m_k, gamma0):
    c = coupling_constant(mass_M, m_k, gamma0)
    assert c > 0
    # Doubling any factor scales the coupling by sqrt(2).
    root2 = math.sqrt(2)
    assert coupling_constant(2 * mass_M, m_k, gamma0) == pytest.approx(c * root2, rel=1e-12)
    assert coupling_constant(mass_M, 2 * m_k, gamma0) == pytest.approx(c * root2, rel=1e-12)
    assert coupling_constant(mass_M, m_k, 2 * gamma0) == pytest.approx(c * root2, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(alpha=amplitudes, r=small_r, theta=angles, psi=angles)
def test_gaussian_transform_modulus_bounds(alpha, r, theta, psi):
    out = alpha_gaussian(alpha, r, theta, psi)
    lo, hi = math.exp(-r) * abs(alpha), math.exp(r) * abs(alpha)
    assert lo * (1 - 1e-9) <= abs(out) <= hi * (1 + 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    nbar=st.floats(min_value=0.0, max_value=10.0, **finite),
    eta=amplitudes,
    r=small_r,
    theta=angles,
)
@example(nbar=0.375, eta=5j, r=1.7578125, theta=0.0)  # Gamma ~ exp(-736) would be subnormal
def test_closed_forms_are_unit_interval_and_dual(nbar, eta, r, theta):
    g = gamma_closed(nbar, eta, r, theta)
    b = b_closed(nbar, eta, r, theta)
    assert 0.0 <= g <= 1.0
    assert 0.0 < b <= 1.0
    # The decoherence factor is never above the overlap: coth >= tanh.
    assert g <= b * (1 + 1e-12)
    e0 = abs(alpha_gaussian(eta, r, theta, 0.0)) ** 2 / 2.0
    if e0 > 0.0 and g > 0.0:
        assert math.log(g) * math.log(b) == pytest.approx(e0**2, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(g=unit, b=unit)
def test_classifier_is_total(g, b):
    assert classify_regime(g, b) is not None


@settings(max_examples=25, deadline=None)
@given(
    traced=st.integers(min_value=1, max_value=8),
    n_mac=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampled_blocks_split_one_uniform_draw(traced, n_mac, size, seed):
    sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)
    spec = make_spec(macrofraction_size=size, n_macrofractions=n_mac, traced_size=traced)
    r = sample_environment(spec, sys, seed)
    assert len(r.traced) == traced
    assert [len(m) for m in r.macrofractions] == [size] * n_mac
    blocks = [r.traced, *r.macrofractions]
    draw = np.random.default_rng(seed).uniform(OMEGA_LOW, OMEGA_HIGH, traced + n_mac * size)
    np.testing.assert_array_equal(np.concatenate([b.omega for b in blocks]), draw)
    # The per-mode expression of the amplitude prefactor, bit for bit.
    c = coupling_constant(MASS_M, M_ENV, GAMMA0)
    for b in blocks:
        for w, pref in zip(b.omega, b.pref):
            assert pref == c / (2.0 * np.sqrt(2.0 * M_ENV * float(w)))
