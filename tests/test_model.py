import math

import numpy as np
import pytest

from qbm_sbs.errors import ConfigurationError, DomainError
from qbm_sbs.model import (
    BATH_MASS,
    DEFAULT_RESONANCE_RATIO,
    EnvInitialState,
    EnvironmentSpec,
    Oscillator,
    SystemParams,
    coupling_constant,
    sample_environment,
)

from conftest import GAMMA0, M_ENV, MASS_M, OMEGA_HIGH, OMEGA_LOW, make_spec


class TestCouplingConstant:
    def test_reference_parameters(self):
        expected = 2.0 * math.sqrt(1e-5 * 1e-25 * 0.33e18 / math.pi)
        assert coupling_constant(1e-5, 1e-25, 0.33e18) == pytest.approx(expected, rel=1e-15)

    def test_factors_cancel(self):
        assert coupling_constant(math.pi, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("m_k", [1e-30, 1.0])
    def test_csq_over_mass_independent_of_mass(self, m_k):
        c = coupling_constant(MASS_M, m_k, GAMMA0)
        assert c**2 / m_k == pytest.approx(4.0 * MASS_M * GAMMA0 / math.pi, rel=1e-12)

    def test_oscillator_tests_use_the_bath_mass(self):
        assert M_ENV == BATH_MASS

    def test_scale_covariance(self):
        lam = 3.7
        c1 = coupling_constant(MASS_M, M_ENV, GAMMA0)
        c2 = coupling_constant(lam * MASS_M, M_ENV, GAMMA0)
        assert c2 == pytest.approx(math.sqrt(lam) * c1, rel=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            (0, 1, 1, "mass_M must be > 0, got 0"),
            (1, -1, 1, "m_k must be > 0, got -1"),
            (1, 1, 0, "gamma0 must be > 0, got 0"),
            (math.nan, 1, 1, "mass_M must be finite, got nan"),
            (1, math.inf, 1, "m_k must be finite, got inf"),
            (1, 1, -math.inf, "gamma0 must be finite, got -inf"),
            (-1, 1, math.nan, "gamma0 must be finite, got nan"),
        ],
    )
    def test_nonpositive_inputs_rejected(self, bad):
        *args, match = bad
        with pytest.raises(DomainError, match=match):
            coupling_constant(*args)

    def test_overflow_rejected(self):
        with pytest.raises(DomainError, match="overflows"):
            coupling_constant(MASS_M, 1e300, GAMMA0)


class TestTypes:
    def test_system_params_validation(self):
        assert SystemParams(mass_M=1, omega_big=1, x_sep=0).x_sep == 0
        with pytest.raises(DomainError, match="mass_M must be > 0, got -1"):
            SystemParams(mass_M=-1, omega_big=1, x_sep=0)
        with pytest.raises(DomainError, match="mass_M must be > 0, got 0"):
            SystemParams(mass_M=0, omega_big=1, x_sep=0)
        with pytest.raises(DomainError, match="omega_big must be > 0, got 0"):
            SystemParams(mass_M=1, omega_big=0, x_sep=0)
        with pytest.raises(DomainError, match="x_sep must be >= 0, got -1"):
            SystemParams(mass_M=1, omega_big=1, x_sep=-1)
        # every finiteness check comes before any sign check
        with pytest.raises(DomainError, match="x_sep must be finite"):
            SystemParams(mass_M=-1, omega_big=1, x_sep=math.nan)
        for field in ("mass_M", "omega_big", "x_sep"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    SystemParams(**{"mass_M": 1, "omega_big": 1, "x_sep": 0, field: bad})

    @pytest.mark.parametrize("axis", ["momentum", "banana", None])
    def test_squeezing_axis_must_be_a_member(self, axis):
        with pytest.raises(DomainError, match="squeezing_axis"):
            SystemParams(mass_M=1, omega_big=1, x_sep=0, squeezing_axis=axis)

    def test_oscillator_validation(self):
        with pytest.raises(DomainError, match="omega must be > 0, got 0"):
            Oscillator(omega=0, mass=1, coupling=1)
        with pytest.raises(DomainError, match="mass must be > 0, got 0"):
            Oscillator(omega=1, mass=0, coupling=1)
        with pytest.raises(DomainError, match="coupling must be finite"):
            Oscillator(omega=0, mass=1, coupling=math.inf)

    @pytest.mark.parametrize("field", ["omega", "mass", "coupling"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_oscillator_non_finite_rejected(self, field, bad):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            Oscillator(**{"omega": 1.0, "mass": 1.0, "coupling": 1.0, field: bad})

    def test_env_state_validation(self):
        state = EnvInitialState(temperature=0, squeeze_r=0)
        assert (state.temperature, state.squeeze_r) == (0, 0)
        with pytest.raises(DomainError, match="temperature must be >= 0, got -1"):
            EnvInitialState(temperature=-1)
        with pytest.raises(DomainError, match="squeeze_r must be >= 0, got -0.1"):
            EnvInitialState(temperature=1, squeeze_r=-0.1)
        with pytest.raises(DomainError, match="squeeze_theta must be finite"):
            EnvInitialState(temperature=-1, squeeze_theta=math.nan)
        with pytest.raises(DomainError, match="cosh"):
            EnvInitialState(temperature=1, squeeze_r=400)
        bad_values = {
            "temperature": (math.nan, math.inf),
            "squeeze_r": (math.nan, math.inf),
            "squeeze_theta": (math.nan, -math.inf),
        }
        for field, values in bad_values.items():
            for bad in values:
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    EnvInitialState(**{"temperature": 1, field: bad})

    def test_spec_validation(self):
        values = dict(macrofraction_size=30, omega_high=6e9, traced_size=30)
        with pytest.raises(ConfigurationError, match="gamma0 must be > 0, got 0"):
            EnvironmentSpec(**values, omega_low=3e9, gamma0=0)
        with pytest.raises(ConfigurationError, match="omega_low must be finite"):
            EnvironmentSpec(**values, omega_low=math.nan, gamma0=-1)

    def test_spec_rejects_empty_macrofraction(self):
        with pytest.raises(ConfigurationError, match="macrofraction_size"):
            make_spec(macrofraction_size=0)

    @pytest.mark.parametrize("field", ["omega_low", "omega_high", "gamma0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spec_non_finite_rejected(self, field, bad):
        values = dict(
            macrofraction_size=30,
            omega_low=3e9,
            omega_high=6e9,
            gamma0=GAMMA0,
            traced_size=30,
        )
        values[field] = bad
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            EnvironmentSpec(**values)


class TestSampling:
    def test_reference_band_accepted(self, system):
        realization = sample_environment(make_spec(), system, 7)
        assert len(realization.traced) == 30
        assert len(realization.macrofraction) == 30

    def test_band_containing_central_frequency_rejected(self, system):
        spec = make_spec()
        bad = EnvironmentSpec(
            macrofraction_size=spec.macrofraction_size,
            omega_low=1e8,
            omega_high=6e9,
            gamma0=GAMMA0,
            traced_size=30,
        )
        with pytest.raises(ConfigurationError, match="resonant band"):
            sample_environment(bad, system, 0)

    def test_same_seed_identical(self, system):
        a = sample_environment(make_spec(), system, 123)
        b = sample_environment(make_spec(), system, 123)
        np.testing.assert_array_equal(a.traced.omega, b.traced.omega)
        np.testing.assert_array_equal(a.macrofraction.omega, b.macrofraction.omega)

    def test_different_seed_differs(self, system):
        a = sample_environment(make_spec(), system, 1)
        b = sample_environment(make_spec(), system, 2)
        assert not np.array_equal(a.traced.omega, b.traced.omega)
        assert not np.array_equal(a.macrofraction.omega, b.macrofraction.omega)

    def test_frequencies_in_band_and_off_resonant(self, system):
        realization = sample_environment(make_spec(), system, 99)
        omega_big = system.omega_big
        for w in np.concatenate([realization.traced.omega, realization.macrofraction.omega]):
            assert 3e9 <= w <= 6e9
            assert not omega_big / DEFAULT_RESONANCE_RATIO <= w <= omega_big * DEFAULT_RESONANCE_RATIO

    @pytest.mark.parametrize(
        "mass_M,gamma0,omega_low,omega_high",
        [(MASS_M, GAMMA0, 1e-320, 1e-310), (1e-300, 1e-300, OMEGA_LOW, OMEGA_HIGH)],
        ids=["2 m omega underflows", "coupling underflows to 0"],
    )
    def test_degenerate_prefactor_rejected(self, mass_M, gamma0, omega_low, omega_high):
        sys = SystemParams(mass_M=mass_M, omega_big=3e8, x_sep=1e-9)
        spec = EnvironmentSpec(
            macrofraction_size=4, omega_low=omega_low, omega_high=omega_high, gamma0=gamma0,
            traced_size=4,
        )
        with pytest.raises(DomainError, match="bath prefactor"):
            sample_environment(spec, sys, 0)

    def test_modes_take_slices_only(self, system):
        traced = sample_environment(make_spec(), system, 5).traced
        assert len(traced[2:5]) == 3
        with pytest.raises(TypeError, match="slices only"):
            traced[2]
