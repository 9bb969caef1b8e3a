import math

import numpy as np
import pytest

from qbm_sbs.errors import ConfigurationError, DomainError
from qbm_sbs.model import (
    EnvInitialState,
    EnvironmentSpec,
    Oscillator,
    SystemParams,
    coupling_constant,
    is_off_resonant,
    partition_macrofractions,
    sample_environment,
)

from conftest import GAMMA0, M_ENV, MASS_M, make_spec


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

    def test_scale_covariance(self):
        lam = 3.7
        c1 = coupling_constant(MASS_M, M_ENV, GAMMA0)
        c2 = coupling_constant(lam * MASS_M, M_ENV, GAMMA0)
        assert c2 == pytest.approx(math.sqrt(lam) * c1, rel=1e-12)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_nonpositive_inputs_rejected(self, bad):
        with pytest.raises(DomainError):
            coupling_constant(*bad)


class TestTypes:
    def test_system_params_validation(self):
        with pytest.raises(DomainError):
            SystemParams(mass_M=-1, omega_big=1, x_sep=0)
        with pytest.raises(DomainError):
            SystemParams(mass_M=1, omega_big=0, x_sep=0)
        with pytest.raises(DomainError):
            SystemParams(mass_M=1, omega_big=1, x_sep=-1)
        for field in ("mass_M", "omega_big", "x_sep"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    SystemParams(**{"mass_M": 1, "omega_big": 1, "x_sep": 0, field: bad})

    def test_oscillator_validation(self):
        with pytest.raises(DomainError):
            Oscillator(omega=0, mass=1, coupling=1)
        with pytest.raises(DomainError):
            Oscillator(omega=1, mass=0, coupling=1)

    def test_env_state_validation(self):
        with pytest.raises(DomainError):
            EnvInitialState(temperature=-1)
        with pytest.raises(DomainError):
            EnvInitialState(temperature=1, squeeze_r=-0.1)
        with pytest.raises(DomainError, match="cosh"):
            EnvInitialState(temperature=1, squeeze_r=400)
        bad_values = {
            "temperature": (math.nan, math.inf),
            "squeeze_r": (math.nan, math.inf),
            "squeeze_theta": (math.nan, -math.inf),
            "rot_psi": (math.nan, math.inf),
            "displacement_gamma": (complex(1.0, math.nan), complex(math.inf, 0.0)),
        }
        for field, values in bad_values.items():
            for bad in values:
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    EnvInitialState(**{"temperature": 1, field: bad})

    def test_spec_divisibility(self):
        with pytest.raises(ConfigurationError):
            EnvironmentSpec(
                n_total=8,
                omega_low=3e9,
                omega_high=6e9,
                gamma0=GAMMA0,
                m_env=M_ENV,
                n_macrofractions=2,
                traced_size=3,
                seed=0,
            )

    @pytest.mark.parametrize("field", ["omega_low", "omega_high", "gamma0", "m_env"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spec_non_finite_rejected(self, field, bad):
        values = dict(
            n_total=60,
            omega_low=3e9,
            omega_high=6e9,
            gamma0=GAMMA0,
            m_env=M_ENV,
            n_macrofractions=1,
            traced_size=30,
            seed=0,
        )
        values[field] = bad
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            EnvironmentSpec(**values)


class TestSampling:
    def test_reference_band_accepted(self, system):
        realization = sample_environment(make_spec(), system)
        assert len(realization.traced) == 30
        assert len(realization.macrofractions) == 1
        assert len(realization.macrofractions[0]) == 30

    def test_band_containing_central_frequency_rejected(self, system):
        spec = make_spec()
        bad = EnvironmentSpec(
            n_total=spec.n_total,
            omega_low=1e8,
            omega_high=6e9,
            gamma0=GAMMA0,
            m_env=M_ENV,
            n_macrofractions=1,
            traced_size=30,
            seed=0,
        )
        with pytest.raises(ConfigurationError, match="resonant band"):
            sample_environment(bad, system)

    def test_same_seed_identical(self, system):
        a = sample_environment(make_spec(seed=123), system)
        b = sample_environment(make_spec(seed=123), system)
        assert a == b

    def test_different_seed_differs(self, system):
        a = sample_environment(make_spec(seed=1), system)
        b = sample_environment(make_spec(seed=2), system)
        assert a != b

    def test_frequencies_in_band_and_off_resonant(self, system):
        realization = sample_environment(make_spec(seed=99), system)
        for osc in realization.traced + realization.macrofractions[0]:
            assert 3e9 <= osc.omega <= 6e9
            assert is_off_resonant(osc.omega, system.omega_big)


class TestPartition:
    def _oscillators(self, n):
        return [Oscillator(omega=3e9 + i, mass=M_ENV, coupling=1.0) for i in range(n)]

    def test_symmetric_split(self):
        r = partition_macrofractions(self._oscillators(60), 1, 30)
        assert len(r.traced) == 30 and len(r.macrofractions[0]) == 30

    def test_small_split(self):
        r = partition_macrofractions(self._oscillators(20), 1, 10)
        assert len(r.traced) == 10 and len(r.macrofractions[0]) == 10

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_macrofractions(self._oscillators(8), 2, 3)

    def test_blocks_are_disjoint_and_ordered(self):
        oscs = self._oscillators(10)
        r = partition_macrofractions(oscs, 2, 4)
        assert list(r.traced) == oscs[:4]
        assert list(r.macrofractions[0]) == oscs[4:7]
        assert list(r.macrofractions[1]) == oscs[7:]
