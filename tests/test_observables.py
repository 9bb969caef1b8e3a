import numpy as np
import pytest

from qbm_sbs.constants import HBAR
from qbm_sbs.dynamics import alpha_momentum
from qbm_sbs.errors import ConfigurationError, DomainError
from qbm_sbs.model import EnvInitialState, SystemParams, sample_environment
from qbm_sbs.observables import (
    RegimeFlag,
    classify_regime,
    decoherence_factor,
    overlap_macrofraction,
)

from conftest import MASS_M, OMEGA_BIG, X_SEP, log_factors, make_spec
from test_dynamics import make_osc

T_GRID = np.linspace(0.0, 2e-8, 80)


@pytest.fixture(scope="module")
def realization():
    sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)
    return sample_environment(make_spec(), sys, 42)


class TestLimits:
    def test_initial_time_is_unity(self, system, realization, thermal_state):
        assert decoherence_factor(realization.traced, system, thermal_state, 0.0) == 1.0
        assert overlap_macrofraction(
            realization.macrofractions[0], system, thermal_state, 0.0
        ) == 1.0

    def test_zero_separation_is_unity(self, realization, thermal_state):
        sys0 = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=0.0)
        g = decoherence_factor(realization.traced, sys0, thermal_state, T_GRID)
        assert np.all(g == 1.0)

    def test_zero_temperature_gamma_equals_b(self, system, realization):
        state = EnvInitialState(temperature=0.0)
        g = decoherence_factor(realization.traced, system, state, T_GRID)
        b = overlap_macrofraction(realization.traced, system, state, T_GRID)
        np.testing.assert_array_equal(g, b)

    def test_values_in_unit_interval(self, system, realization, thermal_state):
        g = decoherence_factor(realization.traced, system, thermal_state, T_GRID)
        b = overlap_macrofraction(realization.macrofractions[0], system, thermal_state, T_GRID)
        assert np.all((0.0 <= g) & (g <= 1.0))
        assert np.all((0.0 <= b) & (b <= 1.0))

    def test_scalar_and_array_agree(self, system, realization, thermal_state):
        g_arr = decoherence_factor(realization.traced, system, thermal_state, T_GRID[:5])
        for i, t in enumerate(T_GRID[:5]):
            assert decoherence_factor(realization.traced, system, thermal_state, float(t)) == g_arr[i]

    def test_empty_fraction_rejected(self, system, realization, thermal_state):
        with pytest.raises(DomainError):
            decoherence_factor(realization.traced[:0], system, thermal_state, 1e-9)


class TestStructure:
    def test_multiplicative_over_modes(self, system, realization, thermal_state):
        """The log observable over a union of fractions is the sum of the parts."""
        half_a = realization.traced[:15]
        half_b = realization.traced[15:]
        t = 7.3e-9
        ga, ba = log_factors(half_a, system, thermal_state, t)
        gb, bb = log_factors(half_b, system, thermal_state, t)
        gab, bab = log_factors(realization.traced, system, thermal_state, t)
        assert gab == pytest.approx(ga + gb, rel=1e-12)
        assert bab == pytest.approx(ba + bb, rel=1e-12)

    def test_per_mode_log_product_identity(self, system, realization, thermal_state):
        """Per mode, ln gamma * ln b equals the squared zero-temperature exponent:
        the thermal weights are reciprocal."""
        t = 5.0e-9
        for k in range(5):
            lg, lb = log_factors(realization.traced[k : k + 1], system, thermal_state, t)
            osc = make_osc(float(realization.traced.omega[k]))
            e0 = X_SEP**2 / (2.0 * HBAR) * abs(alpha_momentum(osc, system, t)) ** 2
            assert lg * lb == pytest.approx(e0**2, rel=1e-10)

    def test_gamma_decreases_with_temperature(self, system, realization):
        t = 4.0e-9
        temps = [1e-3, 1e-2, 1e-1, 1.0]
        vals = [
            decoherence_factor(realization.traced, system, EnvInitialState(temperature=T), t)
            for T in temps
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_b_increases_with_temperature(self, system, realization):
        t = 4.0e-9
        temps = [1e-3, 1e-2, 1e-1, 1.0]
        vals = [
            overlap_macrofraction(
                realization.macrofractions[0], system, EnvInitialState(temperature=T), t
            )
            for T in temps
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rotation_without_squeezing_is_invisible(self, system, realization):
        base = EnvInitialState(temperature=1e-2)
        rotated = EnvInitialState(temperature=1e-2, rot_psi=1.234, squeeze_theta=0.7)
        g0 = decoherence_factor(realization.traced, system, base, T_GRID)
        g1 = decoherence_factor(realization.traced, system, rotated, T_GRID)
        np.testing.assert_array_equal(g0, g1)


class TestClassifier:
    @pytest.mark.parametrize(
        "g,b,expected",
        [
            (0.01, 0.01, RegimeFlag.SBS),
            (0.049, 0.0, RegimeFlag.SBS),
            (0.01, 0.5, RegimeFlag.CLASSICAL_QUANTUM),
            (0.0, 1.0, RegimeFlag.CLASSICAL_QUANTUM),
            (0.5, 0.2, RegimeFlag.COHERENT),
            (1.0, 1.0, RegimeFlag.COHERENT),
            (0.04, 0.1, RegimeFlag.INDETERMINATE),
            (0.1, 0.01, RegimeFlag.INDETERMINATE),
        ],
    )
    def test_examples(self, g, b, expected):
        assert classify_regime(g, b) is expected

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            classify_regime(0.1, 0.1, eps=0.5, eps_hi=0.3)
        with pytest.raises(ConfigurationError):
            classify_regime(0.1, 0.1, eps=0.0)

    def test_out_of_range_averages(self):
        with pytest.raises(DomainError):
            classify_regime(1.2, 0.1)
        with pytest.raises(DomainError):
            classify_regime(0.1, -0.01)
