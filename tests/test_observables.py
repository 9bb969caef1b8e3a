import numpy as np
import pytest

from qbm_sbs import kernels
from qbm_sbs.constants import HBAR
from qbm_sbs.dynamics import alpha_momentum
from qbm_sbs.errors import ConfigurationError, DomainError
from qbm_sbs.model import EnvInitialState, Modes, SqueezeAxis, SystemParams, sample_environment
from qbm_sbs.observables import (
    UNDERFLOW,
    RegimeFlag,
    _exponent_sum,
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
            realization.macrofraction, system, thermal_state, 0.0
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
        b = overlap_macrofraction(realization.macrofraction, system, thermal_state, T_GRID)
        assert np.all((0.0 <= g) & (g <= 1.0))
        assert np.all((0.0 <= b) & (b <= 1.0))

    def test_scalar_and_array_agree(self, system, realization, thermal_state):
        g_arr = decoherence_factor(realization.traced, system, thermal_state, T_GRID[:5])
        for i, t in enumerate(T_GRID[:5]):
            assert decoherence_factor(realization.traced, system, thermal_state, float(t)) == g_arr[i]

    def test_two_dimensional_times_keep_their_shape(self, system, realization, thermal_state):
        # Like dynamics.alpha_momentum, the per-mode reference, a factor takes t of any shape.
        times = T_GRID[10:16]
        for factor, fraction in (
            (decoherence_factor, realization.traced),
            (overlap_macrofraction, realization.macrofraction),
        ):
            flat = factor(fraction, system, thermal_state, times)
            got = factor(fraction, system, thermal_state, times.reshape(2, 3))
            assert got.shape == (2, 3)
            assert got.tobytes() == flat.reshape(2, 3).tobytes()

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
                realization.macrofraction, system, EnvInitialState(temperature=T), t
            )
            for T in temps
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rotation_without_squeezing_is_invisible(self, system, realization):
        base = EnvInitialState(temperature=1e-2)
        rotated = EnvInitialState(temperature=1e-2, squeeze_theta=0.7)
        g0 = decoherence_factor(realization.traced, system, base, T_GRID)
        g1 = decoherence_factor(realization.traced, system, rotated, T_GRID)
        np.testing.assert_array_equal(g0, g1)


class TestUnderflowCap:
    """The factor path stops adding modes once exp(-sum) is exactly 0, with no change to any bit."""

    TEMPS = (1e-4, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e3, 1e5)

    @pytest.mark.parametrize("n_modes", [1, 9, 30, 100])
    @pytest.mark.parametrize("r", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("axis", list(SqueezeAxis))
    def test_capped_factors_are_exp_of_the_full_exponent(self, monkeypatch, axis, r, n_modes):
        sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP, squeezing_axis=axis)
        real = sample_environment(make_spec(n_modes, n_modes), sys, 11)
        times = np.random.default_rng(3).uniform(0.0, 1e-5, 2000)
        series = kernels.exponent_series
        shares = []

        def recorded(*args, **kwargs):
            out = series(*args, **kwargs)
            shares.append(np.mean(out != series(*args)))  # times returned as partial sums
            return out

        for temperature in self.TEMPS:
            state = EnvInitialState(temperature=temperature, squeeze_r=r, squeeze_theta=0.3)
            for factor, fraction, kind in (
                (decoherence_factor, real.traced, "coth"),
                (overlap_macrofraction, real.macrofraction, "tanh"),
            ):
                with monkeypatch.context() as m:
                    m.setattr(kernels, "exponent_series", recorded)
                    got = factor(fraction, sys, state, times)
                assert np.array_equal(got, np.exp(-_exponent_sum(fraction, sys, state, times, kind)))
        # One mode is one block: nothing to stop.  Otherwise the grid holds
        # calls where no time, some times and every time stopped early.
        if n_modes == 1:
            assert max(shares) == 0.0
        else:
            assert min(shares) == 0.0 and max(shares) == 1.0
            assert any(0.0 < s < 1.0 for s in shares)

    @pytest.mark.parametrize("n", [1, 10**4])
    def test_exp_is_zero_from_the_underflow_bound(self, n):
        rng = np.random.default_rng(4)
        for x in (
            np.full(n, UNDERFLOW),
            UNDERFLOW + rng.uniform(0.0, 1e4, n),
            UNDERFLOW * 10.0 ** rng.uniform(0.0, 300.0, n),
            np.full(n, np.inf),
        ):
            assert np.all(np.exp(-x) == 0.0)
        # A capped exponent is scale * (UNDERFLOW / scale) or more, which can
        # round below UNDERFLOW by an ulp or two; exp(-x) is 0 there too.
        scale = 10.0 ** rng.uniform(-300.0, 300.0, n)
        assert np.all(np.exp(-(scale * (UNDERFLOW / scale))) == 0.0)
        assert np.exp(-745.2) == 0.0 < np.exp(-745.1)

    def test_overflow_after_the_cap_still_raises(self):
        # Alone, the first mode's exponent passes the cap at every sampled time;
        # a later mode then overflows, by its gain or by its phase.
        sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=1e-7)
        state = EnvInitialState(temperature=10.0)
        omega = np.array([3.0e9, 4.0e9, 5.0e9, 6.0e9])
        pref = np.full(4, sample_environment(make_spec(1, 1), sys, 0).traced.pref[0])
        times = np.random.default_rng(6).uniform(1e-8, 1e-5, 50)
        t_over = np.linspace(1.0, 1.1, 50) * (np.finfo(float).max / (0.5 * omega.max()))
        assert np.isfinite(0.5 * omega[0] * t_over).all()
        huge = pref.copy()
        huge[3] = 1e160  # pref^2 overflows
        for fraction, t in ((Modes(omega, huge), times), (Modes(omega, pref), t_over)):
            with np.errstate(invalid="ignore"):
                assert np.all(decoherence_factor(fraction[:1], sys, state, t) == 0.0)
            with pytest.raises(DomainError, match="exponent sum is not finite"):
                decoherence_factor(fraction, sys, state, t)


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
