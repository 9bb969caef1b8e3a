import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qbm_sbs import sweeps
from qbm_sbs.errors import ConfigurationError
from qbm_sbs.model import EnvInitialState, SystemParams, sample_environment
from qbm_sbs.sweeps import (
    TimeSampler,
    position_squeezing_comparison,
    temperature_sweep,
    time_average,
    time_series,
)

from conftest import MASS_M, OMEGA_BIG, X_SEP, make_spec

SMALL = dict(macrofraction_size=4, traced_size=4)


@pytest.fixture(scope="module")
def small_realization():
    sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)
    return sample_environment(make_spec(seed=5, **SMALL), sys)


class TestTimeSampler:
    def test_grid_includes_endpoints(self):
        t = TimeSampler(kind="grid", n=11).times(1.0)
        assert t[0] == 0.0 and t[-1] == 1.0 and len(t) == 11

    def test_random_is_seed_deterministic(self):
        a = TimeSampler(kind="random", n=100, seed=3).times(2e-8)
        b = TimeSampler(kind="random", n=100, seed=3).times(2e-8)
        np.testing.assert_array_equal(a, b)
        c = TimeSampler(kind="random", n=100, seed=4).times(2e-8)
        assert not np.array_equal(a, c)

    def test_random_within_window(self):
        t = TimeSampler(kind="random", n=1000, seed=1).times(3e-8)
        assert np.all((0.0 <= t) & (t <= 3e-8))

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            TimeSampler(kind="grid", n=1).times(1.0)
        with pytest.raises(ConfigurationError):
            TimeSampler(kind="sobol", n=10).times(1.0)


class TestTimeSeries:
    def test_first_point_is_unity(self, system, small_realization, thermal_state):
        s = time_series(small_realization, system, thermal_state, 2e-8, 64)
        assert s.times[0] == 0.0
        assert s.gamma[0] == 1.0
        assert s.b[0] == 1.0
        assert len(s.times) == len(s.gamma) == len(s.b) == 64

    def test_invalid_grid(self, system, small_realization, thermal_state):
        with pytest.raises(ConfigurationError):
            time_series(small_realization, system, thermal_state, 0.0, 10)
        with pytest.raises(ConfigurationError):
            time_series(small_realization, system, thermal_state, 1e-8, 1)
        for t_max in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                time_series(small_realization, system, thermal_state, t_max, 10)


class TestTimeAverage:
    def test_constant_observable_converges_exactly(self, small_realization, thermal_state):
        sys0 = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=0.0)
        sampler = TimeSampler(kind="random", n=200, seed=9)
        res = time_average(small_realization, sys0, thermal_state, 1e-5, sampler)
        assert res.gamma_avg == 1.0 and res.b_avg == 1.0
        assert res.gamma_drift == 0.0 and res.b_drift == 0.0
        assert res.converged
        assert res.warning is None

    def test_short_window_warns(self, system, small_realization, thermal_state):
        sampler = TimeSampler(kind="grid", n=50)
        tau = 2.0 * math.pi / OMEGA_BIG  # a single system period
        res = time_average(small_realization, system, thermal_state, tau, sampler)
        assert res.warning is not None and "transient" in res.warning

    def test_deterministic(self, system, small_realization, thermal_state):
        sampler = TimeSampler(kind="random", n=500, seed=21)
        a = time_average(small_realization, system, thermal_state, 1e-5, sampler)
        b = time_average(small_realization, system, thermal_state, 1e-5, sampler)
        assert a == b

    def test_nonpositive_tau_rejected(self, system, small_realization, thermal_state):
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                time_average(
                    small_realization, system, thermal_state, tau, TimeSampler(kind="grid", n=4)
                )


class TestTemperatureSweep:
    TEMPS = np.array([1e-3, 1e-1, 10.0])

    def run(self, system, threads=1, seed=77):
        return temperature_sweep(
            make_spec(**SMALL),
            system,
            EnvInitialState(temperature=1.0),
            self.TEMPS,
            n_realizations=3,
            tau=1e-5,
            n_time_samples=400,
            master_seed=seed,
            threads=threads,
        )

    def test_shape_and_determinism(self, system):
        a = self.run(system)
        b = self.run(system)
        assert len(a) == 3
        assert a == b

    def test_threads_do_not_change_results(self, system):
        assert self.run(system, threads=1) == self.run(system, threads=4)

    def test_zero_threads_rejected(self, system):
        with pytest.raises(ConfigurationError, match="threads must be >= 1"):
            self.run(system, threads=0)

    def test_pool_never_exceeds_cells(self, system, monkeypatch):
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(sweeps, "ThreadPoolExecutor", pool)
        assert self.run(system, threads=12) == self.run(system, threads=1)
        assert sizes == [len(self.TEMPS) * 3]

    def test_seed_changes_results(self, system):
        a = self.run(system, seed=77)
        b = self.run(system, seed=78)
        assert a != b

    def test_hot_bath_decoheres_more(self, system):
        rows = self.run(system)
        assert rows[-1].gamma_avg < rows[0].gamma_avg
        assert rows[-1].b_avg > rows[0].b_avg

    def test_invalid_grids(self, system, thermal_state):
        spec = make_spec(**SMALL)
        bad_grids = (
            np.array([]),
            np.array([2.0, 1.0]),
            np.array([-1.0, 1.0]),
            np.array([1.0, np.inf]),
            np.array([np.nan, 1.0]),
        )
        for bad in bad_grids:
            with pytest.raises(ConfigurationError):
                temperature_sweep(
                    spec, system, thermal_state, bad, 1, 1e-5, 10, master_seed=0
                )


class TestSqueezingComparison:
    def run(self, system, x_sep=X_SEP):
        sys = SystemParams(
            mass_M=system.mass_M, omega_big=system.omega_big, x_sep=x_sep
        )
        return position_squeezing_comparison(
            make_spec(**SMALL),
            sys,
            EnvInitialState(temperature=1e-2),
            tau=1e-5,
            n_time_samples=400,
            t_max=2.2e-8,
            n_points=256,
            n_realizations=2,
            master_seed=11,
        )

    def test_row_count_and_window(self, system):
        cmp = self.run(system)
        assert len(cmp.rows) == 2
        t_sys = 2.0 * math.pi / OMEGA_BIG
        assert cmp.revival_window == (t_sys, 2.2e-8)

    def test_identical_axes_give_unit_ratio(self, system):
        cmp = self.run(system, x_sep=0.0)
        assert all(r.ratio == 1.0 for r in cmp.rows)
        assert cmp.mean_ratio == 1.0

    def test_empty_window_rejected(self, system):
        with pytest.raises(ConfigurationError):
            position_squeezing_comparison(
                make_spec(**SMALL),
                system,
                EnvInitialState(temperature=1e-2),
                tau=1e-5,
                n_time_samples=100,
                t_max=1e-9,
                n_points=16,
                n_realizations=1,
                master_seed=0,
            )
