import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qbm_sbs import kernels, sweeps
from qbm_sbs.errors import ConfigurationError
from qbm_sbs.model import EnvInitialState, SystemParams, sample_environment
from qbm_sbs.sweeps import (
    SqueezingComparison,
    SqueezingComparisonRow,
    _mean_stderr,
    cell_seeds,
    position_squeezing_comparison,
    sample_times,
    temperature_sweep,
    time_average,
    time_series,
)

from conftest import MASS_M, OMEGA_BIG, X_SEP, make_spec

SMALL = dict(macrofraction_size=4, traced_size=4)


@pytest.fixture(scope="module")
def small_realization():
    sys = SystemParams(mass_M=MASS_M, omega_big=OMEGA_BIG, x_sep=X_SEP)
    return sample_environment(make_spec(**SMALL), sys, 5)


class TestSampleTimes:
    def test_random_is_seed_deterministic(self):
        a = sample_times(2e-8, 100, 3)
        b = sample_times(2e-8, 100, 3)
        np.testing.assert_array_equal(a, b)
        c = sample_times(2e-8, 100, 4)
        assert not np.array_equal(a, c)

    def test_random_within_window(self):
        t = sample_times(3e-8, 1000, 1)
        assert np.all((0.0 <= t) & (t <= 3e-8))

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError, match="n >= 2"):
            sample_times(1.0, 1, 0)
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="tau must be finite"):
                sample_times(tau, 10, 0)


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
        res = time_average(small_realization, sys0, thermal_state, 1e-5, 200, 9)
        assert res.gamma_avg == 1.0 and res.b_avg == 1.0
        assert res.gamma_drift == 0.0 and res.b_drift == 0.0
        assert res.converged

    def test_deterministic(self, system, small_realization, thermal_state):
        a = time_average(small_realization, system, thermal_state, 1e-5, 500, 21)
        b = time_average(small_realization, system, thermal_state, 1e-5, 500, 21)
        assert a == b

    def test_nonpositive_tau_rejected(self, system, small_realization, thermal_state):
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                time_average(small_realization, system, thermal_state, tau, 4, 0)


class TestTemperatureSweep:
    GRID = (1e-3, 10.0, 3)  # (temp_min, temp_max, n_temps)

    def run(self, system, threads=1, seed=77):
        return temperature_sweep(
            make_spec(**SMALL),
            system,
            EnvInitialState(temperature=1.0),
            *self.GRID,
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

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool the sweep opens."""
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(sweeps, "ThreadPoolExecutor", pool)
        return sizes

    def test_pool_never_exceeds_cells(self, system, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert self.run(system, threads=12) == self.run(system, threads=1)
        assert pool_sizes == [self.GRID[2] * 3, 1]

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (1, 1), (None, 1)])
    def test_pool_never_exceeds_cpus(self, system, monkeypatch, pool_sizes, cpus, workers):
        # The CPUs this process may run on cap the pool, not the machine's
        # count; None is a platform that reports neither.
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64 if cpus else None)
        if cpus:
            monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(sweeps.os, "sched_getaffinity", raising=False)
        assert self.run(system, threads=12) == self.run(system, threads=1)
        assert pool_sizes == [workers, 1]

    def test_pool_falls_back_to_the_cpu_count(self, system, monkeypatch, pool_sizes):
        monkeypatch.delattr(sweeps.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
        self.run(system, threads=12)
        assert pool_sizes == [2]

    def test_one_thread_runs_a_one_worker_pool(self, system, pool_sizes):
        self.run(system, threads=1)
        assert pool_sizes == [1]

    @pytest.mark.parametrize("eps, eps_hi", [(0.5, 0.3), (0.0, 0.3), (0.05, 1.0)])
    def test_bad_thresholds_rejected_before_any_cell(self, system, monkeypatch, eps, eps_hi):
        calls = []
        monkeypatch.setattr(sweeps, "time_average", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError, match="0 < eps < eps_hi < 1"):
            temperature_sweep(
                make_spec(**SMALL), system, EnvInitialState(temperature=1.0), *self.GRID,
                n_realizations=3, tau=1e-5, n_time_samples=400, master_seed=77,
                eps=eps, eps_hi=eps_hi,
            )
        assert calls == []

    def test_seed_changes_results(self, system):
        a = self.run(system, seed=77)
        b = self.run(system, seed=78)
        assert a != b

    def test_hot_bath_decoheres_more(self, system):
        rows = self.run(system)
        assert rows[-1].gamma_avg < rows[0].gamma_avg
        assert rows[-1].b_avg > rows[0].b_avg

    def test_invalid_grids(self, system, thermal_state, monkeypatch):
        calls = []
        monkeypatch.setattr(sweeps, "time_average", lambda *args: calls.append(args))
        bad_grids = (
            (1.0, 10.0, 0),
            (2.0, 1.0, 2),
            (-1.0, 1.0, 2),
            (0.0, 1.0, 2),
            (1.0, math.inf, 2),
            (math.nan, 1.0, 2),
            (1.0, 1.0, 3),  # coinciding points
        )
        for bad in bad_grids:
            # The thresholds are bad too: the grid is checked first.
            with pytest.raises(ConfigurationError, match="bad temperature grid"):
                temperature_sweep(
                    make_spec(**SMALL), system, thermal_state, *bad, 1, 1e-5, 10, master_seed=0,
                    eps=0.5, eps_hi=0.3,
                )
        assert calls == []

    @pytest.mark.parametrize(
        "grid, temperatures",
        [((1e-4, 10.0, 13), np.logspace(-4.0, 1.0, 13)), ((0.1, 0.1, 1), [0.1])],
    )
    def test_grid_is_the_log_grid(self, system, thermal_state, grid, temperatures):
        rows = temperature_sweep(
            make_spec(**SMALL), system, thermal_state, *grid, 1, 1e-5, 10, master_seed=0
        )
        np.testing.assert_array_equal([r.temperature for r in rows], temperatures)


class TestSqueezingComparison:
    N_TIME_SAMPLES = 400
    T_MAX = 2.2e-8
    N_POINTS = 256

    def run(self, system, x_sep=X_SEP, t_max=T_MAX, n_points=N_POINTS):
        sys = SystemParams(
            mass_M=system.mass_M, omega_big=system.omega_big, x_sep=x_sep
        )
        return position_squeezing_comparison(
            make_spec(**SMALL),
            sys,
            EnvInitialState(temperature=1e-2),
            tau=1e-5,
            n_time_samples=self.N_TIME_SAMPLES,
            t_max=t_max,
            n_points=n_points,
            n_realizations=2,
            master_seed=11,
        )

    def test_averages_match_time_average(self, system, system_position):
        cmp = self.run(system)
        state = EnvInitialState(temperature=1e-2)
        for row in cmp.rows:
            env_seed, time_seed = cell_seeds(11, 0, row.realization_index)
            realization = sample_environment(make_spec(**SMALL), system, env_seed)
            for sys, avg in ((system_position, row.gamma_avg_position), (system, row.gamma_avg_momentum)):
                res = time_average(realization, sys, state, 1e-5, self.N_TIME_SAMPLES, time_seed)
                assert avg == res.gamma_avg

    def test_revival_is_the_late_maximum_of_the_time_series(self, system, system_position):
        cmp = self.run(system)
        state = EnvInitialState(temperature=1e-2)
        t_sys = 2.0 * math.pi / OMEGA_BIG
        for row in cmp.rows:
            env_seed, _ = cell_seeds(11, 0, row.realization_index)
            realization = sample_environment(make_spec(**SMALL), system, env_seed)
            for sys, revival in ((system_position, row.revival_position), (system, row.revival_momentum)):
                s = time_series(realization, sys, state, self.T_MAX, self.N_POINTS)
                assert revival == s.gamma[s.times >= t_sys].max()

    def test_two_sampled_kernel_calls_per_realization(self, system, monkeypatch):
        exponent_series = kernels.exponent_series
        sizes = []

        def counted(times, *args, **kwargs):
            sizes.append(len(times))
            return exponent_series(times, *args, **kwargs)

        monkeypatch.setattr(kernels, "exponent_series", counted)
        cmp = self.run(system)
        grid = np.linspace(0.0, self.T_MAX, self.N_POINTS)
        n_late = int(np.count_nonzero(grid >= 2.0 * math.pi / OMEGA_BIG))
        # Per realization and axis: the sampled times for the average, the late grid points for the revival.
        assert sorted(sizes) == sorted([self.N_TIME_SAMPLES, n_late] * 2 * len(cmp.rows))

    def test_row_count_and_window(self, system):
        cmp = self.run(system)
        assert len(cmp.rows) == 2
        t_sys = 2.0 * math.pi / OMEGA_BIG
        assert cmp.revival_window == (t_sys, 2.2e-8)

    def test_identical_axes_give_unit_ratio(self, system):
        cmp = self.run(system, x_sep=0.0)
        assert all(r.ratio == 1.0 for r in cmp.rows)
        assert cmp.median_ratio == 1.0

    def test_summary_ratio_is_the_median(self):
        rows = tuple(
            SqueezingComparisonRow(i, 1.0, 1.0, ratio, 1.0, 1.0)
            for i, ratio in enumerate([1.0, 2.0, 1e200])
        )
        cmp = SqueezingComparison(rows, revival_window=(0.0, 1.0))
        assert cmp.median_ratio == 2.0

    @pytest.mark.parametrize("t_max, n_points", [(math.nan, N_POINTS), (math.inf, N_POINTS), (T_MAX, 1)])
    def test_bad_grid_rejected(self, system, t_max, n_points):
        with pytest.raises(ConfigurationError, match="n_points >= 2 and a finite t_max"):
            self.run(system, t_max=t_max, n_points=n_points)

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


def test_mean_stderr_is_the_sample_formula_and_survives_overflow():
    values = [0.1, 0.2, 0.6]
    mean, err = _mean_stderr(values)
    assert mean == pytest.approx(0.3)
    assert err == pytest.approx(np.std(values, ddof=1) / math.sqrt(len(values)))
    assert _mean_stderr([0.5]) == (0.5, 0.0)
    # Squeezing-axis ratios reach 1e238 at T = 2 K; their spread squared overflows.
    assert _mean_stderr([1e200, 3e200]) == (2e200, math.inf)
