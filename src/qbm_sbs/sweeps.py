"""Time series, convergence-controlled time averages and temperature sweeps.

Both observables are almost periodic in time, so the long-time mean is
estimated by seeded uniform random time sampling over a window ``tau``.
Every average carries a convergence record comparing the half-sample and
full-sample estimates.  Ensemble statistics run over fresh disorder
realizations; ``cell_seeds`` derives every disorder and time-sample seed from
a master seed and the cell index.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .model import (
    EnvInitialState,
    EnvironmentRealization,
    EnvironmentSpec,
    SqueezeAxis,
    SystemParams,
    sample_environment,
)
from .observables import (
    DEFAULT_EPS,
    DEFAULT_EPS_HI,
    RegimeFlag,
    check_thresholds,
    classify_regime,
    decoherence_factor,
    overlap_macrofraction,
)

# Relative convergence threshold, with an absolute floor for averages that sit
# at the numerical zero of the [0, 1] scale.
CONV_REL = 0.01
CONV_ABS = 1.0e-4


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray
    gamma: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class TimeAverageResult:
    gamma_avg: float
    b_avg: float
    gamma_drift: float  # |full - half| of the estimate
    b_drift: float
    converged: bool


@dataclass(frozen=True)
class SweepRow:
    temperature: float
    gamma_avg: float
    gamma_stderr: float
    b_avg: float
    b_stderr: float
    regime: RegimeFlag


@dataclass(frozen=True)
class SqueezingComparisonRow:
    realization_index: int
    gamma_avg_position: float
    gamma_avg_momentum: float
    ratio: float
    revival_position: float
    revival_momentum: float


@dataclass(frozen=True)
class SqueezingComparison:
    rows: tuple[SqueezingComparisonRow, ...]
    revival_window: tuple[float, float]

    @property
    def median_ratio(self) -> float:
        # The ratios can span hundreds of decades, where a mean reports the largest one.
        return float(np.median([r.ratio for r in self.rows]))

    @property
    def mean_revival_position(self) -> float:
        return _mean_stderr([r.revival_position for r in self.rows])[0]


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    """Ensemble mean and standard error (0 for one value, inf if the spread overflows), by fsum."""
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    try:
        return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n)
    except OverflowError:
        return mean, math.inf


def _gamma_and_b(
    realization: EnvironmentRealization, sys: SystemParams, env_state: EnvInitialState, t: np.ndarray
) -> Iterator[np.ndarray]:
    """|Gamma| of the traced fraction, then B of the macro-fraction, at the times t.

    Each is computed when the caller iterates to it, so a caller that reduces
    |Gamma| first never holds both arrays.
    """
    yield decoherence_factor(realization.traced, sys, env_state, t)
    yield overlap_macrofraction(realization.macrofraction, sys, env_state, t)


def _uniform_grid(t_max: float, n_points: int) -> np.ndarray:
    """``n_points`` uniform times on [0, t_max], both ends included."""
    if n_points < 2 or not 0 < t_max < math.inf:
        raise ConfigurationError(
            f"need n_points >= 2 and a finite t_max > 0, got {n_points}, {t_max}"
        )
    return np.linspace(0.0, t_max, n_points)


def time_series(
    realization: EnvironmentRealization,
    sys: SystemParams,
    env_state: EnvInitialState,
    t_max: float,
    n_points: int,
) -> TimeSeries:
    """Both observables on a uniform grid including t = 0."""
    t = _uniform_grid(t_max, n_points)
    gamma, b = _gamma_and_b(realization, sys, env_state, t)
    return TimeSeries(times=t, gamma=gamma, b=b)


def _sample_mean(x: np.ndarray) -> tuple[float, float, bool]:
    """Mean of i.i.d. samples, its drift from the mean of every other sample, and drift <= tolerance."""
    full, half = float(x.mean()), float(x[::2].mean())
    drift = abs(full - half)
    return full, drift, drift <= max(CONV_REL * max(abs(full), abs(half)), CONV_ABS)


def sample_times(tau: float, n: int, seed: int) -> np.ndarray:
    """``n`` seeded uniform random times in the window [0, tau]."""
    if not 0 < tau < math.inf:
        raise ConfigurationError(f"tau must be finite and > 0, got {tau}")
    if n < 2:
        raise ConfigurationError(f"need n >= 2 time samples, got {n}")
    return np.random.default_rng(seed).uniform(0.0, tau, n)


def time_average(
    realization: EnvironmentRealization,
    sys: SystemParams,
    env_state: EnvInitialState,
    tau: float,
    n_samples: int,
    seed: int,
) -> TimeAverageResult:
    """Estimate of (1/tau) * integral over [0, tau] of both observables."""
    t = sample_times(tau, n_samples, seed)
    gamma_b = _gamma_and_b(realization, sys, env_state, t)
    (g_avg, g_drift, g_ok), (b_avg, b_drift, b_ok) = map(_sample_mean, gamma_b)
    return TimeAverageResult(
        gamma_avg=g_avg, b_avg=b_avg, gamma_drift=g_drift, b_drift=b_drift,
        converged=g_ok and b_ok,
    )


def cell_seeds(master_seed: int, t_index: int, realization_index: int) -> tuple[int, int]:
    """(disorder seed, time-sample seed) of one (temperature, realization) cell."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(t_index, realization_index))
    env_seed, time_seed = ss.generate_state(2, dtype=np.uint64)
    return int(env_seed), int(time_seed)


def _usable_cpus() -> int:
    """The CPUs this process may run on where the platform says, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def temperature_sweep(
    spec: EnvironmentSpec,
    sys: SystemParams,
    env_state: EnvInitialState,
    temp_min: float,
    temp_max: float,
    n_temps: int,
    n_realizations: int,
    tau: float,
    n_time_samples: int,
    master_seed: int,
    eps: float = DEFAULT_EPS,
    eps_hi: float = DEFAULT_EPS_HI,
    threads: int = 1,
) -> list[SweepRow]:
    """Ensemble mean and standard error of both time averages per temperature.

    The temperatures are ``n_temps`` log-spaced points on [temp_min, temp_max]
    (``[temp_min]`` for one point).  Realization seeds derive from
    ``master_seed`` and the (temperature, realization) cell index.
    ``env_state.temperature`` is overridden per grid point.
    """
    # Bounds come before any log; coinciding points (temp_min == temp_max, n_temps > 1) fail the ascent.
    temperatures = np.empty(0)
    if n_temps >= 1 and 0 < temp_min <= temp_max < math.inf:
        lo, hi = math.log10(temp_min), math.log10(temp_max)
        temperatures = np.logspace(lo, hi, n_temps) if n_temps > 1 else np.array([temp_min])
    if len(temperatures) == 0 or np.any(np.diff(temperatures) <= 0):
        raise ConfigurationError(f"bad temperature grid: [{temp_min}, {temp_max}] with {n_temps} points")
    if n_realizations < 1:
        raise ConfigurationError(f"n_realizations must be >= 1, got {n_realizations}")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    check_thresholds(eps, eps_hi)

    def run_cell(args):
        ti, ri = args
        env_seed, time_seed = cell_seeds(master_seed, ti, ri)
        realization = sample_environment(spec, sys, env_seed)
        state = replace(env_state, temperature=float(temperatures[ti]))
        return time_average(realization, sys, state, tau, n_time_samples, time_seed)

    cells = [(ti, ri) for ti in range(len(temperatures)) for ri in range(n_realizations)]
    with ThreadPoolExecutor(max_workers=min(threads, len(cells), _usable_cpus())) as pool:
        flat = list(pool.map(run_cell, cells))

    rows = []
    for ti, temp in enumerate(temperatures):
        res = flat[ti * n_realizations : (ti + 1) * n_realizations]
        g_mean, g_err = _mean_stderr([r.gamma_avg for r in res])
        b_mean, b_err = _mean_stderr([r.b_avg for r in res])
        rows.append(
            SweepRow(
                temperature=float(temp),
                gamma_avg=g_mean,
                gamma_stderr=g_err,
                b_avg=b_mean,
                b_stderr=b_err,
                regime=classify_regime(min(g_mean, 1.0), min(b_mean, 1.0), eps, eps_hi),
            )
        )
    return rows


def position_squeezing_comparison(
    spec: EnvironmentSpec,
    sys: SystemParams,
    env_state: EnvInitialState,
    tau: float,
    n_time_samples: int,
    t_max: float,
    n_points: int,
    n_realizations: int,
    master_seed: int,
) -> SqueezingComparison:
    """Run both squeezing axes at identical parameters and disorder.

    The revival metric is the maximum of |Gamma(t)| over the late window
    [t_S, t_max], where t_S = 2 pi / Omega is the system period: for the sine
    trajectory the coherence returns close to 1 once per period, so ``t_max``
    must exceed t_S for the window to be non-empty.  |Gamma| is evaluated only
    on the points of the ``time_series`` grid that lie in the window.  Both
    axes average |Gamma| over the same sampled times.
    """
    grid = _uniform_grid(t_max, n_points)
    t_sys = 2.0 * math.pi / sys.omega_big
    if t_sys >= t_max:
        raise ConfigurationError(
            f"t_max={t_max:g}s leaves an empty revival window starting at {t_sys:g}s"
        )
    if n_realizations < 1:
        raise ConfigurationError(f"n_realizations must be >= 1, got {n_realizations}")
    late = grid[grid >= t_sys]
    axes = [replace(sys, squeezing_axis=axis) for axis in (SqueezeAxis.POSITION, SqueezeAxis.MOMENTUM)]

    rows = []
    for ri in range(n_realizations):
        env_seed, time_seed = cell_seeds(master_seed, 0, ri)
        realization = sample_environment(spec, sys, env_seed)
        t = sample_times(tau, n_time_samples, time_seed)
        avgs, revivals = [], []
        for axis_sys in axes:
            avgs.append(float(decoherence_factor(realization.traced, axis_sys, env_state, t).mean()))
            revivals.append(float(decoherence_factor(realization.traced, axis_sys, env_state, late).max()))
        avg_p, avg_m = avgs
        ratio = avg_p / avg_m if avg_m > 0 else math.inf if avg_p > 0 else 1.0
        rows.append(SqueezingComparisonRow(ri, avg_p, avg_m, ratio, *revivals))
    return SqueezingComparison(tuple(rows), revival_window=(t_sys, t_max))
