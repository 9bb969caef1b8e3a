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
    classify_regime,
    decoherence_factor,
    overlap_macrofraction,
)

# Relative convergence threshold, with an absolute floor for averages that sit
# at the numerical zero of the [0, 1] scale.
CONV_REL = 0.01
CONV_ABS = 1.0e-4
TRANSIENT_PERIODS = 10


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
    n_samples: int
    tau: float
    warning: str | None = None


@dataclass(frozen=True)
class SweepRow:
    temperature: float
    gamma_avg: float
    gamma_stderr: float
    b_avg: float
    b_stderr: float
    regime: RegimeFlag
    n_time_samples: int
    tau: float
    all_converged: bool = True


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
    series_position: TimeSeries
    series_momentum: TimeSeries
    revival_window: tuple[float, float]

    @property
    def mean_ratio(self) -> float:
        return math.fsum(r.ratio for r in self.rows) / len(self.rows)

    @property
    def mean_revival_position(self) -> float:
        return math.fsum(r.revival_position for r in self.rows) / len(self.rows)


def time_series(
    realization: EnvironmentRealization,
    sys: SystemParams,
    env_state: EnvInitialState,
    t_max: float,
    n_points: int,
) -> TimeSeries:
    """Both observables on a uniform grid including t = 0."""
    if n_points < 2 or not 0 < t_max < math.inf:
        raise ConfigurationError(
            f"need n_points >= 2 and a finite t_max > 0, got {n_points}, {t_max}"
        )
    t = np.linspace(0.0, t_max, n_points)
    gamma = decoherence_factor(realization.traced, sys, env_state, t)
    b = overlap_macrofraction(realization.macrofractions[0], sys, env_state, t)
    return TimeSeries(times=t, gamma=gamma, b=b)


def _drift_converged(full: float, half: float) -> tuple[float, bool]:
    drift = abs(full - half)
    return drift, drift <= max(CONV_REL * max(abs(full), abs(half)), CONV_ABS)


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
    warning = None
    if tau < TRANSIENT_PERIODS * 2.0 * math.pi / sys.omega_big:
        warning = (
            f"tau={tau:g}s is shorter than {TRANSIENT_PERIODS} system periods; "
            "the average is dominated by the transient"
        )
    gamma = decoherence_factor(realization.traced, sys, env_state, t)
    b = overlap_macrofraction(realization.macrofractions[0], sys, env_state, t)
    # Half-sample estimate on every other sample, an unbiased subset of the
    # i.i.d. draws.
    g_full, b_full = float(gamma.mean()), float(b.mean())
    g_half, b_half = float(gamma[::2].mean()), float(b[::2].mean())
    g_drift, g_ok = _drift_converged(g_full, g_half)
    b_drift, b_ok = _drift_converged(b_full, b_half)
    return TimeAverageResult(
        gamma_avg=g_full,
        b_avg=b_full,
        gamma_drift=g_drift,
        b_drift=b_drift,
        converged=g_ok and b_ok,
        n_samples=len(t),
        tau=tau,
        warning=warning,
    )


def cell_seeds(master_seed: int, t_index: int, realization_index: int) -> tuple[int, int]:
    """(disorder seed, time-sample seed) of one (temperature, realization) cell."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(t_index, realization_index))
    env_seed, time_seed = ss.generate_state(2, dtype=np.uint64)
    return int(env_seed), int(time_seed)


def temperature_sweep(
    spec: EnvironmentSpec,
    sys: SystemParams,
    env_state: EnvInitialState,
    temperatures: np.ndarray,
    n_realizations: int,
    tau: float,
    n_time_samples: int,
    master_seed: int,
    eps: float = DEFAULT_EPS,
    eps_hi: float = DEFAULT_EPS_HI,
    threads: int = 1,
) -> list[SweepRow]:
    """Ensemble mean and standard error of both time averages per temperature.

    Realization seeds derive from ``master_seed`` and the (temperature,
    realization) cell index.  ``env_state.temperature`` is overridden per
    grid point.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    if len(temperatures) == 0 or not np.all((temperatures > 0) & np.isfinite(temperatures)):
        raise ConfigurationError("temperature grid must be non-empty, finite and positive")
    if np.any(np.diff(temperatures) <= 0):
        raise ConfigurationError("temperature grid must be strictly ascending")
    if n_realizations < 1:
        raise ConfigurationError(f"n_realizations must be >= 1, got {n_realizations}")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")

    def run_cell(args):
        ti, ri = args
        env_seed, time_seed = cell_seeds(master_seed, ti, ri)
        realization = sample_environment(spec, sys, env_seed)
        state = replace(env_state, temperature=float(temperatures[ti]))
        return time_average(realization, sys, state, tau, n_time_samples, time_seed)

    cells = [(ti, ri) for ti in range(len(temperatures)) for ri in range(n_realizations)]
    workers = min(threads, len(cells))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(run_cell, cells))
    else:
        flat = [run_cell(c) for c in cells]

    rows = []
    for ti, temp in enumerate(temperatures):
        res = flat[ti * n_realizations : (ti + 1) * n_realizations]
        g_mean = math.fsum(r.gamma_avg for r in res) / n_realizations
        b_mean = math.fsum(r.b_avg for r in res) / n_realizations
        if n_realizations > 1:
            g_err = math.sqrt(
                math.fsum((r.gamma_avg - g_mean) ** 2 for r in res) / (n_realizations - 1) / n_realizations
            )
            b_err = math.sqrt(
                math.fsum((r.b_avg - b_mean) ** 2 for r in res) / (n_realizations - 1) / n_realizations
            )
        else:
            g_err = b_err = 0.0
        rows.append(
            SweepRow(
                temperature=float(temp),
                gamma_avg=g_mean,
                gamma_stderr=g_err,
                b_avg=b_mean,
                b_stderr=b_err,
                regime=classify_regime(min(g_mean, 1.0), min(b_mean, 1.0), eps, eps_hi),
                n_time_samples=n_time_samples,
                tau=tau,
                all_converged=all(r.converged for r in res),
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
    must exceed t_S for the window to be non-empty.  Both axes average
    |Gamma| over the same sampled times.
    """
    t_sys = 2.0 * math.pi / sys.omega_big
    window = (t_sys, t_max)
    if window[0] >= window[1]:
        raise ConfigurationError(
            f"t_max={t_max:g}s leaves an empty revival window starting at {window[0]:g}s"
        )
    if n_realizations < 1:
        raise ConfigurationError(f"n_realizations must be >= 1, got {n_realizations}")
    sys_pos = replace(sys, squeezing_axis=SqueezeAxis.POSITION)
    sys_mom = replace(sys, squeezing_axis=SqueezeAxis.MOMENTUM)

    rows = []
    series_pos = series_mom = None
    for ri in range(n_realizations):
        env_seed, time_seed = cell_seeds(master_seed, 0, ri)
        realization = sample_environment(spec, sys, env_seed)
        sp = time_series(realization, sys_pos, env_state, t_max, n_points)
        sm = time_series(realization, sys_mom, env_state, t_max, n_points)
        if ri == 0:
            series_pos, series_mom = sp, sm
        late = sp.times >= window[0]
        t = sample_times(tau, n_time_samples, time_seed)
        avg_p = float(decoherence_factor(realization.traced, sys_pos, env_state, t).mean())
        avg_m = float(decoherence_factor(realization.traced, sys_mom, env_state, t).mean())
        if avg_m == avg_p:
            ratio = 1.0
        else:
            ratio = avg_p / avg_m if avg_m > 0 else math.inf
        rows.append(
            SqueezingComparisonRow(
                realization_index=ri,
                gamma_avg_position=avg_p,
                gamma_avg_momentum=avg_m,
                ratio=ratio,
                revival_position=float(sp.gamma[late].max()),
                revival_momentum=float(sm.gamma[late].max()),
            )
        )
    return SqueezingComparison(
        rows=tuple(rows),
        series_position=series_pos,
        series_momentum=series_mom,
        revival_window=window,
    )
