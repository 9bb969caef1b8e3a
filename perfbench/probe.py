"""Direct kernel probe: ns per (mode x time sample) of ``kernels.exponent_series``.

Each configuration is timed on inputs drawn from the benchmark seed, at the
reference physics, and its output is checked against the per-mode reference
in ``qbm_sbs.dynamics`` (``alpha_momentum`` / ``alpha_position`` followed by
``alpha_gaussian``), which shares no code with the kernel.  Import this module
only after ``run.load_package`` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from qbm_sbs import dynamics, kernels
from qbm_sbs.constants import HBAR, KB
from qbm_sbs.model import Oscillator, SqueezeAxis, SystemParams, coupling_constant

MODES = (10, 30, 100)
SQUEEZE_R = (0.0, 0.5)
AXES = ("momentum", "position")
SAMPLES = 10_000
REPEATS = 3
THETA, PSI = 0.3, 0.1
REL_TOL = 1e-9

MASS_M, OMEGA_BIG, X_SEP = 1.0e-5, 3.0e8, 1.0e-9
M_ENV, GAMMA0, TEMPERATURE = 1.0e-25, 0.33e18, 1.0e-2


def _reference(oscillators, sys_params, axis, times, r, weight):
    alpha = dynamics.alpha_momentum if axis == "momentum" else dynamics.alpha_position
    total = np.zeros_like(times)
    for osc, w in zip(oscillators, weight):
        a = dynamics.alpha_gaussian(alpha(osc, sys_params, times), r, THETA, PSI)
        total += w * np.abs(a) ** 2
    return total


def run_probe(seed: int) -> tuple[dict[str, float], list[str]]:
    """Returns the ns/element of every configuration, the worst deviation, and any failures."""
    rng = np.random.default_rng(seed)
    coupling = coupling_constant(MASS_M, M_ENV, GAMMA0)
    codes = {"momentum": kernels.AXIS_MOMENTUM, "position": kernels.AXIS_POSITION}
    metrics: dict[str, float] = {}
    failures: list[str] = []
    worst = 0.0
    for modes in MODES:
        omega = rng.uniform(3.0e9, 6.0e9, modes)
        times = rng.uniform(0.0, 1.0e-5, SAMPLES)
        pref = coupling / (2.0 * np.sqrt(2.0 * M_ENV * omega))
        weight = 1.0 / np.tanh(HBAR * omega / (2.0 * KB * TEMPERATURE))
        oscillators = [Oscillator(omega=float(w), mass=M_ENV, coupling=coupling) for w in omega]
        for axis in AXES:
            sys_params = SystemParams(MASS_M, OMEGA_BIG, X_SEP, SqueezeAxis(axis))
            for r in SQUEEZE_R:
                elapsed = []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    out = kernels.exponent_series(times, omega, pref, weight, OMEGA_BIG, codes[axis], r, THETA, PSI)
                    elapsed.append(time.perf_counter() - start)
                name = f"kernels.probe.{axis}.r{r:g}.n{modes}"
                metrics[name] = statistics.median(elapsed) / (modes * SAMPLES) * 1e9
                ref = _reference(oscillators, sys_params, axis, times, r, weight)
                dev = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
                worst = max(worst, dev)
                if not dev <= REL_TOL:
                    failures.append(f"{name}: kernel deviates from the dynamics reference by {dev:.3g}")
    metrics["kernels.probe.max_rel_dev"] = worst
    return metrics, failures
