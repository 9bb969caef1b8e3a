"""End-to-end benchmark of the ``qbm-sbs`` command line.

    python3 perfbench/run.py --workload sweep-thermal --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/qbm_sbs``; nothing needs
to be installed or built.  Each workload is a closed loop in this process:
``qbm_sbs.cli.main`` is called with one argument list, the next call starting
when the previous one returned, as long as another call of the last call's
length still ends within ``--seconds`` (there is always at least one call, so
a run never measures more than ``--seconds`` or one call).  Every call's
output is checked, and the run prints a table of metrics followed by one JSON
line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer split (``tracer.py``),
the tracing overhead and a direct kernel probe (``probe.py``).

The seed selects one of ``N_REFERENCE_SEEDS`` master seeds, starting at the
reference seed, for which ``reference.json`` holds the sweep results of the
commit that defined the benchmark (regenerate with ``make_reference.py``).
Sweep results must reproduce its regimes exactly and its averages to
``REL_TOL``, and repeated calls must write byte-identical CSVs.  The oracle
ignores the seed: it always validates the default 63-cell grid.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REFERENCE_SEED = 20260823
N_REFERENCE_SEEDS = 32
REL_TOL = 1e-6
ORACLE_CELLS = 63
ORACLE_PASS_TOL = 1e-5
SETUP_REPEATS = 5

SWEEP_SPANS = (
    "cli.load_config",
    "sweeps.temperature_sweep",
    "model.sample_environment",
    "sweeps.time_average",
    "observables.decoherence_factor",
    "observables.overlap_macrofraction",
    "kernels.exponent_series",
)
ORACLE_SPANS = ("cli.load_config", "oracle.validate_closed_forms")


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    cells: int
    sets: tuple[str, ...] = ()

    def argv(self, master_seed: int, out: Path) -> list[str]:
        argv = ["--seed", str(master_seed), "--threads", str(self.threads), "--out", str(out)]
        for item in self.sets:
            argv += ["--set", item]
        return argv + [self.command]


WORKLOADS = {
    "sweep-thermal": Workload(
        "sweep",
        threads=1,
        cells=2 * 2,
        sets=(
            "traced_size=30",
            "macrofraction_size=30",
            "n_time_samples=100000",
            "tau=1e-05",
            "squeeze_r=0",
            "squeezing_axis=momentum",
            "n_temps=2",
            "n_realizations=2",
        ),
    ),
    "sweep-squeezed": Workload(
        "sweep",
        threads=2,
        cells=13 * 2,
        sets=(
            "traced_size=10",
            "macrofraction_size=10",
            "squeeze_r=5",
            "squeeze_theta=3.141592653589793",
            "squeezing_axis=position",
            "n_temps=13",
            "n_realizations=2",
        ),
    ),
    "oracle": Workload(
        "oracle",
        threads=1,
        cells=ORACLE_CELLS,
    ),
}

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from qbm_sbs import cli
args = cli.build_parser().parse_args(sys.argv[2:])
cli.load_config(args.config, args.set, args.seed, args.threads)
print("ready", flush=True)
"""


def master_seed(seed: int) -> int:
    return REFERENCE_SEED + seed % N_REFERENCE_SEEDS


def load_package():
    """Import ``qbm_sbs`` from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "qbm_sbs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/qbm_sbs under {ROOT}")
    sys.path.insert(0, str(SRC))
    import qbm_sbs.cli

    if Path(qbm_sbs.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported qbm_sbs from {qbm_sbs.cli.__file__}, not {SRC}")
    return qbm_sbs


def invoke(cli, argv: list[str]) -> tuple[int, float]:
    """One ``cli.main`` call with its stdout swallowed; returns (exit code, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, wall


def data_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_sweep(out: Path, reference: list[list]) -> list[str]:
    """Averages finite and in [0, 1]; regimes equal and averages within REL_TOL of the reference."""
    rows = data_rows(out / "sweep.csv")
    problems = []
    if len(rows) != len(reference):
        return [f"sweep.csv has {len(rows)} rows, the reference {len(reference)}"]
    for row, (temp, gamma, b, regime) in zip(rows, reference):
        t = float(row["T_kelvin"])
        for key, want in (("gamma_avg", gamma), ("b_avg", b)):
            got = float(row[key])
            if not (math.isfinite(got) and 0.0 <= got <= 1.0):
                problems.append(f"T={t:g}: {key}={got!r} is not a finite value in [0, 1]")
            elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300):
                problems.append(f"T={t:g}: {key}={got!r}, reference {want!r}")
        if not math.isclose(t, temp, rel_tol=1e-12):
            problems.append(f"temperature {t!r}, reference {temp!r}")
        if row["regime"] != regime:
            problems.append(f"T={t:g}: regime {row['regime']}, reference {regime}")
    return problems


def check_oracle(out: Path) -> list[str]:
    """Every cell guarded and within the pass tolerance, on the full default grid."""
    rows = data_rows(out / "oracle.csv")
    problems = []
    if len(rows) != ORACLE_CELLS:
        problems.append(f"oracle.csv has {len(rows)} cells, expected {ORACLE_CELLS}")
    for i, row in enumerate(rows):
        devs = [float(row["gamma_dev"]), float(row["b_dev"])]
        if row["guard_ok"] != "True" or row["ok"] != "True" or not all(d < ORACLE_PASS_TOL for d in devs):
            problems.append(f"oracle cell {i}: guard_ok={row['guard_ok']} ok={row['ok']} devs={devs}")
    return problems


class Runner:
    """Calls one workload repeatedly and checks every call."""

    def __init__(self, cli, name: str, seed: int, work: Path, reference: dict):
        self.cli = cli
        self.name = name
        self.workload = WORKLOADS[name]
        self.master = master_seed(seed)
        self.work = work
        self.reference = reference["workloads"].get(name, {}).get(str(self.master))
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first_csv: bytes | None = None
        self.bytes_written = 0

    def call(self) -> float:
        """Runs one call and checks it; returns its wall time."""
        out = self.work / f"call-{self.attempted}"
        self.attempted += 1
        code, wall = invoke(self.cli, self.workload.argv(self.master, out))
        problems = [f"exit code {code}"] if code != 0 else self._check(out)
        if problems:
            self.failed += 1
            self.problems += [f"call {self.attempted}: {p}" for p in problems]
        if out.exists():
            self.bytes_written = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        return wall

    def _check(self, out: Path) -> list[str]:
        if self.workload.command == "oracle":
            return check_oracle(out)
        if self.reference is None:
            return [f"reference.json has no {self.name} result for master seed {self.master}"]
        csv_bytes = (out / "sweep.csv").read_bytes()
        if self.first_csv is None:
            self.first_csv = csv_bytes
        problems = check_sweep(out, self.reference)
        if csv_bytes != self.first_csv:
            problems.append("sweep.csv differs from the first call's bytes")
        return problems


def measure_setup(argv: list[str]) -> float:
    """Median seconds from spawning an interpreter to a resolved config, after one warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.close()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up child exited with {code}")
        samples.append(elapsed)
    return statistics.median(samples[1:])


def run_untraced(runner: Runner, seconds: float) -> dict[str, float]:
    setup = measure_setup(runner.workload.argv(runner.master, runner.work / "setup"))
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        walls.append(runner.call())
    wall = statistics.median(walls)
    print(f"calls: {len(walls)}, walls: {[round(w, 4) for w in walls]} s")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "cells_per_s": runner.workload.cells / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(runner: Runner, seconds: float, seed: int) -> dict[str, float]:
    import tracer
    from probe import run_probe

    required = ORACLE_SPANS if runner.workload.command == "oracle" else SWEEP_SPANS
    untraced, traced, per_call, cells = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        untraced.append(runner.call())
        t = tracer.Tracer()
        with t.installed(), t.span(tracer.ROOT):
            wall = runner.call()
        traced.append(wall)
        tracer.required_spans(t.spans, required)
        per_call.append(tracer.invocation_metrics(t.spans, runner.workload.threads))
        cells += tracer.cell_times(t.spans)
    metrics = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
    metrics.update(tracer.cell_percentiles(cells))
    metrics["cli.bytes_written"] = runner.bytes_written
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    probe, failures = run_probe(seed)
    runner.attempted += 1
    if failures:
        runner.failed += 1
        runner.problems += failures
    metrics.update(probe)
    print(f"calls: {len(untraced)} untraced + {len(traced)} traced, {len(cells)} sweep cells traced")
    return metrics


def environment(pkg, seed: int, master: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qbm_sbs").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": pkg.kernels.backend_name(),
        "seed": seed,
        "master_seed": master,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    units = declared_units(args.trace)
    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(pkg.cli, args.workload, args.seed, work, reference)
    print("env: " + json.dumps(environment(pkg, args.seed, runner.master), sort_keys=True))
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds, args.seed)
        else:
            metrics = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"{'failed_ratio':<44} {runner.failed / runner.attempted:>14.6g} ratio  ({runner.failed}/{runner.attempted})")
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
