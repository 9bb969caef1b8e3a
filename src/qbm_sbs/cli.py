"""Command-line interface: config ingestion, subcommands, CSV emission.

Configuration is a flat key=value text file; every key has a default equal to
the reference parameter set, so all subcommands run without a config file.
Outputs are CSV files with the resolved configuration and the physical
constants embedded as leading comment lines, plus a key=value metadata
sidecar.  Identical configuration and master seed give byte-identical output.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .constants import HBAR, KB
from .errors import ConfigurationError, DomainError, QbmSbsError
from .model import EnvInitialState, EnvironmentSpec, SqueezeAxis, SystemParams
from .oracle import validate_closed_forms
from .sweeps import (
    TimeSampler,
    _cell_seeds,
    position_squeezing_comparison,
    sample_environment,
    temperature_sweep,
    time_series,
)

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# key -> (parser, default)
_SCHEMA: dict[str, tuple] = {
    "mass_M": (float, 1.0e-5),
    "omega_big": (float, 3.0e8),
    "x_sep": (float, 1.0e-9),
    "squeezing_axis": (str, "momentum"),
    "macrofraction_size": (int, 30),
    "n_macrofractions": (int, 1),
    "traced_size": (int, 30),
    "omega_low": (float, 3.0e9),
    "omega_high": (float, 6.0e9),
    "gamma0": (float, 0.33e18),
    "m_env": (float, 1.0e-25),
    "temperature": (float, 1.0e-2),
    "squeeze_r": (float, 0.0),
    "squeeze_theta": (float, 0.0),
    "rot_psi": (float, 0.0),
    "displacement_gamma": (complex, 0j),
    "seed": (int, 20260823),
    "threads": (int, 1),
    "t_max": (float, 2.2e-8),
    "n_points": (int, 2001),
    "tau": (float, 1.0e-5),
    "n_time_samples": (int, 100000),
    "time_sampler": (str, "random"),
    "temp_min": (float, 1.0e-4),
    "temp_max": (float, 10.0),
    "n_temps": (int, 13),
    "n_realizations": (int, 10),
    "eps": (float, 0.05),
    "eps_hi": (float, 0.3),
    "oracle_dim": (int, 0),  # 0 means automatic tail-bound truncation
}


class RunConfig:
    """Resolved configuration plus the set of explicitly provided keys."""

    def __init__(self, values: dict, provided: set[str]):
        self.values = values
        self.provided = provided

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    def system(self) -> SystemParams:
        axis = {
            "momentum": SqueezeAxis.MOMENTUM,
            "position": SqueezeAxis.POSITION,
        }.get(self.values["squeezing_axis"])
        if axis is None:
            raise ConfigurationError(
                f"squeezing_axis must be 'momentum' or 'position', got {self.values['squeezing_axis']!r}"
            )
        return SystemParams(
            mass_M=self.values["mass_M"],
            omega_big=self.values["omega_big"],
            x_sep=self.values["x_sep"],
            squeezing_axis=axis,
        )

    def environment_spec(self, seed: int = 0) -> EnvironmentSpec:
        v = self.values
        return EnvironmentSpec(
            n_total=v["traced_size"] + v["macrofraction_size"] * v["n_macrofractions"],
            omega_low=v["omega_low"],
            omega_high=v["omega_high"],
            gamma0=v["gamma0"],
            m_env=v["m_env"],
            n_macrofractions=v["n_macrofractions"],
            traced_size=v["traced_size"],
            seed=seed,
        )

    def env_state(self) -> EnvInitialState:
        v = self.values
        if v["displacement_gamma"] != 0:
            print(
                "warning: displacement_gamma is recorded but ignored; it only "
                "contributes phases removed by the modulus",
                file=_sys.stderr,
            )
        return EnvInitialState(
            temperature=v["temperature"],
            squeeze_r=v["squeeze_r"],
            squeeze_theta=v["squeeze_theta"],
            rot_psi=v["rot_psi"],
            displacement_gamma=v["displacement_gamma"],
        )

    def temperature_grid(self) -> np.ndarray:
        v = self.values
        if v["n_temps"] < 1 or v["temp_min"] <= 0 or v["temp_max"] < v["temp_min"]:
            raise ConfigurationError(
                f"bad temperature grid: [{v['temp_min']}, {v['temp_max']}] with {v['n_temps']} points"
            )
        if v["n_temps"] == 1:
            return np.array([v["temp_min"]])
        return np.logspace(math.log10(v["temp_min"]), math.log10(v["temp_max"]), v["n_temps"])


def _parse_value(key: str, raw: str):
    if key not in _SCHEMA:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    caster, _ = _SCHEMA[key]
    try:
        if caster is int:
            return int(raw, 0)
        if caster is complex:
            value = complex(raw.replace(" ", ""))
        else:
            value = caster(raw)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {key}={raw!r}: {exc}") from exc
    if caster in (float, complex) and not cmath.isfinite(value):
        raise ConfigurationError(f"{key}={raw!r} is not finite")
    return value


def load_config(path: str | None, sets: list[str], seed: int | None, threads: int | None) -> RunConfig:
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    provided: set[str] = set()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _parse_value(key, raw)
            provided.add(key)
    for item in sets:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        values[key] = _parse_value(key, raw)
        provided.add(key)
    if seed is not None:
        values["seed"] = seed
        provided.add("seed")
    if threads is not None:
        values["threads"] = threads
        provided.add("threads")
    return RunConfig(values, provided)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    return str(value)


def _header_lines(config: RunConfig, command: str) -> list[str]:
    lines = [
        f"# qbm-sbs {__version__} :: {command}",
        f"# kernel_backend = {kernels.backend_name()}",
        f"# hbar_J_s = {HBAR!r}",
        f"# k_B_J_per_K = {KB!r}",
    ]
    for key in _SCHEMA:
        lines.append(f"# {key} = {_fmt(config.values[key])}")
    return lines


def _write_output(out_dir: Path, name: str, config: RunConfig, command: str, rows: list[str], csv_header: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    meta_path = out_dir / f"{name}.meta.txt"
    header = _header_lines(config, command)
    csv_path.write_text("\n".join(header + [csv_header] + rows) + "\n")
    meta = [line[2:] if line.startswith("# ") else line for line in header]
    meta_path.write_text("\n".join(meta) + "\n")
    return csv_path


def cmd_timeseries(config: RunConfig, out_dir: Path) -> int:
    sys_params = config.system()
    env_seed, _ = _cell_seeds(config.seed, 0, 0)
    realization = sample_environment(config.environment_spec(seed=env_seed), sys_params)
    series = time_series(
        realization, sys_params, config.env_state(), config.t_max, config.n_points
    )
    rows = [
        f"{_fmt(float(t))},{_fmt(float(g))},{_fmt(float(b))}"
        for t, g, b in zip(series.times, series.gamma, series.b)
    ]
    path = _write_output(out_dir, "timeseries", config, "timeseries", rows, "t_seconds,gamma_abs,b_mac")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    sys_params = config.system()
    rows = temperature_sweep(
        config.environment_spec(),
        sys_params,
        config.env_state(),
        config.temperature_grid(),
        n_realizations=config.n_realizations,
        tau=config.tau,
        n_time_samples=config.n_time_samples,
        master_seed=config.seed,
        sampler_kind=config.time_sampler,
        eps=config.eps,
        eps_hi=config.eps_hi,
        threads=config.threads,
    )
    lines = [
        ",".join(
            [
                _fmt(r.temperature),
                _fmt(r.gamma_avg),
                _fmt(r.gamma_stderr),
                _fmt(r.b_avg),
                _fmt(r.b_stderr),
                r.regime.value,
                str(r.n_time_samples),
                _fmt(r.tau),
            ]
        )
        for r in rows
    ]
    path = _write_output(
        out_dir,
        "sweep",
        config,
        "sweep",
        lines,
        "T_kelvin,gamma_avg,gamma_stderr,b_avg,b_stderr,regime,n_samples,tau_seconds",
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(config: RunConfig, out_dir: Path) -> int:
    if config.oracle_dim < 0:
        raise ConfigurationError(f"oracle_dim must be >= 0 (0 = automatic), got {config.oracle_dim}")
    force_dim = config.oracle_dim if config.oracle_dim > 0 else None
    report = validate_closed_forms(force_dim=force_dim)
    lines = []
    for c in report.cells:
        lines.append(
            ",".join(
                [
                    _fmt(c.nbar),
                    _fmt(abs(c.eta)),
                    _fmt(c.r),
                    _fmt(c.theta),
                    str(c.dim),
                    str(c.guard_ok),
                    _fmt(c.gamma_closed),
                    _fmt(c.gamma_fock),
                    _fmt(c.gamma_dev),
                    _fmt(c.b_closed),
                    _fmt(c.b_fock),
                    _fmt(c.b_dev),
                    str(c.ok),
                ]
            )
        )
    path = _write_output(
        out_dir,
        "oracle",
        config,
        "oracle",
        lines,
        "nbar,abs_eta,r,theta,dim,guard_ok,gamma_closed,gamma_fock,gamma_dev,b_closed,b_fock,b_dev,ok",
    )
    print(f"wrote {path}")
    print(
        f"{len(report.cells)} cells, max |dGamma| = {report.max_gamma_dev:.3g}, "
        f"max |dB| = {report.max_b_dev:.3g}: {'PASS' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        for c in report.cells:
            if not c.ok:
                print(
                    f"  cell nbar={c.nbar} |eta|={abs(c.eta)} r={c.r} theta={c.theta:.3f} "
                    f"dim={c.dim}: guard_ok={c.guard_ok} {c.note}"
                )
        return EXIT_ORACLE_FAIL
    return EXIT_OK


def cmd_compare_squeezing(config: RunConfig, out_dir: Path) -> int:
    if "squeezing_axis" in config.provided:
        raise ConfigurationError(
            "compare-squeezing always runs both axes; do not set squeezing_axis"
        )
    sys_params = config.system()
    cmp = position_squeezing_comparison(
        config.environment_spec(),
        sys_params,
        config.env_state(),
        tau=config.tau,
        n_time_samples=config.n_time_samples,
        t_max=config.t_max,
        n_points=config.n_points,
        n_realizations=config.n_realizations,
        master_seed=config.seed,
        sampler_kind=config.time_sampler,
    )
    sp, sm = cmp.series_position, cmp.series_momentum
    series_rows = [
        ",".join(_fmt(float(x)) for x in vals)
        for vals in zip(sp.times, sp.gamma, sp.b, sm.gamma, sm.b)
    ]
    _write_output(
        out_dir,
        "compare_timeseries",
        config,
        "compare-squeezing",
        series_rows,
        "t_seconds,gamma_position,b_position,gamma_momentum,b_momentum",
    )
    report_rows = [
        ",".join(
            [
                str(r.realization_index),
                _fmt(r.gamma_avg_position),
                _fmt(r.gamma_avg_momentum),
                _fmt(r.ratio),
                _fmt(r.revival_position),
                _fmt(r.revival_momentum),
            ]
        )
        for r in cmp.rows
    ]
    path = _write_output(
        out_dir,
        "compare_report",
        config,
        "compare-squeezing",
        report_rows,
        "realization,gamma_avg_position,gamma_avg_momentum,ratio,revival_position,revival_momentum",
    )
    print(f"wrote {path}")
    print(
        f"revival window [{cmp.revival_window[0]:.3g}, {cmp.revival_window[1]:.3g}] s, "
        f"mean revival(position) = {cmp.mean_revival_position:.4f}, mean ratio = {cmp.mean_ratio:.3g}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbm-sbs",
        description="Decoherence and broadcast-structure observables for a "
        "harmonically driven discrete random bath",
    )
    parser.add_argument("--config", help="path to a flat key=value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    parser.add_argument(
        "command",
        choices=["timeseries", "sweep", "oracle", "compare-squeezing"],
    )
    return parser


_COMMANDS = {
    "timeseries": cmd_timeseries,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "compare-squeezing": cmd_compare_squeezing,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.set, args.seed, args.threads)
        return _COMMANDS[args.command](config, Path(args.out))
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except QbmSbsError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
