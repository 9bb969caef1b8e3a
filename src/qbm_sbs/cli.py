"""Command-line interface: config ingestion, subcommands, CSV emission.

Configuration is a flat key=value text file; every key has a default equal to
the reference parameter set, so all subcommands run without a config file.
Outputs are CSV files whose leading comment lines hold the resolved
configuration and the physical constants, the one record of a run.  Identical
configuration and master seed give byte-identical output.

Only the ``oracle`` subcommand imports ``qbm_sbs.oracle`` and, with it,
SciPy; every other subcommand, and ``--help``, loads numpy alone.

Exit codes: 0 success, 1 oracle validation failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys as _sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .constants import HBAR, KB
from .errors import ConfigurationError, QbmSbsError
from .model import EnvInitialState, EnvironmentSpec, SqueezeAxis, SystemParams, sample_environment
from .observables import DEFAULT_EPS, DEFAULT_EPS_HI, check_thresholds
from .sweeps import cell_seeds, position_squeezing_comparison, temperature_sweep, time_series

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# key -> (parser, default)
_SCHEMA: dict[str, tuple] = {
    "mass_M": (float, 1.0e-5),
    "omega_big": (float, 3.0e8),
    "x_sep": (float, 1.0e-9),
    "squeezing_axis": (SqueezeAxis, SqueezeAxis.MOMENTUM),
    "macrofraction_size": (int, 30),
    "traced_size": (int, 30),
    "omega_low": (float, 3.0e9),
    "omega_high": (float, 6.0e9),
    "gamma0": (float, 0.33e18),
    "temperature": (float, 1.0e-2),
    "squeeze_r": (float, 0.0),
    "squeeze_theta": (float, 0.0),
    "seed": (int, 20260823),
    "threads": (int, 1),
    "t_max": (float, 2.2e-8),
    "n_points": (int, 2001),
    "tau": (float, 1.0e-5),
    "n_time_samples": (int, 100000),
    "temp_min": (float, 1.0e-4),
    "temp_max": (float, 10.0),
    "n_temps": (int, 13),
    "n_realizations": (int, 10),
    "eps": (float, DEFAULT_EPS),
    "eps_hi": (float, DEFAULT_EPS_HI),
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

    def params(self, fn, *args):
        """Call ``fn(*args)``, binding each further parameter to the config key of its name."""
        names = list(inspect.signature(fn).parameters)[len(args):]
        unknown = [name for name in names if name not in self.values]
        if unknown:
            raise TypeError(f"{fn.__qualname__}: parameters {unknown} name no configuration key")
        return fn(*args, **{name: self.values[name] for name in names})

    def models(self) -> tuple[EnvironmentSpec, SystemParams, EnvInitialState]:
        """The bath spec, the system and the bath state, each built from its keys."""
        return self.params(EnvironmentSpec), self.params(SystemParams), self.params(EnvInitialState)


def _parse_value(key: str, raw: str):
    """Parse one ASCII value by its schema type: finite floats and integers >= 0 only."""
    if key not in _SCHEMA:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    caster, _ = _SCHEMA[key]
    # int() and float() also read non-ASCII digits (Unicode category Nd).
    if not raw.isascii():
        raise ConfigurationError(f"{key}={raw!r} is not ASCII")
    try:
        value = int(raw, 0) if caster is int else caster(raw)
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {key}={raw!r}: {exc}") from exc
    if caster is int and value < 0:
        raise ConfigurationError(f"{key} must be >= 0, got {value}")
    # numpy rounds sizes near 2**63: np.linspace(0, 1, 2**63 - 1) raises IndexError, not ValueError.
    if caster is int and key != "seed" and value >= 2**62:
        raise ConfigurationError(f"{key} must be < 2**62, got {value}")
    if caster is float and not math.isfinite(value):
        raise ConfigurationError(f"{key}={raw!r} is not finite")
    return value


def load_config(path: str | None, sets: list[str], seed: int | None, threads: int | None) -> RunConfig:
    """Defaults, then the file's lines, then ``--set`` items, then the flags, each as key=value."""
    items: list[tuple[str, str]] = []  # (origin for error messages, key=value)
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            text = p.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                items.append((f"{path}:{lineno}", line))
    items += [("--set", item) for item in sets]
    for key, flag in (("seed", seed), ("threads", threads)):
        if flag is not None:
            items.append((f"--{key}", f"{key}={flag}"))
    parsed = {}
    for origin, item in items:
        key, eq, raw = (part.strip() for part in item.partition("="))
        if not eq:
            raise ConfigurationError(f"{origin}: expected key=value, got {item!r}")
        parsed[key] = _parse_value(key, raw)
    config = RunConfig({k: d for k, (_, d) in _SCHEMA.items()} | parsed, set(parsed))
    check_thresholds(config.eps, config.eps_hi)
    return config


def _fmt(value) -> str:
    """The one formatter of CSV cells and header values; floats round-trip via repr."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _table(records, *columns: str) -> dict[str, list]:
    """CSV table from result dataclasses: column name -> one value per record.

    Each column names a field, or reads ``"column=field"`` where the CSV name
    differs from the field's.
    """
    table = {}
    for column in columns:
        name, _, field = column.partition("=")
        table[name] = [getattr(r, field or name) for r in records]
    return table


def _header_lines(config: RunConfig, command: str) -> list[str]:
    # threads changes no data row, and the pool runs at most one worker per usable CPU anyway.
    return [
        f"# qbm-sbs {__version__} :: {command}",
        f"# kernel_backend = {kernels.backend_name()}",
        f"# hbar_J_s = {HBAR!r}",
        f"# k_B_J_per_K = {KB!r}",
        *(f"# {key} = {_fmt(config.values[key])}" for key in _SCHEMA if key != "threads"),
    ]


def _write_output(out_dir: Path, name: str, config: RunConfig, command: str, table: dict) -> None:
    """Write ``<name>.csv``: config header, column row, data rows."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [",".join(map(_fmt, row)) for row in zip(*table.values())]
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text("\n".join(_header_lines(config, command) + [",".join(table)] + rows) + "\n")
    print(f"wrote {csv_path}")


def cmd_timeseries(config: RunConfig, out_dir: Path) -> int:
    spec, sys_params, state = config.models()
    env_seed, _ = cell_seeds(config.seed, 0, 0)
    realization = sample_environment(spec, sys_params, env_seed)
    series = config.params(time_series, realization, sys_params, state)
    table = {"t_seconds": series.times, "gamma_abs": series.gamma, "b_mac": series.b}
    _write_output(out_dir, "timeseries", config, "timeseries", table)
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    rows = config.params(temperature_sweep, *config.models())
    table = _table(
        rows, "T_kelvin=temperature", "gamma_avg", "gamma_stderr", "b_avg", "b_stderr",
        "regime",
    )
    _write_output(out_dir, "sweep", config, "sweep", table)
    return EXIT_OK


def validate_closed_forms():
    """``oracle.validate_closed_forms()``; the oracle and SciPy load on the first call."""
    from . import oracle

    return oracle.validate_closed_forms()


def cmd_oracle(config: RunConfig, out_dir: Path) -> int:
    report = validate_closed_forms()
    table = _table(
        report.cells, "nbar", "abs_eta", "r", "theta", "dim", "kept", "guard_ok",
        "gamma_closed", "gamma_fock", "gamma_dev", "b_closed", "b_fock", "b_dev", "ok",
    )
    _write_output(out_dir, "oracle", config, "oracle", table)
    print(
        f"{len(report.cells)} cells, max |dGamma| = {report.max_gamma_dev:.3g}, "
        f"max |dB| = {report.max_b_dev:.3g}: {'PASS' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        for c in report.cells:
            if not c.ok:
                print(
                    f"  cell nbar={c.nbar} |eta|={c.abs_eta} r={c.r} theta={c.theta:.3f} "
                    f"dim={c.dim}: guard_ok={c.guard_ok} {c.note}"
                )
        return EXIT_ORACLE_FAIL
    return EXIT_OK


def cmd_compare_squeezing(config: RunConfig, out_dir: Path) -> int:
    if "squeezing_axis" in config.provided:
        raise ConfigurationError(
            "compare-squeezing always runs both axes; do not set squeezing_axis"
        )
    cmp = config.params(position_squeezing_comparison, *config.models())
    report = _table(
        cmp.rows, "realization=realization_index", "gamma_avg_position", "gamma_avg_momentum",
        "ratio", "revival_position", "revival_momentum",
    )
    _write_output(out_dir, "compare_report", config, "compare-squeezing", report)
    print(
        f"revival window [{cmp.revival_window[0]:.3g}, {cmp.revival_window[1]:.3g}] s, "
        f"mean revival(position) = {cmp.mean_revival_position:.4f}, median ratio = {cmp.median_ratio:.3g}"
    )
    return EXIT_OK


_COMMANDS = {
    "timeseries": cmd_timeseries,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "compare-squeezing": cmd_compare_squeezing,
}


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
    parser.add_argument("--seed", type=int, help="master seed override (same as --set seed=)")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--threads", type=int, help="worker thread cap (same as --set threads=)")
    parser.add_argument("command", choices=list(_COMMANDS))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.set, args.seed, args.threads)
        return _COMMANDS[args.command](config, Path(args.out))
    except QbmSbsError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array past its size limits with a ValueError, before allocating it.
        if isinstance(exc, ValueError) and not str(exc).startswith(("array is too big", "Maximum")):
            raise
        print(f"configuration error: {str(exc) or 'out of memory; reduce the size keys'}", file=_sys.stderr)
        return EXIT_CONFIG
