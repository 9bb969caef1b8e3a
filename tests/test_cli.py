import inspect
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm_sbs
from qbm_sbs import cli, oracle, sweeps
from qbm_sbs.cli import _SCHEMA, load_config, main
from qbm_sbs.errors import ConfigurationError
from qbm_sbs.model import EnvInitialState, EnvironmentSpec, SystemParams

FAST_TS = [
    "--set", "n_points=50",
    "--set", "traced_size=4",
    "--set", "macrofraction_size=4",
]
FAST_SWEEP = [
    "--set", "n_temps=2",
    "--set", "temp_min=1e-3",
    "--set", "temp_max=1e-1",
    "--set", "n_realizations=2",
    "--set", "n_time_samples=300",
    "--set", "traced_size=4",
    "--set", "macrofraction_size=4",
]
FAST_CMP = [
    "--set", "n_points=64",
    "--set", "traced_size=4",
    "--set", "macrofraction_size=4",
    "--set", "n_realizations=2",
    "--set", "n_time_samples=300",
]


def read_data_rows(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


class TestConfigLoading:
    def test_defaults_without_file(self):
        cfg = load_config(None, [], None, None)
        assert cfg.mass_M == 1e-5
        assert cfg.seed == 20260823
        assert cfg.provided == set()

    def test_file_with_comments_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\ntemperature = 0.5  # inline\nseed=7\n\n")
        cfg = load_config(str(p), ["temperature=0.25"], None, None)
        assert cfg.temperature == 0.25  # --set wins over the file
        assert cfg.seed == 7
        assert cfg.provided == {"temperature", "seed"}

    def test_unknown_key_rejected(self):
        for item in ("bogus=1", "time_sampler=random", "m_env=1e-25", "rot_psi=0.0", "oracle_dim=0",
                     "n_macrofractions=1"):
            with pytest.raises(ConfigurationError, match="unknown configuration key"):
                load_config(None, [item], None, None)

    def test_unparsable_value_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            load_config(None, ["temperature=warm"], None, None)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config("/nonexistent/run.cfg", [], None, None)

    def test_seed_and_threads_flags_win(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed=1\nthreads=1\n")
        cfg = load_config(str(p), [], 99, 8)
        assert cfg.seed == 99 and cfg.threads == 8

    def test_params_builds_each_type_from_its_field_names(self):
        cfg = load_config(None, [], None, None)
        for cls in (SystemParams, EnvironmentSpec, EnvInitialState):
            names = [f.name for f in fields(cls)]
            assert set(names) <= set(_SCHEMA), cls
            assert cfg.params(cls) == cls(**{name: _SCHEMA[name][1] for name in names})
        # Each driver takes its three model values first; every later parameter is a key.
        for driver in (sweeps.time_series, sweeps.temperature_sweep, sweeps.position_squeezing_comparison):
            names = list(inspect.signature(driver).parameters)[3:]
            assert names and set(names) <= set(_SCHEMA), (driver.__name__, set(names) - set(_SCHEMA))
        assert cfg.params(lambda a, seed, tau: (a, seed, tau), "x") == ("x", cfg.seed, cfg.tau)

        calls = []

        def unbound(seed, master_seed=0):
            calls.append(seed)

        with pytest.raises(TypeError, match="master_seed"):
            cfg.params(unbound)
        assert calls == []

    def test_file_is_read_as_utf8(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes("# temp\u00e9rature\ntemperature=0.5\n".encode())
        assert load_config(str(p), [], None, None).temperature == 0.5

    def test_file_may_start_with_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"\xef\xbb\xbftemperature=0.5\n")
        assert load_config(str(p), [], None, None).temperature == 0.5


class TestTimeseriesCommand:
    def test_initial_row_is_unity(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST_TS, "timeseries"]) == 0
        rows = read_data_rows(out / "timeseries.csv")
        assert rows[0] == "t_seconds,gamma_abs,b_mac"
        assert rows[1] == "0.0,1.0,1.0"
        assert len(rows) == 1 + 50

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--out", str(a), "--seed", "1", *FAST_TS, "timeseries"])
        main(["--out", str(b), "--seed", "2", *FAST_TS, "timeseries"])
        assert (a / "timeseries.csv").read_bytes() != (b / "timeseries.csv").read_bytes()

    def test_header_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        main(["--out", str(out), *FAST_TS, "timeseries"])
        text = (out / "timeseries.csv").read_text()
        assert "# mass_M = 1e-05" in text
        assert "# kernel_backend = " in text
        assert "# hbar_J_s = " in text


class TestExitCodes:
    def test_resonant_band_is_config_error(self, tmp_path, capsys):
        code = main(
            ["--out", str(tmp_path), *FAST_TS, "--set", "omega_low=1e8", "timeseries"]
        )
        assert code == 2
        assert "resonant band" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--set", "bogus=1", "timeseries"]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_bad_axis_is_config_error(self, tmp_path, capsys):
        # The oracle never builds SystemParams, so only parsing can reject the axis.
        for command in ("timeseries", "oracle"):
            code = main(["--out", str(tmp_path), "--set", "squeezing_axis=sideways", *FAST_TS, command])
            assert code == 2
            assert "cannot parse squeezing_axis" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("command", ["timeseries", "oracle"])
    def test_bad_thresholds_are_config_error_for_every_command(self, tmp_path, capsys, command):
        args = ["--set", "eps=0.5", "--set", "eps_hi=0.3", *FAST_TS, command]
        assert main(["--out", str(tmp_path), *args]) == 2
        assert "0 < eps < eps_hi < 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"temperature=0.5\n\xff\xfe=1\n")
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out), *FAST_TS, "timeseries"]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(p) in err
        assert not out.exists()

    def test_compare_squeezing_rejects_explicit_axis(self, tmp_path, capsys):
        code = main(
            [
                "--out", str(tmp_path),
                "--set", "squeezing_axis=momentum",
                "compare-squeezing",
            ]
        )
        assert code == 2
        assert "both axes" in capsys.readouterr().err

    def test_undersized_oracle_dimension_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "auto_dim", lambda *args: 8)
        code = main(["--out", str(tmp_path), "oracle"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert read_data_rows(tmp_path / "oracle.csv")[0] == (
            "nbar,abs_eta,r,theta,dim,kept,guard_ok,gamma_closed,gamma_fock,gamma_dev,"
            "b_closed,b_fock,b_dev,ok"
        )

    @pytest.mark.parametrize(
        "args",
        [["--seed", "-1"], ["--set", "seed=-1"], ["--set", "threads=-5"]],
        ids=["--seed -1", "seed=-1", "threads=-5"],
    )
    def test_negative_integer_is_config_error(self, tmp_path, capsys, args):
        assert main(["--out", str(tmp_path), *FAST_TS, *args, "timeseries"]) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_zero_threads_is_config_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), *FAST_SWEEP, "--set", "threads=0", "sweep"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_zero_realizations_is_config_error(self, tmp_path, capsys):
        for fast, command in ((FAST_CMP, "compare-squeezing"), (FAST_SWEEP, "sweep")):
            assert main(["--out", str(tmp_path), *fast, "--set", "n_realizations=0", command]) == 2
            assert "n_realizations must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("item", ["temp_min=0", "temp_max=1e-5", "n_temps=0", "temp_max=1e-3"])
    def test_bad_temperature_grid_is_config_error(self, tmp_path, capsys, item):
        assert main(["--out", str(tmp_path), *FAST_SWEEP, "--set", item, "sweep"]) == 2
        assert "bad temperature grid" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_config_line_without_equals_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("temperature=0.5\ntemperature 0.5\n")
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out), *FAST_TS, "timeseries"]) == 2
        assert f"{p}:2: expected key=value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "item",
        ["temperature=nan", "x_sep=inf", "t_max=inf", "squeeze_r=400"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, item):
        assert main(["--out", str(tmp_path), *FAST_TS, "--set", item, "timeseries"]) == 2
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize(
        "args",
        [
            # The smallest squeeze_r, in steps of 0.1, whose true exponent
            # (from 30-digit mpmath) passes the float limit of 10^308.25: it
            # peaks at 10^308.26 in both runs.  One step lower the peaks are
            # 10^308.17 and 10^308.18, and the runs succeed (below).
            [*FAST_TS, "--set", "squeeze_r=355", "timeseries"],
            [*FAST_TS, "--set", "temperature=1e308", "timeseries"],
            [*FAST_TS, "--set", "x_sep=1e200", "timeseries"],
            [*FAST_TS, "--set", "t_max=1e300", "timeseries"],
            # A random-sampler sweep never samples t = 0, where the NaN shows.
            [*FAST_SWEEP, "--set", "squeeze_r=354.1", "sweep"],
            [*FAST_SWEEP, "--set", "x_sep=1e200", "sweep"],
        ],
        ids=[
            "squeeze_r=355", "temperature=1e308", "x_sep=1e200", "t_max=1e300",
            "sweep squeeze_r=354.1", "sweep x_sep=1e200",
        ],
    )
    def test_overflowing_exponent_is_config_error(self, tmp_path, capsys, args):
        assert main(["--out", str(tmp_path), *args]) == 2
        assert "exponent sum is not finite" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize(
        "args",
        [
            # The true exponent peaks at 3.3e306 here (mpmath), while
            # cosh(r)^2 times a per-mode gain is not finite.
            [*FAST_TS, "--set", "squeeze_r=353", "timeseries"],
            [*FAST_TS, "--set", "squeeze_r=354.9", "timeseries"],
            [*FAST_SWEEP, "--set", "squeeze_r=354", "sweep"],
        ],
        ids=["squeeze_r=353", "squeeze_r=354.9", "sweep squeeze_r=354"],
    )
    def test_finite_exponent_below_the_overflow_runs(self, tmp_path, args):
        assert main(["--out", str(tmp_path), *args]) == 0

    def test_overflowing_bath_prefactor_is_config_error(self, tmp_path, capsys):
        # The coupling underflows to 0, so every prefactor is 0.
        args = ["--set", "mass_M=1e-300", "--set", "gamma0=1e-300", "timeseries"]
        assert main(["--out", str(tmp_path), *FAST_TS, *args]) == 2
        assert "bath prefactor" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_non_ascii_value_is_config_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), *FAST_TS, "--set", "traced_size=\u0669", "timeseries"]) == 2
        assert "not ASCII" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize(
        "args",
        [
            [*FAST_TS, "--set", f"n_points={2**63}", "timeseries"],
            [*FAST_TS, "--set", f"n_points={2**63 - 1}", "timeseries"],
            [*FAST_TS, "--set", f"n_points={2**61}", "timeseries"],
            [*FAST_TS, "--set", f"traced_size={10**20}", "timeseries"],
            [*FAST_TS, "--set", f"macrofraction_size={10**20}", "timeseries"],
            # Each key is in range; the bath size 2**61 + 2**61 is not.
            [*FAST_TS, "--set", f"traced_size={2**61}", "--set", f"macrofraction_size={2**61}", "timeseries"],
            [*FAST_SWEEP, "--set", f"n_temps={10**20}", "sweep"],
            [*FAST_SWEEP, "--set", f"n_time_samples={10**20}", "sweep"],
        ],
        ids=[
            "n_points=2**63", "n_points=2**63-1", "n_points=2**61", "traced_size=1e20",
            "macrofraction_size=1e20", "traced_size=macrofraction_size=2**61",
            "n_temps=1e20", "n_time_samples=1e20",
        ],
    )
    def test_oversized_integer_is_config_error(self, tmp_path, capsys, args):
        assert main(["--out", str(tmp_path), *args]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert list(tmp_path.rglob("*.csv")) == []

    def test_seed_may_exceed_64_bits(self, tmp_path):
        assert main(["--out", str(tmp_path), *FAST_TS, "--set", f"seed={2**64}", "timeseries"]) == 0

    def test_memory_error_is_config_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "sample_environment", exhausted)
        assert main(["--out", str(tmp_path), *FAST_TS, "timeseries"]) == 2
        assert "out of memory" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["--out", str(blocker / "sub"), *FAST_TS, "timeseries"])
        assert code == 3


class TestSweepCommand:
    def test_rows_and_regimes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST_SWEEP, "sweep"]) == 0
        rows = read_data_rows(out / "sweep.csv")
        header, data = rows[0], rows[1:]
        assert header == "T_kelvin,gamma_avg,gamma_stderr,b_avg,b_stderr,regime"
        assert len(data) == 2
        temps = [float(r.split(",")[0]) for r in data]
        assert temps == [1e-3, 1e-1]
        regimes = {r.split(",")[5] for r in data}
        assert regimes <= {"SBS", "ClassicalQuantum", "Coherent", "Indeterminate"}

    def test_one_temperature_is_temp_min(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST_SWEEP, "--set", "n_temps=1", "sweep"]) == 0
        data = read_data_rows(out / "sweep.csv")[1:]
        assert [r.split(",")[0] for r in data] == [repr(1e-3)]


class TestOracleCommand:
    def test_passing_grid_exits_zero(self, tmp_path, capsys, monkeypatch):
        grid = [(0.5, 0.5, 0.0, 0.0), (0.0, 1.0, 0.5, math.pi)]
        monkeypatch.setattr(oracle, "default_grid", lambda: grid)
        assert main(["--out", str(tmp_path), "oracle"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("2 cells, ") and summary.endswith(": PASS")
        assert len(read_data_rows(tmp_path / "oracle.csv")) == 1 + len(grid)


class TestCompareSqueezingCommand:
    def test_outputs_the_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST_CMP, "compare-squeezing"]) == 0
        report = read_data_rows(out / "compare_report.csv")
        assert report[0] == (
            "realization,gamma_avg_position,gamma_avg_momentum,ratio,revival_position,revival_momentum"
        )
        assert len(report) == 1 + 2


@pytest.mark.parametrize(
    "args, names",
    [
        ([*FAST_TS, "timeseries"], ["timeseries.csv"]),
        ([*FAST_SWEEP, "sweep"], ["sweep.csv"]),
        ([*FAST_CMP, "compare-squeezing"], ["compare_report.csv"]),
    ],
    ids=["timeseries", "sweep", "compare-squeezing"],
)
def test_reruns_are_byte_identical(tmp_path, args, names):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), *args]) == 0
    assert main(["--out", str(b), *args]) == 0
    assert sorted(p.name for p in a.iterdir()) == names
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize(
    "rescaled",
    [["mass_M=4e-5", "x_sep=0.5e-9"], ["gamma0=0.66e18", "mass_M=0.5e-5"]],
    ids=["mass_M-x_sep", "gamma0-mass_M"],
)
@pytest.mark.parametrize(
    "args, name",
    [([*FAST_TS, "timeseries"], "timeseries.csv"), ([*FAST_SWEEP, "sweep"], "sweep.csv")],
    ids=["timeseries", "sweep"],
)
def test_data_depend_only_on_the_coupling_product(tmp_path, args, name, rescaled):
    # mass_M, gamma0 and x_sep enter only through mass_M * gamma0 * x_sep**2.
    # Power-of-two rescalings at a fixed product round identically; the
    # header lines, which record the keys, differ.
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), *args]) == 0
    assert main(["--out", str(b), *(x for item in rescaled for x in ("--set", item)), *args]) == 0
    assert read_data_rows(a / name) == read_data_rows(b / name)


def test_thread_count_leaves_sweep_csv_unchanged(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "--threads", "1", *FAST_SWEEP, "sweep"]) == 0
    assert main(["--out", str(b), "--threads", "2", *FAST_SWEEP, "sweep"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


# Numbers come only from the bounded integers and two sizes past NumPy's array
# limits, which fail before allocating, so that no size key allocates much
# memory: drawn text such as "traced_size=999999999" would.
_NO_DIGITS = st.text(st.characters(exclude_categories=("Nd",)))


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(_SCHEMA)),
    raw=_NO_DIGITS | (st.integers(-1000, 1000) | st.sampled_from([2**60, 2**63])).map(str),
)
def test_any_set_value_exits_cleanly(key, raw):
    with tempfile.TemporaryDirectory() as out:
        assert main(["--out", out, *FAST_TS, "--set", f"{key}={raw}", "timeseries"]) in (0, 2)


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter, with this checkout's ``qbm_sbs`` first on its path."""
    src = str(Path(qbm_sbs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs(tmp_path):
    proc = _run_fresh("-m", "qbm_sbs", "--out", str(tmp_path), *FAST_TS, "timeseries")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "timeseries.csv").is_file()


# Runs ``python -m qbm_sbs`` and prints, after it exits, every module it loaded.
_MODULES_AT_EXIT = """
import atexit, runpy, sys
atexit.register(lambda: print("modules:", *sorted(sys.modules)))
runpy.run_module("qbm_sbs", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "args, loads_oracle",
    [
        (["--help"], False),
        ([*FAST_TS, "timeseries"], False),
        ([*FAST_SWEEP, "sweep"], False),
        ([*FAST_CMP, "compare-squeezing"], False),
        (["oracle"], True),
    ],
    ids=["help", "timeseries", "sweep", "compare-squeezing", "oracle"],
)
def test_only_the_oracle_command_imports_scipy(tmp_path, args, loads_oracle):
    proc = _run_fresh("-c", _MODULES_AT_EXIT, "--out", str(tmp_path), *args)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split()[1:])
    assert "qbm_sbs.cli" in modules
    assert ("scipy.linalg" in modules) is loads_oracle
    assert ("qbm_sbs.oracle" in modules) is loads_oracle
