import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm_sbs import cli
from qbm_sbs.cli import _SCHEMA, load_config, main
from qbm_sbs.errors import ConfigurationError

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
        for item in ("bogus=1", "time_sampler=random"):
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

    def test_undersized_oracle_dimension_fails(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--set", "oracle_dim=8", "oracle"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert read_data_rows(tmp_path / "oracle.csv")[0] == (
            "nbar,abs_eta,r,theta,dim,guard_ok,gamma_closed,gamma_fock,gamma_dev,"
            "b_closed,b_fock,b_dev,ok"
        )

    def test_negative_oracle_dimension_is_config_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--set", "oracle_dim=-5", "oracle"])
        assert code == 2
        assert "oracle_dim must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

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
        args = [*FAST_CMP, "--set", "n_realizations=0", "compare-squeezing"]
        assert main(["--out", str(tmp_path), *args]) == 2
        assert "n_realizations must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

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
            [*FAST_TS, "--set", "squeeze_r=353", "timeseries"],
            [*FAST_TS, "--set", "temperature=1e308", "timeseries"],
            [*FAST_TS, "--set", "x_sep=1e200", "timeseries"],
            [*FAST_TS, "--set", "t_max=1e300", "timeseries"],
            # A random-sampler sweep never samples t = 0, where the NaN shows.
            [*FAST_SWEEP, "--set", "squeeze_r=354", "sweep"],
            [*FAST_SWEEP, "--set", "x_sep=1e200", "sweep"],
        ],
        ids=[
            "squeeze_r=353", "temperature=1e308", "x_sep=1e200", "t_max=1e300",
            "sweep squeeze_r=354", "sweep x_sep=1e200",
        ],
    )
    def test_overflowing_exponent_is_config_error(self, tmp_path, capsys, args):
        assert main(["--out", str(tmp_path), *args]) == 2
        assert "exponent sum is not finite" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_overflowing_bath_prefactor_is_config_error(self, tmp_path, capsys):
        # 2 m_env omega overflows while the coupling stays finite: every prefactor is 0.
        args = ["--set", "m_env=1e308", "--set", "mass_M=1e-300", "timeseries"]
        assert main(["--out", str(tmp_path), *FAST_TS, *args]) == 2
        assert "bath prefactor" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_non_ascii_value_is_config_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), *FAST_TS, "--set", "traced_size=\u0669", "timeseries"]) == 2
        assert "not ASCII" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

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
        assert header == "T_kelvin,gamma_avg,gamma_stderr,b_avg,b_stderr,regime,n_samples,tau_seconds"
        assert len(data) == 2
        temps = [float(r.split(",")[0]) for r in data]
        assert temps == [1e-3, 1e-1]
        regimes = {r.split(",")[5] for r in data}
        assert regimes <= {"SBS", "ClassicalQuantum", "Coherent", "Indeterminate"}


class TestCompareSqueezingCommand:
    def test_outputs_both_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST_CMP, "compare-squeezing"]) == 0
        series = read_data_rows(out / "compare_timeseries.csv")
        report = read_data_rows(out / "compare_report.csv")
        assert series[0] == "t_seconds,gamma_position,b_position,gamma_momentum,b_momentum"
        assert series[1].startswith("0.0,1.0,1.0,1.0,1.0")
        assert report[0] == (
            "realization,gamma_avg_position,gamma_avg_momentum,ratio,revival_position,revival_momentum"
        )
        assert len(report) == 1 + 2


@pytest.mark.parametrize(
    "args",
    [[*FAST_TS, "timeseries"], [*FAST_SWEEP, "sweep"], [*FAST_CMP, "compare-squeezing"]],
    ids=["timeseries", "sweep", "compare-squeezing"],
)
def test_reruns_are_byte_identical(tmp_path, args):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), *args]) == 0
    assert main(["--out", str(b), *args]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert any(n.endswith(".csv") for n in names) and any(n.endswith(".meta.txt") for n in names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# Numbers come only from the bounded integers, so that no size key allocates
# much memory: drawn text such as "traced_size=999999999" would.
_NO_DIGITS = st.text(st.characters(exclude_categories=("Nd",)))


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(_SCHEMA)), raw=_NO_DIGITS | st.integers(-1000, 1000).map(str))
def test_any_set_value_exits_cleanly(key, raw):
    with tempfile.TemporaryDirectory() as out:
        assert main(["--out", out, *FAST_TS, "--set", f"{key}={raw}", "timeseries"]) in (0, 2)
