"""The benchmark's contract with the package, checked on small inputs.

``perfbench/tracer.py`` wraps named functions of the package, and
``perfbench/run.py`` aborts a traced run when a layer it requires records no
call.  Both files are loaded by path and used as they are.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qbm_sbs import cli, oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
run = _load("run")
probe = _load("probe")


def test_every_trace_point_resolves():
    for module_name, attr, span, _ in tracer.TRACE_POINTS:
        assert hasattr(importlib.import_module(module_name), attr), span


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_config_loads(name, tmp_path):
    # What the benchmark's set-up child does before it times anything; an unknown key aborts the run.
    args = cli.build_parser().parse_args(run.WORKLOADS[name].argv(run.master_seed(0), tmp_path))
    cli.load_config(args.config, args.set, args.seed, args.threads)


def test_traced_one_thread_sweep_records_every_layer_and_cell(tmp_path):
    n_temps, n_realizations = 2, 2
    sets = [
        f"n_temps={n_temps}", f"n_realizations={n_realizations}", "n_time_samples=300",
        "traced_size=4", "macrofraction_size=4",
    ]
    argv = ["--out", str(tmp_path), "--threads", "1"]
    for item in sets:
        argv += ["--set", item]
    t = tracer.Tracer()
    with t.installed(), t.span(tracer.ROOT):
        assert cli.main([*argv, "sweep"]) == 0
    tracer.required_spans(t.spans, run.SWEEP_SPANS)
    assert tracer.invocation_metrics(t.spans, 1)["sweeps.cells"] == n_temps * n_realizations


def test_traced_oracle_records_both_unitaries():
    # Validation builds only the kept squeezing columns and never a displacement
    # unitary; the dense references still build one.
    t = tracer.Tracer()
    with t.installed():
        report = oracle.validate_closed_forms(grid=[(0.0, 0.3, 0.0, 0.0), (0.5, 1.0, 0.5, 0.0)])
        validation = [s.name for s in t.spans]
        oracle.gamma_fock(oracle.thermal_fock(0.5, 32), 1.0)
    assert report.passed
    assert "oracle.squeeze_fock" in validation and "oracle.displace_fock" not in validation
    assert "oracle.displace_fock" in [s.name for s in t.spans[len(validation) :]]


def test_traced_oracle_command_records_its_span(tmp_path, monkeypatch):
    # The benchmark wraps cli.validate_closed_forms, the name cmd_oracle calls, for this span.
    monkeypatch.setattr(oracle, "default_grid", lambda: [(0.0, 0.3, 0.0, 0.0), (0.5, 1.0, 0.5, 0.0)])
    t = tracer.Tracer()
    with t.installed(), t.span(tracer.ROOT):
        assert cli.main(["--out", str(tmp_path), "oracle"]) == 0
    tracer.required_spans(t.spans, run.ORACLE_SPANS)
    (span,) = [s for s in t.spans if s.name == "oracle.validate_closed_forms"]
    assert span.attrs == {"ok": 2, "total": 2}


def test_kernel_probe_agrees_with_the_dynamics_reference():
    metrics, failures = probe.run_probe(0)
    assert failures == []
    assert metrics["kernels.probe.max_rel_dev"] <= probe.REL_TOL
