"""Spans around the calls into each qbm_sbs layer, and the per-layer split.

A traced call replaces a module attribute with a timing wrapper at the point
where callers look the name up: ``observables`` calls
``kernels.exponent_series``, ``sweeps`` calls its own ``time_average``,
``cli`` calls its own ``temperature_sweep``, and so on.  Nothing inside the
package is edited.  Spans are kept per thread; a span opened on a worker
thread with nothing open on that thread is a child of the innermost span open
on the main thread, which is how the ``sweeps`` thread pool's cells attach to
the ``temperature_sweep`` call that submitted them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class TraceError(RuntimeError):
    """A traced name is missing, or a layer that must run recorded no call."""


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_elements(args, kwargs, result):
    return {"elements": np.size(_arg(args, kwargs, 0, "times")) * np.size(_arg(args, kwargs, 1, "omega"))}


def _converged(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _fock_dim(args, kwargs, result):
    return {"dim": int(_arg(args, kwargs, 1, "dim"))}


def _matrix_dim(args, kwargs, result):
    return {"dim": int(np.shape(args[0])[0])}


def _oracle_cells(args, kwargs, result):
    return {"ok": sum(c.ok for c in result.cells), "total": len(result.cells)}


# (module, attribute looked up by callers, span name, attribute recorder)
TRACE_POINTS = (
    ("qbm_sbs.kernels", "exponent_series", "kernels.exponent_series", _kernel_elements),
    ("qbm_sbs.sweeps", "sample_environment", "model.sample_environment", None),
    ("qbm_sbs.sweeps", "decoherence_factor", "observables.decoherence_factor", None),
    ("qbm_sbs.sweeps", "overlap_macrofraction", "observables.overlap_macrofraction", None),
    ("qbm_sbs.sweeps", "time_average", "sweeps.time_average", _converged),
    ("qbm_sbs.cli", "load_config", "cli.load_config", None),
    ("qbm_sbs.cli", "temperature_sweep", "sweeps.temperature_sweep", None),
    ("qbm_sbs.cli", "validate_closed_forms", "oracle.validate_closed_forms", _oracle_cells),
    ("qbm_sbs.oracle", "displace_fock", "oracle.displace_fock", _fock_dim),
    ("qbm_sbs.oracle", "squeeze_fock", "oracle.squeeze_fock", _fock_dim),
    ("qbm_sbs.oracle", "eigh", "oracle.eigh", _matrix_dim),
)

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder; ``installed()`` wraps every trace point."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        s = Span(name, time.perf_counter(), threading.get_ident(), parent)
        with self._lock:
            self.spans.append(s)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def _wrapper(self, original, name, record):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if record is not None:
                    s.attrs.update(record(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block."""
        patched = []
        try:
            for module_name, attr, name, record in TRACE_POINTS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    raise TraceError(
                        f"{module_name}.{attr} no longer exists; span {name} cannot be recorded"
                    )
                original = getattr(module, attr)
                setattr(module, attr, self._wrapper(original, name, record))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def _covered(intervals) -> float:
    total = 0.0
    hi = -float("inf")
    for lo, end in sorted(intervals):
        lo = max(lo, hi)
        if end > lo:
            total += end - lo
            hi = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append(s.duration - _covered(clipped))
    return out


def cell_times(spans: list[Span]) -> list[float]:
    """One sweep cell: from its disorder draw to the end of its time average, per thread."""
    last_draw: dict[int, float] = {}
    cells = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "model.sample_environment":
            last_draw[s.thread] = s.start
        elif s.name == "sweeps.time_average":
            cells.append(s.end - last_draw.pop(s.thread, s.start))
    return cells


def invocation_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer split of one traced ``cli.main`` call (the single root span).

    Shares and efficiencies divide by ``workers`` x wall, the thread time the
    sweep pool had.  What each metric should move:
    - kernels.*: cells_per_s and wall_s on both sweeps, nothing on oracle;
    - model.*, observables.*, sweeps.self_s, sweeps.cell_*, converged_ratio:
      cells_per_s on both sweeps (under 1% of the wall until the kernel shrinks);
    - sweeps.parallel_eff: cells_per_s on sweep-squeezed, the two-thread pool;
    - oracle.*: wall_s on oracle only;
    - cli.*: a little of wall_s on all three.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def busy(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_sum(*names):
        return sum(selfs[i] for n in names for i in by_name[n])

    (root,) = by_name[ROOT]
    wall = spans[root].duration
    kernel_busy = busy("kernels.exponent_series")
    elements = sum(spans[i].attrs["elements"] for i in by_name["kernels.exponent_series"])
    averages = [spans[i] for i in by_name["sweeps.time_average"]]
    cells = cell_times(spans)
    sweep_wall = busy("sweeps.temperature_sweep")
    dims = [spans[i].attrs["dim"] for n in ("oracle.displace_fock", "oracle.squeeze_fock", "oracle.eigh") for i in by_name[n]]
    validations = [spans[i].attrs for i in by_name["oracle.validate_closed_forms"]]
    oracle_total = sum(v["total"] for v in validations)
    return {
        "kernels.calls": len(by_name["kernels.exponent_series"]),
        "kernels.elements": elements,
        "kernels.busy_s": kernel_busy,
        "kernels.ns_per_element": kernel_busy / elements * 1e9 if elements else 0.0,
        "kernels.share": kernel_busy / (workers * wall),
        "model.calls": len(by_name["model.sample_environment"]),
        "model.busy_s": busy("model.sample_environment"),
        "observables.calls": len(by_name["observables.decoherence_factor"]) + len(by_name["observables.overlap_macrofraction"]),
        "observables.self_s": self_sum("observables.decoherence_factor", "observables.overlap_macrofraction"),
        "sweeps.self_s": self_sum("sweeps.temperature_sweep", "sweeps.time_average"),
        "sweeps.cells": len(averages),
        "sweeps.converged_ratio": sum(s.attrs["converged"] for s in averages) / len(averages) if averages else 0.0,
        "sweeps.parallel_eff": sum(cells) / (workers * sweep_wall) if sweep_wall else 0.0,
        "oracle.displace.calls": len(by_name["oracle.displace_fock"]),
        "oracle.displace.busy_s": busy("oracle.displace_fock"),
        "oracle.squeeze.calls": len(by_name["oracle.squeeze_fock"]),
        "oracle.squeeze.busy_s": busy("oracle.squeeze_fock"),
        "oracle.eigh.calls": len(by_name["oracle.eigh"]),
        "oracle.eigh.busy_s": busy("oracle.eigh"),
        "oracle.self_s": self_sum("oracle.validate_closed_forms"),
        "oracle.max_dim": max(dims, default=0),
        "oracle.ok_ratio": sum(v["ok"] for v in validations) / oracle_total if oracle_total else 0.0,
        "cli.config_s": busy("cli.load_config"),
        "cli.self_s": selfs[root],
    }


def required_spans(spans: list[Span], names) -> None:
    """Fail when a layer the workload must pass through recorded no call."""
    seen = {s.name for s in spans}
    missing = [n for n in names if n not in seen]
    if missing:
        raise TraceError(f"no call recorded for {', '.join(missing)}; a refactor bypassed the traced names")


def cell_percentiles(cells: list[float]) -> dict[str, float]:
    """Median cell time and the highest percentile with at least 10 cells beyond it."""
    if not cells:
        return {"sweeps.cell_p50_s": 0.0, "sweeps.cell_tail_s": 0.0, "sweeps.cell_tail_q": 0.0}
    ordered = sorted(cells)
    q = max(0.5, 1.0 - 10.0 / len(ordered))
    return {
        "sweeps.cell_p50_s": statistics.median(ordered),
        "sweeps.cell_tail_s": float(np.quantile(ordered, q)),
        "sweeps.cell_tail_q": q,
    }
