"""Spans and counters recorded from outside the simulator.

Every layer is measured at its boundary: :func:`instrument` replaces the
public functions a benchmark pass calls (the compiler, the DDG and DAE
passes, the trace interpreter, the system builders, the Interleaver,
the report writers) with wrappers that open a span around each call.
Nothing under ``src/`` changes. A layer's self time is its spans'
duration minus the part covered by their child spans.

:func:`profile_counts` reads exact call counts and self-time shares of
the simulator's hot functions from a cProfile run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class Spans:
    """In-memory span recorder: ``[name, start, end, parent, run]``
    entries, written out only when the pass ends. Disabled recorders
    open no spans, so the untraced pass pays one branch per run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[list] = []
        self._stack: List[int] = []
        #: run label stamped on every span opened while it is set
        self.run: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        entry = [name, _perf(), None, parent, self.run]
        self.records.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[2] = _perf()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration and summed self time."""
        covered = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                covered[parent] += end - start
        duration: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.records):
            duration[name] += end - start
            own[name] += end - start - covered[index]
        return {"duration_s": dict(duration), "self_s": dict(own)}

    def as_list(self) -> List[dict]:
        origin = self.records[0][1] if self.records else 0.0
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "run": run}
                for name, start, end, parent, run in self.records]


def _replace(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap ``owner.attr`` (or ``owner[attr]`` for a dict) for
    ``make(original)``. A missing target raises, so the pass fails
    instead of reporting a layer it no longer measures as free."""
    if isinstance(owner, dict):
        owner[attr] = make(owner[attr])
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


def instrument(spans: Spans, counts: Dict[str, float]) -> None:
    """Open a span around every layer call of a pass and attach a
    :class:`SelfProfiler` to every Interleaver built without one, whose
    phase split lands in ``counts`` when the run ends."""
    from repro import cli, telemetry
    from repro.harness import runner, sweeps
    from repro.sim.interleaver import Interleaver
    from repro.telemetry import SelfProfiler, Tracer
    from repro.trace.interpreter import Interpreter
    from repro.workloads import graphproj
    from repro.workloads.parboil import PARBOIL

    for name in ("trace.dynamic_instructions", "telemetry.trace_events",
                 "telemetry.trace_bytes", "sim.events",
                 "sim.scheduler_fast_drains"):
        counts.setdefault(name, 0)

    def count_traces(traces) -> None:
        counts["trace.dynamic_instructions"] += sum(
            trace.dynamic_instructions for trace in traces)

    layers = [
        (graphproj, "build", "workloads.build", None),
        (runner, "compile_kernel", "frontend.compile", None),
        (cli, "compile_kernel", "frontend.compile", None),
        (runner, "build_ddg", "passes.ddg", None),
        (runner, "slice_dae", "passes.dae_slice", None),
        (runner, "mark_decoupled", "passes.dae_slice", None),
        (Interpreter, "run_spmd", "trace.interpret", count_traces),
        (Interpreter, "run_dae_pair", "trace.interpret", count_traces),
        (runner, "build_system", "harness.build_system", None),
        (cli, "build_system", "harness.build_system", None),
        (runner, "build_dae", "harness.build_system", None),
        (sweeps, "sweep_core", "harness.sweeps", None),
        (telemetry, "write_stats_json", "harness.report", None),
        (telemetry, "validate_report", "telemetry.export", None),
    ]
    layers += [(PARBOIL, kernel, "workloads.build", None)
               for kernel in list(PARBOIL)]
    for owner, attr, name, on_result in layers:
        _replace(owner, attr,
                 lambda fn, n=name, r=on_result: spans.wrap(n, fn, r))

    def make_tracer_write(original):
        def write(self, path, *args, **kwargs):
            with spans.span("telemetry.export"):
                events = original(self, path, *args, **kwargs)
            counts["telemetry.trace_events"] += events
            counts["telemetry.trace_bytes"] += os.path.getsize(path)
            return events
        return write

    def make_init(original):
        def init(self, *args, **kwargs):
            if (kwargs.get("profiler") is None
                    and kwargs.get("checkpoint") is None):
                kwargs["profiler"] = SelfProfiler()
            original(self, *args, **kwargs)
        return init

    def make_run(original):
        def run(self, *args, **kwargs):
            with spans.span("sim.run"):
                stats = original(self, *args, **kwargs)
            report = self.profiler.report
            for phase, seconds in report.phases.items():
                counts[f"sim.{phase}_s"] += seconds
            counts["sim.events"] += report.events
            counts["sim.scheduler_fast_drains"] += report.counters.get(
                "scheduler_fast_drains", 0)
            return stats
        return run

    _replace(Tracer, "write", make_tracer_write)
    _replace(Interleaver, "__init__", make_init)
    _replace(Interleaver, "run", make_run)


def count_pool_payloads(counts: Dict[str, float]) -> None:
    """Count the bytes every sweep worker pool receives at start-up
    (the pickled Prepared workload): one subclass hook per pool, so it
    stays installed in untraced passes too."""
    from repro.harness import sweeps
    counts.setdefault("harness.sweeps.payload_bytes", 0)

    def make(original):
        class CountingPool(original):
            def __init__(self, *args, initargs=(), **kwargs):
                counts["harness.sweeps.payload_bytes"] += sum(
                    len(arg) for arg in initargs if isinstance(arg, bytes))
                super().__init__(*args, initargs=initargs, **kwargs)
        return CountingPool

    _replace(sweeps, "ProcessPoolExecutor", make)


def _profile_targets() -> Dict[str, Callable]:
    """Metric prefix -> the simulator function cProfile counts."""
    from repro.memory import cache
    from repro.sim.comm.fabric import CommFabric
    from repro.sim.core.model import CoreTile
    from repro.sim.events import Scheduler
    return {
        "sim.core.step": CoreTile.step,
        "sim.core.launch_dbb": CoreTile._launch_dbb,
        "sim.core.issue": CoreTile._issue,
        "sim.core.complete": CoreTile._complete,
        "sim.events.run_due": Scheduler.run_due,
        "memory.cache_access": cache.Cache.access,
        "memory.mshr_retry": cache._Retry.__call__,
        "sim.comm.queue_produce": CommFabric.queue_try_produce,
        "sim.comm.queue_consume": CommFabric.queue_try_consume,
    }


def profile_counts(profile) -> Dict[str, float]:
    """``<prefix>_calls`` and ``<prefix>_share`` (self time over the
    profiled total) for every target of a finished cProfile run; a
    target that never ran counts 0."""
    import pstats
    table = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in table.values()) or 1.0
    counts: Dict[str, float] = {}
    for prefix, fn in _profile_targets().items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        _, calls, own, _, _ = table.get(key, (0, 0, 0.0, 0.0, None))
        counts[f"{prefix}_calls"] = calls
        counts[f"{prefix}_share"] = own / total
    return counts
