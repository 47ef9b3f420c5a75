"""Observability layer tests: tracer, metrics, profiler, timeline CLI.

The load-bearing properties:

* tracer determinism — same seed + config ⇒ identical event stream;
* histogram bucketing edge cases (le convention, overflow, validation);
* the exported Chrome trace validates against the schema;
* ``timeline`` CLI exit codes (0 rendered, 2 unreadable/invalid).
"""

import json
import signal
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.harness import (
    DEFAULT_MAX_CYCLES, build_system, dae_hierarchy, ooo_core,
    render_timeline, simulate,
)
from repro.ir import F64
from repro.resilience import FaultInjector, FaultPlan
from repro.sim import (
    CycleBudgetExceeded, DeadlockError, Scheduler, SimulationInterrupted,
)
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry, SelfProfiler,
    TRACE_SCHEMA_VERSION, Tracer, stats_to_dict, subsystem_categories,
    validate_chrome_trace,
)
from repro.trace import SimMemory

from . import kernels


# -- tracer ------------------------------------------------------------------

class TestTracer:
    def test_records_spans_instants_counters(self):
        tracer = Tracer()
        tid = tracer.tid_for("core0")
        tracer.complete("core", "add", 10, 14, tid)
        tracer.instant("fault", "msg.drop", 12, tid)
        tracer.counter("dae", "load0", 11, 3, tid)
        events = tracer.events()
        assert [e.phase for e in events] == ["X", "C", "i"]
        assert events[0].dur == 4

    def test_span_duration_clamped_non_negative(self):
        tracer = Tracer()
        tracer.complete("core", "weird", 10, 8)
        assert tracer.events()[0].dur == 0

    def test_ring_bounds_memory_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for cycle in range(10):
            tracer.instant("core", "tick", cycle)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        # the ring keeps the most recent events
        assert [e.cycle for e in tracer.events()] == [6, 7, 8, 9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_tid_assignment_is_stable(self):
        tracer = Tracer()
        assert tracer.tid_for("a") == 0
        assert tracer.tid_for("b") == 1
        assert tracer.tid_for("a") == 0
        assert tracer.tid_names == {0: "a", 1: "b"}

    def test_export_validates_and_names_lanes(self, tmp_path):
        tracer = Tracer()
        tracer.complete("core", "add", 0, 5, tracer.tid_for("core0"))
        path = tmp_path / "trace.json"
        written = tracer.write(str(path), frequency_ghz=2.0)
        document = json.loads(path.read_text())
        assert written == len(document["traceEvents"])
        assert validate_chrome_trace(document) == 1
        other = document["otherData"]
        assert other["trace_schema_version"] == TRACE_SCHEMA_VERSION
        assert other["clock"] == "simulated-cycles"
        assert other["frequency_ghz"] == 2.0
        names = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert names[0]["args"]["name"] == "core0"


def _mixed_tracer(capacity=200_000):
    """Spans, instants and counters with and without ``args``, names
    that need escaping, a ``float`` timestamp, and recording-order ties
    on ``(cycle, tid, name)``."""
    tracer = Tracer(capacity=capacity)
    core = tracer.tid_for("core0")
    lane = tracer.tid_for('fab"ric\\ é')
    tracer.complete("core", "add", 10, 14, core)
    tracer.complete("core", "dbb 3", 8, 20, core, {"index": 1})
    tracer.complete("cache", 'L1 "miss"', 9, 30, lane, {"line": 7})
    tracer.complete("dram", "read", 12, 11, lane, {"throttled": False})
    tracer.instant("fault", "msg.drop", 12, core)
    tracer.instant("dae", "qé full", 12, core, {"why": "tab\there"})
    tracer.instant("fault", "msg.drop", 12, core)
    tracer.counter("dae", "load0", 11, 3, lane)
    tracer.counter("dae", "load0", 11, 2.5, lane)
    tracer.complete("accel", "gemm → relu", 5, 9, lane,
                    {"energy_nj": 0.25, "bytes": 64})
    tracer.instant("core", "float-ts", 7.0, core)
    return tracer


class TestStreamedExport:
    """``Tracer.write`` formats events by hand; its bytes must equal the
    stdlib encoder's output for the same document."""

    @pytest.mark.parametrize("frequency_ghz", [None, 2.0])
    @pytest.mark.parametrize("run_id", [None, "r-é\"1"])
    @pytest.mark.parametrize("capacity", [200_000, 4])
    def test_write_equals_json_dumps(self, tmp_path, frequency_ghz, run_id,
                                     capacity):
        tracer = _mixed_tracer(capacity)
        assert (tracer.dropped > 0) == (capacity == 4)
        path = tmp_path / "trace.json"
        count = tracer.write(str(path), frequency_ghz=frequency_ghz,
                             run_id=run_id)
        document = tracer.to_chrome(frequency_ghz, run_id=run_id)
        assert path.read_bytes() == json.dumps(
            document, separators=(",", ":")).encode()
        assert count == len(document["traceEvents"])

    def test_empty_tracer(self, tmp_path):
        lanes_only = Tracer()
        lanes_only.tid_for("core0")
        for tracer, count in ((Tracer(), 0), (lanes_only, 1)):
            path = tmp_path / "empty.json"
            assert tracer.write(str(path)) == count
            assert path.read_bytes() == json.dumps(
                tracer.to_chrome(), separators=(",", ":")).encode()

    def test_export_spanning_several_batches(self, tmp_path):
        tracer = Tracer()
        tid = tracer.tid_for("core0")
        for cycle in range(10_000):
            tracer.complete("core", f"op{cycle % 7}", cycle, cycle + 3, tid)
        path = tmp_path / "big.json"
        assert tracer.write(str(path)) == 10_001
        assert path.read_bytes() == json.dumps(
            tracer.to_chrome(), separators=(",", ":")).encode()

    def test_records_keep_recording_order_on_ties(self):
        tracer = Tracer()
        tracer.instant("a", "same", 5, 0, {"k": 1})
        tracer.instant("b", "same", 5, 0, {"k": 2})
        tracer.instant("c", "earlier", 4, 0)
        assert [e.category for e in tracer.events()] == ["c", "a", "b"]


class _TupleRing:
    """Reference model: the ``deque`` of 8-tuples the columnar ring
    replaced. Sorting the tuples is the export order."""

    def __init__(self, capacity):
        self.ring, self.pushed = deque(maxlen=capacity), 0

    def push(self, phase, category, name, cycle, tid, args, end=None):
        dur = 0 if end is None or end - cycle <= 0 else end - cycle
        self.ring.append((cycle, tid, name, self.pushed, phase, category,
                          dur, args))
        self.pushed += 1

    def chrome_events(self):
        for cycle, tid, name, _, phase, category, dur, args in sorted(
                self.ring):
            event = {"name": name, "cat": category, "ph": phase,
                     "ts": cycle, "pid": 0, "tid": tid}
            event.update({"X": {"dur": dur}, "i": {"s": "t"}}.get(phase, {}))
            if args is not None:
                event["args"] = args
            yield event


def _events(odd):
    """Random pushes: ``(phase, category, name, cycle, span, tid, args,
    counter value)``. Small domains make ``(cycle, tid, name)`` ties
    common; with ``odd``, some cycles, spans and tids do not fit the
    ring's columns (floats, and ints past 64 or 32 bits)."""
    def ints(low, high, *extra):
        values = st.integers(low, high)
        return values | st.sampled_from(extra) if odd else values
    return st.lists(st.tuples(
        st.sampled_from("XiC"), st.sampled_from(["core", "cache"]),
        st.sampled_from(["add", "ld", 'a"b']), ints(0, 6, 2.5, 4.0, 2 ** 64),
        ints(-3, 4, 1.5), ints(0, 2, 2 ** 40),
        st.none() | st.fixed_dictionaries({"k": st.integers(0, 3)}),
        st.integers(0, 9) | st.just(0.5)), min_size=10, max_size=120)


class TestColumnarRing:
    """The columnar ring against the tuple ring it replaced: same
    export bytes, lengths, drop counts and event keys."""

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 40),
           events=st.booleans().flatmap(_events))
    def test_matches_tuple_ring(self, tmp_path_factory, capacity, events):
        tracer, model = Tracer(capacity=capacity), _TupleRing(capacity)
        tracer.tid_for("core0")
        for phase, cat, name, cycle, span, tid, args, value in events:
            if phase == "X":
                tracer.complete(cat, name, cycle, cycle + span, tid, args)
                model.push("X", cat, name, cycle, tid, args, cycle + span)
            elif phase == "i":
                tracer.instant(cat, name, cycle, tid, args)
                model.push("i", cat, name, cycle, tid, args)
            else:
                tracer.counter(cat, name, cycle, value, tid)
                model.push("C", cat, name, cycle, tid, {"value": value})
        assert len(tracer) == len(model.ring)
        assert tracer.dropped == model.pushed - len(model.ring)
        want = list(model.chrome_events())
        assert [event.as_chrome() for event in tracer.events()] == want
        assert tracer.event_keys() == [
            (e["ph"], e["cat"], e["name"], e["ts"], e.get("dur", 0),
             e["tid"], tuple(sorted(e.get("args", {}).items())))
            for e in want]
        path = tmp_path_factory.mktemp("ring") / "trace.json"
        tracer.write(str(path), run_id="r1")
        document = tracer.to_chrome(run_id="r1")
        assert json.dumps(document["traceEvents"][1:]) == json.dumps(want)
        assert path.read_bytes() == json.dumps(
            document, separators=(",", ":")).encode()


    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 40), events=_events(False),
           writers=st.lists(st.sampled_from("pci"), min_size=120,
                            max_size=120))
    def test_column_writes_interleave_with_pushes(self, capacity, events,
                                                  writers):
        """Events written in place through ``columns()`` (as the
        compiled core writes them) share the push numbering, and a slot
        they overwrite never shows the ``args`` of the event it held."""
        tracer, model = Tracer(capacity=capacity), _TupleRing(capacity)
        kinds = {"X": tracer.column_kind("core", "dbb 1", "X", "index"),
                 "i": tracer.column_kind("core", "mispredict", "i")}
        cycles, durs, iargs, tids, kind_of, count = tracer.columns()
        for (phase, cat, name, cycle, span, tid, args, _), writer in zip(
                events, writers):
            if writer == "p":
                tracer.complete(cat, name, cycle, cycle + span, tid, args)
                model.push("X", cat, name, cycle, tid, args, cycle + span)
                continue
            slot = count[0] % capacity
            count[0] += 1
            phase = "X" if writer == "c" else "i"
            kind_of[slot], cycles[slot], tids[slot] = kinds[phase], cycle, tid
            durs[slot] = max(span, 0) if phase == "X" else 0
            iargs[slot] = tid + 7
            if phase == "X":
                model.push("X", "core", "dbb 1", cycle, tid,
                           {"index": tid + 7}, cycle + span)
            else:
                model.push("i", "core", "mispredict", cycle, tid, None)
        assert tracer.dropped == model.pushed - len(model.ring)
        assert [event.as_chrome() for event in tracer.events()] == list(
            model.chrome_events())


class TestTraceValidation:
    def _valid(self):
        tracer = Tracer()
        tracer.complete("core", "x", 0, 1)
        return tracer.to_chrome()

    def test_missing_other_data(self):
        with pytest.raises(ValueError, match="otherData"):
            validate_chrome_trace({"traceEvents": []})

    def test_wrong_schema_version(self):
        document = self._valid()
        document["otherData"]["trace_schema_version"] = 999
        with pytest.raises(ValueError, match="version"):
            validate_chrome_trace(document)

    def test_unknown_phase(self):
        document = self._valid()
        document["traceEvents"].append(
            {"name": "e", "ph": "B", "pid": 0, "tid": 0, "ts": 0})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(document)

    def test_span_needs_duration(self):
        document = self._valid()
        del document["traceEvents"][-1]["dur"]
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(document)

    def test_counter_needs_args(self):
        document = self._valid()
        document["traceEvents"].append(
            {"name": "c", "cat": "dae", "ph": "C", "pid": 0, "tid": 0,
             "ts": 0})
        with pytest.raises(ValueError, match="args"):
            validate_chrome_trace(document)


# -- determinism --------------------------------------------------------------

def _traced_run():
    generator = np.random.default_rng(7)
    mem = SimMemory()
    n = 128
    A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
    tracer = Tracer()
    simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
             num_tiles=2, hierarchy=dae_hierarchy(), memory=mem,
             tracer=tracer)
    return tracer


class TestDeterminism:
    def test_same_seed_and_config_identical_event_stream(self):
        first, second = _traced_run(), _traced_run()
        assert len(first) > 0
        assert first.tid_names == second.tid_names
        assert first.event_keys() == second.event_keys()

    def test_traced_run_covers_subsystems(self):
        document = _traced_run().to_chrome()
        validate_chrome_trace(document)
        categories = subsystem_categories(document)
        assert {"core", "cache", "dram"} <= set(categories)

    def test_tracing_does_not_change_results(self):
        generator = np.random.default_rng(7)
        mem = SimMemory()
        n = 128
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        untraced = simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                            num_tiles=2, hierarchy=dae_hierarchy(),
                            memory=mem)
        traced_stats_cycles = None
        generator = np.random.default_rng(7)
        mem = SimMemory()
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        traced = simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                          num_tiles=2, hierarchy=dae_hierarchy(),
                          memory=mem, tracer=Tracer(),
                          metrics=MetricsRegistry(),
                          profiler=SelfProfiler())
        assert traced.cycles == untraced.cycles
        assert traced.instructions == untraced.instructions
        assert traced.total_energy_nj == pytest.approx(
            untraced.total_energy_nj)


# -- histogram bucketing -------------------------------------------------------

class TestHistogram:
    def test_le_convention_boundaries(self):
        hist = Histogram(boundaries=(1, 2, 4))
        # bucket i counts boundaries[i-1] < v <= boundaries[i]
        for value in (0, 1):
            hist.observe(value)
        hist.observe(1.5)
        hist.observe(2)
        hist.observe(3)
        hist.observe(4)
        assert hist.counts == [2, 2, 2, 0]

    def test_overflow_bucket(self):
        hist = Histogram(boundaries=(1, 2, 4))
        hist.observe(5)
        hist.observe(10_000)
        assert hist.counts == [0, 0, 0, 2]

    def test_summary_stats(self):
        hist = Histogram(boundaries=(10,))
        for value in (1, 2, 3):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1 and hist.max == 3

    def test_quantiles(self):
        hist = Histogram(boundaries=(1, 2, 4, 8))
        for value in (1, 1, 2, 3, 8):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) <= 1.0
        assert hist.quantile(0.5) <= 2.0
        assert hist.quantile(1.0) == 8.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        # quantile delegates to percentile: both say None on empty input
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.5) == hist.percentile(0.5)
        assert hist.as_dict()["count"] == 0

    def test_boundary_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(boundaries=())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(boundaries=(1, 1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(boundaries=(4, 2, 1))

    def test_default_buckets_cover_latencies(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1
        assert DEFAULT_LATENCY_BUCKETS[-1] == 4096


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2)
        assert registry.counter("a").value == 3
        registry.gauge("g").max(5)
        registry.gauge("g").max(3)
        assert registry.gauge("g").value == 5

    def test_cross_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_serializes_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(3)
        snapshot = registry.as_dict()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot)  # must be JSON-serializable


# -- metrics + stats integration ----------------------------------------------

class TestStatsSerialization:
    @pytest.fixture(scope="class")
    def traced_stats(self):
        generator = np.random.default_rng(3)
        mem = SimMemory()
        n = 96
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        return simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                        hierarchy=dae_hierarchy(), memory=mem,
                        metrics=MetricsRegistry())

    def test_registry_snapshot_rides_stats(self, traced_stats):
        metrics = traced_stats.metrics
        assert metrics is not None
        assert metrics["counters"]["sim.instructions"] \
            == traced_stats.instructions
        hist = metrics["histograms"]["memory.request_latency_cycles"]
        assert hist["count"] > 0

    def test_stats_to_dict_round_trips(self, traced_stats):
        document = stats_to_dict(traced_stats)
        json.dumps(document)
        assert document["schema_version"] == 3
        assert document["cycles"] == traced_stats.cycles
        energy = document["energy"]
        assert energy["total_nj"] == pytest.approx(
            energy["cores_nj"] + energy["caches_nj"] + energy["dram_nj"])
        assert "metrics" in document


# -- self-profiler -------------------------------------------------------------

class TestProfiler:
    def test_phases_partition_wall_clock(self):
        generator = np.random.default_rng(3)
        mem = SimMemory()
        n = 96
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        profiler = SelfProfiler()
        simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                 hierarchy=dae_hierarchy(), memory=mem, profiler=profiler)
        report = profiler.report
        assert report is not None
        assert report.wall_seconds > 0
        assert report.cycles > 0 and report.instructions > 0
        assert report.events > 0 and report.tile_steps > 0
        assert sum(report.phases.values()) == pytest.approx(
            report.wall_seconds, rel=0.05)
        assert report.mips > 0
        assert "self-profile" in report.summary()
        json.dumps(report.as_dict())

    @pytest.mark.parametrize("exit", [None, DeadlockError,
                                      CycleBudgetExceeded,
                                      SimulationInterrupted])
    def test_timer_and_handler_restored_on_every_exit(self, exit):
        def sentinel(signum, frame):  # pragma: no cover - never armed
            raise AssertionError("SIGALRM outside a profiled run")

        profiler = SelfProfiler()
        if exit is DeadlockError:
            injector = FaultInjector(FaultPlan(seed=0,
                                               message_drop_rate=1.0))
            interleaver = build_system(
                kernels.ping_pong, [4], core=ooo_core(), num_tiles=2,
                injector=injector, profiler=profiler)
        else:
            mem = SimMemory()
            n = 64
            A = mem.alloc(n, F64, "A", init=np.ones(n))
            B = mem.alloc(n, F64, "B", init=np.ones(n))
            interleaver = build_system(
                kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                hierarchy=dae_hierarchy(), memory=mem, profiler=profiler,
                max_cycles=10 if exit is CycleBudgetExceeded
                else DEFAULT_MAX_CYCLES)
        if exit is SimulationInterrupted:
            interleaver.arm_interrupts()
            interleaver.request_interrupt(signal.SIGINT)
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            if exit is None:
                interleaver.run()
            else:
                with pytest.raises(exit):
                    interleaver.run()
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            signal.signal(signal.SIGALRM, previous)
        # every exit leaves a finished report
        assert profiler.report.wall_seconds > 0
        assert profiler.report.cycles == interleaver.cycle

    def test_samples_charge_the_scheduler_call_site(self):
        profiler = SelfProfiler()

        def sample(cycle):
            profiler._sample(signal.SIGALRM, sys._getframe())

        scheduler = Scheduler()
        scheduler.at(0, sample)
        # a callback run by the scheduler counts as event_loop, though
        # its own frame belongs to no simulator subsystem
        scheduler.run_due(0)
        sample(0)
        assert profiler.samples == {"event_loop": 1, "tile_step": 0,
                                    "memory": 0, "fabric": 0, "other": 1}


# -- timeline rendering + CLI ---------------------------------------------------

class TestTimeline:
    def _write_trace(self, tmp_path):
        tracer = Tracer()
        tid = tracer.tid_for("core0")
        tracer.complete("core", "add", 0, 50, tid)
        tracer.instant("fault", "dram.stall", 25, tracer.tid_for("fault"))
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        return path

    def test_render_timeline_draws_lanes(self, tmp_path):
        document = json.loads(self._write_trace(tmp_path).read_text())
        text = render_timeline(document, width=40)
        assert "core0" in text and "fault" in text
        assert "#" in text and "!" in text

    def test_render_timeline_empty_document(self):
        text = render_timeline({"traceEvents": []}, title="t")
        assert "no span" in text

    def test_cli_renders_valid_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert cli_main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "core0" in out

    def test_cli_missing_file_exits_2(self, tmp_path, capsys):
        assert cli_main(["timeline", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["timeline", str(path)]) == 2
        assert "not a JSON" in capsys.readouterr().err

    def test_cli_schema_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert cli_main(["timeline", str(path)]) == 2
        assert "invalid trace" in capsys.readouterr().err
