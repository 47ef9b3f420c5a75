"""The Interleaver (paper Figure 2, §II "Timing Integration").

Tiles are modeled to operate concurrently; the Interleaver queries each
tile to advance it through the next time unit of execution, coordinates
tiles running at different clock speeds via per-tile periods, routes
inter-tile transactions (messages, DAE queue tokens) through the
CommFabric, dispatches memory requests to the shared hierarchy, and
invokes accelerator tiles on behalf of cores.

The main loop is cycle-driven but skips cycles in which no tile needs
attention and no event fires — a pure optimization that cannot change
results, since tiles self-report the next cycle at which their state can
evolve and every external interaction goes through the event scheduler.

Resilience hooks (see ``docs/resilience.md``): a cycle budget
(``max_cycles`` → :class:`CycleBudgetExceeded`), an optional wall-clock
watchdog (``wall_clock_limit`` → :class:`WatchdogTimeout`), and deadlock
detection that raises :class:`DeadlockError` carrying a structured
``diagnose()`` snapshot of every stuck tile, the fabric queues, and the
outstanding memory requests.

Observers (see ``docs/observability.md``): ``Interleaver.__init__`` is
the one place that lists them; the runner entry points forward them
unchanged as ``**observers``, and one attach pass hands each to the
subsystems that feed it. All seven are optional and cost one branch per
hook site when absent:

* ``tracer`` (:class:`~repro.telemetry.Tracer`) records cycle-level
  spans from tiles, fabric, memory, accelerators and fault injection;
* ``metrics`` (:class:`~repro.telemetry.MetricsRegistry`) collects
  runtime histograms and a whole-run snapshot into ``SystemStats.metrics``;
* ``profiler`` (:class:`~repro.telemetry.SelfProfiler`) samples the
  call stack about once per wall-clock millisecond of ``run()`` and
  charges each sample to a simulator phase; it hooks no code path;
* ``attribution`` (:class:`~repro.telemetry.Attributor`) charges every
  tile cycle to a CPI-stack category;
* ``memstat`` (:class:`~repro.telemetry.MemStat`) classifies misses and
  measures reuse, DRAM bank locality and link utilization;
* ``checkpoint`` (:class:`~repro.checkpoint.CheckpointSink`) autosaves
  snapshots from the outer-loop consistency point;
* ``emitter`` (:class:`~repro.telemetry.HeartbeatEmitter`) streams live
  JSONL snapshots from the same point.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, Optional

from ..telemetry.profiler import sampling
from ..trace.tracefile import AccelInvocation

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import with
    from ..memory.hierarchy import MemorySystem  # repro.memory.cache
from .accelerator.tile import AcceleratorFarm
from .comm.fabric import CommFabric
from .errors import (
    CheckpointError, CycleBudgetExceeded, DeadlockError, SimulationError,
    SimulationInterrupted, WatchdogTimeout,
)
from .events import Scheduler
from .statistics import SystemStats
from .tile import NEVER, Tile

__all__ = [
    "CheckpointError", "CycleBudgetExceeded", "DeadlockError", "Interleaver",
    "SimulationError", "SimulationInterrupted", "TileServices",
    "WatchdogTimeout",
]


class TileServices:
    """The interface tiles use to interact with the rest of the system."""

    def __init__(self, scheduler: Scheduler,
                 memory: Optional["MemorySystem"],
                 fabric: CommFabric,
                 accelerators: Optional[AcceleratorFarm]):
        self.scheduler = scheduler
        self.memory = memory
        self.fabric = fabric
        self.accelerators = accelerators

    def schedule(self, cycle: int, callback: Callable[[int], None]) -> None:
        self.scheduler.at(cycle, callback)

    def mem_access(self, port: int, address: int, size: int, *,
                   is_write: bool, is_atomic: bool, cycle: int,
                   callback: Callable[[int], None]):
        if self.memory is None:
            # no hierarchy configured: fixed ideal latency (no request
            # object — attribution classifies this as memory.ideal)
            self.scheduler.at(cycle + 1, callback)
            return None
        return self.memory.access(port, address, size, is_write=is_write,
                                  is_atomic=is_atomic, cycle=cycle,
                                  callback=callback)

    def accel_invoke(self, invocation: AccelInvocation, cycle: int):
        if self.accelerators is None:
            raise SimulationError(
                f"kernel invokes {invocation.name} but no accelerators are "
                f"configured")
        return self.accelerators.invoke(invocation, cycle)

    def accel_fallback(self, invocation: AccelInvocation, cycle: int):
        """Core-execution fallback estimate for a faulted invocation, or
        None when the farm has fallback disabled (the fault propagates)."""
        if self.accelerators is None or not self.accelerators.fallback_enabled:
            return None
        return self.accelerators.fallback_invoke(invocation, cycle)


class Interleaver:
    def __init__(self, tiles: List[Tile],
                 memory: Optional["MemorySystem"] = None,
                 fabric: Optional[CommFabric] = None,
                 accelerators: Optional[AcceleratorFarm] = None,
                 frequency_ghz: float = 2.0,
                 max_cycles: int = 2_000_000_000,
                 scheduler: Optional[Scheduler] = None,
                 wall_clock_limit: Optional[float] = None,
                 tracer=None, metrics=None, profiler=None,
                 attribution=None, checkpoint=None, emitter=None,
                 memstat=None):
        if not tiles:
            raise ValueError("Interleaver needs at least one tile")
        self.tiles = tiles
        if scheduler is not None:
            self.scheduler = scheduler
        elif memory is not None:
            self.scheduler = memory.scheduler
        else:
            self.scheduler = Scheduler()
        self.memory = memory
        self.fabric = fabric if fabric is not None else CommFabric()
        self.accelerators = accelerators
        self.frequency_ghz = frequency_ghz
        self.max_cycles = max_cycles
        #: wall-clock watchdog budget in seconds (None = unlimited)
        self.wall_clock_limit = wall_clock_limit
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.attribution = attribution
        self.memstat = memstat
        #: optional CheckpointSink polled on the watchdog stride
        self.checkpoint = checkpoint
        #: optional HeartbeatEmitter polled on the same stride
        self.emitter = emitter
        #: the clock: run() starts from it and leaves the cycle it
        #: stopped at, on return or raise; load_checkpoint sets it
        self.cycle = 0
        #: tile steps taken over every run() (a profile reports them)
        self.tile_steps = 0
        #: signal number noted by request_interrupt(), polled by run()
        self._interrupt_signum: Optional[int] = None
        #: whether run() should poll _interrupt_signum at all
        self._signals_armed = False
        self.services = TileServices(self.scheduler, memory, self.fabric,
                                     accelerators)
        self._attach()

    # ------------------------------------------------------------------
    def _attach(self) -> None:
        """Hand every subsystem its services and the observers it feeds,
        in one pass. Absent observers are skipped here, so their hook
        sites keep a single ``is not None`` branch.

        Tracer lane order (tiles first, then fabric/memory/accelerators/
        faults) is fixed so the same configuration always produces the
        same tids — part of the determinism contract.
        """
        tracer = self.tracer
        attribution, memstat = self.attribution, self.memstat
        fabric, memory = self.fabric, self.memory
        services = self.services
        for tile in self.tiles:
            tile.services = services
            if tracer is not None:
                tile.tracer = tracer
                tile.trace_tid = tracer.tid_for(tile.name)
            if attribution is not None:
                tile.attributor = attribution.for_tile(tile.name)
        if tracer is not None:
            fabric.tracer = tracer
            fabric.trace_tid = tracer.tid_for("fabric")
            if memory is not None:
                memory.attach_tracer(tracer)
            if self.accelerators is not None:
                self.accelerators.tracer = tracer
                self.accelerators.trace_tid = tracer.tid_for("accel")
            # the shared FaultInjector (if any) records fault instants;
            # all wired subsystems share one injector, so one suffices
            for holder in (fabric, self.accelerators,
                           getattr(memory, "dram", None)):
                injector = getattr(holder, "injector", None)
                if injector is not None:
                    injector.tracer = tracer
                    injector.trace_tid = tracer.tid_for("fault")
                    break
        if attribution is not None:
            fabric.attributor = attribution
        if memstat is not None:
            fabric.memstat = memstat
        if memory is not None:
            if self.metrics is not None:
                memory.attach_metrics(self.metrics)
            if memstat is not None:
                memory.attach_memstat(memstat)

    # ------------------------------------------------------------------
    def run(self) -> SystemStats:
        with sampling(self):
            return self._run()

    def _run(self) -> SystemStats:
        scheduler = self.scheduler
        monotonic = time.monotonic
        cycle = self.cycle
        deadline = None
        if self.wall_clock_limit is not None:
            deadline = monotonic() + self.wall_clock_limit
        iterations = 0
        max_cycles = self.max_cycles
        checkpoint = self.checkpoint
        emitter = self.emitter
        # one precomputed boolean keeps the disabled case at its original
        # single-branch cost on the hot path
        watch = (deadline is not None or checkpoint is not None
                 or emitter is not None or self._signals_armed)
        sched_next = scheduler.next_cycle
        sched_run_due = scheduler.run_due
        for tile in self.tiles:
            tile.begin_run()
        # the active set is maintained incrementally: tiles are pruned as
        # they finish, never re-derived from scratch, and the attention
        # minimum is taken over this (shrinking) set only
        active = [t for t in self.tiles if not t.done]
        steps = 0
        try:
            while active:
                if watch:
                    # the top of the outer loop is the snapshot consistency
                    # point: every event due at `cycle` has fired and every
                    # due tile has stepped to a fixed point, so this is the
                    # only place autosaves and graceful interrupts act
                    iterations += 1
                    if (iterations & 63) == 0:
                        if deadline is not None and monotonic() > deadline:
                            exc = WatchdogTimeout(
                                f"wall-clock watchdog fired after "
                                f"{self.wall_clock_limit}s at cycle {cycle}")
                            exc.checkpoint_path = self._flush_checkpoint(cycle)
                            raise exc
                        if self._interrupt_signum is not None:
                            self._raise_interrupted(cycle)
                        if checkpoint is not None and checkpoint.due(cycle):
                            checkpoint.save(self, cycle)
                        if emitter is not None and emitter.due(cycle):
                            emitter.emit(self, cycle)
                next_cycle = NEVER
                event_cycle = sched_next()
                if event_cycle is not None:
                    next_cycle = event_cycle
                for tile in active:
                    attention = tile.next_attention
                    if attention < next_cycle:
                        next_cycle = attention
                if next_cycle >= NEVER:
                    self._raise_deadlock(cycle)
                if next_cycle > cycle:
                    cycle = next_cycle
                    if cycle > max_cycles:
                        # nothing due at `cycle` has been drained yet, so a
                        # snapshot here resumes exactly where an uninterrupted
                        # run (with a larger budget) would have continued
                        exc = CycleBudgetExceeded(
                            f"simulation exceeded {max_cycles} cycles")
                        exc.checkpoint_path = self._flush_checkpoint(cycle)
                        raise exc

                # events first (memory responses, message deliveries),
                # which may wake tiles at this very cycle
                sched_run_due(cycle)
                # then step every tile due at this cycle; stepping can wake
                # peers at the same cycle (e.g. a consume frees queue space),
                # so iterate to a fixed point
                finished = False
                for _ in range(64):
                    # the watchdog is polled inside the fixed-point loop too
                    # (same & 63 stride), so a pathological same-cycle
                    # ping-pong cannot blow far past wall_clock_limit
                    if deadline is not None:
                        iterations += 1
                        if (iterations & 63) == 0 and monotonic() > deadline:
                            raise WatchdogTimeout(
                                f"wall-clock watchdog fired after "
                                f"{self.wall_clock_limit}s at cycle {cycle}")
                    progressed = False
                    for tile in active:
                        if tile.next_attention <= cycle:
                            if tile.done:
                                # finished by an event callback (not its own
                                # step): clear the stale wakeup so the min
                                # scan never sees it again, and prune below
                                tile.next_attention = NEVER
                                finished = True
                                continue
                            returned = tile.step(cycle)
                            if returned < tile.next_attention:
                                tile.next_attention = returned
                            progressed = True
                            steps += 1
                            if tile.done:
                                finished = True
                    if not progressed:
                        break
                else:  # pragma: no cover - indicates a livelock bug
                    raise SimulationError(
                        f"tiles did not reach a fixed point at cycle {cycle}")
                if finished:
                    active = [t for t in active if not t.done]
        finally:
            # on return or raise: where the clock stopped and the steps
            # taken, which a resume and a profile read
            self.cycle = cycle
            self.tile_steps += steps
        return self._collect(cycle)

    # ------------------------------------------------------------------
    def arm_interrupts(self) -> None:
        """Make run() poll :meth:`request_interrupt` flags (the graceful
        SIGINT/SIGTERM path). Must be called before run() starts."""
        self._signals_armed = True

    def request_interrupt(self, signum: int) -> None:
        """Note a signal (async-signal-safe: one attribute write). The
        run loop converts it into :class:`SimulationInterrupted` at the
        next consistency point, after flushing a final checkpoint."""
        self._interrupt_signum = signum

    def _flush_checkpoint(self, cycle: int) -> Optional[str]:
        """Final snapshot at an outer-loop consistency point; returns its
        path, or None when no sink is attached."""
        if self.checkpoint is None:
            return None
        return self.checkpoint.save(self, cycle)

    def _raise_interrupted(self, cycle: int) -> None:
        signum = self._interrupt_signum
        self._interrupt_signum = None
        path = self._flush_checkpoint(cycle)
        # collect AFTER saving: _collect mutates the telemetry ledgers,
        # and the snapshot must capture them mid-run
        partial = self._collect(cycle)
        raise SimulationInterrupted(signum, cycle, checkpoint_path=path,
                                    partial_stats=partial)

    # ------------------------------------------------------------------
    def _diagnose(self, cycle: int) -> dict:
        """Structured snapshot of the stuck system for DeadlockError."""
        tile_states = []
        for tile in self.tiles:
            entry = {
                "name": tile.name,
                "done": tile.done,
                "next_attention": (None if tile.next_attention >= NEVER
                                   else tile.next_attention),
            }
            entry.update(tile.stall_state())
            tile_states.append(entry)
        diagnosis = {
            "cycle": cycle,
            "tiles": tile_states,
            "fabric": self.fabric.diagnostics(),
            "events_pending": self.scheduler.pending,
        }
        if self.memory is not None:
            diagnosis["memory"] = self.memory.diagnostics()
        return diagnosis

    def _raise_deadlock(self, cycle: int) -> None:
        diagnosis = self._diagnose(cycle)
        stuck = [t for t in diagnosis["tiles"] if not t["done"]]
        details = ", ".join(
            f"{t['name']} (attention="
            f"{'never' if t['next_attention'] is None else t['next_attention']}"
            f")" for t in stuck)
        fabric = diagnosis["fabric"]
        raise DeadlockError(
            f"deadlock at cycle {cycle}: no events pending, waiting tiles: "
            f"{details or 'none'}; fabric: "
            f"{fabric['pending_messages']} buffered message(s), "
            f"queue occupancy {fabric['queue_occupancy'] or '{}'}, "
            f"{fabric['dropped_messages']} dropped; see diagnose() for the "
            f"full snapshot", diagnosis)

    def _collect(self, cycle: int) -> SystemStats:
        if self.emitter is not None:
            # final heartbeat BEFORE attribution.finalize mutates the
            # ledgers the emitter's delta accounting reads
            self.emitter.emit(self, cycle, final=True)
        stats = SystemStats(cycles=cycle, frequency_ghz=self.frequency_ghz)
        stats.tiles = [t.stats for t in self.tiles]
        if self.memory is not None:
            stats.caches = dict(self.memory.cache_stats)
            stats.dram = self.memory.dram_stats
            # memory_energy_nj is derived (caches + DRAM) on SystemStats,
            # so the breakdown cannot double count
            stats.cache_energy_nj = self.memory.cache_energy_nj
            stats.dram_energy_nj = self.memory.dram_energy_nj
        if self.metrics is not None:
            self._snapshot_metrics(stats)
            stats.metrics = self.metrics.as_dict()
        if self.attribution is not None:
            self.attribution.finalize(stats, self.tiles, self.accelerators,
                                      self.memory)
        if self.memstat is not None:
            stats.memstat = self.memstat.memory_block()
        return stats

    def _snapshot_metrics(self, stats: SystemStats) -> None:
        """Fold end-of-run subsystem state into the registry, alongside
        the runtime histograms the subsystems observed themselves."""
        metrics = self.metrics
        metrics.gauge("sim.cycles").set(stats.cycles)
        metrics.counter("sim.instructions").inc(stats.instructions)
        for tile in stats.tiles:
            prefix = f"tile.{tile.name}"
            metrics.counter(f"{prefix}.instructions").inc(tile.instructions)
            metrics.counter(f"{prefix}.memory_accesses").inc(
                tile.memory_accesses)
            metrics.counter(f"{prefix}.mispredictions").inc(
                tile.mispredictions)
            metrics.counter(f"{prefix}.mao_stalls").inc(tile.mao_stalls)
        fabric = self.fabric
        metrics.counter("fabric.messages_sent").inc(fabric.messages_sent)
        metrics.counter("fabric.messages_dropped").inc(
            fabric.dropped_messages)
        metrics.counter("fabric.messages_delayed").inc(
            fabric.delayed_messages)
        for name, peak in sorted(fabric.peak_occupancy.items()):
            metrics.gauge(f"fabric.queue.{name}.peak_occupancy").max(peak)
        for group, count in sorted(fabric.barriers_released.items()):
            metrics.counter(f"fabric.barrier.{group}.released").inc(count)
        for name, cache in sorted(stats.caches.items()):
            metrics.counter(f"cache.{name}.hits").inc(cache.hits)
            metrics.counter(f"cache.{name}.misses").inc(cache.misses)
        metrics.counter("dram.requests").inc(stats.dram.requests)
        metrics.counter("dram.throttled").inc(stats.dram.throttled)
        if self.accelerators is not None:
            for name, tile in sorted(self.accelerators.tiles.items()):
                metrics.counter(f"{name}.invocations").inc(tile.invocations)
                metrics.counter(f"{name}.busy_cycles").inc(tile.busy_cycles)
