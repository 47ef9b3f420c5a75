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
For the same reason a tile may cover several of its own cycles in one
:meth:`~repro.sim.tile.Tile.advance` call: up to, not including, the
next event, the cycle budget and every other active tile's next
attention, and stopping after a step that acts outside the tile. The
clock then moves to the last cycle the tile stepped.

Resilience hooks (see ``docs/resilience.md``): a cycle budget
(``max_cycles`` → :class:`CycleBudgetExceeded`), an optional wall-clock
watchdog (``wall_clock_limit`` → :class:`WatchdogTimeout`), and deadlock
detection that raises :class:`DeadlockError` carrying a structured
``diagnose()`` snapshot of every stuck tile, the fabric queues, and the
outstanding memory requests.

Observers (see ``docs/observability.md``): ``Interleaver.__init__`` is
the one place that lists them; the runner entry points forward them
unchanged as ``**observers``. All seven are optional; the four that
watch components add handlers to each component's one ``observers``
tuple (:mod:`repro.telemetry.observer`), so an absent one costs an empty
loop per hook site:

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
        """Hand every tile its services, then let each observer attach
        its handlers, in a fixed order so that trace lanes and handler
        order are part of the determinism contract."""
        for tile in self.tiles:
            tile.services = self.services
        # a farm or an injector can outlive a run (run_supervised's
        # retries reuse a caller's farm): each run starts them unwatched
        for shared in (self.accelerators, self.fabric.injector):
            if shared is not None:
                shared.observers = ()
        watching = (self.tracer, self.attribution, self.memstat,
                    self.metrics)
        self.observers = tuple(o for o in watching if o is not None)
        for observer in self.observers:
            observer.attach(self)

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
        # no tile runs ahead into a cycle past the budget (a horizon is
        # a C int64: NEVER caps a budget set beyond it)
        budget_end = min(max_cycles + 1, NEVER)
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
                            # nothing outside the tile acts before the
                            # next event, the budget or another tile's
                            # attention: the tile may run on up to them
                            # (a step recomputes its own attention; the
                            # scan stops once only `cycle` can be stepped)
                            tile.next_attention = NEVER
                            horizon = sched_next()
                            if horizon is None or horizon > budget_end:
                                horizon = budget_end
                            alone = cycle + 1
                            if horizon > alone:
                                for other in active:
                                    if other.next_attention < horizon:
                                        horizon = other.next_attention
                                        if horizon <= alone:
                                            break
                            cycle = tile.advance(cycle, horizon)
                            progressed = True
                            steps += 1
                            # a tile that finished has no next attention
                            if tile.next_attention >= NEVER and tile.done:
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
    def tile_states(self) -> List[dict]:
        """Compact per-tile stall picture: the tiles of a DeadlockError's
        diagnosis and of every heartbeat."""
        states = []
        for tile in self.tiles:
            entry = {
                "name": tile.name,
                "done": tile.done,
                "next_attention": (None if tile.next_attention >= NEVER
                                   else tile.next_attention),
            }
            entry.update(tile.stall_state())
            states.append(entry)
        return states

    def _diagnose(self, cycle: int) -> dict:
        """Structured snapshot of the stuck system for DeadlockError."""
        diagnosis = {
            "cycle": cycle,
            "tiles": self.tile_states(),
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
            # final heartbeat BEFORE the attributor's collect mutates
            # the ledgers the emitter's delta accounting reads
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
        for observer in self.observers:
            observer.collect(stats, self)
        return stats
