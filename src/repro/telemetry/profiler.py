"""Simulator self-profiling: where does *wall-clock* simulation time go?

The ROADMAP asks for hot paths to be made "measurably faster" — which
first requires measuring them. :class:`SelfProfiler` accounts the
Interleaver's wall-clock time into coarse phases:

* ``event_loop`` — scheduler callbacks (memory responses, message
  deliveries, deferred completions);
* ``tile_step`` — tile stepping (reported exclusive of the nested
  memory/fabric dispatch below);
* ``memory`` — memory-request dispatch issued from inside tile steps;
* ``fabric`` — fabric calls (messages, DAE queues, barriers) issued
  from inside tile steps;
* ``other`` — everything else (cycle selection, bookkeeping).

plus throughput figures: simulated cycles, scheduler events and
simulated instructions per wall-clock second (the §VI-B MIPS number).
Profiling costs two ``perf_counter`` calls around each accounted
region, so it is opt-in; a run without a profiler pays nothing but a
``profiler is None`` branch per Interleaver iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

_perf = time.perf_counter

#: phase keys reported even when unused, so consumers see a stable shape
PHASES = ("event_loop", "tile_step", "memory", "fabric", "other")


@dataclass
class ProfileReport:
    """One run's self-profile (see ``ProfileReport.summary()``)."""

    wall_seconds: float = 0.0
    #: exclusive wall-clock seconds per phase
    phases: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    events: int = 0
    tile_steps: int = 0
    instructions: int = 0
    #: fast-path hit counters (e.g. scheduler monomorphic drains) — see
    #: docs/performance.md for the meaning of each key
    counters: Dict[str, int] = field(default_factory=dict)
    #: tile name -> the implementation that stepped it ("python" or
    #: "compiled" for cores, see repro.sim.core.compiled)
    backends: Dict[str, str] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mips(self) -> float:
        """Simulated instructions per wall-clock second, in millions."""
        if not self.wall_seconds:
            return 0.0
        return self.instructions / self.wall_seconds / 1e6

    def as_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "phases": dict(self.phases),
            "cycles": self.cycles,
            "events": self.events,
            "tile_steps": self.tile_steps,
            "instructions": self.instructions,
            "events_per_second": self.events_per_second,
            "cycles_per_second": self.cycles_per_second,
            "mips": self.mips,
            "counters": dict(self.counters),
        }

    def summary(self) -> str:
        lines = [
            f"simulator self-profile: {self.wall_seconds:.3f}s wall, "
            f"{self.cycles} cycles ({self.cycles_per_second:,.0f}/s), "
            f"{self.events} events ({self.events_per_second:,.0f}/s), "
            f"{self.tile_steps} tile steps, "
            f"{self.mips:.4f} MIPS",
        ]
        total = self.wall_seconds or 1.0
        for phase in PHASES:
            seconds = self.phases.get(phase, 0.0)
            lines.append(f"  {phase:<10} {seconds:8.3f}s "
                         f"({100.0 * seconds / total:5.1f}%)")
        if self.backends:
            lines.append("  backends: " + ", ".join(
                f"{tile} {backend}"
                for tile, backend in self.backends.items()))
        return "\n".join(lines)


class SelfProfiler:
    """Accumulates per-phase wall-clock time for one simulation run.

    The Interleaver calls :meth:`start` / :meth:`finish` around the run
    and :meth:`add` from its instrumented regions; ``memory`` and
    ``fabric`` time is captured by wrapping the TileServices entry
    points (see :func:`timed` and :class:`ProfiledFabric`) and is
    subtracted from the enclosing ``tile_step`` bucket at report time.
    """

    def __init__(self):
        self._buckets: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.events = 0
        self.tile_steps = 0
        #: fast-path hit counters filled in by the Interleaver at collect
        #: time (cheap: subsystems count unconditionally, ints only)
        self.counters: Dict[str, int] = {}
        self.backends: Dict[str, str] = {}
        self._started_at: Optional[float] = None
        self.report: Optional[ProfileReport] = None

    # -- accumulation (hot, keep minimal) --------------------------------
    def add(self, phase: str, seconds: float) -> None:
        self._buckets[phase] += seconds

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        self._started_at = _perf()

    def finish(self, cycles: int, instructions: int) -> ProfileReport:
        wall = (_perf() - self._started_at
                if self._started_at is not None else 0.0)
        buckets = dict(self._buckets)
        # memory/fabric dispatch happens *inside* tile steps: report
        # tile_step exclusive of the nested time so the phases partition
        # the wall clock
        nested = buckets["memory"] + buckets["fabric"]
        buckets["tile_step"] = max(0.0, buckets["tile_step"] - nested)
        accounted = sum(buckets[p] for p in PHASES if p != "other")
        buckets["other"] = max(0.0, wall - accounted)
        self.report = ProfileReport(
            wall_seconds=wall, phases=buckets, cycles=cycles,
            events=self.events, tile_steps=self.tile_steps,
            instructions=instructions, counters=dict(self.counters),
            backends=dict(self.backends))
        return self.report


def timed(profiler: SelfProfiler, phase: str,
          fn: Callable) -> Callable:
    """Wrap ``fn`` so its wall-clock time lands in ``phase``."""

    def wrapper(*args, **kwargs):
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.add(phase, _perf() - t0)

    return wrapper


class ProfiledFabric:
    """Timing proxy over a :class:`~repro.sim.comm.fabric.CommFabric`.

    Wraps the methods tiles call on the hot path; everything else
    delegates to the real fabric (diagnostics, stats fields). Installed
    by the Interleaver only when profiling, so unprofiled runs never see
    the indirection.
    """

    _TIMED_METHODS = (
        "send", "try_recv", "queue_try_produce", "queue_try_consume",
        "queue_try_reserve", "queue_deposit_reserved", "barrier_arrive",
    )

    def __init__(self, fabric, profiler: SelfProfiler):
        object.__setattr__(self, "_fabric", fabric)
        for name in self._TIMED_METHODS:
            object.__setattr__(
                self, name, timed(profiler, "fabric", getattr(fabric, name)))

    def __getattr__(self, name):
        return getattr(self._fabric, name)

    def __setattr__(self, name, value):
        setattr(self._fabric, name, value)
