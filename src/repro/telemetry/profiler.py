"""Simulator self-profiling: where does *wall-clock* simulation time go?

:class:`SelfProfiler` is a stack sampler. While a profiled
``Interleaver.run`` is in flight, an ``ITIMER_REAL`` timer raises
``SIGALRM`` about every wall-clock millisecond, and each sample charges
one phase by call site, walking outward from the interrupted frame:

* ``event_loop`` — any ``Scheduler.run_due`` frame: scheduler callbacks
  (memory responses, message deliveries, deferred completions);
* else the innermost subsystem frame: ``memory`` (``repro.memory``),
  ``fabric`` (``repro.sim.comm``) or ``tile_step`` (the core model,
  the accelerator tiles, ``repro.sim.tile``);
* ``other`` — everything else (cycle selection, bookkeeping).

A phase's seconds are its share of the samples times the wall clock:
statistical, but always a partition of it. Events, tile steps, cycles
and instructions are exact, read from counters the scheduler and the
Interleaver keep anyway, and give the §VI-B MIPS figure. Every count
covers the profiled ``run()`` only, so a resumed run profiles its own
part; the sampler holds no simulator state and pickles with a snapshot.
A profiled run owns ``SIGALRM`` and ``ITIMER_REAL`` on the main thread
and restores both when it returns or raises.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

_perf = time.perf_counter

#: phase keys reported even when unused, so consumers see a stable shape
PHASES = ("event_loop", "tile_step", "memory", "fabric", "other")

#: wall-clock seconds between samples
INTERVAL = 0.001

#: module-name prefix -> phase, for the innermost-subsystem rule
_MODULE_PHASES = (
    ("repro.memory.", "memory"),
    ("repro.sim.comm.", "fabric"),
    ("repro.sim.core.", "tile_step"),
    ("repro.sim.accelerator.", "tile_step"),
    ("repro.sim.tile", "tile_step"),
)

#: code object -> its phase, or None outside the subsystems; a sample
#: walks the whole stack, so a frame costs one lookup once seen. A pure
#: function of the code, kept off the profiler so that a snapshot of a
#: profiled run never pickles code objects
_phase_of_code: Dict[object, Optional[str]] = {}


def _classify(frame) -> Optional[str]:
    module = frame.f_globals.get("__name__", "")
    if frame.f_code.co_name == "run_due" and module == "repro.sim.events":
        phase = "event_loop"
    else:
        phase = next((phase for prefix, phase in _MODULE_PHASES
                      if module.startswith(prefix)), None)
    _phase_of_code[frame.f_code] = phase
    return phase


@dataclass
class ProfileReport:
    """One run's self-profile (see ``ProfileReport.summary()``)."""

    wall_seconds: float = 0.0
    #: wall-clock seconds per phase (sampled share x wall clock)
    phases: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    events: int = 0
    tile_steps: int = 0
    instructions: int = 0
    #: loop counters (``scheduler_fast_drains``: scheduler drains) — see
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


def _counts(interleaver) -> tuple:
    """cycles, events, tile steps, instructions and scheduler drains so
    far: a profile reports their growth over one run()."""
    scheduler = interleaver.scheduler
    return (interleaver.cycle, scheduler.events, interleaver.tile_steps,
            sum(tile.stats.instructions for tile in interleaver.tiles),
            scheduler.fast_drains)


class SelfProfiler:
    """Samples one simulation run's stack into per-phase counts;
    ``report`` is set when the run returns or raises."""

    def __init__(self):
        self.samples: Dict[str, int] = dict.fromkeys(PHASES, 0)
        self.report: Optional[ProfileReport] = None
        self._started_at = 0.0
        self._base: tuple = ()

    def _sample(self, signum, frame) -> None:
        """``SIGALRM`` handler: charge one sample by call site."""
        phase = "other"
        while frame is not None:
            code = frame.f_code
            found = (_phase_of_code[code] if code in _phase_of_code
                     else _classify(frame))
            if found == "event_loop":
                phase = found
                break
            if phase == "other" and found is not None:
                phase = found
            frame = frame.f_back
        self.samples[phase] += 1

    def start(self, interleaver) -> None:
        self.samples = dict.fromkeys(PHASES, 0)
        self.report = None
        self._base = _counts(interleaver)
        self._started_at = _perf()

    def finish(self, interleaver) -> ProfileReport:
        wall = _perf() - self._started_at
        cycles, events, steps, instructions, drains = (
            now - base for now, base in zip(_counts(interleaver), self._base))
        taken = sum(self.samples.values())
        # a run shorter than one interval takes no sample: all "other"
        shares = ({phase: count / taken
                   for phase, count in self.samples.items()} if taken
                  else {**dict.fromkeys(PHASES, 0.0), "other": 1.0})
        self.report = ProfileReport(
            wall_seconds=wall,
            phases={phase: share * wall for phase, share in shares.items()},
            cycles=cycles, events=events, tile_steps=steps,
            instructions=instructions,
            counters={"scheduler_fast_drains": drains},
            backends={tile.name: tile.backend for tile in interleaver.tiles})
        return self.report


@contextlib.contextmanager
def sampling(interleaver) -> Iterator[None]:
    """Sample ``interleaver``'s run into its ``profiler``, if any; the
    previous ``SIGALRM`` handler and ``ITIMER_REAL`` setting come back
    on every exit."""
    profiler = interleaver.profiler
    if profiler is None:
        yield
        return
    profiler.start(interleaver)
    previous = signal.signal(signal.SIGALRM, profiler._sample)
    timer = signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    try:
        yield
    finally:
        # disarm first: signal.signal runs a still-pending sample
        # through the sampler before it swaps the handler back
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, previous)
        profiler.finish(interleaver)
