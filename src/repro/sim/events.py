"""Cycle-stamped event scheduler shared by the Interleaver and the memory
system.

Events are callbacks tagged with the global cycle at which they fire.
Insertion order breaks ties so behavior is deterministic. Callbacks
always receive the cycle the event was *stamped* with, never the cycle
the drain happened to run at — an event scheduled behind the current
cycle (possible when a tile schedules work while the global clock has
already advanced past it) must not silently shift its completion time
forward to the drain cycle.

Entries are ``(cycle, seq, callback)`` triples, and ``run_due`` drains
them through one monomorphic loop (see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Scheduler:
    def __init__(self):
        #: (cycle, seq, callback) entries; seq is unique so comparison
        #: never reaches the callback
        self._heap: List[Tuple] = []
        self._seq = 0
        #: drains run (SelfProfiler's ``scheduler_fast_drains`` counter;
        #: the name is the one schema-6 snapshots carry)
        self.fast_drains = 0
        #: callbacks run over every drain (a profile reports them)
        self.events = 0

    def at(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(cycle)`` to run at ``cycle``."""
        heapq.heappush(self._heap, (cycle, self._seq, callback))
        self._seq += 1

    def next_cycle(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def run_due(self, cycle: int) -> int:
        """Run every event stamped at or before ``cycle``; returns count.

        Each callback receives its own stamped cycle (``entry[0]``), not
        the drain cycle: draining at cycle 100 an event stamped for cycle
        95 fires it with 95, so completion times never skew forward just
        because the drain ran late.
        """
        count = 0
        heap = self._heap
        pop = heapq.heappop
        self.fast_drains += 1
        while heap and heap[0][0] <= cycle:
            entry = pop(heap)
            entry[2](entry[0])
            count += 1
        self.events += count
        return count

    @property
    def pending(self) -> int:
        return len(self._heap)
