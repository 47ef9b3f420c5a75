"""Cycle-stamped event scheduler shared by the Interleaver and the memory
system.

Events are callbacks tagged with the global cycle at which they fire.
Insertion order breaks ties so behavior is deterministic. Callbacks
always receive the cycle the event was *stamped* with, never the cycle
the drain happened to run at — an event scheduled behind the current
cycle (possible when a tile schedules work while the global clock has
already advanced past it) must not silently shift its completion time
forward to the drain cycle.

``at`` is the fire-and-forget fast path; ``at_cancellable`` returns an
:class:`Event` handle whose :meth:`Event.cancel` revokes the callback
before it fires (used for watchdog timeouts and other speculative
wakeups). Cancelled entries are dropped lazily when they reach the head
of the heap.

The scheduler keeps a live count of cancellable entries so the common
case — no cancellable events outstanding — drains through a monomorphic
loop over ``(cycle, seq, callback)`` triples with no per-entry length or
cancellation checks (see ``docs/performance.md``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Event:
    """Handle to one scheduled callback; ``cancel()`` revokes it."""

    __slots__ = ("cycle", "cancelled")

    def __init__(self, cycle: int):
        self.cycle = cycle
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Scheduler:
    def __init__(self):
        #: entries are (cycle, seq, callback) or (cycle, seq, callback,
        #: Event); seq is unique so comparison never reaches the callback
        self._heap: List[Tuple] = []
        self._seq = 0
        #: cancellable entries still in the heap (fired or not); while
        #: zero, every entry is a plain triple and drains skip the
        #: len/cancelled checks entirely
        self._cancellable = 0
        #: drains served by the monomorphic fast path vs. the checking
        #: slow path (SelfProfiler surfaces these as fast-path counters)
        self.fast_drains = 0
        self.slow_drains = 0
        #: callbacks run over every drain (a profile reports them)
        self.events = 0

    def at(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(cycle)`` to run at ``cycle``."""
        heapq.heappush(self._heap, (cycle, self._seq, callback))
        self._seq += 1

    def at_cancellable(self, cycle: int,
                       callback: Callable[[int], None]) -> Event:
        """Like :meth:`at`, but returns a handle that can cancel the
        callback any time before it fires."""
        event = Event(cycle)
        heapq.heappush(self._heap, (cycle, self._seq, callback, event))
        self._seq += 1
        self._cancellable += 1
        return event

    def next_cycle(self) -> Optional[int]:
        heap = self._heap
        if not heap:
            return None
        if self._cancellable == 0:
            return heap[0][0]
        while heap:
            entry = heap[0]
            if len(entry) == 4 and entry[3].cancelled:
                heapq.heappop(heap)
                self._cancellable -= 1
                continue
            return entry[0]
        return None

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
        if self._cancellable == 0:
            # monomorphic fast path: every entry is (cycle, seq, callback)
            self.fast_drains += 1
            while heap and heap[0][0] <= cycle:
                entry = pop(heap)
                entry[2](entry[0])
                count += 1
                if self._cancellable:
                    # a callback just scheduled a cancellable event; if
                    # it is already due it needs the checking loop below
                    break
            else:
                self.events += count
                return count
        else:
            self.slow_drains += 1
        while heap and heap[0][0] <= cycle:
            entry = pop(heap)
            if len(entry) == 4:
                self._cancellable -= 1
                if entry[3].cancelled:
                    continue
            entry[2](entry[0])
            count += 1
        self.events += count
        return count

    @property
    def pending(self) -> int:
        return sum(1 for entry in self._heap
                   if len(entry) == 3 or not entry[3].cancelled)
