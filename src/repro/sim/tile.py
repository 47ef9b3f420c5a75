"""Tile abstraction (paper §II).

Every hardware unit — CPU core, pre-RTL accelerator, future NoC module —
is a tile: the Interleaver repeatedly calls :meth:`Tile.advance` to step
it through its next cycle of execution (or a stretch of its own cycles
in which nothing else happens), and tiles report when they next need
attention so idle stretches can be skipped without changing results.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from .statistics import TileStats

if TYPE_CHECKING:  # pragma: no cover
    from .interleaver import TileServices

#: sentinel "no attention needed until an external event wakes the tile"
NEVER = 1 << 62


class Tile(abc.ABC):
    """Base class for everything the Interleaver coordinates."""

    def __init__(self, name: str, tile_id: int, period: int = 1):
        self.name = name
        self.tile_id = tile_id
        #: global cycles per tile cycle (clock-ratio scaling, §II "tiles may
        #: run at different clock speeds")
        self.period = period
        self.stats = TileStats(name=name)
        #: earliest global cycle at which step() should next run
        self.next_attention = 0
        #: cycle-level event tracer (None = tracing disabled; every
        #: instrumentation point guards on this with a single branch)
        self.tracer = None
        self.trace_tid = 0
        #: per-tile cycle-accounting ledger (None = attribution disabled;
        #: same single-branch guard discipline as the tracer)
        self.attributor = None

    @abc.abstractmethod
    def step(self, cycle: int) -> int:
        """Advance the tile through one cycle at ``cycle``; return the
        next attention cycle."""

    def advance(self, cycle: int, horizon: int) -> int:
        """Step at ``cycle`` and return the last cycle stepped, leaving
        the next attention in :attr:`next_attention`.

        The Interleaver promises that nothing outside the tile happens
        in ``(cycle, horizon)``: no event is due and no other tile needs
        attention. A tile may therefore go on stepping at its own next
        attentions below ``horizon`` in the same call, for as long as
        each step acts only on the tile's own state; a step that acts
        outside (a memory dispatch, a message) must end the call. The
        compiled core does (one C call per such stretch); this default
        steps ``cycle`` only."""
        returned = self.step(cycle)
        if returned < self.next_attention:
            self.next_attention = returned
        return cycle

    #: which implementation steps this tile (the compiled core says
    #: "compiled")
    backend = "python"

    def begin_run(self) -> None:
        """Called by the Interleaver when a run (fresh or resumed) starts,
        after every observer is attached."""

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """True when the tile has retired all of its work."""

    def wake(self, cycle: int) -> None:
        """External event (memory response, message) needs servicing."""
        if cycle < self.next_attention:
            self.next_attention = cycle

    def stall_state(self) -> dict:
        """Model-specific stalled-state details for deadlock diagnostics;
        subclasses override to expose what they are waiting on."""
        return {}

    def align(self, cycle: int) -> int:
        """Round ``cycle`` up to this tile's next clock edge."""
        if self.period == 1:
            return cycle
        remainder = cycle % self.period
        return cycle if remainder == 0 else cycle + self.period - remainder
