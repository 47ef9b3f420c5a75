"""Live run telemetry: heartbeat streaming from an in-flight simulation.

The tracer/metrics/attribution layers only materialize *after* a run
exits; a multi-hour simulation is otherwise a black box. The
:class:`HeartbeatEmitter` streams periodic JSONL snapshots — cycle,
instructions retired, rolling IPC, in-flight memory requests,
attribution deltas, checkpoint age — from the Interleaver's outer-loop
consistency point, so `watch` dashboards, sweeps, and humans can see a
run move while it moves.

Contracts (same family as the tracer, see ``docs/observability.md``):

* **zero-cost when disabled** — the Interleaver holds ``emitter = None``
  and the only hot-path cost is the existing watchdog-stride branch;
  no snapshot is ever built when streaming is off;
* **non-blocking** — heartbeat lines are appended without fsync (a torn
  tail line is tolerated by :func:`read_heartbeats`); a failing sink
  never kills the simulation;
* **deterministic where it can be** — every *cycle-stamped* field
  (``cycle``, ``seq``, ``instructions``, ``ipc``, ``mem_inflight``,
  attribution deltas, tile stall states, ...) is a pure function of
  simulated state, so two runs of the same configuration with a
  cycle-stride emitter produce bit-identical streams. Wall-clock
  figures live under the single ``"wall"`` key, which
  :func:`heartbeat_key` strips and :func:`heartbeat_digest` therefore
  excludes. A wall-clock stride (``every_seconds``) makes the *set* of
  emission cycles nondeterministic; use a cycle stride when comparing
  streams.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, List, Optional

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION", "HeartbeatEmitter", "heartbeat_digest",
    "heartbeat_key", "read_heartbeats", "validate_heartbeat",
]

#: bump when the heartbeat line layout changes incompatibly
HEARTBEAT_SCHEMA_VERSION = 1

_NEVER = (1 << 62)  # mirrors sim.tile.NEVER without importing the package


class HeartbeatEmitter:
    """Streams periodic run snapshots to a JSONL file or a callable.

    Exactly one sink: ``path`` (lines are appended — a file or a named
    pipe; every point of a journaled sweep appends to one shared file)
    or ``send`` (called with the heartbeat dict, for in-process
    consumers). The Interleaver polls :meth:`due` on its watchdog stride
    and calls :meth:`emit` only at outer-loop consistency points, where
    every event due at the stamped cycle has fired — the same guarantee
    checkpoints rely on.

    ``source`` labels (run id, sweep point index, workload) are merged
    into every heartbeat so readers of a shared stream can demultiplex
    it. The ``wall`` block's ``seconds`` count from construction.

    Instances are picklable (files are opened per append), so a
    checkpointed run carrying an emitter snapshots and resumes its
    stream — ``seq`` and the rolling baselines are part of the saved
    state, keeping resumed cycle-stamped content identical.
    """

    def __init__(self, path: Optional[str] = None,
                 send: Optional[Callable[[dict], None]] = None, *,
                 every_cycles: Optional[int] = 100_000,
                 every_seconds: Optional[float] = None,
                 source: Optional[dict] = None,
                 include_tiles: bool = True):
        if (path is None) == (send is None):
            raise ValueError("HeartbeatEmitter needs exactly one sink: "
                             "path or send")
        if every_cycles is None and every_seconds is None:
            raise ValueError("HeartbeatEmitter needs a stride: "
                             "every_cycles and/or every_seconds")
        if every_cycles is not None and every_cycles <= 0:
            raise ValueError(f"heartbeat cycle stride must be positive, "
                             f"got {every_cycles}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"heartbeat wall stride must be positive, "
                             f"got {every_seconds}")
        self.path = path
        self.send = send
        self.every_cycles = every_cycles
        self.every_seconds = every_seconds
        self.source = dict(source) if source else {}
        self.include_tiles = include_tiles
        #: heartbeats emitted so far (monotonic, part of the stream)
        self.seq = 0
        #: sink failures swallowed (a broken pipe must not kill the run)
        self.errors = 0
        self._last_cycle = 0
        self._last_instructions = 0
        self._last_attribution: dict = {}
        self._last_wall: Optional[float] = None
        self._start_wall = time.monotonic()

    # -- scheduling (polled on the Interleaver's watchdog stride) --------
    def due(self, cycle: int) -> bool:
        if self.every_cycles is not None and \
                cycle - self._last_cycle >= self.every_cycles:
            return True
        if self.every_seconds is not None:
            now = time.monotonic()
            if self._last_wall is None or \
                    now - self._last_wall >= self.every_seconds:
                return True
        return False

    # -- emission --------------------------------------------------------
    def emit(self, interleaver, cycle: int, final: bool = False) -> dict:
        """Snapshot ``interleaver`` at ``cycle`` and push it to the sink.

        Returns the heartbeat dict (tests and in-process consumers use
        it directly). Sink failures are counted, never raised.
        """
        now = time.monotonic()
        instructions = sum(t.stats.instructions for t in interleaver.tiles)
        delta_cycles = cycle - self._last_cycle
        delta_instructions = instructions - self._last_instructions
        heartbeat = {
            "v": HEARTBEAT_SCHEMA_VERSION,
            "seq": self.seq,
            "cycle": cycle,
            "instructions": instructions,
            "ipc": (delta_instructions / delta_cycles
                    if delta_cycles > 0 else 0.0),
            "mem_inflight": (interleaver.memory.outstanding
                             if interleaver.memory is not None else 0),
            "events_pending": interleaver.scheduler.pending,
            "tiles_done": sum(1 for t in interleaver.tiles if t.done),
            "tiles_total": len(interleaver.tiles),
        }
        if interleaver.attribution is not None:
            heartbeat["attribution_delta"] = self._attribution_delta(
                interleaver)
        if interleaver.checkpoint is not None:
            heartbeat["checkpoint_age"] = \
                cycle - interleaver.checkpoint.last_cycle
        if self.include_tiles:
            heartbeat["tiles"] = self._tile_states(interleaver)
        if final:
            heartbeat["final"] = True
        if self.source:
            heartbeat["source"] = dict(self.source)
        # wall-clock block: the ONLY nondeterministic content, stripped
        # by heartbeat_key() so digests compare across reruns
        delta_wall = now - self._last_wall \
            if self._last_wall is not None else 0.0
        heartbeat["wall"] = {
            "seconds": now - self._start_wall,
            "unix": time.time(),
            "cycles_per_second": (delta_cycles / delta_wall
                                  if delta_wall > 0 else 0.0),
            "mips": (delta_instructions / delta_wall / 1e6
                     if delta_wall > 0 else 0.0),
        }
        self.seq += 1
        self._last_cycle = cycle
        self._last_instructions = instructions
        self._last_wall = now
        self._push(heartbeat)
        return heartbeat

    def _attribution_delta(self, interleaver) -> dict:
        """Per-category cycles accrued since the previous heartbeat,
        summed over tiles (live snapshot: unresolved in-flight memory
        waits appear as ``memory.outstanding``)."""
        totals: dict = {}
        for tile in interleaver.tiles:
            attributor = getattr(tile, "attributor", None)
            if attributor is None:
                continue
            for category, cycles in \
                    attributor.snapshot()["categories"].items():
                totals[category] = totals.get(category, 0) + cycles
        delta = {category: cycles - self._last_attribution.get(category, 0)
                 for category, cycles in sorted(totals.items())
                 if cycles - self._last_attribution.get(category, 0)}
        self._last_attribution = totals
        return delta

    @staticmethod
    def _tile_states(interleaver) -> List[dict]:
        """Compact per-tile stall picture (the straggler-diagnosis
        payload `watch` surfaces for points that stop heartbeating)."""
        states = []
        for tile in interleaver.tiles:
            entry = {
                "name": tile.name,
                "done": tile.done,
                "next_attention": (None if tile.next_attention >= _NEVER
                                   else tile.next_attention),
            }
            entry.update(tile.stall_state())
            states.append(entry)
        return states

    def _push(self, heartbeat: dict) -> None:
        try:
            if self.send is not None:
                self.send(heartbeat)
            else:
                # append + flush, no fsync: heartbeats are advisory and
                # must never stall the simulation on disk latency
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(heartbeat) + "\n")
        except Exception as exc:
            # heartbeats are advisory and must never fail the run, but a
            # broken sink should be observable: warn once, then count
            self.errors += 1
            if self.errors == 1:
                from ..harness.status import STATUS
                target = "send callback" if self.send is not None \
                    else self.path
                STATUS.warn(f"heartbeat: emit to {target} failed "
                            f"({exc}); further failures are only "
                            f"counted (emitter.errors)")


# -- stream reading and the determinism fingerprint -------------------------

def read_heartbeats(path: str) -> List[dict]:
    """Heartbeat dicts from a JSONL stream; a torn tail line (the writer
    is non-blocking and may be mid-append) ends the scan silently."""
    heartbeats: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return heartbeats
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except ValueError:
            break
        if isinstance(document, dict):
            heartbeats.append(document)
    return heartbeats


def heartbeat_key(heartbeat: dict) -> dict:
    """The cycle-stamped view: everything except the ``"wall"`` block.

    This is the unit of the determinism contract — two runs of the same
    configuration with the same cycle stride produce identical keys."""
    return {name: value for name, value in heartbeat.items()
            if name != "wall"}


def heartbeat_digest(heartbeats: List[dict]) -> str:
    """SHA-256 over the canonical cycle-stamped views of a stream."""
    canonical = json.dumps([heartbeat_key(h) for h in heartbeats],
                           sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate_heartbeat(document: dict) -> int:
    """Validate one heartbeat against the schema; returns its ``seq``.

    Raises :class:`ValueError` with a precise message on the first
    violation (mirrors ``validate_chrome_trace``/``validate_report``)."""
    if not isinstance(document, dict):
        raise ValueError("heartbeat must be a JSON object")
    version = document.get("v")
    if version != HEARTBEAT_SCHEMA_VERSION:
        raise ValueError(f"heartbeat schema version {version!r} unsupported "
                         f"(expected {HEARTBEAT_SCHEMA_VERSION})")
    for field in ("seq", "cycle", "instructions", "mem_inflight",
                  "events_pending", "tiles_done", "tiles_total"):
        value = document.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(
                f"heartbeat field {field!r} must be a non-negative "
                f"integer, got {value!r}")
    ipc = document.get("ipc")
    if not isinstance(ipc, (int, float)) or ipc < 0:
        raise ValueError(f"heartbeat ipc must be non-negative, got {ipc!r}")
    for field in ("attribution_delta", "source"):
        if field in document and not isinstance(document[field], dict):
            raise ValueError(f"heartbeat field {field!r} must be an object")
    if "tiles" in document:
        tiles = document["tiles"]
        if not isinstance(tiles, list) or any(
                not isinstance(t, dict) or "name" not in t for t in tiles):
            raise ValueError("heartbeat tiles must be a list of objects "
                             "with a 'name'")
    wall = document.get("wall")
    if wall is not None and not isinstance(wall, dict):
        raise ValueError("heartbeat wall block must be an object")
    return document["seq"]
