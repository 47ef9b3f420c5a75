"""Live sweep dashboard: ETA math and the `watch` view.

A running sweep publishes two files:

* the journal (``SweepJournal`` JSONL) — completed points;
* the heartbeat stream (``<journal>.heartbeats.jsonl``) — every point's
  :class:`~repro.telemetry.livestream.HeartbeatEmitter` appends to it
  directly, each line labelled ``source={"point": i, "points": n}``.

``repro watch JOURNAL`` folds both into a terminal dashboard. A point
is done exactly when the journal has it; otherwise its last heartbeat
is its state (no heartbeat yet: pending). A running point whose last
heartbeat is older than ``stall_after`` seconds is flagged STALLED and
that heartbeat's per-tile ``stall_state()`` payload is surfaced as a
deadlock diagnosis. Per-point progress, and ETA from rolling cycles/s,
come from the same heartbeats.

The ETA arithmetic lives in small pure functions
(:func:`estimate_total_cycles`, :func:`eta_seconds`) so the math is
testable without running a sweep.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..telemetry.livestream import read_heartbeats

__all__ = [
    "estimate_total_cycles", "eta_seconds", "heartbeats_path_for",
    "render_watch", "watch_loop",
]


def heartbeats_path_for(journal_path: str) -> str:
    """A journaled sweep streams its heartbeats next to the journal."""
    return journal_path + ".heartbeats.jsonl"


def _fold(heartbeats: List[dict]) -> Tuple[Dict[int, dict], int]:
    """Each point's last heartbeat (later lines win, so a resumed
    point's fresh stream supersedes its torn one), and the sweep's point
    count from the ``source`` labels (0 when nothing streamed yet)."""
    last: Dict[int, dict] = {}
    total = 0
    for heartbeat in heartbeats:
        source = heartbeat.get("source") or {}
        index = source.get("point")
        if isinstance(index, int):
            last[index] = heartbeat
            total = max(total, source.get("points") or 0, index + 1)
    return last, total


# -- ETA math (pure) --------------------------------------------------------

def estimate_total_cycles(completed_cycles: List[int]) -> Optional[float]:
    """Expected per-point cycle count, from points that finished ok.

    Sweep points re-time the same workload under different
    configurations, so finished points are the best available predictor
    for running ones. None until the first point completes."""
    cycles = [c for c in completed_cycles if c and c > 0]
    if not cycles:
        return None
    return sum(cycles) / len(cycles)


def eta_seconds(cycle: int, cycles_per_second: float,
                total_cycles_estimate: Optional[float]) -> Optional[float]:
    """Remaining wall seconds for a point at ``cycle`` advancing at
    ``cycles_per_second``, given the estimated finishing cycle. None
    when no estimate exists, the rate is unusable, or the point is past
    the estimate (it will finish when it finishes)."""
    if total_cycles_estimate is None or cycles_per_second <= 0:
        return None
    remaining = total_cycles_estimate - cycle
    if remaining <= 0:
        return None
    return remaining / cycles_per_second


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "eta ?"
    if seconds < 60:
        return f"eta {seconds:.0f}s"
    if seconds < 3600:
        return f"eta {seconds / 60:.1f}m"
    return f"eta {seconds / 3600:.1f}h"


def _straggler_lines(heartbeat: dict) -> List[str]:
    """Deadlock-style diagnosis from a stalled point's last heartbeat:
    which tiles are stuck, and on what."""
    lines = []
    for tile in heartbeat.get("tiles", []):
        if tile.get("done"):
            continue
        parts = [f"    {tile.get('name', '?')}:"]
        attention = tile.get("next_attention")
        parts.append("attention=never" if attention is None
                     else f"attention={attention}")
        for field in ("in_flight", "outstanding_memory_ops", "ready",
                      "accel_inflight"):
            if tile.get(field):
                parts.append(f"{field}={tile[field]}")
        lines.append(" ".join(parts))
    pending = heartbeat.get("events_pending")
    if pending is not None:
        lines.append(f"    events_pending={pending}, "
                     f"mem_inflight={heartbeat.get('mem_inflight', 0)}")
    return lines


def render_watch(journal_entries: Dict[int, dict], heartbeats: List[dict],
                 now: Optional[float] = None,
                 stall_after: float = 10.0) -> str:
    """One frame of the sweep dashboard, as a plain string.

    ``journal_entries`` is ``SweepJournal.load()`` output;
    ``heartbeats`` is the sweep's stream (``read_heartbeats`` output,
    empty when nothing streamed — journal-only progress is still
    rendered). ``now`` defaults to the current wall clock and exists
    for tests.
    """
    if now is None:
        now = time.time()
    last, total = _fold(heartbeats)
    total = max(total, max(journal_entries, default=-1) + 1)
    # a done point's cycles and wall time come from its final heartbeat
    finals = [last[index] for index in journal_entries
              if last.get(index, {}).get("final")]
    per_point_estimate = estimate_total_cycles(
        [heartbeat["cycle"] for heartbeat in finals])
    done_walls = [heartbeat["wall"]["seconds"] for heartbeat in finals
                  if heartbeat.get("wall", {}).get("seconds")]

    lines = []
    done = running = stalled = 0
    for index in range(total):
        journal_entry = journal_entries.get(index)
        heartbeat = last.get(index)
        if journal_entry is not None:
            done += 1
            outcome = journal_entry.get("outcome", "ok")
            if heartbeat is not None and heartbeat.get("final"):
                detail = f"{heartbeat['cycle']} cycles"
                wall = heartbeat.get("wall", {}).get("seconds")
                if wall is not None:
                    detail += f" in {wall:.1f}s"
            else:
                detail = journal_entry.get("error", "")[:50]
            lines.append(f"  [{index:>3}] {outcome:<12} {detail}".rstrip())
            continue
        if heartbeat is None:
            lines.append(f"  [{index:>3}] pending")
            continue
        wall = heartbeat.get("wall", {})
        age = now - wall["unix"] if "unix" in wall else 0.0
        cycle = heartbeat.get("cycle", 0)
        rate = wall.get("cycles_per_second", 0.0)
        if age > stall_after:
            stalled += 1
            lines.append(
                f"  [{index:>3}] STALLED      no heartbeat for "
                f"{age:.0f}s, stuck at cycle {cycle}:")
            lines.extend(_straggler_lines(heartbeat))
        else:
            running += 1
            eta = eta_seconds(cycle, rate, per_point_estimate)
            lines.append(
                f"  [{index:>3}] RUNNING      cycle {cycle}, "
                f"ipc {heartbeat.get('ipc', 0.0):.2f}, "
                f"{rate:,.0f} cyc/s, {_format_eta(eta)}")

    header = (f"sweep: {done}/{total} done, {running} running, "
              f"{stalled} stalled, {total - done - running - stalled} "
              f"pending")
    remaining = total - done
    if done_walls and remaining > 0:
        overall = sum(done_walls) / len(done_walls) * remaining
        header += f" ({_format_eta(overall)} overall)"
    return "\n".join([header] + lines)


def watch_loop(journal_path: str, *, interval: float = 2.0,
               stall_after: float = 10.0, once: bool = False,
               out=None) -> int:
    """The ``repro watch`` driver: render the dashboard every
    ``interval`` seconds until the sweep's points are all journaled (or
    forever, for an abandoned journal, until interrupted). Returns 0.
    """
    import sys
    from .sweeps import SweepJournal
    if out is None:
        out = sys.stdout
    while True:
        journal_entries = SweepJournal(journal_path).load()
        heartbeats = read_heartbeats(heartbeats_path_for(journal_path))
        frame = render_watch(journal_entries, heartbeats,
                             stall_after=stall_after)
        out.write(frame + "\n")
        out.flush()
        if once:
            return 0
        _, total = _fold(heartbeats)
        if total and all(index in journal_entries
                         for index in range(total)):
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
        out.write("\n")
