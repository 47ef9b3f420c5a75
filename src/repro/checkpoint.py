"""Deterministic checkpoint/restore of a live simulation.

A checkpoint is a pickled snapshot of the *entire* simulation object
graph, taken at a consistency point of the Interleaver's outer loop:
the Scheduler heap, the Interleaver's active set and cycle cursor,
per-tile CoreTile dynamic state (the seq-indexed instruction rings,
MAO, completion calendar, branch state; a compiled tile saves the same
Python layout, so a snapshot resumes under either core backend),
cache/MSHR/coherence/DRAM/NoC in-flight requests, CommFabric message
buffers and DAE queues, accelerator farm state, FaultInjector RNG
streams, and the telemetry ledgers
(attribution cursors, metrics registry, tracer ring). Every callback
that can sit in the scheduler heap or a fabric waiter queue is a
module-level callable class or a bound method — never a closure — which
is what makes the whole graph picklable (see ``docs/resilience.md``).

The hard guarantee is **resume-identity**: a run killed at any cycle
and resumed from its checkpoint produces bit-identical final
``SystemStats`` (cycles, energy, attribution, metrics) to an
uninterrupted run. This holds because snapshots are only taken at the
top of the outer Interleaver loop (and at the ``CycleBudgetExceeded`` /
outer-loop ``WatchdogTimeout`` raise sites, which are the same point):
at that point every event due at the saved cycle has fired and every
due tile has stepped to a fixed point, so re-entering the loop replays
the exact decisions an uninterrupted run would have made.

On-disk format (version :data:`CHECKPOINT_SCHEMA_VERSION`)::

    8 bytes   magic  b"MSIMCKPT"
    4 bytes   schema version (little-endian)
    32 bytes  SHA-256 of the payload
    8 bytes   payload length (little-endian)
    N bytes   payload: zlib-compressed pickle of {"cycle", "interleaver"}

Writes are atomic (temp file + fsync + rename, via :mod:`repro.ioutil`)
and :class:`CheckpointSink` rotates the last ``keep`` snapshots, so a
crash mid-save never loses the previous good checkpoint. Every load
failure — missing file, wrong magic, version mismatch, truncation,
corruption — raises a structured
:class:`~repro.sim.errors.CheckpointError`, never a pickle traceback.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from .ioutil import atomic_write_bytes
from .sim.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION", "Checkpoint", "CheckpointError",
    "CheckpointSink", "find_injector", "load_checkpoint",
    "resume_simulation", "save_checkpoint",
]

#: bump when the snapshot layout changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 7

_MAGIC = b"MSIMCKPT"
_HEADER = struct.Struct("<8sI32sQ")


@dataclass
class Checkpoint:
    """A restored snapshot: the live Interleaver plus its cycle cursor.

    ``run_id`` is the originating run's registry id (None for snapshots
    taken before the run registry existed or without one): a resumed
    run keeps writing artifacts under the same id, so the whole
    crash/resume lineage stays joinable."""

    schema_version: int
    cycle: int
    interleaver: object
    run_id: Optional[str] = None


def save_checkpoint(interleaver, path: str, *, cycle: int,
                    run_id: Optional[str] = None) -> str:
    """Snapshot ``interleaver`` (paused at ``cycle``) to ``path``.

    Must only be called at an outer-loop consistency point — the
    Interleaver's autosave/raise hooks guarantee that; tests use
    ``max_cycles`` to stop at one. Returns ``path``.
    """
    document = {"cycle": cycle, "interleaver": interleaver}
    if run_id is not None:
        document["run_id"] = run_id
    try:
        # level 1: autosaves sit on the simulation's critical path, and
        # the pickle compresses ~8:1 even at the fastest setting
        payload = zlib.compress(pickle.dumps(document, protocol=4), 1)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"simulation state is not snapshottable: {exc}") from exc
    header = _HEADER.pack(_MAGIC, CHECKPOINT_SCHEMA_VERSION,
                          hashlib.sha256(payload).digest(), len(payload))
    atomic_write_bytes(path, header + payload)
    return path


def load_checkpoint(path: str) -> Checkpoint:
    """Restore a :class:`Checkpoint` from ``path``.

    Raises :class:`CheckpointError` with a precise message on every
    failure mode (missing/foreign file, schema mismatch, truncated or
    corrupt payload).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated: {len(blob)} bytes is "
            f"smaller than the {_HEADER.size}-byte header")
    magic, version, digest, length = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointError(
            f"{path!r} is not a MosaicSim checkpoint (bad magic "
            f"{magic!r})")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has schema version {version}, but this "
            f"build reads version {CHECKPOINT_SCHEMA_VERSION}; re-run the "
            f"original simulation to produce a fresh snapshot")
    payload = blob[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated: header promises {length} "
            f"payload bytes, found {len(payload)}")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: payload digest mismatch")
    try:
        document = pickle.loads(zlib.decompress(payload))
    except Exception as exc:  # zlib.error, UnpicklingError, ImportError...
        raise CheckpointError(
            f"checkpoint {path!r} payload does not decode: {exc}") from exc
    cycle = document["cycle"]
    interleaver = document["interleaver"]
    # arm the run loop to continue from the snapshot cycle
    interleaver.cycle = cycle
    # .get(): pre-registry checkpoints carry no run_id and stay loadable
    return Checkpoint(version, cycle, interleaver,
                      run_id=document.get("run_id"))


class CheckpointSink:
    """Autosave policy handed to the Interleaver: write a snapshot to
    ``path`` every ``every_cycles`` simulated cycles (polled on the
    run loop's existing ``& 63`` watchdog stride), keeping the last
    ``keep`` snapshots (``path``, ``path.1``, ... oldest last)."""

    def __init__(self, path: str, every_cycles: int, keep: int = 2,
                 run_id: Optional[str] = None):
        if every_cycles <= 0:
            raise ValueError(
                f"checkpoint interval must be positive, got {every_cycles}")
        if keep < 1:
            raise ValueError(f"must keep at least 1 checkpoint, got {keep}")
        self.path = path
        self.every_cycles = every_cycles
        self.keep = keep
        #: provenance stamped into every snapshot this sink writes
        self.run_id = run_id
        self.last_cycle = 0
        self.saves = 0
        #: most recently written snapshot (None until the first save)
        self.last_path: Optional[str] = None

    def due(self, cycle: int) -> bool:
        return cycle - self.last_cycle >= self.every_cycles

    def _rotate(self) -> None:
        if self.keep <= 1 or not os.path.exists(self.path):
            return
        for index in range(self.keep - 1, 1, -1):
            older = f"{self.path}.{index - 1}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index}")
        os.replace(self.path, f"{self.path}.1")

    def save(self, interleaver, cycle: int) -> str:
        self._rotate()
        save_checkpoint(interleaver, self.path, cycle=cycle,
                        run_id=self.run_id)
        self.last_cycle = cycle
        self.saves += 1
        self.last_path = self.path
        return self.path


def resume_simulation(path: str, *,
                      max_cycles: Optional[int] = None,
                      wall_clock_limit: Optional[float] = None,
                      checkpoint: Optional[CheckpointSink] = None):
    """Load the checkpoint at ``path`` and run it to completion.

    ``max_cycles``/``wall_clock_limit`` override the snapshot's budgets
    (the supervisor integration: raise the budget and continue instead
    of throwing the simulated cycles away). ``checkpoint`` replaces the
    autosave sink; by default the restored run keeps autosaving with
    the sink it was checkpointed with. Returns the final
    ``SystemStats`` — bit-identical to an uninterrupted run.
    """
    restored = load_checkpoint(path)
    interleaver = restored.interleaver
    if max_cycles is not None:
        interleaver.max_cycles = max_cycles
    if wall_clock_limit is not None:
        interleaver.wall_clock_limit = wall_clock_limit
    if checkpoint is not None:
        interleaver.checkpoint = checkpoint
    return interleaver.run()


def find_injector(interleaver):
    """The FaultInjector wired into a (restored) run, or None. The
    harness shares one injector with the fabric and every other
    subsystem it faults."""
    return interleaver.fabric.injector
