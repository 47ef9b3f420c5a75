"""Cycle-level event tracer (the observability layer's core).

MosaicSim's pitch is *visibility* into heterogeneous executions; the
tracer records what happened *when* — instruction issue→retire spans,
cache miss→fill spans, DRAM service windows, fabric message and barrier
waits, DAE queue occupancies, accelerator invocations, injected faults —
into a bounded ring buffer, and exports Chrome ``trace_event`` JSON that
loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

Design constraints:

* **zero-cost when disabled** — a Python component's hook site loops
  over its ``observers`` tuple, which is empty when nothing is attached
  (see :mod:`repro.telemetry.observer`), and a core tile checks
  ``tracer is None``; no event object is ever built when tracing is
  off;
* **bounded** — the ring buffer keeps the most recent ``capacity``
  events and counts what it dropped, so tracing a billion-cycle run
  cannot exhaust memory;
* **deterministic** — events carry only simulated state (cycles, names,
  ids), never wall-clock or object identities, so the same seed and
  config produce an identical event stream.

Timestamps are simulated cycles, written into the Chrome ``ts`` field
1:1 (Perfetto displays them as microseconds; the metadata block records
the real unit). The export format is versioned via
:data:`TRACE_SCHEMA_VERSION`; see ``docs/observability.md`` for the
schema.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .observer import Observer

#: bump when the exported JSON layout changes incompatibly
TRACE_SCHEMA_VERSION = 1

#: Chrome trace_event phases we emit: complete span, instant, counter,
#: metadata
_PHASES = ("X", "i", "C", "M")

#: compact encoder matching ``json.dumps(..., separators=(",", ":"))``
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: events formatted and encoded per write of a trace export, and slots
#: the ring's columns grow by while they fill
_WRITE_BATCH = 4096


class TraceEvent:
    """One recorded event. ``phase`` follows the Chrome trace_event
    convention: "X" complete span (``cycle`` + ``dur``), "i" instant,
    "C" counter (``args`` holds the sampled values)."""

    __slots__ = ("phase", "category", "name", "cycle", "dur", "tid", "args")

    def __init__(self, phase: str, category: str, name: str, cycle: int,
                 dur: int = 0, tid: int = 0,
                 args: Optional[dict] = None):
        self.phase = phase
        self.category = category
        self.name = name
        self.cycle = cycle
        self.dur = dur
        self.tid = tid
        self.args = args

    def as_chrome(self) -> dict:
        event = {"name": self.name, "cat": self.category, "ph": self.phase,
                 "ts": self.cycle, "pid": 0, "tid": self.tid}
        if self.phase == "X":
            event["dur"] = self.dur
        if self.phase == "i":
            event["s"] = "t"  # thread-scoped instant
        if self.args is not None:
            event["args"] = self.args
        return event

    def key(self) -> tuple:
        """Stable identity for determinism comparisons."""
        args = tuple(sorted(self.args.items())) if self.args else ()
        return (self.phase, self.category, self.name, self.cycle, self.dur,
                self.tid, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.phase!r}, {self.category!r}, "
                f"{self.name!r}, cycle={self.cycle}, dur={self.dur}, "
                f"tid={self.tid})")


class Tracer:
    """Ring-buffered event recorder.

    :meth:`attach` hands each core tile the tracer and its lane, and
    every other component a :class:`TraceLane` handler. Lane ids come
    from :meth:`tid_for`, which assigns a stable integer per lane name
    in first-use order — deterministic because attachment order is
    deterministic.

    The ring is a set of columns, and push ``n`` lives in slot
    ``n % capacity``: ``array('q')`` for cycle, duration and an integer
    argument, ``array('i')`` for tid and kind, and a list for ``args``.
    A *kind* interns ``(name, category, phase)`` once, so an event costs
    32 bytes plus its ``args`` pointer. A cycle, duration or tid that
    does not fit its column (a ``float`` timestamp, say) is kept beside
    the ring in ``_odd``, keyed by slot and stamped with its push number
    so a later push into the slot outdates it. The columns grow in blocks
    of :data:`_WRITE_BATCH` slots until they reach ``capacity``.
    :class:`TraceEvent` objects are built only when :meth:`events` asks.

    A writer outside Python (the compiled core) fills the columns in
    place: :meth:`columns` hands them over at full capacity, so their
    buffers never move, and the push counter is a one-slot ``array``
    both sides bump. Its events use kinds from :meth:`column_kind`,
    whose ``args`` come from the integer column rather than the list.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, "
                             f"got {capacity}")
        self.capacity = capacity
        self._cycle = array("q")
        self._dur = array("q")
        self._tid = array("i")
        self._kind = array("i")
        self._iarg = array("q")
        self._args: List[Optional[dict]] = []
        #: slot -> (push number, cycle, tid, dur) for values the columns
        #: cannot hold
        self._odd: Dict[int, tuple] = {}
        #: (name, category, phase) -> kind id, and the keys by id; a
        #: fourth key field marks a column kind (see column_kind)
        self._kinds: Dict[tuple, int] = {}
        self._kind_keys: List[tuple] = []
        #: [events recorded so far, evicted ones included]
        self._count = array("q", [0])
        #: lane name -> tid, in registration order
        self._tids: Dict[str, int] = {}

    # -- lanes -----------------------------------------------------------
    def attach(self, interleaver) -> None:
        """Give every tile and component of ``interleaver`` its lane, in
        the order that fixes the tids (tiles, then ``fabric``, ``cache``
        — one for all levels — ``dram``, ``accel`` and ``fault``)."""
        for tile in interleaver.tiles:
            tile.tracer = self
            tile.trace_tid = self.tid_for(tile.name)
        fabric = interleaver.fabric
        fabric.observers += (TraceLane(self, self.tid_for("fabric")),)
        memory = interleaver.memory
        if memory is not None:
            lane = TraceLane(self, self.tid_for("cache"))
            for cache in memory.caches:
                cache.observers += (lane,)
            memory.dram.observers += (TraceLane(self, self.tid_for("dram")),)
        if interleaver.accelerators is not None:
            interleaver.accelerators.observers += (
                TraceLane(self, self.tid_for("accel")),)
        # the harness shares one injector with the fabric and every
        # other subsystem it faults
        if fabric.injector is not None:
            fabric.injector.observers += (
                TraceLane(self, self.tid_for("fault")),)

    def collect(self, stats, interleaver) -> None:
        """Nothing to fold into ``stats``: the caller writes the trace."""

    def tid_for(self, lane: str) -> int:
        """Stable integer id for a named lane (tile, fabric, cache, ...)."""
        tid = self._tids.get(lane)
        if tid is None:
            tid = len(self._tids)
            self._tids[lane] = tid
        return tid

    @property
    def tid_names(self) -> Dict[int, str]:
        return {tid: name for name, tid in self._tids.items()}

    # -- recording -------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted from the ring (oldest-first)."""
        return self._count[0] - len(self)

    def _intern(self, key: tuple) -> int:
        kind = self._kinds.get(key)
        if kind is None:
            kind = self._kinds[key] = len(self._kind_keys)
            self._kind_keys.append(key)
        return kind

    def column_kind(self, category: str, name: str, phase: str,
                    arg: str = "") -> int:
        """Kind id for events written straight into :meth:`columns`:
        their ``args`` are ``{arg: <integer column>}``, or none when
        ``arg`` is empty."""
        return self._intern((name, category, phase, arg))

    def columns(self) -> tuple:
        """``(cycle, dur, iarg, tid, kind, count)``, grown to full
        capacity first so the buffers stay put while a writer holds
        them. Push ``n = count[0]`` goes to slot ``n % capacity``."""
        self._grow(self.capacity - len(self._args))
        return (self._cycle, self._dur, self._iarg, self._tid, self._kind,
                self._count)

    def _push(self, key: tuple, cycle, tid: int, dur, args) -> None:
        try:
            kind = self._kinds[key]
        except KeyError:
            kind = self._intern(key)
        count = self._count
        n = count[0]
        count[0] = n + 1
        slot = n % self.capacity
        if slot == len(self._args):
            self._grow(min(_WRITE_BATCH, self.capacity - slot))
        self._kind[slot] = kind
        self._args[slot] = args
        try:
            self._cycle[slot] = cycle
            self._dur[slot] = dur
            self._tid[slot] = tid
        except (TypeError, OverflowError):
            self._odd[slot] = (n, cycle, tid, dur)

    def _grow(self, block: int) -> None:
        for column in (self._cycle, self._dur, self._iarg, self._tid,
                       self._kind):
            column.frombytes(bytes(column.itemsize * block))
        self._args.extend([None] * block)

    def complete(self, category: str, name: str, start_cycle: int,
                 end_cycle: int, tid: int = 0,
                 args: Optional[dict] = None) -> None:
        """Record a span covering ``[start_cycle, end_cycle]``."""
        dur = end_cycle - start_cycle
        self._push((name, category, "X"), start_cycle, tid,
                   dur if dur > 0 else 0, args)

    def instant(self, category: str, name: str, cycle: int, tid: int = 0,
                args: Optional[dict] = None) -> None:
        self._push((name, category, "i"), cycle, tid, 0, args)

    def counter(self, category: str, name: str, cycle: int, value,
                tid: int = 0) -> None:
        """Record a sampled counter value (rendered as a track)."""
        self._push((name, category, "C"), cycle, tid, 0, {"value": value})

    # -- reading ---------------------------------------------------------
    def __len__(self) -> int:
        return min(self._count[0], self.capacity)

    def _order(self) -> Tuple[np.ndarray, Dict[int, tuple]]:
        """Buffered slots in export order, and the live ``_odd`` values
        as slot -> (cycle, tid, dur).

        The order sorts by ``(cycle, tid, name)`` with ties in push
        order. Names sort by their rank among the interned names, so
        ``numpy.lexsort`` orders the columns in place of a Python object
        per event. Values on the side path can be any comparable type,
        so when there are any the sort falls back to ``sorted``."""
        size = len(self)
        first = self._count[0] - size  # push number of the oldest event
        odd = {slot: values for slot, (n, *values) in self._odd.items()
               if n >= first}
        if not size:
            return np.arange(0), odd
        start = first % self.capacity  # the oldest event's slot
        names = [key[0] for key in self._kind_keys]
        rank = {name: index for index, name in enumerate(sorted(set(names)))}
        name_rank = [rank[name] for name in names]
        if odd:
            def key(slot: int) -> tuple:
                cycle, tid, _ = odd.get(slot) or (
                    self._cycle[slot], self._tid[slot], 0)
                return (cycle, tid, name_rank[self._kind[slot]],
                        (slot - start) % size)
            return np.array(sorted(range(size), key=key)), odd

        def column(values: array) -> np.ndarray:
            return np.frombuffer(values, values.typecode, size)
        # slots below the oldest event's were pushed after it: as the
        # last key of a stable sort, this leaves ties in push order
        later = np.zeros(size, dtype=bool)
        later[:start] = True
        keys = (later, np.array(name_rank, np.int32)[column(self._kind)],
                column(self._tid), column(self._cycle))
        return np.lexsort(keys), odd

    def _records(self) -> Iterator[tuple]:
        """``(kind, cycle, tid, dur, args)`` of every buffered event, in
        export order."""
        order, odd = self._order()
        kinds, cycles, tids = self._kind, self._cycle, self._tid
        durs, args, iargs = self._dur, self._args, self._iarg
        # per kind: None (args from the list), "" (none) or the name of
        # the integer column's argument
        arg_names = [key[3] if len(key) > 3 else None
                     for key in self._kind_keys]
        for begin in range(0, len(order), _WRITE_BATCH):
            for slot in order[begin:begin + _WRITE_BATCH].tolist():
                kind = kinds[slot]
                arg = arg_names[kind]
                if arg is None:
                    event_args = args[slot]
                else:
                    event_args = {arg: iargs[slot]} if arg else None
                values = odd.get(slot)
                if values is None:
                    yield (kind, cycles[slot], tids[slot], durs[slot],
                           event_args)
                else:
                    yield (kind, *values, event_args)

    def events(self) -> List[TraceEvent]:
        """Recorded events in chronological (start-cycle) order."""
        keys = self._kind_keys
        events = []
        for kind, cycle, tid, dur, args in self._records():
            name, category, phase = keys[kind][:3]
            events.append(
                TraceEvent(phase, category, name, cycle, dur, tid, args))
        return events

    def event_keys(self) -> List[tuple]:
        """Determinism fingerprint: stable keys of every buffered event."""
        return [event.key() for event in self.events()]

    # -- export ----------------------------------------------------------
    def _other_data(self, frequency_ghz: Optional[float],
                    run_id: Optional[str]) -> dict:
        other = {
            "trace_schema_version": TRACE_SCHEMA_VERSION,
            "clock": "simulated-cycles",
            "dropped_events": self.dropped,
        }
        if frequency_ghz is not None:
            other["frequency_ghz"] = frequency_ghz
        if run_id is not None:
            other["run_id"] = run_id
        return other

    def to_chrome(self, frequency_ghz: Optional[float] = None,
                  run_id: Optional[str] = None) -> dict:
        """Chrome trace_event JSON object (loadable in Perfetto).

        ``run_id`` stamps provenance into ``otherData`` so the trace is
        joinable against the run's other artifacts."""
        events = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": name}}
            for name, tid in self._tids.items()
        ]
        events.extend(event.as_chrome() for event in self.events())
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": self._other_data(frequency_ghz, run_id)}

    def _chrome_texts(self) -> Iterator[str]:
        """Compact JSON text of every :meth:`to_chrome` event, in order,
        formatted without building the event dicts. Each event's fixed
        head comes from a prefix built once per kind; cycles, tids and
        durations are formatted with ``str``, which is the encoder's
        output for ``int`` and finite ``float``."""
        encode = _ENCODE
        for name, tid in self._tids.items():
            yield (f'{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},'
                   f'"args":{{"name":{encode(name)}}}}}')
        heads = [(f'{{"name":{encode(name)},"cat":{encode(category)},'
                  f'"ph":"{phase}","ts":', phase)
                 for name, category, phase, *_ in self._kind_keys]
        for kind, cycle, tid, dur, args in self._records():
            prefix, phase = heads[kind]
            if phase == "X":
                text = f'{prefix}{cycle},"pid":0,"tid":{tid},"dur":{dur}'
            elif phase == "i":
                text = f'{prefix}{cycle},"pid":0,"tid":{tid},"s":"t"'
            else:
                text = f'{prefix}{cycle},"pid":0,"tid":{tid}'
            if args is None:
                yield text + "}"
            else:
                yield f'{text},"args":{encode(args)}}}'

    def _chrome_chunks(self, frequency_ghz: Optional[float],
                       run_id: Optional[str]) -> Iterator[bytes]:
        """:meth:`to_chrome` as compact JSON, in encoded batches of
        :data:`_WRITE_BATCH` events."""
        texts = self._chrome_texts()
        yield b'{"traceEvents":['
        separator = ""
        while True:
            batch = list(islice(texts, _WRITE_BATCH))
            if not batch:
                break
            yield (separator + ",".join(batch)).encode("utf-8")
            separator = ","
        other = _ENCODE(self._other_data(frequency_ghz, run_id))
        yield f'],"displayTimeUnit":"ns","otherData":{other}}}'.encode(
            "utf-8")

    def write(self, path: str,
              frequency_ghz: Optional[float] = None,
              run_id: Optional[str] = None) -> int:
        """Write the Chrome JSON to ``path``; returns the event count
        (lane metadata records included).

        The bytes equal ``json.dumps(self.to_chrome(frequency_ghz,
        run_id=run_id), separators=(",", ":"))``, streamed in batches so
        the export never holds the whole document in memory. Atomic
        (temp + fsync + rename) so a crash cannot leave a truncated
        trace for Perfetto or CI validation to choke on."""
        from ..ioutil import atomic_write_chunks
        atomic_write_chunks(path, self._chrome_chunks(frequency_ghz,
                                                      run_id))
        return len(self._tids) + len(self)


class TraceLane(Observer):
    """A component's events as trace records on lane ``tid``."""

    __slots__ = ("tracer", "tid")

    def __init__(self, tracer: Tracer, tid: int):
        self.tracer = tracer
        self.tid = tid

    def cache_fill(self, level, line, miss_cycle, cycle):
        # span: the miss's full round trip until the line fills
        self.tracer.complete("cache", f"{level} miss", miss_cycle, cycle,
                             self.tid, {"line": line})

    def dram_access(self, request, cycle, completion, throttled=False,
                    bank=None, open_row=None, row=None):
        args = ({"throttled": throttled} if bank is None
                else {"row_hit": open_row == row, "bank": bank})
        self.tracer.complete("dram", "write" if request.is_write else "read",
                             cycle, completion, self.tid, args)

    def fabric_send(self, src, dst, cycle):
        self.tracer.instant("fabric", f"send {src}->{dst}", cycle, self.tid)

    def fabric_drop(self, src, dst, cycle):
        self.tracer.instant("fabric", f"drop {src}->{dst}", cycle, self.tid)

    def fabric_message(self, src, dst, start, end):
        self.tracer.complete("fabric", f"msg {src}->{dst}", start, end,
                             self.tid)

    def queue_full(self, name, cycle):
        self.tracer.instant("dae", f"{name} full", cycle, self.tid)

    def queue_depth(self, name, cycle, occupancy):
        # on lane 0, not this lane: the trace bytes pin that
        self.tracer.counter("dae", name, cycle, occupancy)

    def queue_empty(self, name, cycle):
        self.tracer.instant("dae", f"{name} empty", cycle, self.tid)

    def barrier_release(self, group, generation, arrivals, cycle):
        # one span per arriver: its wait from arrival to release
        for arrival in arrivals:
            self.tracer.complete("fabric", f"barrier {group}#{generation}",
                                 arrival, cycle, self.tid)

    def accel_invocation(self, name, cycle, completion, energy_nj, nbytes):
        self.tracer.complete("accel", name, cycle, completion, self.tid,
                             {"energy_nj": energy_nj, "bytes": nbytes})

    def fault(self, record):
        self.tracer.instant("fault", f"{record.site}.{record.kind}",
                            record.cycle, self.tid, {"detail": record.detail})


def validate_chrome_trace(document: dict) -> int:
    """Validate a trace document against the exported schema.

    Returns the number of non-metadata events; raises :class:`ValueError`
    with a precise message on the first violation (used by tests and the
    CI trace-validation step).
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    other = document.get("otherData")
    if not isinstance(other, dict):
        raise ValueError("trace document missing otherData block")
    version = other.get("trace_schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace schema version {version!r} unsupported "
            f"(expected {TRACE_SCHEMA_VERSION})")
    # run_id is optional (unstamped traces lack it) but must be a
    # non-empty string when present
    run_id = other.get("run_id")
    if run_id is not None and (not isinstance(run_id, str) or not run_id):
        raise ValueError(
            f"trace otherData run_id must be a non-empty string, "
            f"got {run_id!r}")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    count = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(
                f"traceEvents[{index}] has unknown phase {phase!r}")
        for field in ("name", "pid", "tid"):
            if field not in event:
                raise ValueError(
                    f"traceEvents[{index}] missing field {field!r}")
        if phase == "M":
            continue
        count += 1
        if "ts" not in event or not isinstance(event["ts"], int):
            raise ValueError(
                f"traceEvents[{index}] needs an integer ts")
        if event["ts"] < 0:
            raise ValueError(f"traceEvents[{index}] has negative ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise ValueError(
                    f"traceEvents[{index}] span needs a non-negative "
                    f"integer dur")
        if phase == "C" and "args" not in event:
            raise ValueError(
                f"traceEvents[{index}] counter needs args")
    return count


def subsystem_categories(document: dict) -> List[str]:
    """Sorted distinct categories of non-metadata events (used by the
    acceptance check: a traced run must cover core, cache/dram, fabric
    and accelerator subsystems)."""
    seen = set()
    for event in document.get("traceEvents", ()):
        if isinstance(event, dict) and event.get("ph") != "M":
            category = event.get("cat")
            if category:
                seen.add(category)
    return sorted(seen)
