"""Set-associative cache model (paper §V-A).

Write-back, write-allocate, tag-only (no data — MosaicSim is a timing
simulator). Includes an MSHR that merges requests to in-flight lines, a
FIFO wait list for misses that find the MSHR full (woken by fills, never
polled), and a configurable stream prefetcher. Misses and writebacks are
forwarded to the next level through the ``next_access`` callable, so
caches chain into a hierarchy ending at a DRAM model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..sim.config import CacheConfig, PrefetcherConfig
from ..sim.events import Scheduler
from ..sim.statistics import CacheStats
from .request import MemRequest

NextAccess = Callable[[MemRequest, int], None]


class _Retry:
    """Wake the requests parked behind a full MSHR. ``_fill`` schedules
    it when it frees an entry; it re-presents parked requests, oldest
    first, while the MSHR has room (picklable callback — the checkpoint
    layer snapshots the live scheduler heap)."""

    __slots__ = ("cache",)

    def __init__(self, cache: "Cache"):
        self.cache = cache

    def __call__(self, cycle: int) -> None:
        cache = self.cache
        blocked = cache._blocked
        while blocked and len(cache._mshr) < cache._mshr_entries:
            # a replay that hits or merges takes no entry, so the next
            # parked request is released too; a request that arrived
            # stamped after the fill replays at its own stamp, never
            # earlier
            request, arrival = blocked.popleft()
            cache.access(request, max(cycle, arrival), False)


class _FillCallback:
    """Install the fetched line and release the MSHR waiters when the
    next level responds to a miss's fill request."""

    __slots__ = ("cache", "fill", "was_write", "miss_cycle")

    def __init__(self, cache: "Cache", fill: MemRequest, was_write: bool,
                 miss_cycle: int):
        self.cache = cache
        self.fill = fill
        self.was_write = was_write
        self.miss_cycle = miss_cycle

    def __call__(self, cycle: int) -> None:
        fill = self.fill
        # the fill request holds this callback: drop that link so a served
        # miss leaves no reference cycle for the garbage collector
        fill.callback = None
        self.cache._fill(fill, self.was_write, cycle, self.miss_cycle)


class _Set:
    """One cache set with LRU replacement. Maps tag -> dirty flag, with
    insertion order as recency (last = most recent)."""

    __slots__ = ("lines",)

    def __init__(self):
        self.lines: Dict[int, bool] = {}

    def touch(self, tag: int) -> None:
        dirty = self.lines.pop(tag)
        self.lines[tag] = dirty


class Cache:
    """A single cache level."""

    def __init__(self, config: CacheConfig, scheduler: Scheduler,
                 next_access: NextAccess, stats: CacheStats,
                 energy_sink: Optional[List[float]] = None,
                 prefetcher: Optional[PrefetcherConfig] = None):
        self.config = config
        self.scheduler = scheduler
        self.next_access = next_access
        self.stats = stats
        self.energy_sink = energy_sink
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()
        self._sets = [_Set() for _ in range(config.num_sets)]
        # geometry scalars hoisted off the config (num_sets is a derived
        # property; the access path reads these every request)
        self._num_sets = config.num_sets
        self._line_bytes = config.line_bytes
        self._latency = config.latency
        self._mshr_entries = config.mshr_entries
        #: line -> list of waiting requests (MSHR)
        self._mshr: Dict[int, List[MemRequest]] = {}
        #: (request, arrival cycle) of misses parked behind a full MSHR,
        #: oldest first; _fill wakes them (no per-cycle polling)
        self._blocked: Deque[Tuple[MemRequest, int]] = deque()
        self._port_free = 0.0
        self._port_step = 1.0 / max(1, config.ports)
        self._prefetcher = (_StreamPrefetcher(prefetcher, self)
                            if prefetcher and prefetcher.enabled else None)

    # ------------------------------------------------------------------
    def access(self, request: MemRequest, cycle: int,
               observe: bool = True) -> None:
        """Entry point: present ``request`` to this cache at ``cycle``.
        ``observe=False`` replays a parked request, which the prefetcher
        has already seen and which may take a free MSHR entry ahead of
        the requests parked behind it."""
        start = max(cycle, int(self._port_free))
        self._port_free = max(self._port_free, float(cycle)) + self._port_step
        self._charge_energy()

        num_sets = self._num_sets
        line = request.line(self._line_bytes)
        set_index = line % num_sets
        tag = line // num_sets
        cache_set = self._sets[set_index]

        if (observe and self._prefetcher is not None
                and not request.is_prefetch):
            self._prefetcher.observe(request, cycle)

        if tag in cache_set.lines:
            cache_set.touch(tag)
            if request.is_write:
                cache_set.lines[tag] = True
            if not request.is_prefetch:
                self.stats.hits += 1
            for observer in self.observers:
                observer.cache_hit(line, request.is_prefetch)
            if request.service_level is None:
                # first level to hit classifies the request (attribution)
                request.service_level = self.stats.name
            self._respond(request, start + self._latency)
            return

        # miss ---------------------------------------------------------
        # NOTE: is_prefetch only affects accounting; a prefetch-tagged
        # request may still carry a callback (e.g. an upper level's fill),
        # so response plumbing treats all requests alike.
        waiting = self._mshr.get(line)
        if waiting is not None:
            # secondary miss: merge with the in-flight request to this line
            self.stats.mshr_merges += 1
            waiting.append(request)
            return
        if len(self._mshr) >= self._mshr_entries or (observe
                                                      and self._blocked):
            # MSHR full, or older misses still parked (a new miss must not
            # take the entry a fill freed for them before their wake-up
            # runs): park until a fill frees an entry (back-pressure); a
            # parked request pays no energy or port slot while it waits
            self._blocked.append((request, cycle))
            return
        if request.is_prefetch:
            self.stats.prefetches += 1
            for observer in self.observers:
                observer.cache_prefetch_fill(line)
        else:
            self.stats.misses += 1
            for observer in self.observers:
                observer.cache_miss(line, set_index)

        self._mshr[line] = [request]
        fill = MemRequest(
            line * self._line_bytes, self._line_bytes,
            is_write=False, is_prefetch=request.is_prefetch,
            core_id=request.core_id)
        fill.callback = _FillCallback(self, fill, request.is_write, start)
        self.next_access(fill, start + self._latency)

    # ------------------------------------------------------------------
    def _fill(self, fill_request: MemRequest, was_write: bool, cycle: int,
              miss_cycle: int = 0) -> None:
        line = fill_request.line(self._line_bytes)
        for observer in self.observers:
            observer.cache_fill(self.stats.name, line, miss_cycle, cycle)
        num_sets = self._num_sets
        set_index = line % num_sets
        tag = line // num_sets
        cache_set = self._sets[set_index]
        if tag not in cache_set.lines:
            if len(cache_set.lines) >= self.config.associativity:
                victim_tag, dirty = next(iter(cache_set.lines.items()))
                del cache_set.lines[victim_tag]
                if dirty:
                    self._writeback(victim_tag * num_sets
                                    + set_index, cycle)
            cache_set.lines[tag] = False
        waiting = self._mshr.pop(line, [])
        if self._blocked:
            # the freed entry goes to the parked requests, ahead of any
            # request the responses below trigger
            self.scheduler.at(cycle, _Retry(self))
        dirty = was_write or any(w.is_write for w in waiting)
        if dirty:
            cache_set.lines[tag] = True
        for request in waiting:
            if request.service_level is None:
                # waiters were served wherever the fill was served
                request.service_level = fill_request.service_level
            self._respond(request, cycle)

    def _writeback(self, line: int, cycle: int) -> None:
        self.stats.writebacks += 1
        request = MemRequest(line * self.config.line_bytes,
                             self.config.line_bytes, is_write=True)
        self.next_access(request, cycle)

    def _respond(self, request: MemRequest, cycle: int) -> None:
        if request.callback is not None:
            self.scheduler.at(cycle, request.callback)

    def _charge_energy(self) -> None:
        if self.energy_sink is not None:
            self.energy_sink[0] += self.config.energy_nj

    # ------------------------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Coherence invalidation: drop the line if present (tag-only;
        dirty data is discarded — the directory extension models timing,
        not writeback bandwidth). Returns True if the line was present."""
        line = address // self.config.line_bytes
        cache_set = self._sets[line % self.config.num_sets]
        tag = line // self.config.num_sets
        if tag in cache_set.lines:
            del cache_set.lines[tag]
            return True
        return False

    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        """Tag probe (no side effects) — used by tests."""
        line = address // self.config.line_bytes
        cache_set = self._sets[line % self.config.num_sets]
        return (line // self.config.num_sets) in cache_set.lines

    @property
    def mshr_occupancy(self) -> int:
        return len(self._mshr)

    @property
    def parked(self) -> int:
        """Requests waiting for an MSHR entry."""
        return len(self._blocked)


class _StreamPrefetcher:
    """Detects constant-stride access chains and fetches lines ahead
    (paper §V-A: "tracks memory requests to see if there exists a chain of
    accesses that are k words apart").

    Streams are tracked per 4 KB region so interleaved accesses to several
    arrays (e.g. SPMV's col/val/x) are each recognized — the standard
    multi-stream table of hardware streamers. The table holds 16 streams
    with LRU replacement.
    """

    _TABLE_ENTRIES = 16
    _REGION_SHIFT = 12

    def __init__(self, config: PrefetcherConfig, cache: Cache):
        self.config = config
        self.cache = cache
        #: region -> [last_address, stride, streak], LRU-ordered
        self._streams: Dict[int, List[int]] = {}

    def observe(self, request: MemRequest, cycle: int) -> None:
        address = request.address
        region = address >> self._REGION_SHIFT
        entry = self._streams.pop(region, None)
        if entry is None:
            if len(self._streams) >= self._TABLE_ENTRIES:
                oldest = next(iter(self._streams))
                del self._streams[oldest]
            entry = [address, 0, 0]
        else:
            stride = address - entry[0]
            if stride != 0 and stride == entry[1]:
                entry[2] += 1
            else:
                entry[1] = stride
                entry[2] = 1 if stride != 0 else 0
            entry[0] = address
        self._streams[region] = entry

        if entry[2] >= self.config.trigger and entry[1]:
            # keep streaming: every further in-stride access prefetches
            # ahead (already-resident lines are filtered by the tag check)
            line_bytes = self.cache.config.line_bytes
            direction = 1 if entry[1] > 0 else -1
            base_line = address // line_bytes \
                + direction * self.config.distance
            for i in range(self.config.degree):
                line = base_line + direction * i
                if line < 0:
                    continue
                prefetch = MemRequest(line * line_bytes, line_bytes,
                                      is_prefetch=True,
                                      core_id=request.core_id)
                self.cache.access(prefetch, cycle)
