"""Data-movement observatory: *why* the memory hierarchy costs cycles.

The attribution engine (PR 3) charges stall cycles to ``memory.l1/l2/
llc/dram`` — a scoreboard. This module is the diagnosis layer beneath
it: per-cache **miss classification** (compulsory / capacity /
conflict), per-set conflict heatmaps, sampled **reuse-distance**
histograms, **DRAM bank / row-buffer locality** counters, **NoC and
CommFabric link-utilization** time series, and DAE queue-depth
occupancy histograms.

Contract (same as the tracer and the attributor):

* zero-cost-when-disabled — the collector's handlers implement the one
  event interface (:mod:`repro.telemetry.observer`); with no collector
  attached every hook site loops over an empty ``observers`` tuple, and
  the cycle counts of all 11 Parboil kernels stay bit-identical
  (``tests/test_behaviour_baseline.py``);
* observation only — an *enabled* collector never changes timing
  either, so enabling it on a run reproduces the exact same cycles;
* deterministic — sampling is stride-based on a per-tracker access
  counter (no RNG, no wall clock), so two runs of the same workload
  produce byte-identical ``memory`` report blocks.

Classification taxonomy (the classic three-Cs, per cache *instance*):

* **compulsory** — the line was never referenced before (tracked by an
  infinite-cache shadow set of every line ever seen);
* **conflict** — the miss would have *hit* in a fully-associative LRU
  cache of the same total capacity (tracked by a fully-associative
  shadow of ``num_sets * associativity`` lines) — i.e. the set mapping,
  not the capacity, evicted the line;
* **capacity** — everything else: seen before, but outside the
  same-capacity fully-associative shadow.

By construction ``compulsory + capacity + conflict == misses`` —
classification happens at exactly the point the demand-miss counter
increments, and ``validate_report`` enforces the identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import Histogram
from .observer import Observer

__all__ = [
    "CacheMemStat", "DRAMMemStat", "LinkLedger", "MemStat",
    "QUEUE_DEPTH_BUCKETS", "REUSE_DISTANCE_BUCKETS", "ReuseTracker",
]

#: distinct-lines-between-reuses buckets (le convention, powers of two);
#: 0 = immediate reuse of the most recently touched line
REUSE_DISTANCE_BUCKETS: Tuple[int, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: DAE supply/consume queue occupancy buckets (entries)
QUEUE_DEPTH_BUCKETS: Tuple[int, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: default reuse-distance sampling stride (every Nth demand access pays
#: the stack scan; the stack itself is maintained on every access)
DEFAULT_SAMPLE_EVERY = 8

#: fully-associative reuse stack bound — reuses farther apart than this
#: land in the overflow bucket (and re-references of evicted entries
#: count as cold)
DEFAULT_REUSE_CAPACITY = 4096

#: link-utilization epoch width (cycles) for the busy-cycle ledgers
DEFAULT_EPOCH_CYCLES = 1024


class _ShadowLRU:
    """Fully-associative LRU shadow directory of ``capacity`` lines.

    Dict insertion order is recency (last = most recent), the same trick
    the real ``_Set`` uses. ``access`` returns whether the line was
    resident *before* the access."""

    __slots__ = ("capacity", "lines")

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self.lines: Dict[int, None] = {}

    def access(self, line: int) -> bool:
        lines = self.lines
        if line in lines:
            del lines[line]
            lines[line] = None
            return True
        if len(lines) >= self.capacity:
            del lines[next(iter(lines))]
        lines[line] = None
        return False


class ReuseTracker:
    """Sampled LRU-stack reuse-distance profile of one access stream.

    The stack (a bounded LRU of lines) is maintained on every access;
    only every ``sample_every``-th access pays the O(distance) scan that
    turns stack position into a distance. Stride sampling keeps the
    profile deterministic — no RNG."""

    __slots__ = ("hist", "sample_every", "capacity", "cold", "sampled",
                 "accesses", "_stack")

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY,
                 capacity: int = DEFAULT_REUSE_CAPACITY):
        self.hist = Histogram(REUSE_DISTANCE_BUCKETS)
        self.sample_every = max(1, sample_every)
        self.capacity = capacity
        #: sampled accesses whose line had no prior reference in the
        #: stack (first touch, or evicted beyond ``capacity``)
        self.cold = 0
        self.sampled = 0
        self.accesses = 0
        self._stack: Dict[int, None] = {}

    def observe(self, line: int) -> None:
        self.accesses += 1
        sampled = self.accesses % self.sample_every == 0
        stack = self._stack
        if line in stack:
            if sampled:
                self.sampled += 1
                distance = 0
                for key in reversed(stack):
                    if key == line:
                        break
                    distance += 1
                self.hist.observe(distance)
            del stack[line]
        else:
            if sampled:
                self.sampled += 1
                self.cold += 1
            if len(stack) >= self.capacity:
                del stack[next(iter(stack))]
        stack[line] = None

    def as_dict(self) -> dict:
        document = self.hist.as_dict()
        document["accesses"] = self.accesses
        document["sampled"] = self.sampled
        document["cold_samples"] = self.cold
        document["sample_every"] = self.sample_every
        return document

    def merge_into(self, other: "ReuseTracker") -> None:
        """Fold this tracker's histogram and counters into ``other``
        (aggregation across instances of one cache level)."""
        for index, count in enumerate(self.hist.counts):
            other.hist.counts[index] += count
        other.hist.count += self.hist.count
        other.hist.total += self.hist.total
        for bound in (self.hist.min, self.hist.max):
            if bound is None:
                continue
            if other.hist.min is None or bound < other.hist.min:
                other.hist.min = bound
            if other.hist.max is None or bound > other.hist.max:
                other.hist.max = bound
        other.cold += self.cold
        other.sampled += self.sampled
        other.accesses += self.accesses


class CacheMemStat(Observer):
    """Per-cache-*instance* observer: three-Cs classifier, per-set miss
    and conflict counters, and a demand-access reuse profile.

    One instance per :class:`~repro.memory.cache.Cache` (each core's L1
    has its own shadows — sharing one across cores would misclassify);
    :meth:`MemStat.memory_block` aggregates instances by level name."""

    __slots__ = ("level", "num_sets", "associativity", "seen", "shadow",
                 "compulsory", "capacity", "conflict", "set_misses",
                 "set_conflicts", "reuse")

    def __init__(self, level: str, num_sets: int, associativity: int,
                 sample_every: int = DEFAULT_SAMPLE_EVERY):
        self.level = level
        self.num_sets = num_sets
        self.associativity = associativity
        #: infinite-cache shadow: every line ever referenced here
        self.seen: set = set()
        #: same-capacity fully-associative LRU shadow
        self.shadow = _ShadowLRU(num_sets * associativity)
        self.compulsory = 0
        self.capacity = 0
        self.conflict = 0
        self.set_misses = [0] * num_sets
        self.set_conflicts = [0] * num_sets
        self.reuse = ReuseTracker(sample_every)

    def cache_hit(self, line: int, is_prefetch: bool) -> None:
        """Mirror a (demand or prefetch) hit into the shadows."""
        self.seen.add(line)
        self.shadow.access(line)
        if not is_prefetch:
            self.reuse.observe(line)

    def cache_prefetch_fill(self, line: int) -> None:
        """A prefetch miss installs the line; keep the shadows in step
        so later demand misses classify against true contents."""
        self.cache_hit(line, True)

    def cache_miss(self, line: int, set_index: int) -> None:
        """Classify one primary demand miss (called exactly where the
        cache's ``stats.misses`` counter increments)."""
        self.reuse.observe(line)
        self.set_misses[set_index] += 1
        if line not in self.seen:
            self.seen.add(line)
            self.shadow.access(line)
            self.compulsory += 1
            return
        if self.shadow.access(line):
            # resident in the same-capacity fully-associative shadow:
            # the set mapping, not the capacity, lost this line
            self.conflict += 1
            self.set_conflicts[set_index] += 1
        else:
            self.capacity += 1

    @property
    def misses(self) -> int:
        return self.compulsory + self.capacity + self.conflict


class DRAMMemStat(Observer):
    """Per-bank row-buffer locality: hits / closed-row misses / row
    conflicts (a different row was open and must be precharged).

    ``DRAMSim2Model`` reports its own authoritative bank state;
    ``SimpleDRAM`` has no banks, so :meth:`dram_access` runs a shadow
    open-row model over the same line-interleaved mapping
    (observability only — timing unchanged)."""

    __slots__ = ("banks", "row_bytes", "line_bytes", "channels", "model",
                 "row_hits", "row_misses", "row_conflicts",
                 "bank_hits", "bank_misses", "bank_conflicts",
                 "_open_rows")

    def __init__(self, banks: int, row_bytes: int, line_bytes: int,
                 channels: int, model: str):
        self.banks = max(1, banks)
        self.row_bytes = row_bytes
        self.line_bytes = line_bytes
        self.channels = max(1, channels)
        self.model = model
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.bank_hits = [0] * self.banks
        self.bank_misses = [0] * self.banks
        self.bank_conflicts = [0] * self.banks
        #: shadow open row per bank (SimpleDRAM only)
        self._open_rows: List[Optional[int]] = [None] * self.banks

    def dram_access(self, request, cycle, completion, throttled=False,
                    bank=None, open_row=None, row=None) -> None:
        """Classify one access as a row hit, closed-row miss or conflict."""
        if bank is None:
            # shadow model: map the address, classify, open the row
            line = request.address // self.line_bytes
            banks_per_channel = self.banks // self.channels or 1
            channel = line % self.channels
            bank = (channel * banks_per_channel
                    + (line // self.channels) % banks_per_channel) \
                % self.banks
            row = request.address // self.row_bytes
            open_row = self._open_rows[bank]
            self._open_rows[bank] = row
        if open_row == row:
            self.row_hits += 1
            self.bank_hits[bank] += 1
        elif open_row is None:
            self.row_misses += 1
            self.bank_misses[bank] += 1
        else:
            self.row_conflicts += 1
            self.bank_conflicts[bank] += 1

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_conflicts

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "banks": self.banks,
            "row_bytes": self.row_bytes,
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "per_bank": [
                {"hits": self.bank_hits[b], "misses": self.bank_misses[b],
                 "conflicts": self.bank_conflicts[b]}
                for b in range(self.banks)
            ],
        }


class LinkLedger:
    """Busy-cycle time series per link, bucketed into fixed epochs.

    Accumulates *demand* (offered busy cycles); neither the mesh nor the
    fabric model link contention, so demand in one epoch can exceed the
    epoch span. :meth:`as_dict` therefore emits both ``demand`` and a
    span-clamped ``busy`` per epoch — utilization never reads above
    100%, oversubscription stays visible as ``demand - busy``."""

    __slots__ = ("epoch_cycles", "demand", "traversals")

    def __init__(self, epoch_cycles: int = DEFAULT_EPOCH_CYCLES):
        self.epoch_cycles = max(1, epoch_cycles)
        #: link key -> {epoch index -> offered busy cycles}
        self.demand: Dict[str, Dict[int, int]] = {}
        self.traversals = 0

    def charge(self, link: str, cycle: int, busy_cycles: int) -> None:
        epochs = self.demand.get(link)
        if epochs is None:
            epochs = self.demand[link] = {}
        epoch = cycle // self.epoch_cycles
        epochs[epoch] = epochs.get(epoch, 0) + busy_cycles

    def as_dict(self) -> dict:
        span = self.epoch_cycles
        links = {}
        for link, epochs in sorted(self.demand.items()):
            links[link] = {
                "epochs": {str(epoch): {"demand": demand,
                                        "busy": min(demand, span)}
                           for epoch, demand in sorted(epochs.items())},
                "demand": sum(epochs.values()),
                "busy": sum(min(demand, span)
                            for demand in epochs.values()),
            }
        return {
            "epoch_cycles": span,
            "traversals": self.traversals,
            "links": links,
        }


class NoCLinkObserver(Observer):
    """Mesh-side ledger: expands an XY route into its directed links and
    charges each for the traversal's wire time."""

    __slots__ = ("ledger",)

    def __init__(self, epoch_cycles: int = DEFAULT_EPOCH_CYCLES):
        self.ledger = LinkLedger(epoch_cycles)

    def noc_traversal(self, noc, src_node: int, dst_node: int,
                      cycle: int) -> None:
        ledger = self.ledger
        ledger.traversals += 1
        link_latency = noc.config.link_latency
        width = noc.width
        sx, sy = src_node % width, src_node // width
        dx, dy = dst_node % width, dst_node // width
        x, y = sx, sy
        node = src_node
        while x != dx:
            step = 1 if dx > x else -1
            nxt = node + step
            ledger.charge(f"{node}->{nxt}", cycle, link_latency)
            x += step
            node = nxt
        while y != dy:
            step = 1 if dy > y else -1
            nxt = node + step * width
            ledger.charge(f"{node}->{nxt}", cycle, link_latency)
            y += step
            node = nxt


class MemStat(Observer):
    """The observatory: one per run. :meth:`attach` gives every cache
    instance, the DRAM model and the mesh a handler of their own, and
    watches the fabric and the hierarchy entry point itself."""

    def __init__(self, *, sample_every: int = DEFAULT_SAMPLE_EVERY,
                 epoch_cycles: int = DEFAULT_EPOCH_CYCLES):
        self.sample_every = max(1, sample_every)
        self.epoch_cycles = max(1, epoch_cycles)
        self.line_bytes = 64
        #: level name -> observers of every instance of that level
        self.cache_observers: Dict[str, List[CacheMemStat]] = {}
        #: core id -> reuse profile at the hierarchy entry point
        self.tile_reuse: Dict[int, ReuseTracker] = {}
        self.dram: Optional[DRAMMemStat] = None
        self.noc: Optional[NoCLinkObserver] = None
        #: fabric core->core message ledger
        self.fabric_links = LinkLedger(self.epoch_cycles)
        #: DAE queue name -> occupancy histogram
        self.queue_depth_hist: Dict[str, Histogram] = {}

    def attach(self, interleaver) -> None:
        interleaver.fabric.observers += (self,)
        memory = interleaver.memory
        if memory is None:
            return
        self.line_bytes = memory.line_bytes
        memory.observers += (self,)
        # each cache gets its *own* observer: per-core L1s must not
        # share shadow state; memory_block aggregates them by level
        for cache in memory.caches:
            observer = CacheMemStat(cache.stats.name, cache.config.num_sets,
                                    cache.config.associativity,
                                    self.sample_every)
            self.cache_observers.setdefault(observer.level, []).append(
                observer)
            cache.observers += (observer,)
        if memory.config.dram_model == "dramsim2":
            dramsim = memory.config.dramsim2
            self.dram = DRAMMemStat(
                dramsim.channels * dramsim.banks_per_channel,
                dramsim.row_bytes, dramsim.line_bytes, dramsim.channels,
                "dramsim2")
        else:
            # SimpleDRAM has no banks: shadow a typical DDR geometry
            # (8 banks, 2 KB rows) purely for locality observation
            self.dram = DRAMMemStat(8, 2048, self.line_bytes, 1,
                                    "simple-shadow")
        memory.dram.observers += (self.dram,)
        if memory.noc is not None:
            self.noc = NoCLinkObserver(self.epoch_cycles)
            memory.noc.observers += (self.noc,)

    def collect(self, stats, interleaver) -> None:
        stats.memstat = self.memory_block()

    # -- events ------------------------------------------------------------
    def mem_entry(self, core_id: int, address: int) -> None:
        # per-tile reuse profile, at the hierarchy entry point
        tracker = self.tile_reuse.get(core_id)
        if tracker is None:
            tracker = self.tile_reuse[core_id] = \
                ReuseTracker(self.sample_every)
        tracker.observe(address // self.line_bytes)

    def fabric_send(self, src: int, dst: int, cycle: int) -> None:
        # one busy cycle per message: the pair ledger is a message rate
        # over epochs (the generic fabric has no modeled wires)
        self.fabric_links.traversals += 1
        self.fabric_links.charge(f"{src}->{dst}", cycle, 1)

    def queue_depth(self, name: str, cycle: int, occupancy: int) -> None:
        hist = self.queue_depth_hist.get(name)
        if hist is None:
            hist = self.queue_depth_hist[name] = \
                Histogram(QUEUE_DEPTH_BUCKETS)
        hist.observe(occupancy)

    # -- report ----------------------------------------------------------
    def memory_block(self) -> dict:
        """The schema-v3 ``memory`` report block (deterministic: keys
        sorted, no wall-clock content)."""
        caches = {}
        for level, observers in sorted(self.cache_observers.items()):
            first = observers[0]
            num_sets = first.num_sets
            set_misses = [0] * num_sets
            set_conflicts = [0] * num_sets
            merged_reuse = ReuseTracker(self.sample_every)
            compulsory = capacity = conflict = 0
            for observer in observers:
                compulsory += observer.compulsory
                capacity += observer.capacity
                conflict += observer.conflict
                for index in range(num_sets):
                    set_misses[index] += observer.set_misses[index]
                    set_conflicts[index] += observer.set_conflicts[index]
                observer.reuse.merge_into(merged_reuse)
            caches[level] = {
                "num_sets": num_sets,
                "associativity": first.associativity,
                "instances": len(observers),
                "misses": compulsory + capacity + conflict,
                "compulsory": compulsory,
                "capacity": capacity,
                "conflict": conflict,
                "set_misses": set_misses,
                "set_conflicts": set_conflicts,
                "reuse_distance": merged_reuse.as_dict(),
            }
        document = {
            "version": 1,
            "sample_every": self.sample_every,
            "epoch_cycles": self.epoch_cycles,
            "line_bytes": self.line_bytes,
            "caches": caches,
            "tiles": {
                str(core): tracker.as_dict()
                for core, tracker in sorted(self.tile_reuse.items())
            },
            "queues": {
                name: hist.as_dict()
                for name, hist in sorted(self.queue_depth_hist.items())
            },
            "fabric_links": self.fabric_links.as_dict(),
        }
        if self.dram is not None:
            document["dram"] = self.dram.as_dict()
        if self.noc is not None:
            document["noc_links"] = self.noc.ledger.as_dict()
        return document
