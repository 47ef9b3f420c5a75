"""Per-tile cycle-accounting engine (CPI stacks, roofline, trace diffing).

The tracer (PR 2) records *what happened when*; this module answers *where
the cycles went*. Every simulated cycle of every tile is attributed to
exactly one category, and the stack sums to the run's total cycles **by
construction**: each :class:`TileAttribution` keeps a cursor that only
moves forward, and every cursor advance books the interval it crossed to
the single pending category. There is no second code path that could
leak or double-count a cycle.

Category taxonomy (``CATEGORIES`` lists the closed set of prefixes):

=====================  =======================================================
``compute``            issuing/executing instructions, issue-width saturation,
                       fixed-latency ALU/FP work in flight at the window head
``memory.<level>``     window head is a memory access served by ``<level>``:
                       ``l1``/``l2``/``llc`` hits, ``dram``, ``coherence``
                       (directory invalidation delay), ``ideal`` (no
                       hierarchy configured)
``fabric``             waiting on a message ``send``/``recv``
``dae_supply``         DAE supply stall: producer blocked on a full
                       decoupled queue (or reserving load-queue space)
``dae_consume``        DAE consume stall: consumer blocked on an empty
                       decoupled queue
``barrier``            waiting inside an SPMD barrier
``accel``              an accelerator invocation in flight (or serialized
                       behind one)
``mispredict``         branch-redirect penalty after a mispredicted DBB
``frontend_idle``      nothing to launch: trace exhausted (tile finished
                       before the system) or the frontend is between DBBs
=====================  =======================================================

Memory waits are special: when the window-head blocker is an in-flight
memory access, the serving level (L1 hit, LLC, DRAM, ...) is unknown
until the response returns. The interval is therefore *deferred* —
banked against the access's request — and flushed into the right
``memory.<level>`` bucket when the access completes, using the
``service_level`` the hierarchy stamped on the request. Conservation is
unaffected: deferred cycles are already counted against the cursor and
only their label resolves late.

Zero-cost-when-disabled: a core tile holds ``attributor = None`` and
checks it once per hook; the fabric loops over its ``observers`` tuple
(:mod:`repro.telemetry.observer`), empty when nothing is attached.

See ``docs/observability.md`` for the report JSON schema (v2) and the
``repro analyze`` / ``repro diff`` commands built on top.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .observer import Observer

#: closed set of category names/prefixes a report may contain
CAT_COMPUTE = "compute"
CAT_FABRIC = "fabric"
CAT_DAE_SUPPLY = "dae_supply"
CAT_DAE_CONSUME = "dae_consume"
CAT_BARRIER = "barrier"
CAT_ACCEL = "accel"
CAT_MISPREDICT = "mispredict"
CAT_FRONTEND_IDLE = "frontend_idle"
MEMORY_PREFIX = "memory."

CATEGORIES = (
    CAT_COMPUTE, CAT_FABRIC, CAT_DAE_SUPPLY, CAT_DAE_CONSUME, CAT_BARRIER,
    CAT_ACCEL, CAT_MISPREDICT, CAT_FRONTEND_IDLE,
)

#: categories counted as memory stalls by the diff bottleneck analysis
def is_memory_category(category: str) -> bool:
    return category.startswith(MEMORY_PREFIX)


def memory_category(key) -> str:
    """Resolve a completed memory access's category from the request the
    hierarchy serviced (stamped with ``service_level``/``coherence_delay``
    on the way through). ``key`` is the request itself, or an object
    carrying it as ``mem_req``."""
    request = getattr(key, "mem_req", key)
    if request is None:
        return MEMORY_PREFIX + "ideal"
    if request.coherence_delay:
        return MEMORY_PREFIX + "coherence"
    level = request.service_level
    if not level:
        # a response that never reached a classifying level (e.g. the
        # ideal 1-cycle path behind a None hierarchy wrapper)
        return MEMORY_PREFIX + "ideal"
    return MEMORY_PREFIX + level.lower()


class TileAttribution:
    """Cycle ledger for one tile.

    ``pending`` is either a category string or an in-flight memory
    request whose serving level is not yet known. :meth:`advance` books
    the interval since the cursor to ``pending``; :meth:`resolve_memory`
    flushes a request's banked cycles once its response classified it.

    A compiled core keeps the ledger in C while it runs and sets
    ``source`` to itself; :meth:`snapshot`, :meth:`finalize` and pickling
    first copy its state in (``source._sync_ledger``).
    """

    __slots__ = ("name", "cycles", "cursor", "pending", "_deferred",
                 "source")

    def __init__(self, name: str):
        self.name = name
        self.cycles: Dict[str, int] = {}
        self.cursor = 0
        self.pending = CAT_FRONTEND_IDLE
        #: memory request -> cycles awaiting level resolution
        self._deferred: Dict[object, int] = {}
        self.source = None

    def _sync(self) -> None:
        if self.source is not None:
            self.source._sync_ledger(self)

    def __getstate__(self) -> dict:
        self._sync()
        return {name: getattr(self, name) for name in self.__slots__
                if name != "source"}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # pickled before __getstate__ existed
            state = state[1]
        self.source = None
        for name, value in state.items():
            setattr(self, name, value)

    # -- hot path (called from CoreTile.step) ----------------------------
    def advance(self, cycle: int) -> None:
        """Book ``[cursor, cycle)`` to the pending category."""
        delta = cycle - self.cursor
        if delta <= 0:
            return
        pending = self.pending
        if type(pending) is str:
            self.cycles[pending] = self.cycles.get(pending, 0) + delta
        else:
            self._deferred[pending] = self._deferred.get(pending, 0) + delta
        self.cursor = cycle

    def resolve_memory(self, request) -> None:
        """A memory access completed: flush the cycles banked against its
        request into the ``memory.<level>`` bucket the response
        identified."""
        banked = self._deferred.pop(request, None)
        pending_is_request = self.pending is request
        if banked is None and not pending_is_request:
            return
        category = memory_category(request)
        if banked is not None:
            self.cycles[category] = self.cycles.get(category, 0) + banked
        if pending_is_request:
            # future advances book directly; the request is released
            self.pending = category

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Live view (used by stall diagnostics and deadlock reports):
        resolved buckets plus any cycles still banked against in-flight
        memory requests."""
        self._sync()
        categories = dict(self.cycles)
        unresolved = sum(self._deferred.values())
        if unresolved:
            key = MEMORY_PREFIX + "outstanding"
            categories[key] = categories.get(key, 0) + unresolved
        pending = self.pending
        return {
            "cursor": self.cursor,
            "pending": pending if type(pending) is str
            else MEMORY_PREFIX + "outstanding",
            "categories": categories,
        }

    def finalize(self, total_cycles: int) -> Dict[str, int]:
        """Close the ledger at ``total_cycles`` and return the stack.

        Books the tail interval, flushes any still-banked memory waits to
        their best-known category, and asserts the conservation
        invariant: the stack sums exactly to ``total_cycles``.
        """
        self._sync()
        self.source = None  # the ledger is closed: C no longer owns it
        self.advance(total_cycles)
        if type(self.pending) is not str:
            # ended while a memory access was the blocker (it completed at
            # the final cycle); resolve with what the response recorded
            self.pending = memory_category(self.pending)
        for request, banked in list(self._deferred.items()):
            category = memory_category(request)
            self.cycles[category] = self.cycles.get(category, 0) + banked
        self._deferred.clear()
        total = sum(self.cycles.values())
        assert total == total_cycles, (
            f"cycle attribution for tile {self.name!r} lost cycles: "
            f"stack sums to {total}, simulated {total_cycles}")
        return dict(self.cycles)


class Attributor(Observer):
    """Run-wide registry of per-tile ledgers plus fabric stall counters.

    :meth:`attach` gives each tile a :class:`TileAttribution` and
    watches the fabric's stall events; :meth:`collect` stores the report
    dictionaries on :class:`~repro.sim.statistics.SystemStats`
    (``attribution`` and ``roofline``).
    """

    def __init__(self):
        self.tiles: Dict[str, TileAttribution] = {}
        #: queue name -> occurrence counts of producer/consumer stalls
        self.queue_full_stalls: Dict[str, int] = {}
        self.queue_empty_stalls: Dict[str, int] = {}
        self.recv_waits = 0
        self.report: Optional[dict] = None
        self.roofline: Optional[dict] = None

    def for_tile(self, name: str) -> TileAttribution:
        ledger = self.tiles.get(name)
        if ledger is None:
            ledger = self.tiles[name] = TileAttribution(name)
        return ledger

    def attach(self, interleaver) -> None:
        for tile in interleaver.tiles:
            tile.attributor = self.for_tile(tile.name)
        interleaver.fabric.observers += (self,)

    # -- fabric events -----------------------------------------------------
    def queue_full(self, name: str, cycle: int) -> None:
        self.queue_full_stalls[name] = self.queue_full_stalls.get(name, 0) + 1

    def queue_empty(self, name: str, cycle: int) -> None:
        self.queue_empty_stalls[name] = \
            self.queue_empty_stalls.get(name, 0) + 1

    def recv_wait(self, src: int, dst: int) -> None:
        self.recv_waits += 1

    # -- finalization ----------------------------------------------------
    def collect(self, stats, interleaver) -> dict:
        """Close every ledger at the run's total cycle count, append
        accelerator utilization pseudo-ledgers, attach the roofline
        capture, and store both documents on ``stats``."""
        total = stats.cycles
        tile_stats = {t.name: t for t in stats.tiles}
        entries: Dict[str, dict] = {}
        for name, ledger in self.tiles.items():
            stack = ledger.finalize(total)
            tstats = tile_stats.get(name)
            instructions = tstats.instructions if tstats is not None else 0
            entry = {
                "kind": "core",
                "total_cycles": total,
                "instructions": instructions,
                "categories": stack,
            }
            if instructions:
                entry["cpi"] = total / instructions
                entry["cpi_stack"] = {
                    cat: cycles / instructions
                    for cat, cycles in sorted(stack.items())}
            entries[name] = entry
        if interleaver.accelerators is not None:
            for name, accel in sorted(interleaver.accelerators.tiles.items()):
                entries[name] = accel.cycle_accounting(total)
        self.report = {
            "total_cycles": total,
            "tiles": entries,
            "fabric": {
                "queue_full_stalls": dict(sorted(
                    self.queue_full_stalls.items())),
                "queue_empty_stalls": dict(sorted(
                    self.queue_empty_stalls.items())),
                "recv_waits": self.recv_waits,
            },
        }
        self.roofline = capture_roofline(stats, interleaver.tiles,
                                         interleaver.memory)
        stats.attribution = self.report
        stats.roofline = self.roofline
        return self.report


# -- roofline capture ---------------------------------------------------------

_FP_CLASSES = ("fpalu", "fpmul", "fpdiv")


def _tile_flops(tile) -> Optional[int]:
    """Exact dynamic FP-operation count for a core tile, derived from the
    control-flow trace (one post-run pass; no hot-path counters)."""
    ddg = getattr(tile, "ddg", None)
    trace = getattr(tile, "trace", None)
    if ddg is None or trace is None:
        return None
    fp_by_bid = [
        sum(1 for iid in block.node_iids
            if ddg.nodes[iid].opclass.value in _FP_CLASSES)
        for block in ddg.blocks]
    return sum(fp_by_bid[bid] for bid in trace.block_trace)


def _dram_peak_bytes_per_cycle(memory) -> float:
    """Best-effort peak DRAM bandwidth in bytes per global cycle."""
    if memory is None:
        return 0.0
    dram = memory.dram
    config = dram.config
    line = memory.line_bytes
    per_epoch = getattr(dram, "_per_epoch", None)
    if per_epoch is not None:  # SimpleDRAM: epoch budget
        return per_epoch * line / max(1, config.epoch_cycles)
    channels = getattr(config, "channels", 1)
    burst = getattr(config, "burst_cycles", 1)
    ratio = getattr(config, "clock_ratio", 1)
    return channels * getattr(config, "line_bytes", line) \
        / max(1, burst * ratio)


def capture_roofline(stats, tiles, memory=None) -> dict:
    """Roofline capture: arithmetic intensity plus attainable-vs-achieved
    rates, per tile and for the whole system.

    DRAM bytes are system-wide (requests x line size, plus accelerator
    DMA traffic); each tile's share is apportioned by its fraction of
    memory accesses — an estimate, flagged as such in the schema docs.
    """
    line_bytes = memory.line_bytes if memory is not None else 64
    dram_bytes = stats.dram.requests * line_bytes \
        + sum(t.accel_bytes for t in stats.tiles)
    peak_bw = _dram_peak_bytes_per_cycle(memory)
    total_accesses = sum(t.memory_accesses for t in stats.tiles)
    tile_lookup = {t.name: t for t in tiles}
    per_tile: Dict[str, dict] = {}
    total_flops = 0
    for tstats in stats.tiles:
        tile = tile_lookup.get(tstats.name)
        flops = _tile_flops(tile) if tile is not None else None
        if flops is None:
            continue
        total_flops += flops
        share = (tstats.memory_accesses / total_accesses
                 if total_accesses else 0.0)
        bytes_est = dram_bytes * share
        config = getattr(tile, "config", None)
        peak_ipc = float(config.issue_width) if config is not None else 0.0
        cycles = stats.cycles or 1
        if bytes_est > 0 and peak_bw > 0:
            # instructions the memory system can sustain per cycle at
            # this instruction-per-byte density
            mem_bound_ipc = tstats.instructions * peak_bw / bytes_est
            attainable_ipc = min(peak_ipc, mem_bound_ipc)
        else:
            attainable_ipc = peak_ipc
        per_tile[tstats.name] = {
            "flops": flops,
            "dram_bytes_est": bytes_est,
            "arithmetic_intensity": (flops / bytes_est
                                     if bytes_est else 0.0),
            "peak_ipc": peak_ipc,
            "attainable_ipc": attainable_ipc,
            "achieved_ipc": tstats.ipc,
            "achieved_flops_per_cycle": flops / cycles,
            "bound": ("memory" if attainable_ipc < peak_ipc
                      else "compute"),
        }
    return {
        "dram_bytes": dram_bytes,
        "dram_peak_bytes_per_cycle": peak_bw,
        "flops": total_flops,
        "arithmetic_intensity": (total_flops / dram_bytes
                                 if dram_bytes else 0.0),
        "tiles": per_tile,
    }


# -- report validation + diffing ----------------------------------------------

def validate_report(document: dict, schema_version: int = None, *,
                    attribution: bool = True) -> int:
    """Validate an ``analyze`` report and re-check the conservation
    invariants on the serialized numbers: per-tile cycle conservation
    (schema v2) and, when a ``memory`` observatory block is present
    (schema v3), data-movement conservation — miss classes sum to the
    level's misses, per-set and per-bank counters sum to their totals,
    per-link busy cycles never exceed the epoch span. Returns the
    number of attributed tiles; raises :class:`ValueError` on the first
    violation (exit 2 in the CLI). With ``attribution=False`` a plain
    ``simulate --stats-json`` report passes too: its totals are checked
    instead of the missing attribution block, and 0 is returned."""
    from .metrics import SUPPORTED_REPORT_VERSIONS
    if not isinstance(document, dict):
        raise ValueError("report must be a JSON object")
    version = document.get("schema_version")
    if schema_version is not None:
        if version != schema_version:
            raise ValueError(
                f"report schema version {version!r} unsupported "
                f"(expected {schema_version})")
    elif version not in SUPPORTED_REPORT_VERSIONS:
        raise ValueError(
            f"report schema version {version!r} unsupported "
            f"(supported: {', '.join(map(str, SUPPORTED_REPORT_VERSIONS))})")
    # run_id is optional (unstamped reports lack it) but must be a
    # non-empty string when present
    run_id = document.get("run_id")
    if run_id is not None and (not isinstance(run_id, str) or not run_id):
        raise ValueError(
            f"report run_id must be a non-empty string, got {run_id!r}")
    block = document.get("attribution")
    if block is None and not attribution:
        for key in ("cycles", "instructions"):
            if not isinstance(document.get(key), int) or document[key] < 0:
                raise ValueError(f"report has no non-negative {key}")
        energy = document.get("energy")
        if not isinstance(energy, dict) or not isinstance(
                energy.get("total_nj"), (int, float)):
            raise ValueError("report has no energy.total_nj")
        tiles = {}
    elif not isinstance(block, dict):
        raise ValueError(
            "report has no attribution block (was the run made with "
            "cycle attribution enabled, e.g. `repro analyze`?)")
    else:
        tiles = block.get("tiles")
        if not isinstance(tiles, dict) or not tiles:
            raise ValueError("attribution block has no tiles")
    for name, entry in tiles.items():
        categories = entry.get("categories")
        if not isinstance(categories, dict):
            raise ValueError(f"tile {name!r} has no categories")
        total = entry.get("total_cycles")
        if not isinstance(total, int) or total < 0:
            raise ValueError(
                f"tile {name!r} has no non-negative total_cycles")
        booked = sum(categories.values())
        if booked != total:
            raise ValueError(
                f"tile {name!r} violates cycle conservation: categories "
                f"sum to {booked}, total_cycles is {total}")
        for category, cycles in categories.items():
            if cycles < 0:
                raise ValueError(
                    f"tile {name!r} category {category!r} is negative")
            if category not in CATEGORIES \
                    and not category.startswith(MEMORY_PREFIX):
                raise ValueError(
                    f"tile {name!r} has unknown category {category!r}")
    memory = document.get("memory")
    if memory is not None:
        validate_memory_block(document)
    return len(tiles)


def validate_memory_block(document: dict) -> None:
    """Conservation checks on the schema-v3 ``memory`` observatory block
    (see ``repro.telemetry.memstat``), cross-checked against the
    top-level ``caches``/``dram`` stats where both exist:

    * ``compulsory + capacity + conflict == misses`` per cache level,
      and equals the level's demand-miss counter in ``caches``;
    * per-set miss/conflict arrays sum to the level totals;
    * per-bank DRAM hits/misses/conflicts sum to the bank-classified
      access total, which equals the DRAM request counter;
    * per-link busy cycles within one epoch never exceed the epoch span.
    """
    memory = document.get("memory")
    if not isinstance(memory, dict):
        raise ValueError("memory block must be a JSON object")
    report_caches = document.get("caches", {})
    for level, entry in memory.get("caches", {}).items():
        classes = (entry["compulsory"], entry["capacity"],
                   entry["conflict"])
        if any(value < 0 for value in classes):
            raise ValueError(
                f"memory.{level}: negative miss class in {classes}")
        if sum(classes) != entry["misses"]:
            raise ValueError(
                f"memory.{level}: miss classes sum to {sum(classes)}, "
                f"misses is {entry['misses']}")
        if level in report_caches \
                and entry["misses"] != report_caches[level]["misses"]:
            raise ValueError(
                f"memory.{level}: classified {entry['misses']} misses, "
                f"cache stats report {report_caches[level]['misses']}")
        if len(entry["set_misses"]) != entry["num_sets"] \
                or len(entry["set_conflicts"]) != entry["num_sets"]:
            raise ValueError(
                f"memory.{level}: per-set arrays must have num_sets="
                f"{entry['num_sets']} entries")
        if sum(entry["set_misses"]) != entry["misses"]:
            raise ValueError(
                f"memory.{level}: per-set misses sum to "
                f"{sum(entry['set_misses'])}, level total is "
                f"{entry['misses']}")
        if sum(entry["set_conflicts"]) != entry["conflict"]:
            raise ValueError(
                f"memory.{level}: per-set conflicts sum to "
                f"{sum(entry['set_conflicts'])}, level total is "
                f"{entry['conflict']}")
    dram = memory.get("dram")
    if dram is not None:
        sums = {"hits": 0, "misses": 0, "conflicts": 0}
        for bank in dram["per_bank"]:
            for key in sums:
                sums[key] += bank[key]
        if sums["hits"] != dram["row_hits"] \
                or sums["misses"] != dram["row_misses"] \
                or sums["conflicts"] != dram["row_conflicts"]:
            raise ValueError(
                f"memory.dram: per-bank sums {sums} disagree with "
                f"row_hits={dram['row_hits']} "
                f"row_misses={dram['row_misses']} "
                f"row_conflicts={dram['row_conflicts']}")
        total = dram["row_hits"] + dram["row_misses"] \
            + dram["row_conflicts"]
        if total != dram["accesses"]:
            raise ValueError(
                f"memory.dram: hit/miss/conflict total {total} != "
                f"accesses {dram['accesses']}")
        report_dram = document.get("dram")
        if report_dram is not None \
                and dram["accesses"] != report_dram["requests"]:
            raise ValueError(
                f"memory.dram: classified {dram['accesses']} accesses, "
                f"dram stats report {report_dram['requests']} requests")
    for block_name in ("noc_links", "fabric_links"):
        block = memory.get(block_name)
        if block is None:
            continue
        span = block["epoch_cycles"]
        for link, series in block["links"].items():
            for epoch, counts in series["epochs"].items():
                if counts["busy"] > span:
                    raise ValueError(
                        f"memory.{block_name}.{link}: epoch {epoch} busy "
                        f"{counts['busy']} exceeds the {span}-cycle span")
                if counts["busy"] > counts["demand"]:
                    raise ValueError(
                        f"memory.{block_name}.{link}: epoch {epoch} busy "
                        f"{counts['busy']} exceeds demand "
                        f"{counts['demand']}")
    for name, hist in memory.get("queues", {}).items():
        if sum(hist["counts"]) != hist["count"]:
            raise ValueError(
                f"memory.queues.{name}: bucket counts sum to "
                f"{sum(hist['counts'])}, count is {hist['count']}")


def diff_reports(before: dict, after: dict) -> dict:
    """Attribute the cycle delta between two reports to the categories
    that moved.

    Both documents must pass :func:`validate_report`. Tiles are matched
    by name; when the reports share no tile name but have as many tiles
    (``OoO0`` against ``InO0`` after a core swap), they are matched by
    position instead, and ``tiles_matched_by`` says so. Per-category
    deltas are ``after - before``, so a positive delta is a regression
    (more cycles spent there). The aggregate view sums matched tiles,
    which is what ``repro diff`` renders first.
    """
    tiles_a = before["attribution"]["tiles"]
    tiles_b = after["attribution"]["tiles"]
    pairs = [(name, name) for name in tiles_a if name in tiles_b]
    matched_by = "name"
    if not pairs and tiles_a and len(tiles_a) == len(tiles_b):
        pairs = list(zip(tiles_a, tiles_b))
        matched_by = "position"
    per_tile: Dict[str, dict] = {}
    aggregate: Dict[str, dict] = {}
    for name_a, name_b in pairs:
        cats_a = tiles_a[name_a]["categories"]
        cats_b = tiles_b[name_b]["categories"]
        deltas = {}
        for category in sorted(set(cats_a) | set(cats_b)):
            a = cats_a.get(category, 0)
            b = cats_b.get(category, 0)
            if a == 0 and b == 0:
                continue
            deltas[category] = {"before": a, "after": b, "delta": b - a}
            agg = aggregate.setdefault(
                category, {"before": 0, "after": 0, "delta": 0})
            agg["before"] += a
            agg["after"] += b
            agg["delta"] += b - a
        per_tile[name_a if name_a == name_b else f"{name_a}->{name_b}"] = {
            "total_before": tiles_a[name_a]["total_cycles"],
            "total_after": tiles_b[name_b]["total_cycles"],
            "categories": deltas,
        }
    cycles_a = before["attribution"]["total_cycles"]
    cycles_b = after["attribution"]["total_cycles"]
    memory_delta = sum(
        entry["delta"] for category, entry in aggregate.items()
        if is_memory_category(category))
    grown = sorted(
        ((category, entry["delta"]) for category, entry in
         aggregate.items() if entry["delta"] > 0),
        key=lambda item: -item[1])
    result = {
        "cycles_before": cycles_a,
        "cycles_after": cycles_b,
        "cycles_delta": cycles_b - cycles_a,
        "speedup": cycles_a / cycles_b if cycles_b else 0.0,
        "tiles_matched_by": matched_by,
        "tiles_only_before": sorted(set(tiles_a) - {a for a, _ in pairs}),
        "tiles_only_after": sorted(set(tiles_b) - {b for _, b in pairs}),
        "categories": aggregate,
        "tiles": per_tile,
        "memory_stall_delta": memory_delta,
        "top_regressions": grown,
    }
    locality = diff_memory_blocks(before.get("memory"),
                                  after.get("memory"))
    if locality is not None:
        result["memory"] = locality
    return result


def diff_memory_blocks(before: Optional[dict],
                       after: Optional[dict]) -> Optional[dict]:
    """Locality deltas between two ``memory`` observatory blocks, or
    None unless both reports carry one. This is the data behind
    ``repro diff --memory``: when an L1-shrink sweep loses cycles to
    ``memory.*``, the conflict/capacity-miss growth here says *why*."""
    if not before or not after:
        return None
    caches: Dict[str, dict] = {}
    for level in sorted(set(before.get("caches", {}))
                        | set(after.get("caches", {}))):
        a = before.get("caches", {}).get(level)
        b = after.get("caches", {}).get(level)
        entry: Dict[str, dict] = {}
        for key in ("misses", "compulsory", "capacity", "conflict"):
            va = a[key] if a else 0
            vb = b[key] if b else 0
            entry[key] = {"before": va, "after": vb, "delta": vb - va}
        caches[level] = entry
    result = {"caches": caches}
    dram_a, dram_b = before.get("dram"), after.get("dram")
    if dram_a and dram_b:
        dram: Dict[str, dict] = {}
        for key in ("accesses", "row_hits", "row_misses",
                    "row_conflicts"):
            dram[key] = {"before": dram_a[key], "after": dram_b[key],
                         "delta": dram_b[key] - dram_a[key]}
        result["dram"] = dram
    return result


__all__: List[str] = [
    "Attributor", "CATEGORIES", "CAT_ACCEL", "CAT_BARRIER", "CAT_COMPUTE",
    "CAT_DAE_CONSUME", "CAT_DAE_SUPPLY", "CAT_FABRIC", "CAT_FRONTEND_IDLE",
    "CAT_MISPREDICT", "MEMORY_PREFIX", "TileAttribution",
    "capture_roofline", "diff_memory_blocks", "diff_reports",
    "is_memory_category", "memory_category", "validate_memory_block",
    "validate_report",
]
