"""Core tile model: graph-based, trace-driven, cycle-level (paper §II-A,
§III).

A core executes the kernel's static DDG against its dynamic trace:

* DBBs launch serially in control-flow-trace order — a new DBB launches
  when the previous DBB's terminator completes (rule 3), or immediately
  under branch speculation (§III-C);
* an instruction issues once its DBB is live, all parents have completed
  (rules 1–2), and the microarchitectural resource limits of §III-A allow:
  issue width, sliding instruction window (ROB), MAO/LSQ occupancy and
  ordering, functional units, live-DBB limits;
* fixed-cost instructions complete after their latency; memory operations
  are dispatched to the memory hierarchy and complete on response; comm
  operations interact with the CommFabric (messages, DAE queues);
  accelerator invocations query the accelerator tile model (§IV-A).

The same class models in-order cores (window/LSQ of 1, width 1), OoO cores
(wide window) and pre-RTL accelerator tiles (relaxed limits + live-DBB
knobs), exactly as the paper uses one graph model with different resource
constraints.

Hot-path discipline (see ``docs/performance.md``): everything derivable
from the static DDG and the (immutable-per-run) core config is
precomputed per static instruction at construction time — dispatch kind,
issue-check bitmask, latency/energy/FU tables, per-block launch plans —
so the per-dynamic-instruction loops are table lookups and integer
tests, never enum-keyed dict lookups or string compares. Telemetry
guards (``tracer``/``attributor`` ``is not None``) sit outside the inner
loops. All of this is mechanical restructuring: simulated cycle counts
are bit-identical to the straightforward implementation (asserted by the
Parboil identity benchmark).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ...ir.instructions import OpClass, Opcode
from ...passes.ddg import DDGNode, StaticDDG
from ...telemetry.attribution import (
    CAT_ACCEL, CAT_BARRIER, CAT_COMPUTE, CAT_DAE_CONSUME, CAT_DAE_SUPPLY,
    CAT_FABRIC, CAT_FRONTEND_IDLE, CAT_MISPREDICT, MEMORY_PREFIX)
from ...trace.tracefile import KernelTrace
from ..config import CoreConfig
from ..errors import AcceleratorFaultError, SimulationError
from ..tile import NEVER, Tile
from .branch import make_predictor

_WAITING, _READY, _ISSUED, _DONE = 0, 1, 2, 3

#: precomputed dispatch kinds, one per static instruction (avoids
#: re-deriving "what sort of op is this" from node attributes on every
#: dynamic issue)
_D_FIXED = 0            # fixed-latency compute
_D_MEM = 1              # plain memory access through the hierarchy
_D_MEM_DECOUPLED = 2    # DeSC decoupled load
_D_MEM_DECOUPLED_STORE = 3  # DeSC store address/value buffers
_D_MEM_STOREBUF = 4     # store retired at issue via the store buffer
_D_CALL_FP = 5          # long-latency FP intrinsic
_D_CALL_ACCEL = 6       # accelerator invocation
_D_CALL_COMM = 7        # fabric intrinsic (messages, DAE queues, barrier)
_D_CALL_OTHER = 8       # free intrinsics (tile_id/num_tiles/...)

#: issue-check bitmask per static instruction; zero means the plain
#: fast path (only the FU limit applies)
_C_MEMORY = 1           # MAO ordering check
_C_DECOUPLED = 2        # DAE load-queue reservation
_C_BARRIER = 4          # full-fence: must be the window head
_C_ACCEL = 8            # serialized through the device driver


# -- scheduler/fabric callback objects ----------------------------------------
#
# Every callback that can sit in the Scheduler heap or a CommFabric
# waiter queue is a module-level callable class (or a bound method such
# as ``tile.wake``), never a closure: closures cannot be pickled, and
# the checkpoint layer (:mod:`repro.checkpoint`) snapshots the live heap
# and waiter queues mid-run. Each class carries exactly the state its
# former closure captured.

def _noop(cycle: int) -> None:
    """Fire-and-forget completion (store-buffer drains, DeSC writes)."""


class _ExternalComplete:
    """Complete instruction ``seq`` at the callback cycle (memory-response path)."""

    __slots__ = ("tile", "seq")

    def __init__(self, tile: "CoreTile", seq: int):
        self.tile = tile
        self.seq = seq

    def __call__(self, cycle: int) -> None:
        self.tile._external_complete(self.seq, cycle)


class _PenaltyComplete:
    """Complete instruction ``seq`` a fixed penalty after the response (atomics)."""

    __slots__ = ("tile", "seq", "penalty")

    def __init__(self, tile: "CoreTile", seq: int, penalty: int):
        self.tile = tile
        self.seq = seq
        self.penalty = penalty

    def __call__(self, cycle: int) -> None:
        self.tile._complete_later(self.seq, cycle + self.penalty)


class _FloorComplete:
    """Complete instruction ``seq`` at the wakeup cycle, no earlier than ``floor``
    (fabric waits: barrier release, recv, DAE consume)."""

    __slots__ = ("tile", "seq", "floor")

    def __init__(self, tile: "CoreTile", seq: int, floor: int):
        self.tile = tile
        self.seq = seq
        self.floor = floor

    def __call__(self, cycle: int) -> None:
        floor = self.floor
        self.tile._complete_later(self.seq,
                                  cycle if cycle > floor else floor)


class _QueueDeposit:
    """Deposit a reserved DAE token ``latency`` cycles after the memory
    response arrives (DeSC decoupled load)."""

    __slots__ = ("tile", "queue", "latency")

    def __init__(self, tile: "CoreTile", queue: str, latency: int):
        self.tile = tile
        self.queue = queue
        self.latency = latency

    def __call__(self, cycle: int) -> None:
        self.tile.services.fabric.queue_deposit_reserved(
            self.queue, cycle + self.latency)


class _FireWrite:
    """Issue the buffered DeSC store once its value token arrived."""

    __slots__ = ("tile", "address", "size")

    def __init__(self, tile: "CoreTile", address: int, size: int):
        self.tile = tile
        self.address = address
        self.size = size

    def __call__(self, cycle: int) -> None:
        tile = self.tile
        tile.services.mem_access(
            tile.mem_port, self.address, self.size, is_write=True,
            is_atomic=False, cycle=cycle, callback=_noop)


class _ScheduleAtFloor:
    """Route ``target`` through the scheduler at ``max(cycle, floor)`` —
    orders a store-value consume wakeup behind the comm latency."""

    __slots__ = ("tile", "floor", "target")

    def __init__(self, tile: "CoreTile", floor: int, target):
        self.tile = tile
        self.floor = floor
        self.target = target

    def __call__(self, cycle: int) -> None:
        floor = self.floor
        self.tile.services.schedule(
            cycle if cycle > floor else floor, self.target)


class _AccelFinish:
    """Release the device-driver serialization and complete instruction ``seq`` when
    an accelerator invocation returns."""

    __slots__ = ("tile", "seq")

    def __init__(self, tile: "CoreTile", seq: int):
        self.tile = tile
        self.seq = seq

    def __call__(self, cycle: int) -> None:
        tile = self.tile
        tile._accel_inflight -= 1
        tile._external_complete(self.seq, cycle)


class _RetryProduce:
    """Re-attempt a DAE produce once a consumer freed a slot."""

    __slots__ = ("tile", "seq", "queue", "latency")

    def __init__(self, tile: "CoreTile", seq: int, queue: str,
                 latency: int):
        self.tile = tile
        self.seq = seq
        self.queue = queue
        self.latency = latency

    def __call__(self, cycle: int) -> None:
        tile = self.tile
        tile._try_produce(self.seq, self.queue, cycle, self.latency)
        tile.wake(cycle)


class CoreTile(Tile):
    """The reference (pure-Python) core model.

    A dynamic instruction is its sequence number ``seq``. Its state lives
    in power-of-two ring lists indexed by ``seq & mask``; the ring holds
    the live window ``[window_base, next_seq)``, which never exceeds
    ``rob_size + largest block``, so a slot is reused only after its
    previous occupant retired. A producer ``p`` is done when
    ``p < window_base`` or its slot says so. The compiled backend
    (:mod:`.compiled`) runs the same layout in C.
    """

    def __init__(self, name: str, tile_id: int, config: CoreConfig,
                 ddg: StaticDDG, trace: KernelTrace,
                 services=None, period: int = 1,
                 mem_port: Optional[int] = None):
        super().__init__(name, tile_id, period)
        self.config = config
        self.ddg = ddg
        self.trace = trace
        self.services = services
        #: index into the memory system (defaults to tile id)
        self.mem_port = tile_id if mem_port is None else mem_port

        nodes = ddg.nodes
        blocks = ddg.blocks
        self._next_dbb = 0                     # cursor into block_trace
        self._num_blocks = len(trace.block_trace)
        self._next_seq = 0
        self._window_base = 0
        #: ready instructions, a heap of seqs
        self._ready: List[int] = []
        self._retry: List[int] = []
        #: newest dynamic instance of each static instruction (-1: none)
        self._last_seq = [-1] * len(nodes)
        self._accel_cursor = 0
        self._accel_inflight = 0
        self._mao: List[int] = []     # memory seqs in program order
        self._mao_start = 0           # completed-prefix skip index
        self._mao_incomplete = 0
        self._live_dbbs = [0] * len(blocks)
        self._live_total = 0
        #: fixed-latency completion calendar: cycle -> seqs in issue
        #: order, plus a heap of the cycles that have a bucket
        self._calendar: Dict[int, List[int]] = {}
        self._calendar_cycles: List[int] = []
        #: terminator of the most recently launched DBB (-1: none yet)
        self._last_terminator = -1
        self._last_terminator_done_at = 0
        #: earliest cycle a mispredict-stalled launch may proceed
        self._launch_stall_until = 0
        #: prediction verdict (static or dynamic) for the *next* DBB launch
        self._prediction_correct = True
        self._dyn_predictor = (
            make_predictor(config.branch_predictor)
            if config.branch_predictor in ("twobit", "gshare") else None)
        self._prev_bid: Optional[int] = None
        self._finished = self._num_blocks == 0

        # -- the instruction rings ------------------------------------
        sizes = [len(b.node_iids) for b in blocks]
        largest = max(sizes, default=1)
        total = sum(sizes[bid] for bid in trace.block_trace)
        need = min(config.rob_size + largest + 1, total + 1)
        ring = 2
        while ring < need:
            ring <<= 1
        self._mask = ring - 1
        self._r_iid = [0] * ring
        self._r_state = [_DONE] * ring
        self._r_pending = [0] * ring
        #: dependents to wake on completion (None: none registered)
        self._r_deps: List[Optional[List[int]]] = [None] * ring
        self._r_addr = [0] * ring
        #: dynamic producer of the address operand (memory ops; -1 none);
        #: the MAO treats the address as resolved once it completes
        self._r_addr_producer = [-1] * ring
        #: DBB (block-trace position) each instruction belongs to
        self._r_dbb = [0] * ring
        #: issue cycle (tracer) and in-flight memory request (attributor)
        self._r_issued_at = [0] * ring
        self._r_request: List[object] = [None] * ring
        #: per-DBB ring, indexed by block-trace position & mask: live DBBs
        #: each keep an instruction in the window, so they fit too
        self._d_remaining = [0] * ring
        self._d_launched_at = [0] * ring

        # -- hot-path tables, precomputed per static instruction ---------
        # (all immutable for the duration of the run: the DDG is final
        # once the slicing/ISA passes have run, and the config is fixed)
        latencies = config.latencies
        energies = config.energy_nj
        fu_counts = config.fu_counts
        self._latency_by_iid = [
            latencies[n.opclass] * period for n in nodes]
        self._energy_by_iid = [energies[n.opclass] for n in nodes]
        #: functional-unit class per instruction (-1: unlimited); the
        #: counters and limits are per class
        fu_classes = sorted(fu_counts, key=lambda c: c.value)
        fu_index = {opclass: i for i, opclass in enumerate(fu_classes)}
        self._fu_limits = [fu_counts[c] for c in fu_classes]
        self._fu_used = [0] * len(fu_classes)
        self._fu_by_iid = [fu_index.get(n.opclass, -1) for n in nodes]
        #: phis and ISA-folded nodes are free (complete with their parents,
        #: not counted as instructions)
        self._free_by_iid = [
            n.opclass is OpClass.PHI or n.folded for n in nodes]
        self._memory_by_iid = [n.is_memory for n in nodes]
        self._store_by_iid = [n.is_store for n in nodes]
        self._issue_checks = [self._issue_check_mask(n) for n in nodes]
        self._dispatch_kind = [
            self._dispatch_kind_of(n, config) for n in nodes]
        #: (size, is_write, is_atomic, completion penalty) for memory
        #: ops; None slots for everything else
        self._mem_args_by_iid = [
            (n.access_size or 8, n.is_store and not n.is_load,
             n.opcode is Opcode.ATOMICRMW,
             config.atomic_penalty * period
             if n.opcode is Opcode.ATOMICRMW else 0)
            if n.is_memory else None for n in nodes]
        #: per-block launch template: one tuple per node with everything
        #: the launch loop needs (iid, operand producers, phi map, memory
        #: flag, pointer producer, free flag), so launching is pure
        #: iteration instead of per-node attribute re-derivation
        self._block_plans = []
        for b in blocks:
            plan = []
            for iid in b.node_iids:
                n = nodes[iid]
                plan.append((
                    iid, n.operand_iids,
                    n.phi_incoming if n.opcode is Opcode.PHI else None,
                    n.is_memory,
                    -1 if n.pointer_operand_iid is None
                    else n.pointer_operand_iid,
                    n.opclass is OpClass.PHI or n.folded))
            self._block_plans.append(
                (plan, b.terminator_iid, len(b.node_iids)))
        #: trace span names per static instruction and per block
        self._span_by_iid = [n.opclass.name.lower() for n in nodes]
        self._dbb_span_by_bid = [f"dbb {bid}"
                                 for bid in range(len(blocks))]
        #: memory ops per block, for the MAO launch gate
        self._block_mem_ops = [
            sum(1 for iid in b.node_iids if nodes[iid].is_memory)
            for b in blocks]
        #: per-iid cursors into the address / comm traces (lists are
        #: cheaper than dicts on the launch path)
        self._addr_cursor = [0] * len(nodes)
        self._comm_cursor = [0] * len(nodes)
        # scalar config values the hot loops read every iteration
        self._issue_width = config.issue_width
        self._rob_size = config.rob_size
        self._lsq_size = config.lsq_size
        self._live_dbb_limit = config.live_dbb_limit
        self._perfect_alias = config.perfect_alias
        self._mao_compact_limit = 2 * max(16, config.lsq_size)
        self._comm_latency = config.comm_latency * period
        self._fp_long_latency = config.fp_long_latency * period
        self._call_latency = latencies[OpClass.CALL] * period
        mode = config.branch_predictor
        self._spec_perfect = mode == "perfect"
        self._speculates = mode in self._PREDICTED_MODES
        self._mispredict_delay_cycles = config.mispredict_penalty * period

        #: DAE role, set by harness when this core is half of a DAE pair
        self.dae_queue_names: Dict[str, str] = {}
        #: SPMD barrier membership (set by the harness)
        self.barrier_group = "spmd"
        self.barrier_group_size = 1
        self._barrier_generation = 0

    @staticmethod
    def _issue_check_mask(n: DDGNode) -> int:
        mask = 0
        if n.is_memory:
            mask |= _C_MEMORY
        if n.decoupled:
            mask |= _C_DECOUPLED
        if n.callee == "barrier":
            mask |= _C_BARRIER
        if n.intrinsic_timing == "accel":
            mask |= _C_ACCEL
        return mask

    @staticmethod
    def _head_waits(n: DDGNode, config: CoreConfig) -> tuple:
        """The attribution category of a window head running ``n``,
        before and after it issues; None when the head's in-flight
        memory request decides (``memory.<level>``)."""
        if n.is_memory:
            # ready but structurally blocked at the window head
            blocked = CAT_DAE_SUPPLY if n.decoupled else CAT_COMPUTE
            if n.decoupled or n.decoupled_store or (
                    n.is_store and not n.is_load and config.store_buffer):
                # retires next cycle (queue deposit / store buffer)
                return blocked, CAT_COMPUTE
            return blocked, None
        category = CAT_COMPUTE
        if n.opcode is Opcode.CALL:
            timing = n.intrinsic_timing
            if timing == "accel":
                category = CAT_ACCEL
            elif timing == "comm":
                callee = n.callee
                if callee == "barrier":
                    category = CAT_BARRIER
                elif callee.startswith(("dae_produce", "dae_store_value")):
                    category = CAT_DAE_SUPPLY
                elif callee.startswith(("dae_consume", "dae_store_take")):
                    category = CAT_DAE_CONSUME
                else:
                    category = CAT_FABRIC
        return category, category

    @staticmethod
    def _dispatch_kind_of(n: DDGNode, config: CoreConfig) -> int:
        if n.is_memory:
            if n.decoupled:
                return _D_MEM_DECOUPLED
            if n.decoupled_store:
                return _D_MEM_DECOUPLED_STORE
            if n.is_store and not n.is_load and config.store_buffer:
                return _D_MEM_STOREBUF
            return _D_MEM
        if n.opcode is Opcode.CALL:
            timing = n.intrinsic_timing
            if timing == "fp_long":
                return _D_CALL_FP
            if timing == "accel":
                return _D_CALL_ACCEL
            if timing == "comm":
                return _D_CALL_COMM
            return _D_CALL_OTHER
        return _D_FIXED

    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Switch to the compiled step when it applies (see
        :func:`.compiled.bind`); the Python core is the fallback."""
        from .compiled import bind
        bind(self)

    @property
    def done(self) -> bool:
        return self._finished

    def stall_state(self) -> dict:
        """What this core is waiting on (deadlock diagnostics)."""
        state = {
            "in_flight": self._next_seq - self._window_base,
            "ready": len(self._ready),
            "window_base": self._window_base,
            "next_dbb": self._next_dbb,
            "blocks_total": len(self.trace.block_trace),
            "outstanding_memory_ops": self._mao_incomplete,
            "accel_inflight": self._accel_inflight,
        }
        if self.attributor is not None:
            # the live attribution ledger IS the stall picture: deadlock
            # diagnostics and telemetry reports share one source of truth
            state["attribution"] = self.attributor.snapshot()
        return state

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> int:
        attributor = self.attributor
        if attributor is not None:
            # book the interval since the last step to whatever this tile
            # was waiting on when it yielded (set at the end of step)
            attributor.advance(cycle)
        self.next_attention = NEVER
        # 1. internal fixed-latency completions due now
        cycles = self._calendar_cycles
        if cycles and cycles[0] <= cycle:
            pop = heapq.heappop
            calendar = self._calendar
            complete = self._complete
            while cycles and cycles[0] <= cycle:
                for seq in calendar.pop(pop(cycles)):
                    complete(seq, cycle)
        # 2. launch DBBs while the launch gate and resource limits allow
        # (the gate is §III-C branch speculation: launch immediately when
        # speculating correctly, else wait for the previous terminator)
        while self._next_dbb < self._num_blocks:
            term = self._last_terminator
            if not (term < self._window_base or self._spec_perfect
                    or (self._speculates and self._prediction_correct)
                    or self._r_state[term & self._mask] == _DONE):
                break
            # window-headroom gate hoisted out of _launch_dbb: when the
            # ROB is full (the common blocked case) we skip the call
            if self._next_seq >= self._window_base + self._rob_size:
                break
            if not self._launch_dbb(cycle):
                break
        # 3. issue ready instructions
        issue_saturated = self._issue(cycle) if self._ready else False

        if (self._next_dbb >= self._num_blocks
                and self._next_seq == self._window_base):
            self._finished = True
        stats = self.stats
        if cycle > stats.cycles:
            stats.cycles = cycle
        if attributor is not None:
            attributor.pending = self._classify_wait(cycle, issue_saturated)
        if self._finished:
            return NEVER
        nxt = NEVER
        if cycles:
            nxt = cycles[0]
        stall = self._launch_stall_until
        if stall > cycle and stall < nxt:
            nxt = stall
        if issue_saturated:
            # width exhausted with issuable work left: continue next cycle.
            # Everything else (window slide, FU/MAO release, launch gates)
            # changes only on completions, which wake the tile.
            due = cycle + self.period
            if due < nxt:
                nxt = due
        if nxt == NEVER:
            return NEVER
        return nxt if self.period == 1 else self.align(nxt)

    # -- cycle attribution (docs/observability.md taxonomy) ----------------
    def _classify_wait(self, cycle: int, issue_saturated: bool):
        """Decide what the interval until the next step belongs to.

        Returns a category string — or the window head's in-flight memory
        request, whose ``memory.<level>`` bucket is only known once the
        hierarchy's response arrives (the attributor banks the interval
        against the request and flushes it on completion).
        """
        if self._finished:
            return CAT_FRONTEND_IDLE
        if issue_saturated:
            # width-limited with issuable work: the base/issue component
            return CAT_COMPUTE
        if self._launch_stall_until > cycle:
            return CAT_MISPREDICT
        head = self._window_base
        if head == self._next_seq:
            # nothing in flight but the trace is not exhausted: the
            # frontend is between DBB launches
            return CAT_FRONTEND_IDLE
        slot = head & self._mask
        category = self._head_waits(
            self.ddg.nodes[self._r_iid[slot]],
            self.config)[self._r_state[slot] == _ISSUED]
        if category is None:
            # defer to the response's service level (no request: the
            # ideal path behind a None hierarchy)
            request = self._r_request[slot]
            return MEMORY_PREFIX + "ideal" if request is None else request
        return category

    #: predictor modes that speculate on correctly-predicted branches
    _PREDICTED_MODES = ("static", "twobit", "gshare")

    # -- DBB launching -----------------------------------------------------
    def _launch_dbb(self, cycle: int) -> bool:
        """Try to launch the next DBB from the trace; False if blocked on
        resource limits (window headroom, live-DBB limit, MAO space)."""
        next_seq = self._next_seq
        window_base = self._window_base
        if next_seq >= window_base + self._rob_size:
            return False
        index = self._next_dbb
        bid = self.trace.block_trace[index]
        limit = self._live_dbb_limit
        live_dbbs = self._live_dbbs
        if limit is not None and live_dbbs[bid] >= limit:
            return False
        mem_ops = self._block_mem_ops[bid]
        mao_incomplete = self._mao_incomplete
        if (mao_incomplete + mem_ops > self._lsq_size
                and mao_incomplete > 0):
            # Block on MAO space — except when the MAO is empty, in which
            # case a DBB with more memory ops than the LSQ must still make
            # progress (launched whole; issue order still serializes).
            return False

        if (self._speculates and not self._prediction_correct
                and self._mispredict_delay_cycles):
            # mispredicted: the whole DBB launches only after the
            # redirect penalty has elapsed past the terminator
            earliest = (self._last_terminator_done_at
                        + self._mispredict_delay_cycles)
            if cycle < earliest:
                self._launch_stall_until = earliest
                return False
            self.stats.mispredictions += 1
            if self.tracer is not None:
                self.tracer.instant("core", "mispredict", cycle,
                                    self.trace_tid)

        plan, terminator_iid, size = self._block_plans[bid]
        mask = self._mask
        self._d_remaining[index & mask] = size
        if self.tracer is not None:
            self._d_launched_at[index & mask] = cycle
        live_dbbs[bid] += 1
        self._live_total += 1
        stats = self.stats
        stats.dbbs_launched += 1
        if self._live_total > stats.max_live_dbbs:
            stats.max_live_dbbs = self._live_total

        prev_bid = self._prev_bid
        last_seq = self._last_seq
        r_iid = self._r_iid
        r_state = self._r_state
        r_pending = self._r_pending
        r_deps = self._r_deps
        r_dbb = self._r_dbb
        addr_cursor = self._addr_cursor
        addr_trace = self.trace.addr_trace
        ready = self._ready
        mao = self._mao
        push = heapq.heappush
        for iid, producers, phi_map, is_mem, ptr_iid, free in plan:
            seq = next_seq
            slot = seq & mask
            next_seq += 1
            r_iid[slot] = iid
            r_dbb[slot] = index
            r_state[slot] = _WAITING
            if phi_map is not None:
                producer = phi_map.get(prev_bid)
                producers = () if producer is None else (producer,)
            pending = 0
            for producer_iid in producers:
                # a stale window_base only under-approximates "retired":
                # the slot of any p >= it still holds p itself
                p = last_seq[producer_iid]
                if p >= window_base and r_state[p & mask] != _DONE:
                    waiters = r_deps[p & mask]
                    if waiters is None:
                        r_deps[p & mask] = [seq]
                    else:
                        waiters.append(seq)
                    pending += 1
            r_pending[slot] = pending
            last_seq[iid] = seq
            if is_mem:
                cursor = addr_cursor[iid]
                try:
                    self._r_addr[slot] = addr_trace[iid][cursor]
                except (IndexError, KeyError):
                    raise SimulationError(
                        f"{self.name}: the address trace ran out while "
                        f"launching DBB {index}") from None
                addr_cursor[iid] = cursor + 1
                self._r_addr_producer[slot] = (
                    last_seq[ptr_iid] if ptr_iid >= 0 else -1)
                mao.append(seq)
                self._mao_incomplete += 1
            if pending == 0:
                if free:
                    # phis and ISA-folded nodes are free: complete at once
                    self._next_seq = next_seq
                    self._complete(seq, cycle)
                else:
                    r_state[slot] = _READY
                    push(ready, seq)
        self._next_seq = next_seq

        # record launch gate state for the *next* DBB
        self._last_terminator = last_seq[terminator_iid]
        self._prev_bid = bid
        self._next_dbb += 1
        if self._speculates:
            self._prediction_correct = self._prediction_matches(
                self.ddg.blocks[bid])
        return True

    def _prediction_matches(self, block) -> bool:
        """Consult the configured predictor for the branch that ends
        ``block``; dynamic predictors also train on the actual outcome."""
        if self._next_dbb >= self._num_blocks:
            return True
        actual = self.trace.block_trace[self._next_dbb]
        successors = block.successor_bids
        if len(successors) <= 1:
            return True
        taken_actual = actual == successors[0]
        if self._dyn_predictor is not None:
            backward = successors[0] <= block.bid
            predicted_taken = self._dyn_predictor.predict(
                block.terminator_iid, backward)
            self._dyn_predictor.update(block.terminator_iid, taken_actual)
            return predicted_taken == taken_actual
        return self._static_target(block) == actual

    @staticmethod
    def _static_target(block) -> int:
        """Backward-taken / forward-not-taken prediction for ``block``."""
        successors = block.successor_bids
        backward_targets = [s for s in successors if s <= block.bid]
        return backward_targets[0] if backward_targets else successors[0]

    # -- issue ---------------------------------------------------------------
    def _issue(self, cycle: int) -> bool:
        """Issue up to ``issue_width`` ready instructions; returns True when
        the width was exhausted with issuable work remaining (so the tile
        must step again next cycle)."""
        budget = self._issue_width
        window_limit = self._window_base + self._rob_size
        mask = self._mask
        ready = self._ready
        retry = self._retry
        r_iid = self._r_iid
        r_state = self._r_state
        fu_used = self._fu_used
        fu_limits = self._fu_limits
        fu_by_iid = self._fu_by_iid
        checks_by_iid = self._issue_checks
        energy_by_iid = self._energy_by_iid
        tracer = self.tracer
        stats = self.stats
        pop = heapq.heappop
        push = heapq.heappush
        dispatch_kind = self._dispatch_kind
        latency_by_iid = self._latency_by_iid
        while budget > 0 and ready:
            seq = ready[0]
            if seq >= window_limit:
                break  # heap is seq-ordered: all others are younger
            pop(ready)
            slot = seq & mask
            iid = r_iid[slot]
            fu = fu_by_iid[iid]
            if fu >= 0 and fu_used[fu] >= fu_limits[fu]:
                retry.append(seq)
                continue
            checks = checks_by_iid[iid]
            if checks:
                if checks & _C_MEMORY and not self._mao_permits(seq):
                    stats.mao_stalls += 1
                    retry.append(seq)
                    continue
                if checks & _C_DECOUPLED and not self._reserve_load_slot():
                    # load queue full: back-pressure from the execute slice
                    retry.append(seq)
                    continue
                if checks & _C_BARRIER and seq != self._window_base:
                    # barriers are full fences: all older work must
                    # retire first
                    retry.append(seq)
                    continue
                if checks & _C_ACCEL and self._accel_inflight:
                    # accelerator invocations block through the device
                    # driver: a tile's calls serialize (their dataflow
                    # passes through memory, which the IR cannot order
                    # for us)
                    retry.append(seq)
                    continue
            # issue!
            budget -= 1
            r_state[slot] = _ISSUED
            if tracer is not None:
                self._r_issued_at[slot] = cycle
            if fu >= 0:
                fu_used[fu] += 1
            stats.energy_nj += energy_by_iid[iid]
            kind = dispatch_kind[iid]
            if kind == 0:
                # fixed-latency fast path (== _D_FIXED): the dominant
                # case, inlined past _dispatch/_schedule_completion
                due = cycle + latency_by_iid[iid]
                bucket = self._calendar.get(due)
                if bucket is None:
                    self._calendar[due] = [seq]
                    push(self._calendar_cycles, due)
                else:
                    bucket.append(seq)
            else:
                if kind <= _D_MEM_STOREBUF:
                    stats.memory_accesses += 1
                self._dispatch(seq, kind, cycle)
        saturated = (budget == 0 and bool(ready)
                     and ready[0] < window_limit)
        if retry:
            # structurally blocked nodes rejoin the pool; they become
            # issuable again only after a completion, which wakes the tile
            for seq in retry:
                push(ready, seq)
            self._retry = []
        return saturated

    def _reserve_load_slot(self) -> bool:
        """Reserve a DAE load-queue slot for a decoupled load."""
        return self.services.fabric.queue_try_reserve(
            self.dae_queue_names["load"], self.wake)

    def _dispatch(self, seq: int, kind: int, cycle: int) -> None:
        """Send an issued instruction on its way; memory ops were already
        counted by :meth:`_issue`."""
        if kind == _D_FIXED:
            self._schedule_completion(
                seq, cycle + self._latency_by_iid[self._r_iid[seq & self._mask]])
            return
        if kind == _D_MEM:
            slot = seq & self._mask
            size, is_write, is_atomic, penalty = \
                self._mem_args_by_iid[self._r_iid[slot]]
            if penalty:
                callback = _PenaltyComplete(self, seq, penalty)
            else:
                callback = _ExternalComplete(self, seq)
            request = self.services.mem_access(
                self.mem_port, self._r_addr[slot], size,
                is_write=is_write, is_atomic=is_atomic,
                cycle=cycle, callback=callback)
            if self.attributor is not None:
                self._r_request[slot] = request
            return
        if kind == _D_MEM_DECOUPLED or kind == _D_MEM_DECOUPLED_STORE:
            self._dispatch_desc(seq, kind, cycle)
            self._schedule_completion(seq, cycle + self.period)
            return
        if kind == _D_MEM_STOREBUF:
            # store buffer: retire at issue, request drains async
            slot = seq & self._mask
            self.services.mem_access(
                self.mem_port, self._r_addr[slot],
                self._mem_args_by_iid[self._r_iid[slot]][0],
                is_write=True, is_atomic=False, cycle=cycle,
                callback=_noop)
            self._schedule_completion(seq, cycle + self.period)
            return
        if kind == _D_CALL_FP:
            self._schedule_completion(seq, cycle + self._fp_long_latency)
            return
        if kind == _D_CALL_ACCEL:
            self._dispatch_accel(seq, cycle)
            return
        if kind == _D_CALL_COMM:
            self._dispatch_comm(seq, cycle)
            return
        # free intrinsics (tile_id/num_tiles) and anything else: 1 cycle
        self._schedule_completion(seq, cycle + self._call_latency)

    def _dispatch_desc(self, seq: int, kind: int, cycle: int) -> None:
        """The memory side of a DeSC access; the core retires it one
        cycle after issue whatever happens here."""
        slot = seq & self._mask
        address = self._r_addr[slot]
        size = self._mem_args_by_iid[self._r_iid[slot]][0]
        latency = self._comm_latency
        if kind == _D_MEM_DECOUPLED:
            # DeSC decoupled load: the response flows straight into the
            # pair's load queue; the core retires the load immediately
            self.services.mem_access(
                self.mem_port, address, size,
                is_write=False, is_atomic=False, cycle=cycle,
                callback=_QueueDeposit(self, self.dae_queue_names["load"],
                                       latency))
            return
        # DeSC store address/value buffers: retire now; the write fires
        # once the execute slice's value token arrives
        fire_write = _FireWrite(self, address, size)
        if self.services.fabric.queue_try_consume(
                self.dae_queue_names["store"], cycle,
                _ScheduleAtFloor(self, cycle + latency, fire_write)):
            self.services.schedule(cycle + latency, fire_write)

    def _dispatch_accel(self, seq: int, cycle: int) -> None:
        invocation = self.trace.accel_calls[self._accel_cursor]
        self._accel_cursor += 1
        stats = self.stats
        try:
            completion, energy, nbytes = self.services.accel_invoke(
                invocation, cycle)
        except AcceleratorFaultError:
            # graceful degradation: the core executes the trace slice
            # itself (functional results came from the interpreter, so
            # only timing/energy change); propagate if the farm has
            # fallback disabled
            stats.accel_faults += 1
            fallback = self.services.accel_fallback(invocation, cycle)
            if fallback is None:
                raise
            stats.accel_fallbacks += 1
            completion, energy, nbytes = fallback
        stats.accel_invocations += 1
        stats.accel_cycles += completion - cycle
        stats.accel_bytes += nbytes
        stats.energy_nj += energy
        self._accel_inflight += 1
        self.services.schedule(completion, _AccelFinish(self, seq))

    def _dispatch_comm(self, seq: int, cycle: int) -> None:
        iid = self._r_iid[seq & self._mask]
        name = self.ddg.nodes[iid].callee
        fabric = self.services.fabric
        latency = self._comm_latency
        if name == "barrier":
            generation = self._barrier_generation
            self._barrier_generation += 1
            if fabric.barrier_arrive(
                    self.barrier_group, self.barrier_group_size, generation,
                    cycle + latency,
                    _FloorComplete(self, seq, cycle + latency)):
                self._schedule_completion(seq, cycle + latency)
            return
        if name.startswith("send_"):
            peer = self._next_peer(iid)
            fabric.send(self.tile_id, peer, cycle + latency)
            self._schedule_completion(seq, cycle + latency)
            return
        if name.startswith("recv_"):
            peer = self._next_peer(iid)
            if fabric.try_recv(peer, self.tile_id, cycle,
                               _FloorComplete(self, seq, cycle + latency)):
                self._schedule_completion(seq, cycle + latency)
            return
        if name.startswith("dae_produce") or \
                name.startswith("dae_store_value"):
            queue = self.dae_queue_names[
                "load" if name.startswith("dae_produce") else "store"]
            self._try_produce(seq, queue, cycle, latency)
            return
        if name.startswith("dae_consume") or name.startswith("dae_store_take"):
            queue = self.dae_queue_names[
                "load" if name.startswith("dae_consume") else "store"]
            if fabric.queue_try_consume(
                    queue, cycle,
                    _FloorComplete(self, seq, cycle + latency)):
                self._schedule_completion(seq, cycle + latency)
            return
        raise ValueError(f"unknown comm intrinsic {name!r}")

    def _try_produce(self, seq: int, queue: str, cycle: int,
                     latency: int) -> None:
        if self.services.fabric.queue_try_produce(
                queue, cycle + latency,
                _RetryProduce(self, seq, queue, latency)):
            self._complete_later(seq, cycle + latency)

    def _next_peer(self, iid: int) -> int:
        cursor = self._comm_cursor[iid]
        self._comm_cursor[iid] = cursor + 1
        return self.trace.comm_trace[iid][cursor]

    # -- MAO (paper §II-A "Data Dependencies") -------------------------------
    def _mao_permits(self, seq: int) -> bool:
        """Loads: no incomplete older store with matching or unresolved
        address. Stores: same, against every older memory access. With
        perfect alias speculation (§III-C), only true same-address hazards
        block."""
        perfect = self._perfect_alias
        mask = self._mask
        r_state = self._r_state
        r_addr = self._r_addr
        r_addr_producer = self._r_addr_producer
        stores = self._store_by_iid
        r_iid = self._r_iid
        is_store = stores[r_iid[seq & mask]]
        line = r_addr[seq & mask] >> 3  # compare at 8-byte granularity
        base = self._window_base
        mao = self._mao
        # advance past the completed prefix once instead of re-skipping
        # it on every permit check (amortized O(1))
        start = self._mao_start
        end = len(mao)
        while start < end and (mao[start] < base
                               or r_state[mao[start] & mask] == _DONE):
            start += 1
        self._mao_start = start
        for index in range(start, end):
            other = mao[index]
            if other >= seq:
                break
            slot = other & mask
            if other < base or r_state[slot] == _DONE:
                continue
            if not is_store and not stores[r_iid[slot]]:
                continue  # load vs older load: no hazard
            if perfect:
                if (r_addr[slot] >> 3) == line:
                    return False
                continue
            producer = r_addr_producer[slot]
            if producer >= base and r_state[producer & mask] != _DONE:
                return False  # unresolved older address
            if (r_addr[slot] >> 3) == line:
                return False
        return True

    def _mao_compact(self) -> None:
        if len(self._mao) > self._mao_compact_limit:
            base = self._window_base
            mask = self._mask
            r_state = self._r_state
            self._mao = [seq for seq in self._mao
                         if seq >= base and r_state[seq & mask] != _DONE]
            self._mao_start = 0

    # -- completion ---------------------------------------------------------
    def _schedule_completion(self, seq: int, cycle: int) -> None:
        bucket = self._calendar.get(cycle)
        if bucket is None:
            self._calendar[cycle] = [seq]
            heapq.heappush(self._calendar_cycles, cycle)
        else:
            bucket.append(seq)

    def _external_complete(self, seq: int, cycle: int) -> None:
        """Completion driven by an external event (memory, comm, accel)."""
        self._complete(seq, cycle)
        self.wake(cycle)

    def _complete_later(self, seq: int, cycle: int) -> None:
        """Completion known now but effective at a future cycle: route it
        through the scheduler so effects apply in timestamp order."""
        self.services.schedule(cycle, _ExternalComplete(self, seq))

    def _complete(self, seq: int, cycle: int) -> None:
        mask = self._mask
        slot = seq & mask
        r_state = self._r_state
        iid = self._r_iid[slot]
        r_state[slot] = _DONE
        stats = self.stats
        if not self._free_by_iid[iid]:
            # phis and folded nodes are free and not counted (keeps
            # reported IPC below the issue width, as real commit would)
            stats.instructions += 1
            if self.tracer is not None:
                # every counted node passed _issue, so issued_at is set
                self.tracer.complete(
                    "core", self._span_by_iid[iid], self._r_issued_at[slot],
                    cycle, self.trace_tid)
        if cycle > stats.cycles:
            stats.cycles = cycle
        fu = self._fu_by_iid[iid]
        if fu >= 0:
            self._fu_used[fu] -= 1
        if self._memory_by_iid[iid]:
            self._mao_incomplete -= 1
            self._mao_compact()
            request = self._r_request[slot]
            if request is not None:
                # flush cycles banked against this in-flight access to its
                # now-known memory.<level> bucket
                self.attributor.resolve_memory(request)
                self._r_request[slot] = None
        # wake dependents (rule 2)
        dependents = self._r_deps[slot]
        if dependents is not None:
            self._r_deps[slot] = None
            free_by_iid = self._free_by_iid
            r_pending = self._r_pending
            r_iid = self._r_iid
            ready = self._ready
            push = heapq.heappush
            for dependent in dependents:
                dslot = dependent & mask
                left = r_pending[dslot] - 1
                r_pending[dslot] = left
                if left == 0 and r_state[dslot] == _WAITING:
                    if free_by_iid[r_iid[dslot]]:
                        self._complete(dependent, cycle)
                    else:
                        r_state[dslot] = _READY
                        push(ready, dependent)
        # slide the instruction window (§III-A "ROB") — only a completion
        # of the current head can unblock the slide (older slides already
        # removed every done prefix), so non-head completions skip it
        base = self._window_base
        if seq == base:
            end = self._next_seq
            while base < end and r_state[base & mask] == _DONE:
                base += 1
            self._window_base = base
        if seq == self._last_terminator:
            self._last_terminator_done_at = cycle
        # retire DBB bookkeeping
        index = self._r_dbb[slot]
        remaining = self._d_remaining[index & mask] - 1
        self._d_remaining[index & mask] = remaining
        if remaining == 0:
            bid = self.trace.block_trace[index]
            self._live_dbbs[bid] -= 1
            self._live_total -= 1
            if self.tracer is not None:
                self.tracer.complete(
                    "core", self._dbb_span_by_bid[bid],
                    self._d_launched_at[index & mask], cycle,
                    self.trace_tid, {"index": index})
        if (self._window_base == self._next_seq
                and self._next_dbb >= self._num_blocks):
            self._finished = True
