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
from typing import Callable, Dict, List, Optional, Tuple

from ...ir.instructions import OpClass, Opcode
from ...passes.ddg import DDGNode, StaticDDG
from ...telemetry.attribution import (
    CAT_ACCEL, CAT_BARRIER, CAT_COMPUTE, CAT_DAE_CONSUME, CAT_DAE_SUPPLY,
    CAT_FABRIC, CAT_FRONTEND_IDLE, CAT_MISPREDICT)
from ...trace.tracefile import KernelTrace
from ..config import CoreConfig
from ..errors import AcceleratorFaultError
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


class DynNode:
    """One dynamic instruction instance."""

    __slots__ = ("seq", "snode", "pending", "dependents", "state",
                 "address", "dbb", "addr_producer", "issued_at", "mem_req",
                 "is_store")

    def __init__(self, seq: int, snode: DDGNode, dbb: "DynDBB"):
        self.seq = seq
        self.snode = snode
        self.pending = 0
        self.dependents: List["DynNode"] = []
        self.state = _WAITING
        self.address = 0
        self.dbb = dbb
        #: dynamic producer of the address operand (memory ops only);
        #: the MAO treats the address as resolved once this completes
        self.addr_producer: "DynNode" = None
        #: in-flight memory request (set only while attribution is on;
        #: carries the service level that classifies the stall)
        self.mem_req = None
        # is_store is assigned at launch for memory ops only (the MAO
        # scan reads it without going through snode)

    @property
    def addr_resolved(self) -> bool:
        return self.addr_producer is None or self.addr_producer.completed

    @property
    def completed(self) -> bool:
        return self.state == _DONE


class DynDBB:
    """One dynamic basic block instance (paper Figure 3)."""

    __slots__ = ("index", "bid", "remaining", "launched_at")

    def __init__(self, index: int, bid: int, size: int):
        self.index = index       # position in the control-flow trace
        self.bid = bid
        self.remaining = size    # uncompleted instructions


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
    """Complete ``node`` at the callback cycle (memory-response path)."""

    __slots__ = ("tile", "node")

    def __init__(self, tile: "CoreTile", node: DynNode):
        self.tile = tile
        self.node = node

    def __call__(self, cycle: int) -> None:
        self.tile._external_complete(self.node, cycle)


class _PenaltyComplete:
    """Complete ``node`` a fixed penalty after the response (atomics)."""

    __slots__ = ("tile", "node", "penalty")

    def __init__(self, tile: "CoreTile", node: DynNode, penalty: int):
        self.tile = tile
        self.node = node
        self.penalty = penalty

    def __call__(self, cycle: int) -> None:
        self.tile._complete_later(self.node, cycle + self.penalty)


class _FloorComplete:
    """Complete ``node`` at the wakeup cycle, no earlier than ``floor``
    (fabric waits: barrier release, recv, DAE consume)."""

    __slots__ = ("tile", "node", "floor")

    def __init__(self, tile: "CoreTile", node: DynNode, floor: int):
        self.tile = tile
        self.node = node
        self.floor = floor

    def __call__(self, cycle: int) -> None:
        floor = self.floor
        self.tile._complete_later(self.node,
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
    """Release the device-driver serialization and complete ``node`` when
    an accelerator invocation returns."""

    __slots__ = ("tile", "node")

    def __init__(self, tile: "CoreTile", node: DynNode):
        self.tile = tile
        self.node = node

    def __call__(self, cycle: int) -> None:
        tile = self.tile
        tile._accel_inflight -= 1
        tile._external_complete(self.node, cycle)


class _RetryProduce:
    """Re-attempt a DAE produce once a consumer freed a slot."""

    __slots__ = ("tile", "node", "queue", "latency")

    def __init__(self, tile: "CoreTile", node: DynNode, queue: str,
                 latency: int):
        self.tile = tile
        self.node = node
        self.queue = queue
        self.latency = latency

    def __call__(self, cycle: int) -> None:
        tile = self.tile
        tile._try_produce(self.node, self.queue, cycle, self.latency)
        tile.wake(cycle)


class CoreTile(Tile):
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

        self._next_dbb = 0                     # cursor into block_trace
        self._num_blocks = len(trace.block_trace)
        self._next_seq = 0
        self._window_base = 0
        self._in_flight: Dict[int, DynNode] = {}
        self._ready: List[Tuple[int, DynNode]] = []
        self._retry: List[DynNode] = []
        self._last_dyn: Dict[int, DynNode] = {}
        self._accel_cursor = 0
        self._accel_inflight = 0
        self._fu_used: Dict[OpClass, int] = {}
        self._mao: List[DynNode] = []
        self._mao_start = 0           # completed-prefix skip index
        self._mao_incomplete = 0
        self._live_dbbs: Dict[int, int] = {}
        self._live_total = 0
        self._completions: List[Tuple[int, int, DynNode]] = []
        self._completion_seq = 0
        #: terminator of the most recently launched DBB
        self._last_terminator: Optional[DynNode] = None
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

        # -- hot-path tables, precomputed per static instruction ---------
        # (all immutable for the duration of the run: the DDG is final
        # once the slicing/ISA passes have run, and the config is fixed)
        latencies = config.latencies
        energies = config.energy_nj
        fu_counts = config.fu_counts
        nodes = ddg.nodes
        self._latency_by_iid = [
            latencies[n.opclass] * period for n in nodes]
        self._energy_by_iid = [energies[n.opclass] for n in nodes]
        self._fu_limit_by_iid = [
            fu_counts.get(n.opclass) for n in nodes]
        #: phis and ISA-folded nodes are free (complete with their parents,
        #: not counted as instructions)
        self._free_by_iid = [
            n.opclass is OpClass.PHI or n.folded for n in nodes]
        self._issue_checks = [self._issue_check_mask(n) for n in nodes]
        self._dispatch_kind = [
            self._dispatch_kind_of(n, config) for n in nodes]
        #: (size, is_write, is_atomic, completion penalty) for plain
        #: memory ops; None slots for everything else
        self._mem_args_by_iid = [
            (n.access_size or 8, n.is_store and not n.is_load,
             n.opcode is Opcode.ATOMICRMW,
             config.atomic_penalty * period
             if n.opcode is Opcode.ATOMICRMW else 0)
            if n.is_memory else None for n in nodes]
        #: per-block launch plan: one tuple per node with everything the
        #: launch loop needs (snode, iid, operand producers, phi map,
        #: memory/pointer/free/store flags), so launching is pure
        #: iteration instead of per-node attribute re-derivation
        self._block_plans = []
        for b in ddg.blocks:
            plan = []
            for iid in b.node_iids:
                n = nodes[iid]
                plan.append((
                    n, iid, n.operand_iids,
                    n.phi_incoming if n.opcode is Opcode.PHI else None,
                    n.is_memory, n.pointer_operand_iid,
                    n.opclass is OpClass.PHI or n.folded, n.is_store))
            self._block_plans.append(
                (plan, b.terminator_iid, len(b.node_iids)))
        #: trace span names per static instruction and per block
        self._span_by_iid = [n.opclass.name.lower() for n in nodes]
        self._dbb_span_by_bid = [f"dbb {bid}"
                                 for bid in range(len(ddg.blocks))]
        #: memory ops per block, for the MAO launch gate
        self._block_mem_ops = [
            sum(1 for iid in b.node_iids if nodes[iid].is_memory)
            for b in ddg.blocks]
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
    @property
    def done(self) -> bool:
        return self._finished

    def stall_state(self) -> dict:
        """What this core is waiting on (deadlock diagnostics)."""
        state = {
            "in_flight": len(self._in_flight),
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

    def _check_finished(self) -> None:
        if (self._next_dbb >= self._num_blocks
                and not self._in_flight):
            self._finished = True

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> int:
        attributor = self.attributor
        if attributor is not None:
            # book the interval since the last step to whatever this tile
            # was waiting on when it yielded (set at the end of step)
            attributor.advance(cycle)
        self.next_attention = NEVER
        # 1. internal fixed-latency completions due now
        completions = self._completions
        if completions and completions[0][0] <= cycle:
            pop = heapq.heappop
            complete = self._complete
            while completions and completions[0][0] <= cycle:
                complete(pop(completions)[2], cycle)
        # 2. launch DBBs while the launch gate and resource limits allow
        # (the gate is §III-C branch speculation: launch immediately when
        # speculating correctly, else wait for the previous terminator)
        while self._next_dbb < self._num_blocks:
            term = self._last_terminator
            if not (term is None or self._spec_perfect
                    or (self._speculates and self._prediction_correct)
                    or term.state == _DONE):
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
                and not self._in_flight):
            self._finished = True
        stats = self.stats
        if cycle > stats.cycles:
            stats.cycles = cycle
        if attributor is not None:
            attributor.pending = self._classify_wait(cycle, issue_saturated)
        if self._finished:
            return NEVER
        nxt = NEVER
        if completions:
            nxt = completions[0][0]
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

        Returns a category string — or the window-head DynNode itself for
        in-flight memory accesses, whose ``memory.<level>`` bucket is only
        known once the hierarchy's response arrives (the attributor banks
        the interval against the node and flushes it on completion).
        """
        if self._finished:
            return CAT_FRONTEND_IDLE
        if issue_saturated:
            # width-limited with issuable work: the base/issue component
            return CAT_COMPUTE
        if self._launch_stall_until > cycle:
            return CAT_MISPREDICT
        head = self._in_flight.get(self._window_base)
        if head is None:
            # nothing in flight but the trace is not exhausted: the
            # frontend is between DBB launches
            return CAT_FRONTEND_IDLE
        snode = head.snode
        if snode.is_memory:
            if head.state != _ISSUED:
                # ready but structurally blocked at the window head
                return CAT_DAE_SUPPLY if snode.decoupled else CAT_COMPUTE
            if snode.decoupled or snode.decoupled_store or (
                    snode.is_store and not snode.is_load
                    and self.config.store_buffer):
                # retires next cycle (queue deposit / store buffer)
                return CAT_COMPUTE
            return head  # defer to the response's service level
        if snode.opcode is Opcode.CALL:
            timing = snode.intrinsic_timing
            if timing == "accel":
                return CAT_ACCEL
            if timing == "comm":
                callee = snode.callee
                if callee == "barrier":
                    return CAT_BARRIER
                if callee.startswith(("dae_produce", "dae_store_value")):
                    return CAT_DAE_SUPPLY
                if callee.startswith(("dae_consume", "dae_store_take")):
                    return CAT_DAE_CONSUME
                return CAT_FABRIC
        return CAT_COMPUTE

    #: predictor modes that speculate on correctly-predicted branches
    _PREDICTED_MODES = ("static", "twobit", "gshare")

    # -- DBB launching -----------------------------------------------------
    def _launch_allowed(self) -> bool:
        """Branch-speculation gate (paper §III-C); kept for
        introspection — ``step`` inlines the same condition."""
        term = self._last_terminator
        return (term is None or self._spec_perfect
                or (self._speculates and self._prediction_correct)
                or term.state == _DONE)

    def _launch_dbb(self, cycle: int) -> bool:
        """Try to launch the next DBB from the trace; False if blocked on
        resource limits (window headroom, live-DBB limit, MAO space)."""
        next_seq = self._next_seq
        if next_seq >= self._window_base + self._rob_size:
            return False
        bid = self.trace.block_trace[self._next_dbb]
        limit = self._live_dbb_limit
        live_dbbs = self._live_dbbs
        if limit is not None and live_dbbs.get(bid, 0) >= limit:
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
        dbb = DynDBB(self._next_dbb, bid, size)
        if self.tracer is not None:
            # slot assigned only while tracing; reads guard the same way
            dbb.launched_at = cycle
        live_dbbs[bid] = live_dbbs.get(bid, 0) + 1
        self._live_total += 1
        stats = self.stats
        stats.dbbs_launched += 1
        if self._live_total > stats.max_live_dbbs:
            stats.max_live_dbbs = self._live_total

        prev_bid = self._prev_bid
        last_dyn = self._last_dyn
        in_flight = self._in_flight
        addr_cursor = self._addr_cursor
        addr_trace = self.trace.addr_trace
        ready = self._ready
        mao = self._mao
        push = heapq.heappush
        for snode, iid, producers, phi_map, is_mem, ptr_iid, free, \
                is_store in plan:
            dyn = DynNode(next_seq, snode, dbb)
            in_flight[next_seq] = dyn
            next_seq += 1
            if phi_map is not None:
                producer = phi_map.get(prev_bid)
                producers = () if producer is None else (producer,)
            pending = 0
            for producer_iid in producers:
                last = last_dyn.get(producer_iid)
                if last is not None and last.state != _DONE:
                    last.dependents.append(dyn)
                    pending += 1
            dyn.pending = pending
            last_dyn[iid] = dyn
            if is_mem:
                cursor = addr_cursor[iid]
                dyn.address = addr_trace[iid][cursor]
                addr_cursor[iid] = cursor + 1
                dyn.is_store = is_store
                if ptr_iid is not None:
                    producer = last_dyn.get(ptr_iid)
                    if producer is not None and producer.state != _DONE:
                        dyn.addr_producer = producer
                mao.append(dyn)
                self._mao_incomplete += 1
            if pending == 0:
                if free:
                    # phis and ISA-folded nodes are free: complete at once
                    self._next_seq = next_seq
                    self._complete(dyn, cycle)
                    next_seq = self._next_seq
                else:
                    dyn.state = _READY
                    push(ready, (dyn.seq, dyn))
        self._next_seq = next_seq

        # record launch gate state for the *next* DBB
        self._last_terminator = last_dyn[terminator_iid]
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
        # static: backward-taken / forward-not-taken
        backward_targets = [s for s in successors if s <= block.bid]
        predicted = backward_targets[0] if backward_targets \
            else successors[0]
        return predicted == actual

    # -- issue ---------------------------------------------------------------
    def _issue(self, cycle: int) -> bool:
        """Issue up to ``issue_width`` ready instructions; returns True when
        the width was exhausted with issuable work remaining (so the tile
        must step again next cycle)."""
        budget = self._issue_width
        window_limit = self._window_base + self._rob_size
        ready = self._ready
        retry = self._retry
        fu_used = self._fu_used
        fu_limits = self._fu_limit_by_iid
        checks_by_iid = self._issue_checks
        energy_by_iid = self._energy_by_iid
        tracer = self.tracer
        stats = self.stats
        pop = heapq.heappop
        push = heapq.heappush
        dispatch_kind = self._dispatch_kind
        latency_by_iid = self._latency_by_iid
        completions = self._completions
        completion_seq = self._completion_seq
        while budget > 0 and ready:
            seq, node = ready[0]
            if seq >= window_limit:
                break  # heap is seq-ordered: all others are younger
            pop(ready)
            snode = node.snode
            iid = snode.iid
            fu_limit = fu_limits[iid]
            if fu_limit is not None and \
                    fu_used.get(snode.opclass, 0) >= fu_limit:
                retry.append(node)
                continue
            checks = checks_by_iid[iid]
            if checks:
                if checks & _C_MEMORY and not self._mao_permits(node):
                    stats.mao_stalls += 1
                    retry.append(node)
                    continue
                if checks & _C_DECOUPLED and \
                        not self.services.fabric.queue_try_reserve(
                            self.dae_queue_names["load"], self.wake):
                    # load queue full: back-pressure from the execute slice
                    retry.append(node)
                    continue
                if checks & _C_BARRIER and seq != self._window_base:
                    # barriers are full fences: all older work must
                    # retire first
                    retry.append(node)
                    continue
                if checks & _C_ACCEL and self._accel_inflight:
                    # accelerator invocations block through the device
                    # driver: a tile's calls serialize (their dataflow
                    # passes through memory, which the IR cannot order
                    # for us)
                    retry.append(node)
                    continue
            # issue!
            budget -= 1
            node.state = _ISSUED
            if tracer is not None:
                node.issued_at = cycle
            if fu_limit is not None:
                fu_used[snode.opclass] = \
                    fu_used.get(snode.opclass, 0) + 1
            stats.energy_nj += energy_by_iid[iid]
            if dispatch_kind[iid] == 0:
                # fixed-latency fast path (== _D_FIXED): the dominant
                # case, inlined past _dispatch/_schedule_completion
                push(completions,
                     (cycle + latency_by_iid[iid], completion_seq, node))
                completion_seq += 1
            else:
                self._completion_seq = completion_seq
                self._dispatch(node, cycle)
                completion_seq = self._completion_seq
        self._completion_seq = completion_seq
        saturated = (budget == 0 and bool(ready)
                     and ready[0][0] < window_limit)
        if retry:
            # structurally blocked nodes rejoin the pool; they become
            # issuable again only after a completion, which wakes the tile
            for node in retry:
                push(ready, (node.seq, node))
            self._retry = []
        return saturated

    def _dispatch(self, node: DynNode, cycle: int) -> None:
        snode = node.snode
        iid = snode.iid
        kind = self._dispatch_kind[iid]
        if kind == _D_FIXED:
            self._schedule_completion(
                node, cycle + self._latency_by_iid[iid])
            return
        if kind == _D_MEM:
            self.stats.memory_accesses += 1
            size, is_write, is_atomic, penalty = self._mem_args_by_iid[iid]
            if penalty:
                callback = _PenaltyComplete(self, node, penalty)
            else:
                callback = _ExternalComplete(self, node)
            request = self.services.mem_access(
                self.mem_port, node.address, size,
                is_write=is_write, is_atomic=is_atomic,
                cycle=cycle, callback=callback)
            if self.attributor is not None:
                node.mem_req = request
            return
        if kind == _D_MEM_DECOUPLED:
            # DeSC decoupled load: the response flows straight into the
            # pair's load queue; the core retires the load immediately
            self.stats.memory_accesses += 1
            queue = self.dae_queue_names["load"]
            latency = self._comm_latency
            self.services.mem_access(
                self.mem_port, node.address, snode.access_size or 8,
                is_write=False, is_atomic=False, cycle=cycle,
                callback=_QueueDeposit(self, queue, latency))
            self._schedule_completion(node, cycle + self.period)
            return
        if kind == _D_MEM_DECOUPLED_STORE:
            # DeSC store address/value buffers: retire now; the write
            # fires once the execute slice's value token arrives
            self.stats.memory_accesses += 1
            queue = self.dae_queue_names["store"]
            latency = self._comm_latency
            fire_write = _FireWrite(self, node.address,
                                    snode.access_size or 8)
            if self.services.fabric.queue_try_consume(
                    queue, cycle,
                    _ScheduleAtFloor(self, cycle + latency, fire_write)):
                self.services.schedule(cycle + latency, fire_write)
            self._schedule_completion(node, cycle + self.period)
            return
        if kind == _D_MEM_STOREBUF:
            # store buffer: retire at issue, request drains async
            self.stats.memory_accesses += 1
            self.services.mem_access(
                self.mem_port, node.address, snode.access_size or 8,
                is_write=True, is_atomic=False, cycle=cycle,
                callback=_noop)
            self._schedule_completion(node, cycle + self.period)
            return
        if kind == _D_CALL_FP:
            self._schedule_completion(node, cycle + self._fp_long_latency)
            return
        if kind == _D_CALL_ACCEL:
            self._dispatch_accel(node, cycle)
            return
        if kind == _D_CALL_COMM:
            self._dispatch_comm(node, cycle)
            return
        # free intrinsics (tile_id/num_tiles) and anything else: 1 cycle
        self._schedule_completion(node, cycle + self._call_latency)

    def _dispatch_accel(self, node: DynNode, cycle: int) -> None:
        invocation = self.trace.accel_calls[self._accel_cursor]
        self._accel_cursor += 1
        try:
            completion, energy, nbytes = self.services.accel_invoke(
                invocation, cycle)
        except AcceleratorFaultError:
            # graceful degradation: the core executes the trace slice
            # itself (functional results came from the interpreter, so
            # only timing/energy change); propagate if the farm has
            # fallback disabled
            self.stats.accel_faults += 1
            fallback = self.services.accel_fallback(invocation, cycle)
            if fallback is None:
                raise
            self.stats.accel_fallbacks += 1
            completion, energy, nbytes = fallback
        self.stats.accel_invocations += 1
        self.stats.accel_cycles += completion - cycle
        self.stats.accel_bytes += nbytes
        self.stats.energy_nj += energy
        self._accel_inflight += 1
        self.services.schedule(completion, _AccelFinish(self, node))

    def _dispatch_comm(self, node: DynNode, cycle: int) -> None:
        name = node.snode.callee
        fabric = self.services.fabric
        latency = self._comm_latency
        if name == "barrier":
            generation = self._barrier_generation
            self._barrier_generation += 1
            if fabric.barrier_arrive(
                    self.barrier_group, self.barrier_group_size, generation,
                    cycle + latency,
                    _FloorComplete(self, node, cycle + latency)):
                self._schedule_completion(node, cycle + latency)
            return
        if name.startswith("send_"):
            peer = self._next_peer(node)
            fabric.send(self.tile_id, peer, cycle + latency)
            self._schedule_completion(node, cycle + latency)
            return
        if name.startswith("recv_"):
            peer = self._next_peer(node)
            if fabric.try_recv(peer, self.tile_id, cycle,
                               _FloorComplete(self, node, cycle + latency)):
                self._schedule_completion(node, cycle + latency)
            return
        if name.startswith("dae_produce") or \
                name.startswith("dae_store_value"):
            queue = self.dae_queue_names[
                "load" if name.startswith("dae_produce") else "store"]
            self._try_produce(node, queue, cycle, latency)
            return
        if name.startswith("dae_consume") or name.startswith("dae_store_take"):
            queue = self.dae_queue_names[
                "load" if name.startswith("dae_consume") else "store"]
            if fabric.queue_try_consume(
                    queue, cycle,
                    _FloorComplete(self, node, cycle + latency)):
                self._schedule_completion(node, cycle + latency)
            return
        raise ValueError(f"unknown comm intrinsic {name!r}")

    def _try_produce(self, node: DynNode, queue: str, cycle: int,
                     latency: int) -> None:
        if self.services.fabric.queue_try_produce(
                queue, cycle + latency,
                _RetryProduce(self, node, queue, latency)):
            self._complete_later(node, cycle + latency)

    def _next_peer(self, node: DynNode) -> int:
        iid = node.snode.iid
        cursor = self._comm_cursor[iid]
        self._comm_cursor[iid] = cursor + 1
        return self.trace.comm_trace[iid][cursor]

    # -- MAO (paper §II-A "Data Dependencies") -------------------------------
    def _mao_permits(self, node: DynNode) -> bool:
        """Loads: no incomplete older store with matching or unresolved
        address. Stores: same, against every older memory access. With
        perfect alias speculation (§III-C), only true same-address hazards
        block."""
        perfect = self._perfect_alias
        is_store = node.is_store
        node_seq = node.seq
        line = node.address >> 3  # compare at 8-byte granularity
        mao = self._mao
        # advance past the completed prefix once instead of re-skipping
        # it on every permit check (amortized O(1))
        start = self._mao_start
        end = len(mao)
        while start < end and mao[start].state == _DONE:
            start += 1
        self._mao_start = start
        for index in range(start, end):
            other = mao[index]
            if other.seq >= node_seq:
                break
            if other.state == _DONE:
                continue
            if not is_store and not other.is_store:
                continue  # load vs older load: no hazard
            if perfect:
                if (other.address >> 3) == line:
                    return False
                continue
            producer = other.addr_producer
            if producer is not None and producer.state != _DONE:
                return False  # unresolved older address
            if (other.address >> 3) == line:
                return False
        return True

    def _mao_compact(self) -> None:
        if len(self._mao) > self._mao_compact_limit:
            self._mao = [n for n in self._mao if n.state != _DONE]
            self._mao_start = 0

    # -- completion ---------------------------------------------------------
    def _schedule_completion(self, node: DynNode, cycle: int) -> None:
        heapq.heappush(self._completions,
                       (cycle, self._completion_seq, node))
        self._completion_seq += 1

    def _external_complete(self, node: DynNode, cycle: int) -> None:
        """Completion driven by an external event (memory, comm, accel)."""
        self._complete(node, cycle)
        self.wake(cycle)

    def _complete_later(self, node: DynNode, cycle: int) -> None:
        """Completion known now but effective at a future cycle: route it
        through the scheduler so effects apply in timestamp order."""
        self.services.schedule(cycle, _ExternalComplete(self, node))

    def _complete(self, node: DynNode, cycle: int) -> None:
        snode = node.snode
        iid = snode.iid
        node.state = _DONE
        stats = self.stats
        if not self._free_by_iid[iid]:
            # phis and folded nodes are free and not counted (keeps
            # reported IPC below the issue width, as real commit would)
            stats.instructions += 1
            if self.tracer is not None:
                # every counted node passed _issue, so issued_at is set
                self.tracer.complete(
                    "core", self._span_by_iid[iid], node.issued_at,
                    cycle, self.trace_tid)
        if cycle > stats.cycles:
            stats.cycles = cycle
        if self._fu_limit_by_iid[iid] is not None:
            self._fu_used[snode.opclass] -= 1
        if snode.is_memory:
            self._mao_incomplete -= 1
            self._mao_compact()
            if self.attributor is not None:
                # flush cycles banked against this in-flight access to its
                # now-known memory.<level> bucket
                self.attributor.resolve_memory(node)
                node.mem_req = None
        # wake dependents (rule 2)
        dependents = node.dependents
        if dependents:
            free_by_iid = self._free_by_iid
            ready = self._ready
            push = heapq.heappush
            for dependent in dependents:
                dependent.pending -= 1
                if dependent.pending == 0 and dependent.state == _WAITING:
                    if free_by_iid[dependent.snode.iid]:
                        self._complete(dependent, cycle)
                    else:
                        dependent.state = _READY
                        push(ready, (dependent.seq, dependent))
            node.dependents = []
        # slide the instruction window (§III-A "ROB") — only a completion
        # of the current head can unblock the slide (older slides already
        # removed every done prefix), so non-head completions skip it
        in_flight = self._in_flight
        base = self._window_base
        if node.seq == base:
            head = node
            while head is not None and head.state == _DONE:
                del in_flight[base]
                base += 1
                head = in_flight.get(base)
            self._window_base = base
        if node is self._last_terminator:
            self._last_terminator_done_at = cycle
        # retire DBB bookkeeping
        dbb = node.dbb
        dbb.remaining -= 1
        if dbb.remaining == 0:
            self._live_dbbs[dbb.bid] -= 1
            self._live_total -= 1
            if self.tracer is not None:
                self.tracer.complete(
                    "core", self._dbb_span_by_bid[dbb.bid],
                    dbb.launched_at, cycle, self.trace_tid,
                    {"index": dbb.index})
        if not in_flight and self._next_dbb >= self._num_blocks:
            self._finished = True
