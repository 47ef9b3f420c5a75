"""Functional IR interpreter — the Dynamic Trace Generator (paper §II-A).

The paper instruments an x86 binary and runs it natively to record (1) the
taken control-flow path and (2) the address stream of every memory
instruction. Here the equivalent native run is a functional interpretation
of the mini-IR over :class:`~repro.trace.memory.SimMemory`; the interpreter
produces the same two trace artifacts (plus accelerator-invocation
parameters) as :class:`~repro.trace.tracefile.KernelTrace` objects.

SPMD execution (paper §II-B): :meth:`Interpreter.run_spmd` executes the
kernel once per tile, binding ``tile_id()``/``num_tiles()`` per instance,
over a shared address space — standing in for the OpenMP native run.
Tiles execute sequentially, which yields one valid interleaving of the
parallel program, exactly as a native run yields one particular schedule.

This module is the reference semantics and the fallback. Wherever
``gcc`` is on PATH, :func:`~repro.trace.native.start` runs each kernel
instance it can on ``interp.c``, a bytecode interpreter over the same
block plans, with identical traces, memory images and errors; the
generator below runs the rest (fault injection, ``alloca``, comm, DAE
and accelerator calls; see ``native.py``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.function import Function, Module
from ..ir.instructions import CallInst, CastInst, Opcode
from ..ir.values import Constant
from .accel_ops import apply_accelerator
from .memory import ArrayRef, SimMemory
from .tracefile import AccelInvocation, KernelTrace


class InterpreterError(Exception):
    pass


class StepLimitExceeded(InterpreterError):
    """The kernel ran past the dynamic instruction budget (likely stuck)."""


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U64_MASK = (1 << 64) - 1


def _wrap(value: int) -> int:
    """Two's-complement 64-bit wrapping (LLVM add/sub/mul/shl semantics).

    The fast path covers in-range values; only overflowing results pay
    for the mask.
    """
    if _I64_MIN <= value <= _I64_MAX:
        return value
    value &= _U64_MASK
    return value - (1 << 64) if value > _I64_MAX else value


def _trunc_quotient(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_div(a: int, b: int) -> int:
    # -2**63 / -1 wraps to -2**63, as LLVM's i64 sdiv does
    return _wrap(_trunc_quotient(a, b))


def _trunc_rem(a: int, b: int) -> int:
    return a - b * _trunc_quotient(a, b)


_ICMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
}

_FCMP = {
    "oeq": lambda a, b: a == b, "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
}

_MATH = {
    "sqrtf": math.sqrt, "expf": math.exp, "logf": math.log,
    "sinf": math.sin, "cosf": math.cos, "fabsf": abs,
    "floorf": lambda x: float(math.floor(x)),
    "rsqrtf": lambda x: 1.0 / math.sqrt(x),
}

_BINOPS = {
    # integer add/sub/mul/shl wrap at 64 bits; note floats share ADD/SUB/
    # MUL opcodes only through FADD etc., so wrapping never touches them
    Opcode.ADD: lambda a, b: _wrap(a + b),
    Opcode.SUB: lambda a, b: _wrap(a - b),
    Opcode.MUL: lambda a, b: _wrap(a * b),
    Opcode.SDIV: _trunc_div,
    Opcode.SREM: _trunc_rem,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: _wrap(a << (b & 63)),
    Opcode.LSHR: lambda a, b: _wrap((a & _U64_MASK) >> (b & 63)),
    Opcode.ASHR: lambda a, b: a >> (b & 63),
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b,
}

_ATOMIC = {
    "add": lambda old, v: _wrap(old + v) if isinstance(old, int) else
    old + v,
    "sub": lambda old, v: _wrap(old - v) if isinstance(old, int) else
    old - v,
    "min": min,
    "max": max,
    "xchg": lambda old, v: v,
}


class _BlockPlan:
    """A precompiled basic block: phi assignments plus step tuples."""

    __slots__ = ("bid", "name", "num_insts", "insts", "phis", "steps")

    def __init__(self, bid: int, name: str, insts: list):
        self.bid = bid
        self.name = name
        self.num_insts = len(insts)
        #: the block's instructions: its phis, then one per step
        self.insts = insts
        #: (dest_env_key, {id(pred_plan): operand slot})
        self.phis: list = []
        self.steps: list = []


def _slot(value):
    """Precompiled operand: (True, constant) or (False, env key)."""
    if isinstance(value, Constant):
        return (True, value.value)
    return (False, id(value))


def _cast_fn(inst: "CastInst"):
    """Per-instruction cast closure (semantics of the old _cast)."""
    opcode = inst.opcode
    if opcode in (Opcode.SEXT, Opcode.ZEXT, Opcode.BITCAST):
        if inst.type.is_integer:
            return int
        return lambda v: v
    if opcode is Opcode.TRUNC:
        bits = inst.type.bits
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        wrap = 1 << bits

        def trunc(value):
            raw = int(value) & mask
            if raw >= sign and bits > 1:
                raw -= wrap
            return raw

        return trunc
    if opcode is Opcode.SITOFP:
        return float
    if opcode is Opcode.FPTOSI:
        # out-of-range conversions wrap like every other i64 result
        return lambda v: _wrap(int(v))
    if opcode in (Opcode.FPEXT, Opcode.FPTRUNC):
        return float
    raise InterpreterError(f"cannot interpret cast {opcode.value}")


class Interpreter:
    """Executes mini-IR kernels functionally and records dynamic traces."""

    def __init__(self, module: Module, memory: Optional[SimMemory] = None,
                 step_limit: int = 200_000_000):
        self.module = module
        self.memory = memory if memory is not None else SimMemory()
        self.step_limit = step_limit
        #: message channels: (src_tile, dst_tile) -> FIFO
        self.channels: Dict[Tuple[int, int], deque] = {}
        #: DAE queues per pair index: load queue and store-value queue
        self.dae_load_q: Dict[int, deque] = {}
        self.dae_store_q: Dict[int, deque] = {}
        self._dae_pops = 0
        #: communication progress counter (sends, recvs, queue pushes/pops)
        #: used by the co-operative schedulers to detect deadlock
        self._progress = 0
        #: set by run_dae_pair so both slices of a pair share one queue
        self._dae_pair_override: int = None
        #: per-function execution plans (precompiled blocks), keyed
        #: id(function) -> (entry_plan, plans_by_block_id)
        self._plans: Dict[int, tuple] = {}
        #: the same plans encoded for interp.c (None: Python runs them)
        self._programs: Dict[int, object] = {}

    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Sequence, *, tile: int = 0,
            num_tiles: int = 1, collect_trace: bool = True) -> KernelTrace:
        """Execute one kernel instance; returns its dynamic trace.

        ``args`` items may be numbers or :class:`ArrayRef` handles (which
        are passed as their base address). ``barrier()`` calls are no-ops
        for a single instance.
        """
        trace, gen = self._start(func_name, args, tile, num_tiles,
                                 collect_trace)
        while True:
            try:
                reason = next(gen)
            except StopIteration as stop:
                trace.return_value = stop.value
                return trace
            if reason != "barrier":
                raise InterpreterError(
                    f"{func_name} blocked on {reason} with no peer tile "
                    f"(empty channel or queue)")

    def run_spmd(self, func_name: str, args: Sequence,
                 num_tiles: int) -> List[KernelTrace]:
        """Run the kernel once per tile over the shared address space.

        Tiles execute co-operatively: each runs until its next ``barrier()``
        (or completion); when every still-running tile has arrived, all are
        released — the OpenMP-barrier semantics of the paper's SPMD model.
        Tiles blocked on an empty channel (``recv_*``) or DAE queue simply
        yield to their peers and retry. Between switch points, tiles run
        uninterrupted in tile order — one valid interleaving of the
        parallel program.
        """
        traces: List[KernelTrace] = []
        RUNNING, AT_BARRIER, BLOCKED, DONE = 0, 1, 2, 3
        tiles = []
        for t in range(num_tiles):
            trace, gen = self._start(func_name, args, t, num_tiles, True)
            traces.append(trace)
            tiles.append([RUNNING, trace, gen])
        while any(entry[0] != DONE for entry in tiles):
            runnable = [e for e in tiles if e[0] in (RUNNING, BLOCKED)]
            all_were_blocked = bool(runnable) and \
                all(e[0] == BLOCKED for e in runnable)
            progress_before = self._progress
            finished_this_round = False
            for entry in runnable:
                try:
                    reason = next(entry[2])
                except StopIteration as stop:
                    entry[1].return_value = stop.value
                    entry[0] = DONE
                    finished_this_round = True
                    continue
                entry[0] = AT_BARRIER if reason == "barrier" else BLOCKED
            live = [e for e in tiles if e[0] != DONE]
            if live and all(e[0] == AT_BARRIER for e in live):
                for entry in live:
                    entry[0] = RUNNING  # barrier releases
                continue
            stuck = (all_were_blocked
                     and self._progress == progress_before
                     and not finished_this_round
                     and not any(e[0] == AT_BARRIER for e in runnable))
            if stuck:
                raise InterpreterError(
                    f"SPMD deadlock in {func_name}: tiles blocked on empty "
                    f"channels/queues (or waiting at a barrier that cannot "
                    f"release)")
        return traces

    def _start(self, func_name: str, args: Sequence, tile: int,
               num_tiles: int, collect: bool):
        func = self.module.get_function(func_name)
        if len(args) != len(func.args):
            raise InterpreterError(
                f"{func_name} expects {len(func.args)} args, got {len(args)}")
        bound = [a.base if isinstance(a, ArrayRef) else a for a in args]
        trace = KernelTrace(func_name, tile=tile, num_tiles=num_tiles)
        from . import native  # imported here: native imports this module
        entry, plans, _ = self._plans.get(id(func)) or \
            self._build_plans(func)
        run = native.start(self, func, entry, plans, bound, tile,
                           num_tiles, trace, collect)
        if run is None:
            run = self._exec(func, entry, bound, tile, num_tiles, trace,
                             collect)
        return trace, run

    # ------------------------------------------------------------------
    def _exec(self, func: Function, entry_plan: _BlockPlan, args: Sequence,
              tile: int, num_tiles: int, trace: KernelTrace,
              collect: bool):
        """Generator executing ``func`` from its entry block's plan.

        Each block is compiled once (per interpreter) into a list of step
        tuples with pre-resolved handlers and operand slots; execution is
        then a tight dispatch loop. Semantics — including trace contents,
        step accounting, and co-operative yield points — are identical to
        the direct tree-walking interpreter this replaces.
        """
        env: Dict[int, object] = {}
        for formal, actual in zip(func.args, args):
            env[id(formal)] = actual

        memory = self.memory
        steps = 0
        limit = self.step_limit
        plan = entry_plan
        prev_plan_id = None
        record_block = trace.record_block
        record_address = trace.record_address

        while True:
            if collect:
                record_block(plan.bid)
            phis = plan.phis
            if phis:
                staged = [
                    (payload if is_const else env[payload])
                    for _, incoming in phis
                    for is_const, payload in (incoming[prev_plan_id],)
                ]
                for (dest, _), value in zip(phis, staged):
                    env[dest] = value
            steps += plan.num_insts
            if steps > limit:
                raise StepLimitExceeded(
                    f"{func.name} exceeded {limit} dynamic instructions")

            next_plan = None
            for step in plan.steps:
                kind = step[0]
                if kind == 0:        # binary op
                    _, dest, fn, op0, op1 = step
                    a = op0[1] if op0[0] else env[op0[1]]
                    b = op1[1] if op1[0] else env[op1[1]]
                    env[dest] = fn(a, b)
                elif kind == 1:      # getelementptr
                    _, dest, op0, op1, size = step
                    base = op0[1] if op0[0] else env[op0[1]]
                    index = op1[1] if op1[0] else env[op1[1]]
                    env[dest] = base + index * size
                elif kind == 2:      # load
                    _, dest, op0, iid, ty = step
                    address = op0[1] if op0[0] else env[op0[1]]
                    if collect:
                        record_address(iid, address)
                    env[dest] = memory.load(address, ty)
                elif kind == 3:      # store
                    _, opv, opp, iid = step
                    address = opp[1] if opp[0] else env[opp[1]]
                    if collect:
                        record_address(iid, address)
                    memory.store(address,
                                 opv[1] if opv[0] else env[opv[1]])
                elif kind == 4:      # icmp
                    _, dest, fn, op0, op1 = step
                    a = op0[1] if op0[0] else env[op0[1]]
                    b = op1[1] if op1[0] else env[op1[1]]
                    env[dest] = int(fn(a, b))
                elif kind == 5:      # fcmp (ordered: False on NaN)
                    _, dest, fn, op0, op1 = step
                    a = op0[1] if op0[0] else env[op0[1]]
                    b = op1[1] if op1[0] else env[op1[1]]
                    if math.isnan(a) or math.isnan(b):
                        env[dest] = 0
                    else:
                        env[dest] = int(fn(a, b))
                elif kind == 6:      # conditional branch
                    _, opc, if_true, if_false = step
                    taken = opc[1] if opc[0] else env[opc[1]]
                    next_plan = if_true if taken else if_false
                    break
                elif kind == 7:      # unconditional branch
                    next_plan = step[1]
                    break
                elif kind == 8:      # ret
                    trace.dynamic_instructions = steps
                    op = step[1]
                    if op is None:
                        return None
                    return op[1] if op[0] else env[op[1]]
                elif kind == 9:      # select
                    _, dest, opc, opt, opf = step
                    cond = opc[1] if opc[0] else env[opc[1]]
                    chosen = opt if cond else opf
                    env[dest] = chosen[1] if chosen[0] else env[chosen[1]]
                elif kind == 10:     # cast
                    _, dest, fn, op0 = step
                    env[dest] = fn(op0[1] if op0[0] else env[op0[1]])
                elif kind == 11:     # atomicrmw
                    _, dest, fn, opp, opv, iid, ty = step
                    address = opp[1] if opp[0] else env[opp[1]]
                    if collect:
                        record_address(iid, address)
                    old = memory.load(address, ty)
                    memory.store(address,
                                 fn(old, opv[1] if opv[0] else env[opv[1]]))
                    env[dest] = old
                elif kind == 12:     # barrier: co-operative switch (SPMD)
                    yield "barrier"
                    env[step[1]] = None
                elif kind == 13:     # recv_*: blocking pop from a channel
                    _, dest, op0, iid = step
                    src = int(op0[1] if op0[0] else env[op0[1]])
                    if collect:
                        trace.record_peer(iid, src)
                    key = (src, tile)
                    while True:
                        queue = self.channels.get(key)
                        if queue:
                            break
                        yield "recv_wait"
                    env[dest] = queue.popleft()
                    self._progress += 1
                elif kind == 14:     # dae_consume / dae_store_take
                    _, dest, callee = step
                    while True:
                        ok, value = self._dae_try_pop(callee, tile,
                                                      num_tiles)
                        if ok:
                            break
                        yield "dae_wait"
                    env[dest] = value
                elif kind == 15:     # other calls (math, send, accel, ...)
                    inst = step[2]
                    env[step[1]] = self._call(inst, env, tile, num_tiles,
                                              trace, collect)
                else:                # 16: alloca (un-promoted scalar slot)
                    inst = step[2]
                    ref = memory.alloc(1, inst.element_type,
                                       name=inst.name or "slot")
                    env[step[1]] = ref.base

            if next_plan is None:
                raise InterpreterError(
                    f"block {plan.name} fell through without a terminator")
            prev_plan_id = id(plan)
            plan = next_plan

    # -- plan compilation ----------------------------------------------------
    def _build_plans(self, func: Function):
        plans: Dict[int, "_BlockPlan"] = {}
        for block in func.blocks:
            plans[id(block)] = _BlockPlan(block.bid, block.name,
                                          block.instructions)
        for block in func.blocks:
            plan = plans[id(block)]
            phis = block.phis
            for phi in phis:
                incoming = {}
                for value, pred in zip(phi.operands, phi.incoming_blocks):
                    incoming[id(plans[id(pred)])] = _slot(value)
                plan.phis.append((id(phi), incoming))
            plan.steps = [self._compile_step(inst, plans)
                          for inst in block.instructions[len(phis):]]
        entry = plans[id(func.entry)]
        # pin the function: the cache key is id(func), so the function
        # must stay alive for as long as its plans are cached
        result = (entry, plans, func)
        self._plans[id(func)] = result
        return result

    def _compile_step(self, inst, plans):
        opcode = inst.opcode
        fn = _BINOPS.get(opcode)
        if fn is not None:
            return (0, id(inst), fn, _slot(inst.operands[0]),
                    _slot(inst.operands[1]))
        if opcode is Opcode.GEP:
            return (1, id(inst), _slot(inst.operands[0]),
                    _slot(inst.operands[1]), inst.type.pointee.size)
        if opcode is Opcode.LOAD:
            return (2, id(inst), _slot(inst.operands[0]), inst.iid,
                    inst.type)
        if opcode is Opcode.STORE:
            return (3, _slot(inst.operands[0]), _slot(inst.operands[1]),
                    inst.iid)
        if opcode is Opcode.ICMP:
            return (4, id(inst), _ICMP[inst.predicate],
                    _slot(inst.operands[0]), _slot(inst.operands[1]))
        if opcode is Opcode.FCMP:
            return (5, id(inst), _FCMP[inst.predicate],
                    _slot(inst.operands[0]), _slot(inst.operands[1]))
        if opcode is Opcode.BR:
            if inst.operands:
                return (6, _slot(inst.operands[0]),
                        plans[id(inst.targets[0])],
                        plans[id(inst.targets[1])])
            return (7, plans[id(inst.targets[0])])
        if opcode is Opcode.RET:
            return (8, _slot(inst.operands[0]) if inst.operands else None)
        if opcode is Opcode.SELECT:
            return (9, id(inst), _slot(inst.operands[0]),
                    _slot(inst.operands[1]), _slot(inst.operands[2]))
        if isinstance(inst, CastInst):
            return (10, id(inst), _cast_fn(inst), _slot(inst.operands[0]))
        if opcode is Opcode.ATOMICRMW:
            return (11, id(inst), _ATOMIC[inst.operation],
                    _slot(inst.operands[0]), _slot(inst.operands[1]),
                    inst.iid, inst.type)
        if opcode is Opcode.CALL:
            callee = inst.callee
            if callee == "barrier":
                return (12, id(inst))
            if callee.startswith("recv_"):
                return (13, id(inst), _slot(inst.operands[0]), inst.iid)
            if callee.startswith("dae_consume") or \
                    callee.startswith("dae_store_take"):
                return (14, id(inst), callee)
            return (15, id(inst), inst)
        if opcode is Opcode.ALLOCA:
            return (16, id(inst), inst)
        raise InterpreterError(f"cannot interpret {opcode.value}")

    # ------------------------------------------------------------------
    @staticmethod
    def _value(env: Dict[int, object], value):
        if isinstance(value, Constant):
            return value.value
        return env[id(value)]

    def _call(self, inst: CallInst, env: Dict[int, object], tile: int,
              num_tiles: int, trace: KernelTrace, collect: bool):
        name = inst.callee
        args = [self._value(env, a) for a in inst.operands]
        if name == "tile_id":
            return tile
        if name == "num_tiles":
            return num_tiles
        fn = _MATH.get(name)
        if fn is not None:
            return fn(args[0])
        if name.startswith("send_"):
            dest = int(args[0])
            if collect:
                trace.record_peer(inst.iid, dest)
            self.channels.setdefault((tile, dest), deque()).append(args[1])
            self._progress += 1
            return None
        if name.startswith("dae_"):
            return self._dae(name, args, tile, num_tiles, trace)
        if name.startswith("accel_"):
            if collect:
                trace.accel_calls.append(
                    AccelInvocation(inst.iid, name, tuple(args)))
            apply_accelerator(name, args, self.memory)
            return None
        raise InterpreterError(f"unknown callee {name!r}")

    def _pair_of(self, tile: int, num_tiles: int) -> int:
        """DAE queue key. Under run_dae_pair both slices share an explicit
        pair id; otherwise the convention is: with 2P tiles, tile t<P is
        the access core of pair t and tile P+t its execute core."""
        if self._dae_pair_override is not None:
            return self._dae_pair_override
        pairs = max(1, num_tiles // 2)
        return tile if tile < pairs else tile - pairs

    def _dae(self, name: str, args, tile: int, num_tiles: int,
             trace: KernelTrace):
        """Non-blocking DAE pushes (pops are handled as yield points in
        the main loop)."""
        pair = self._pair_of(tile, num_tiles)
        if name.startswith("dae_produce"):
            self.dae_load_q.setdefault(pair, deque()).append(args[0])
            self._progress += 1
            return None
        if name.startswith("dae_store_value"):
            self.dae_store_q.setdefault(pair, deque()).append(args[0])
            self._progress += 1
            return None
        raise InterpreterError(f"unknown DAE intrinsic {name!r}")

    def _dae_try_pop(self, name: str, tile: int, num_tiles: int):
        """Attempt a DAE pop; returns (ok, value)."""
        pair = self._pair_of(tile, num_tiles)
        queue_map = (self.dae_load_q if name.startswith("dae_consume")
                     else self.dae_store_q)
        queue = queue_map.get(pair)
        if not queue:
            return False, None
        self._dae_pops += 1
        self._progress += 1
        return True, queue.popleft()

    def run_dae_pair(self, access_fn: str, execute_fn: str, args: Sequence,
                     *, pair: int = 0, pairs: int = 1):
        """Co-execute one access/execute slice pair (paper §VII-A).

        The two slices exchange values through the DAE queues, so neither
        can run to completion alone: each runs until it blocks on an empty
        queue, then control passes to its peer. Both slices observe
        ``tile_id() = pair`` over ``num_tiles() = pairs`` so they partition
        the work identically. Returns ``(access_trace, execute_trace)``.
        """
        self._dae_pair_override = pair
        access_trace, access_gen = self._start(
            access_fn, args, pair, pairs, True)
        execute_trace, execute_gen = self._start(
            execute_fn, args, pair, pairs, True)
        live = [(access_trace, access_gen), (execute_trace, execute_gen)]
        blocked_streak = 0
        index = 0
        while live:
            trace, gen = live[index % len(live)]
            pops_before = self._dae_pops
            try:
                next(gen)  # runs until a dae_wait/barrier yield
            except StopIteration as stop:
                trace.return_value = stop.value
                live.remove((trace, gen))
                blocked_streak = 0
                continue
            if self._dae_pops > pops_before:
                blocked_streak = 0  # the slice made progress before blocking
            else:
                blocked_streak += 1
                if blocked_streak > 2 * len(live):
                    raise InterpreterError(
                        f"DAE pair {pair} deadlocked: both slices blocked "
                        f"on empty queues")
            index += 1
        self._dae_pair_override = None
        return access_trace, execute_trace
