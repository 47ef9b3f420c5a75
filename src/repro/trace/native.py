"""The trace interpreter's C backend: ``interp.c`` runs a kernel's block
plans as bytecode.

:class:`Program` encodes the step tuples :meth:`Interpreter._build_plans`
produced (the one place IR becomes steps) into flat ``int64`` arrays:
six words per step, three per block (bid, instruction count, first
step), three per control-flow edge (target block and its phi parallel
copies). SSA values, formals and constants get registers in one
``int64`` and one ``double`` file, chosen by IR type.

:func:`start` picks the backend for one kernel instance, with no knob.
The Python interpreter (``interpreter.py``, the reference) runs it when
the memory has a fault injector (``corrupt_load`` sees every load), when
the library does not load, when the function holds a construct
``interp.c`` does not run (``alloca``, ``send_``/``recv_``/``dae_``/
``accel_`` calls, unknown callees, or a cast, operand or constant whose
value would not keep its register class), when an argument is not a
plain ``int``/``float`` of its parameter's class, or when a segment is
not a C-contiguous, writeable array of its dtype. Otherwise C runs it.

Its state (:class:`_Run`, held by :class:`_Execution`) is owned by
Python: the registers, the next step, the step count and the output
buffers (block path, one address buffer per memory step, memory steps
in first-encounter order). C returns at a barrier (the generator
yields ``"barrier"`` and resumes the same state), at ``ret``, at the
step limit, when an output buffer is full (Python doubles it and C
repeats the step), and before any step the reference would raise on or
whose result C cannot hold: Python then runs that step with the
reference's semantics (:meth:`_Execution.delegate`), so errors are the
reference's own, and C resumes at the next step. Loads and stores index
the numpy buffers in place; the segment table is passed at each start
and resume.

The library is built on the first kernel C runs (:mod:`repro.clib`),
with ``-ffp-contract=off`` so that no float operation fuses.
"""

from __future__ import annotations

import ctypes
from array import array
from pathlib import Path
from typing import Optional

import numpy as np

from .. import clib
from ..ir.instructions import Opcode
from ..ir.values import Constant
from .interpreter import (
    _I64_MAX, _I64_MIN, InterpreterError, StepLimitExceeded)
from .memory import _DTYPES, MemoryError_

SOURCE = Path(__file__).with_name("interp.c")

#: ``interp.c``'s OP_* order
_OPS = (
    "ADD", "SUB", "MUL", "SDIV", "SREM", "AND", "OR", "XOR", "SHL", "LSHR",
    "ASHR", "FADD", "FSUB", "FMUL", "FDIV",
    "IEQ", "INE", "ISLT", "ISLE", "ISGT", "ISGE",
    "FOEQ", "FONE", "FOLT", "FOLE", "FOGT", "FOGE",
    "GEP", "LOAD_I", "LOAD_F", "STORE_I", "STORE_F", "ATOMIC_I", "ATOMIC_F",
    "SELECT_I", "SELECT_F", "MOV_I", "MOV_F", "TRUNC", "I2F", "F2I",
    "SQRT", "EXP", "LOG", "SIN", "COS", "FABS", "FLOOR", "RSQRT",
    "TILE_ID", "NUM_TILES", "BARRIER", "BR", "CBR", "RET",
)
OP = {name: code for code, name in enumerate(_OPS)}
R_DONE, R_BARRIER, R_LIMIT, R_DELEGATE, R_FULL = range(5)

_INT_BINOPS = {opcode: OP[opcode.name] for opcode in (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.SDIV, Opcode.SREM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.LSHR,
    Opcode.ASHR)}
_FLOAT_BINOPS = {opcode: OP[opcode.name] for opcode in (
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV)}
_ICMP = {p: OP["I" + p.upper()] for p in ("eq", "ne", "slt", "sle", "sgt",
                                          "sge")}
_FCMP = {p: OP["F" + p.upper()] for p in ("oeq", "one", "olt", "ole", "ogt",
                                          "oge")}
_ATOMIC = {"add": 0, "sub": 1, "min": 2, "max": 3, "xchg": 4}
_MATH = {"sqrtf": OP["SQRT"], "expf": OP["EXP"], "logf": OP["LOG"],
         "sinf": OP["SIN"], "cosf": OP["COS"], "fabsf": OP["FABS"],
         "floorf": OP["FLOOR"], "rsqrtf": OP["RSQRT"]}
#: segment element kinds, ``interp.c``'s K_* order
_KINDS = {np.dtype(t): kind for kind, t in enumerate(
    (np.float64, np.float32, np.int64, np.int32, np.int16, np.int8))}
_TERMINATORS = (6, 7, 8)
_PATH_CAP, _ADDR_CAP = 1024, 64

# -- building and loading ------------------------------------------------
_library = None          # None: not tried yet; False: no compiler


def load() -> Optional[ctypes.CDLL]:
    """The interpreter library, or None when ``gcc`` is not on PATH.
    Built and loaded on first use, never at import."""
    global _library
    if _library is None:
        path = clib.build(SOURCE, ("-O2", "-ffp-contract=off"),
                          InterpreterError, libs=("-lm",))
        if path is None:
            _library = False
        else:
            lib = ctypes.CDLL(str(path))
            lib.interp_run.argtypes = (ctypes.c_void_p,)
            lib.interp_run.restype = ctypes.c_int64
            lib.interp_run_words.argtypes = ()
            lib.interp_run_words.restype = ctypes.c_int64
            if lib.interp_run_words() != len(_Run._fields_):
                raise InterpreterError(
                    "interp.c's run state does not match native.py")
            _library = lib
    return _library or None


class _Unsupported(Exception):
    """A construct ``interp.c`` does not run."""


class Program:
    """One function's block plans, encoded for ``interp.c``."""

    def __init__(self, func, entry, plans):
        self.name = func.name
        if entry.phis:
            raise _Unsupported("phis in the entry block")
        #: value id -> (is_float, register)
        self.regs = {}
        #: initial value per int and per float register
        self._files = ([], [])
        self._consts = {}
        for formal in func.args:
            self._define(id(formal), formal.type)
        for plan in plans.values():
            for inst in plan.insts:
                self._define(id(inst), inst.type)
        self.formals = [self.regs[id(formal)] for formal in func.args]
        order = list(plans.values())
        self._block_index = {id(plan): k for k, plan in enumerate(order)}
        self.entry = self._block_index[id(entry)]
        self._edges = {}
        edges, copies, code, blocks = [], [], [], []
        self._edge_words, self._copy_words = edges, copies
        #: per step: (plan step tuple, instruction), for delegation
        self.steps = []
        self.memory_iids = []
        for plan in order:
            if not any(step[0] in _TERMINATORS for step in plan.steps):
                raise _Unsupported(f"block {plan.name} has no terminator")
            blocks += (plan.bid, plan.num_insts, len(self.steps))
            for step, inst in zip(plan.steps, plan.insts[len(plan.phis):]):
                code += self._encode(step, inst, plan)
                self.steps.append((step, inst))
        self.code = array("q", code)
        self.blocks = array("q", blocks)
        self.edges = array("q", edges)
        self.copies = array("q", copies)
        self.stage_size = max([1] + edges[2::3])
        self.ints = array("q", self._files[0])
        self.floats = array("d", self._files[1])

    # -- registers ---------------------------------------------------------
    def _define(self, vid: int, ty) -> None:
        if ty.is_void:
            return
        registers = self._files[ty.is_float]
        self.regs[vid] = (ty.is_float, len(registers))
        registers.append(0)

    def _class(self, slot) -> bool:
        """Whether ``slot``'s value is a float."""
        is_const, payload = slot
        if is_const:
            return isinstance(payload, float)
        entry = self.regs.get(payload)
        if entry is None:
            raise _Unsupported("use of an undefined or void value")
        return entry[0]

    def _reg(self, slot, is_float: bool) -> int:
        is_const, payload = slot
        if self._class(slot) != is_float:
            raise _Unsupported("operand of the wrong register class")
        if not is_const:
            return self.regs[payload][1]
        key = (is_float, payload.hex() if is_float else payload)
        register = self._consts.get(key)
        if register is None:
            if not is_float and not _I64_MIN <= payload <= _I64_MAX:
                raise _Unsupported(f"constant {payload} exceeds 64 bits")
            registers = self._files[is_float]
            register = self._consts[key] = len(registers)
            registers.append(payload)
        return register

    def _dest(self, vid: int, is_float: bool) -> int:
        entry = self.regs.get(vid)
        if entry is None or entry[0] != is_float:
            raise _Unsupported("result of the wrong register class")
        return entry[1]

    def _edge(self, pred, target) -> int:
        key = (id(pred), id(target))
        index = self._edges.get(key)
        if index is None:
            first = len(self._copy_words) // 3
            for dest, incoming in target.phis:
                slot = incoming.get(id(pred))
                if slot is None:
                    raise _Unsupported(f"phi without an incoming value "
                                       f"from {pred.name}")
                is_float, register = self.regs[dest]
                self._copy_words += (is_float, register,
                                     self._reg(slot, is_float))
            index = len(self._edge_words) // 3
            self._edge_words += (self._block_index[id(target)], first,
                                 len(target.phis))
            self._edges[key] = index
        return index

    def _memory(self, iid: int) -> int:
        self.memory_iids.append(iid)
        return len(self.memory_iids) - 1

    # -- steps -------------------------------------------------------------
    def _encode(self, step, inst, plan) -> tuple:
        """``step``'s six words: op, dest, a, b, c, x."""
        kind = step[0]
        reg, dest = self._reg, self._dest
        if kind == 0:
            op = _INT_BINOPS.get(inst.opcode)
            f = op is None
            if f:
                op = _FLOAT_BINOPS[inst.opcode]
            return (op, dest(step[1], f), reg(step[3], f), reg(step[4], f),
                    0, 0)
        if kind == 1:
            return (OP["GEP"], dest(step[1], False), reg(step[2], False),
                    reg(step[3], False), 0, step[4])
        if kind == 2:
            f = step[4].is_float
            return (OP["LOAD_F" if f else "LOAD_I"], dest(step[1], f),
                    reg(step[2], False), 0, self._memory(step[3]), 0)
        if kind == 3:
            f = self._class(step[1])
            return (OP["STORE_F" if f else "STORE_I"], 0,
                    reg(step[2], False), reg(step[1], f),
                    self._memory(step[3]), 0)
        if kind == 4:
            return (_ICMP[inst.predicate], dest(step[1], False),
                    reg(step[3], False), reg(step[4], False), 0, 0)
        if kind == 5:
            return (_FCMP[inst.predicate], dest(step[1], False),
                    reg(step[3], True), reg(step[4], True), 0, 0)
        if kind == 6:
            return (OP["CBR"], 0, reg(step[1], False),
                    self._edge(plan, step[2]), self._edge(plan, step[3]), 0)
        if kind == 7:
            return (OP["BR"], 0, self._edge(plan, step[1]), 0, 0, 0)
        if kind == 8:
            if step[1] is not None:
                self._class(step[1])
            return (OP["RET"], 0, 0, 0, 0, 0)
        if kind == 9:
            f = self._class(step[3])
            return (OP["SELECT_F" if f else "SELECT_I"], dest(step[1], f),
                    reg(step[2], False), reg(step[3], f), reg(step[4], f),
                    0)
        if kind == 10:
            return self._cast(step, inst)
        if kind == 11:
            f = step[6].is_float
            return (OP["ATOMIC_F" if f else "ATOMIC_I"], dest(step[1], f),
                    reg(step[3], False), reg(step[4], f),
                    self._memory(step[5]), _ATOMIC[inst.operation])
        if kind == 12:
            return (OP["BARRIER"], 0, 0, 0, 0, 0)
        if kind == 15:
            callee = inst.callee
            if callee in ("tile_id", "num_tiles"):
                return (OP[callee.upper()], dest(step[1], False), 0, 0, 0, 0)
            if callee in _MATH and inst.operands:
                operand = inst.operands[0]
                slot = (True, operand.value) if isinstance(
                    operand, Constant) else (False, id(operand))
                return (_MATH[callee], dest(step[1], True), reg(slot, True),
                        0, 0, 0)
        raise _Unsupported(f"{inst.opcode.value} "
                           f"{getattr(inst, 'callee', '')}".strip())

    def _cast(self, step, inst) -> tuple:
        """Casts keep the reference's value: ``int()``, ``float()``,
        wrapping ``fptosi``, masking ``trunc``, else the identity."""
        opcode, to = inst.opcode, inst.type
        source_f = self._class(step[3])
        if opcode is Opcode.TRUNC:
            op, f = OP["TRUNC"], False
            if source_f:
                raise _Unsupported("trunc of a float")
        elif opcode in (Opcode.SITOFP, Opcode.FPEXT, Opcode.FPTRUNC):
            op, f = OP["MOV_F" if source_f else "I2F"], True
        elif opcode is Opcode.FPTOSI:
            op, f = OP["F2I" if source_f else "MOV_I"], False
        else:  # sext, zext, bitcast: int() to an integer, else identity
            f = source_f
            if to.is_integer and source_f:
                raise _Unsupported(f"{opcode.value} of a float")
            op = OP["MOV_F" if f else "MOV_I"]
        return (op, self._dest(step[1], f), self._reg(step[3], source_f),
                0, 0, to.bits if opcode is Opcode.TRUNC else 0)

    # -- arguments ---------------------------------------------------------
    def accepts(self, args) -> bool:
        """Whether every argument is a plain int/float of its class."""
        for (is_float, _), value in zip(self.formals, args):
            if is_float:
                if type(value) is not float:
                    return False
            elif type(value) is not int or not \
                    _I64_MIN <= value <= _I64_MAX:
                return False
        return True


def segment_table(memory) -> Optional[array]:
    """Base, end, log2 element size, kind and data pointer per segment;
    None when a segment is not a C-contiguous, writeable array of its
    dtype."""
    words = []
    for ref in memory.segments:
        data = ref.data
        if (type(data) is not np.ndarray
                or data.dtype != _DTYPES[str(ref.element_type)]
                or not data.flags.c_contiguous
                or not data.flags.writeable):
            return None
        words += (ref.base, ref.base + data.nbytes,
                  data.itemsize.bit_length() - 1, _KINDS[data.dtype],
                  data.ctypes.data)
    return array("q", words)


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


class _Run(ctypes.Structure):
    """``interp.c``'s ``Run``, field for field."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "code", "blocks", "edges", "copies", "ri", "rf", "stage", "segs")] + [
        ("nseg", ctypes.c_int64), ("seg_hint", ctypes.c_void_p),
        ("path", ctypes.c_void_p), ("path_n", ctypes.c_int64),
        ("path_cap", ctypes.c_int64)] + [
        (name, ctypes.c_void_p) for name in (
            "addr", "addr_n", "addr_cap", "order")] + [
        (name, ctypes.c_int64) for name in (
            "order_n", "pc", "steps", "limit", "collect", "tile", "ntiles",
            "grow")]


class _Execution:
    """One kernel instance on ``interp.c``: its state and buffers."""

    def __init__(self, program: Program, args, tile: int, num_tiles: int,
                 collect: bool, limit: int):
        self.program = program
        self.ri = array("q", program.ints)
        self.rf = array("d", program.floats)
        for (is_float, register), value in zip(program.formals, args):
            (self.rf if is_float else self.ri)[register] = value
        count = len(program.memory_iids)
        self.stage = array("q", [0] * program.stage_size)
        self.seg_hint = array("q", [0] * count)
        self.path = array("q", [0] * _PATH_CAP)
        self.addr = [array("q", [0] * _ADDR_CAP) for _ in range(count)]
        self.addr_ptrs = array("Q", [_address(b) for b in self.addr])
        self.addr_n = array("q", [0] * count)
        self.addr_cap = array("q", [_ADDR_CAP] * count)
        self.order = array("q", [0] * count)
        c = self.c = _Run()
        for name in ("code", "blocks", "edges", "copies"):
            setattr(c, name, _address(getattr(program, name)))
        for name in ("ri", "rf", "stage", "seg_hint", "path", "addr_n",
                     "addr_cap", "order"):
            setattr(c, name, _address(getattr(self, name)))
        c.addr = _address(self.addr_ptrs)
        c.path_cap = _PATH_CAP
        c.pc = -1 - program.entry
        c.limit, c.collect = min(limit, _I64_MAX), collect
        c.tile, c.ntiles = tile, num_tiles

    def bind(self, table: Optional[array]) -> None:
        """Hand C the segment table (kept alive here while C reads it)."""
        if table is None:
            raise InterpreterError(
                "a memory segment is no longer a C-contiguous, writeable "
                "array of its dtype")
        self.segs = table
        self.c.segs = _address(table)
        self.c.nseg = len(table) // 5

    def grow(self) -> None:
        """Double the output buffer ``interp.c`` found full."""
        m = self.c.grow
        buffer = self.path if m < 0 else self.addr[m]
        buffer.extend(buffer)
        if m < 0:
            self.c.path, self.c.path_cap = _address(buffer), len(buffer)
        else:
            self.addr_ptrs[m], self.addr_cap[m] = _address(buffer), \
                len(buffer)

    def value(self, slot):
        is_const, payload = slot
        if is_const:
            return payload
        is_float, register = self.program.regs[payload]
        return (self.rf if is_float else self.ri)[register]

    def delegate(self, interp, tile: int, num_tiles: int, trace,
                 collect: bool) -> None:
        """Run the step at ``pc`` with the reference's semantics (its
        address is recorded already), then move past it."""
        step, inst = self.program.steps[self.c.pc]
        kind, value, memory = step[0], self.value, interp.memory
        if kind == 0:
            result = step[2](value(step[3]), value(step[4]))
        elif kind == 1:
            result = value(step[2]) + value(step[3]) * step[4]
        elif kind == 2:
            result = memory.load(value(step[2]), step[4])
        elif kind == 3:
            memory.store(value(step[2]), value(step[1]))
        elif kind == 10:
            result = step[2](value(step[3]))
        elif kind == 11:
            address = value(step[3])
            result = memory.load(address, step[6])
            memory.store(address, step[2](result, value(step[4])))
        else:  # 15: a math call
            env = {id(op): value((False, id(op))) for op in inst.operands
                   if not isinstance(op, Constant)}
            result = interp._call(inst, env, tile, num_tiles, trace,
                                  collect)
        if kind != 3:
            is_float, register = self.program.regs[step[1]]
            if is_float:
                self.rf[register] = result
            elif _I64_MIN <= result <= _I64_MAX:
                self.ri[register] = result
            elif kind == 1:
                raise MemoryError_(
                    f"address {result:#x} is outside the 64-bit address "
                    f"space")
            else:
                raise InterpreterError(
                    f"{self.program.name}: {inst.opcode.value} gave "
                    f"{result}, which does not fit in 64 bits")
        self.c.pc += 1

    def finish(self, trace, collect: bool):
        """Fill ``trace`` at ``ret`` and return the kernel's value."""
        c = self.c
        trace.dynamic_instructions = c.steps
        if collect:
            del self.path[c.path_n:]
            trace.block_trace = self.path.tolist()
            iids = self.program.memory_iids
            for m in self.order[:c.order_n]:
                buffer = self.addr[m]
                del buffer[self.addr_n[m]:]
                trace.addr_trace[iids[m]] = buffer.tolist()
        op = self.program.steps[c.pc][0][1]
        return None if op is None else self.value(op)


def start(interp, func, entry, plans, args, tile: int, num_tiles: int,
          trace, collect: bool):
    """A generator running one kernel instance on ``interp.c``, with the
    protocol of :meth:`Interpreter._exec`; None when the Python
    interpreter must run it."""
    if interp.memory.injector is not None:
        return None
    program = interp._programs.get(id(func), False)
    if program is False:
        try:
            program = Program(func, entry, plans)
        except _Unsupported:
            program = None
        interp._programs[id(func)] = program
    if program is None or not program.accepts(args):
        return None
    table = segment_table(interp.memory)
    if table is None or load() is None:
        return None
    return _execute(interp, program, args, tile, num_tiles, trace, collect,
                    table)


def _execute(interp, program, args, tile, num_tiles, trace, collect, table):
    run = _Execution(program, args, tile, num_tiles, collect,
                     interp.step_limit)
    call, state = _library.interp_run, ctypes.byref(run.c)
    while True:
        run.bind(table)
        code = call(state)
        if code == R_BARRIER:
            yield "barrier"
        elif code == R_DELEGATE:
            run.delegate(interp, tile, num_tiles, trace, collect)
        elif code == R_FULL:
            run.grow()
        elif code == R_DONE:
            return run.finish(trace, collect)
        else:
            raise StepLimitExceeded(
                f"{program.name} exceeded {interp.step_limit} dynamic "
                f"instructions")
        table = segment_table(interp.memory)
