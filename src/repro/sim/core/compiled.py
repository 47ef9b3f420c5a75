"""Compiled core backend: :class:`CoreTile`'s step loop in C.

``step.c`` runs the launch/issue/complete loop over the same flat layout
as the Python core (seq-indexed rings, per-block launch templates, a
completion queue ordered by ``(cycle, push order)``). The state lives
in ``array.array`` buffers that both sides index, so Python reads what
it needs (an address, a header scalar) without a call into C.

Crossing protocol (a ``ctypes`` call costs several Python calls):

* one C call per tile step (``core_step``) and one per external
  completion (``core_complete``);
* plain-memory and store-buffer dispatches are queued in issue order and
  sent to the memory system by Python after the call;
* an instruction C does not handle (the DAE load-queue reservation;
  DeSC, comm and accelerator dispatch) ends the call there. Python
  flushes the queue, runs the Python core's own code for it, and
  re-enters with ``core_resume``.

Observers and predictors run in C as well:

* a tracer's ring columns are handed to C at full capacity
  (:meth:`~repro.telemetry.Tracer.columns`), with span kinds interned
  per instruction and per block up front; C writes the core's spans
  and mispredict instants in place, numbered by the push counter both
  sides share, so a wrapped ring drops the same events as the Python
  core's;
* an attributor's ledger lives in C arrays: each step books the interval
  since the last to the pending wait category (a per-instruction table
  from ``CoreTile._head_waits``), and a memory wait is banked in the
  head's ring slot until ``core_complete`` names its ``memory.<level>``
  category, which Python reads off the request it keeps per slot. The
  :class:`~repro.telemetry.TileAttribution` copies the C state in
  whenever it is read (``_sync_ledger``);
* twobit and gshare keep their 2-bit counters (and gshare its history)
  in C.

:func:`bind` picks the backend when a run starts, with no knob: C
whenever the library loads, the Python core (which stays the reference
model) otherwise. The library is built with ``gcc -O2 -shared -fPIC``
into the user cache directory (:mod:`repro.clib`), named by the hash of
the source and its flags, on the first compiled tile. With no ``gcc``
on ``PATH`` the Python core runs; a source that fails to build raises.

A compiled tile pickles in the Python layout (as a plain
:class:`CoreTile`, its predictor and attribution ledger included), so a
checkpoint resumes under either backend.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
from array import array
from pathlib import Path
from typing import Optional

from ... import clib
from ..errors import SimulationError
from ..tile import NEVER
from ...ir.instructions import Opcode
from ...telemetry.attribution import CATEGORIES, MEMORY_PREFIX, \
    memory_category
from .branch import GSharePredictor
from .model import (
    _D_CALL_ACCEL, _D_CALL_COMM, _D_MEM, CoreTile, _ExternalComplete, _noop,
    _PenaltyComplete)

SOURCE = Path(__file__).with_name("step.c")

#: scalar header fields, in ``step.c``'s ``H_*`` order
_HEADER = (
    "next_seq", "window_base", "next_dbb", "num_blocks", "mao_incomplete",
    "accel_inflight", "finished", "live_total", "last_terminator",
    "last_terminator_done_at", "launch_stall_until", "prediction_correct",
    "prev_bid", "ready_n", "retry_n", "cq_n", "cq_order", "mao_lo",
    "mao_hi", "edge_free",
    "cycles", "instructions", "memory_accesses", "mispredictions",
    "mao_stalls", "dbbs_launched", "max_live_dbbs",
    "exit_seq", "exit_kind", "budget", "window_limit", "nbuf",
    "mask", "rob", "lsq", "width", "live_limit", "perfect_alias",
    "period", "mispredict_delay", "spec_perfect", "speculates",
    "fp_long_latency", "call_latency", "buf_cap",
    "tracing", "trace_tid", "trace_cap", "mispredict_kind",
    "attr", "cursor", "pending", "cat_order", "no_memory", "resolve",
    "pred_kind", "pred_mask", "pred_history",
)
_H = {name: index for index, name in enumerate(_HEADER)}
H_FINISHED, H_ACCEL_INFLIGHT, H_EXIT_SEQ, H_NBUF = (
    _H["finished"], _H["accel_inflight"], _H["exit_seq"], _H["nbuf"])
H_PENDING, H_RESOLVE, H_PRED_HISTORY = (
    _H["pending"], _H["resolve"], _H["pred_history"])
#: TileStats fields the C step counts
_STATS = ("cycles", "instructions", "memory_accesses", "mispredictions",
          "mao_stalls", "dbbs_launched", "max_live_dbbs")

#: ``Core`` struct members after ``h`` and ``energy``, in ``step.c`` order
_ARRAYS = (
    "latency", "energy_by_iid", "fu", "fu_limit", "fu_used", "flags",
    "checks", "kind", "ptr_iid", "ops_off", "ops", "phi_off", "phi",
    "last_seq", "blk_off", "blk_iids", "blk_term", "blk_mem_ops",
    "blk_nsucc", "blk_static_target", "live_dbbs", "block_trace", "addr",
    "addr_off", "addr_cursor", "r_iid", "r_state", "r_pending", "r_addr",
    "r_addr_producer", "r_dbb", "dep_head", "dep_tail", "d_remaining",
    "e_seq", "e_next", "ready", "retry", "cq", "mao", "buf",
    "blk_succ0", "pred", "span_kind", "dbb_kind", "issued_at",
    "launched_at", "t_cycle", "t_dur", "t_iarg", "t_tid", "t_kind",
    "t_count", "wait", "cat_cycles", "cat_order", "banked",
)
_FLAG_FREE, _FLAG_MEM, _FLAG_STORE, _FLAG_PHI = 1, 2, 4, 8
_EXIT_RESERVE, _EXIT_DISPATCH, _ERR_TRACE = -1, -2, -3
_PRED_STATIC, _PRED_TWOBIT, _PRED_GSHARE = 0, 1, 2

#: attribution category ids the C step knows by number (``step.c``'s
#: CAT_* values); memory levels are interned after them as they resolve
_CATEGORIES = CATEGORIES + (MEMORY_PREFIX + "ideal",)
#: ledger slots per tile, memory levels included
_CAT_CAP = 64


class _Core(ctypes.Structure):
    _fields_ = [("h", ctypes.c_void_p), ("energy", ctypes.c_void_p)] + [
        (name, ctypes.c_void_p) for name in _ARRAYS]


# -- building and loading ------------------------------------------------
_library = None          # None: not tried yet; False: no compiler


def load() -> Optional[ctypes.CDLL]:
    """The compiled step library, or None when ``gcc`` is not on PATH.
    Built and loaded on first use, never at import."""
    global _library
    if _library is None:
        path = clib.build(SOURCE, ("-O2",), SimulationError)
        if path is None:
            _library = False
        else:
            lib = ctypes.CDLL(str(path))
            pointer, i64 = ctypes.c_void_p, ctypes.c_int64
            for name, args in (("core_step", (pointer, i64)),
                               ("core_resume", (pointer, i64, i64)),
                               ("core_complete", (pointer, i64, i64))):
                function = getattr(lib, name)
                function.argtypes = args
                function.restype = i64
            lib.core_header_size.argtypes = ()
            lib.core_header_size.restype = ctypes.c_int
            if lib.core_header_size() != len(_HEADER):
                raise SimulationError(
                    "compiled core header does not match compiled.py")
            _library = lib
    return _library or None


def bind(tile: CoreTile) -> None:
    """Run ``tile`` on the compiled step when the library loads."""
    if type(tile) is not CoreTile or tile._finished:
        return
    lib = load()
    if lib is None:
        return
    tile.__class__ = CompiledCoreTile
    tile._c_attach(lib)


def _blank_core_tile() -> CoreTile:
    return CoreTile.__new__(CoreTile)


def _q(values) -> array:
    return array("q", values)


def _flatten(lists) -> tuple:
    """(offsets, values) of a list of int sequences."""
    offsets = [0]
    values = []
    for items in lists:
        values.extend(items)
        offsets.append(len(values))
    return _q(offsets), _q(values or [0])


class CompiledCoreTile(CoreTile):
    """A :class:`CoreTile` whose step runs in ``step.c``. Never built
    directly: :func:`bind` switches a Python tile over when a run starts,
    and pickling turns it back into a Python-layout :class:`CoreTile`."""

    #: attributes that live in the C arrays while compiled
    _C_OWNED = (
        "_next_seq", "_window_base", "_next_dbb", "_mao_incomplete",
        "_accel_inflight", "_finished", "_live_total", "_last_terminator",
        "_last_terminator_done_at", "_launch_stall_until",
        "_prediction_correct", "_prev_bid", "_ready", "_retry", "_calendar",
        "_calendar_cycles", "_mao", "_mao_start", "_fu_used", "_live_dbbs",
        "_last_seq", "_addr_cursor", "_r_state", "_r_pending",
        "_r_deps", "_r_addr_producer", "_r_dbb", "_r_issued_at",
        "_d_remaining", "_d_launched_at", "_dyn_predictor")

    backend = "compiled"

    # -- state in and out of C ------------------------------------------
    def _c_attach(self, lib) -> None:
        d = self.__dict__
        nodes = self.ddg.nodes
        blocks = self.ddg.blocks
        trace = self.trace
        mask = self._mask
        ring = mask + 1
        base = self._window_base
        arrays = {}
        arrays["latency"] = _q(self._latency_by_iid)
        arrays["energy_by_iid"] = array("d", self._energy_by_iid)
        arrays["fu"] = _q(self._fu_by_iid)
        arrays["fu_limit"] = _q(self._fu_limits or [0])
        arrays["fu_used"] = _q(self._fu_used or [0])
        arrays["flags"] = _q(
            (_FLAG_FREE if self._free_by_iid[n.iid] else 0)
            | (_FLAG_MEM if n.is_memory else 0)
            | (_FLAG_STORE if n.is_store else 0)
            | (_FLAG_PHI if n.opcode is Opcode.PHI else 0) for n in nodes)
        arrays["checks"] = _q(self._issue_checks)
        arrays["kind"] = _q(self._dispatch_kind)
        arrays["ptr_iid"] = _q(-1 if n.pointer_operand_iid is None
                               else n.pointer_operand_iid for n in nodes)
        arrays["ops_off"], arrays["ops"] = _flatten(
            n.operand_iids for n in nodes)
        arrays["phi_off"], arrays["phi"] = _flatten(
            [value for bid, producer in n.phi_incoming.items()
             for value in (bid, -1 if producer is None else producer)]
            if n.opcode is Opcode.PHI else () for n in nodes)
        arrays["last_seq"] = _q(self._last_seq)
        arrays["blk_off"], arrays["blk_iids"] = _flatten(
            b.node_iids for b in blocks)
        arrays["blk_term"] = _q(b.terminator_iid for b in blocks)
        arrays["blk_mem_ops"] = _q(self._block_mem_ops)
        arrays["blk_nsucc"] = _q(len(b.successor_bids) for b in blocks)
        arrays["blk_static_target"] = _q(
            self._static_target(b) if b.successor_bids else -1
            for b in blocks)
        arrays["live_dbbs"] = _q(self._live_dbbs)
        if trace.block_trace and not (
                0 <= min(trace.block_trace) <= max(trace.block_trace)
                < len(blocks)):
            raise SimulationError(
                f"{self.name}: the block trace names a block the DDG "
                f"does not have")
        arrays["block_trace"] = _q(trace.block_trace or [0])
        arrays["addr_off"], arrays["addr"] = _flatten(
            trace.addr_trace.get(iid, ()) for iid in range(len(nodes)))
        arrays["addr_cursor"] = _q(self._addr_cursor)
        for name in ("r_iid", "r_state", "r_pending", "r_addr",
                     "r_addr_producer", "r_dbb", "d_remaining"):
            arrays[name] = _q(d["_" + name])
        # dependents: one edge per registered (producer, dependent) pair
        edge_cap = ring * max(
            [1] + [len(n.operand_iids) for n in nodes])
        head, tail = [-1] * ring, [-1] * ring
        e_seq, e_next = [0] * edge_cap, list(range(1, edge_cap)) + [-1]
        used = 0
        for seq in range(base, self._next_seq):
            for dep in self._r_deps[seq & mask] or ():
                e_seq[used] = dep
                e_next[used] = -1
                if tail[seq & mask] >= 0:
                    e_next[tail[seq & mask]] = used
                else:
                    head[seq & mask] = used
                tail[seq & mask] = used
                used += 1
        arrays["dep_head"], arrays["dep_tail"] = _q(head), _q(tail)
        arrays["e_seq"], arrays["e_next"] = _q(e_seq), _q(e_next)
        arrays["ready"] = _q(self._ready + [0] * (ring - len(self._ready)))
        arrays["retry"] = _q([0] * ring)
        queue = [0] * (3 * ring)
        order = 0
        for cycle in sorted(self._calendar):
            for seq in self._calendar[cycle]:
                queue[3 * order:3 * order + 3] = (cycle, order, seq)
                order += 1
        arrays["cq"] = _q(queue)
        live_mao = [seq for seq in self._mao[self._mao_start:]
                    if seq >= base]
        arrays["mao"] = _q(live_mao + [0] * (ring - len(live_mao)))
        arrays["buf"] = _q([0] * self._issue_width)

        stats = d["stats"]
        header = dict(
            next_seq=self._next_seq, window_base=base,
            next_dbb=self._next_dbb, num_blocks=self._num_blocks,
            mao_incomplete=self._mao_incomplete,
            accel_inflight=d["_accel_inflight"], finished=0,
            live_total=self._live_total,
            last_terminator=self._last_terminator,
            last_terminator_done_at=self._last_terminator_done_at,
            launch_stall_until=self._launch_stall_until,
            prediction_correct=int(self._prediction_correct),
            prev_bid=-1 if self._prev_bid is None else self._prev_bid,
            ready_n=len(self._ready), cq_n=order, cq_order=order,
            mao_lo=0, mao_hi=len(live_mao),
            edge_free=used if used < edge_cap else -1,
            mask=mask, rob=self._rob_size, lsq=self._lsq_size,
            width=self._issue_width,
            live_limit=-1 if self._live_dbb_limit is None
            else self._live_dbb_limit,
            perfect_alias=int(self._perfect_alias), period=self.period,
            mispredict_delay=self._mispredict_delay_cycles,
            spec_perfect=int(self._spec_perfect),
            speculates=int(self._speculates),
            fp_long_latency=self._fp_long_latency,
            call_latency=self._call_latency, buf_cap=self._issue_width,
            **self._c_attach_extras(arrays),
            **{name: getattr(stats, name) for name in _STATS})
        self._c_h = _q(header.get(name, 0) for name in _HEADER)
        self._c_energy = array("d", [stats.energy_nj])
        self._c_arrays = arrays
        self._c_struct = _Core(
            self._c_h.buffer_info()[0], self._c_energy.buffer_info()[0],
            *[arrays[name].buffer_info()[0] for name in _ARRAYS])
        self._c_ptr = ctypes.addressof(self._c_struct)
        self._c_step = lib.core_step
        self._c_resume = lib.core_resume
        self._c_complete = lib.core_complete
        self._c_exit_completion = -1
        for name in self._C_OWNED:
            d.pop(name, None)
        # the Python dispatch code reads these two rings: hand it C's
        self._r_iid = arrays["r_iid"]
        self._r_addr = arrays["r_addr"]

    def _c_attach_extras(self, arrays: dict) -> dict:
        """Fill the predictor, tracer and attribution arrays; returns
        their header fields."""
        nodes, blocks = self.ddg.nodes, self.ddg.blocks
        mask = self._mask
        predictor = self._c_predictor = self._dyn_predictor
        arrays["blk_succ0"] = _q(b.successor_bids[0] if b.successor_bids
                                 else -1 for b in blocks)
        arrays["pred"] = _q(predictor._counters if predictor else [0])
        header = dict(
            pred_kind=_PRED_STATIC if predictor is None
            else _PRED_GSHARE if isinstance(predictor, GSharePredictor)
            else _PRED_TWOBIT,
            pred_mask=predictor._mask if predictor else 0,
            pred_history=getattr(predictor, "_history", 0),
            no_memory=int(self.services.memory is None), resolve=-1)

        tracer = self.tracer
        arrays["issued_at"] = _q(self._r_issued_at)
        arrays["launched_at"] = _q(self._d_launched_at)
        for name in ("span_kind", "dbb_kind", "t_cycle", "t_dur", "t_iarg",
                     "t_count"):
            arrays[name] = _q([0])
        arrays["t_tid"], arrays["t_kind"] = array("i", [0]), array("i", [0])
        if tracer is not None:
            kind = tracer.column_kind
            arrays["span_kind"] = _q(kind("core", name, "X")
                                     for name in self._span_by_iid)
            arrays["dbb_kind"] = _q(kind("core", name, "X", "index")
                                    for name in self._dbb_span_by_bid)
            (arrays["t_cycle"], arrays["t_dur"], arrays["t_iarg"],
             arrays["t_tid"], arrays["t_kind"],
             arrays["t_count"]) = tracer.columns()
            header.update(tracing=1, trace_tid=self.trace_tid,
                          trace_cap=tracer.capacity,
                          mispredict_kind=kind("core", "mispredict", "i"))

        ledger = self.attributor
        self._c_attributed = ledger is not None
        self._c_cat_ids = {name: index
                           for index, name in enumerate(_CATEGORIES)}
        category = self._c_category
        cat_cycles, cat_order = [0] * _CAT_CAP, [0] * _CAT_CAP
        banked = [0] * (mask + 1)
        arrays["wait"] = _q([0])
        if ledger is not None:
            arrays["wait"] = _q(
                -1 if wait is None else category(wait) for node in nodes
                for wait in self._head_waits(node, self.config))
            for stamp, (name, cycles) in enumerate(ledger.cycles.items(), 1):
                cat_cycles[category(name)] = cycles
                cat_order[category(name)] = stamp
            # memory waits are keyed by request in the Python layout and
            # by the seq that issued the request in C
            requests = self._r_request
            seq_of = {id(requests[seq & mask]): seq
                      for seq in range(self._window_base, self._next_seq)
                      if requests[seq & mask] is not None}
            for request, cycles in ledger._deferred.items():
                banked[seq_of[id(request)] & mask] = cycles
            pending = ledger.pending
            header.update(
                attr=1, cursor=ledger.cursor, cat_order=len(ledger.cycles),
                pending=category(pending) if type(pending) is str
                else -1 - seq_of[id(pending)])
            ledger.source = self
        arrays["cat_cycles"], arrays["cat_order"] = (
            _q(cat_cycles), _q(cat_order))
        arrays["banked"] = _q(banked)
        return header

    def _python_state(self) -> dict:
        """This tile's state in the Python core's layout."""
        state = {name: value for name, value in self.__dict__.items()
                 if not name.startswith("_c_")}
        arrays = self._c_arrays
        mask = self._mask
        ring = mask + 1
        header = {name: self._c_h[index] for name, index in _H.items()}
        base, next_seq = header["window_base"], header["next_seq"]
        deps = [None] * ring
        e_seq, e_next, dep_head = (
            arrays["e_seq"], arrays["e_next"], arrays["dep_head"])
        for seq in range(base, next_seq):
            edge = dep_head[seq & mask]
            if edge >= 0:
                waiters = deps[seq & mask] = []
                while edge >= 0:
                    waiters.append(e_seq[edge])
                    edge = e_next[edge]
        calendar = {}
        queue = arrays["cq"]
        for cycle, _, seq in sorted(
                tuple(queue[3 * i:3 * i + 3])
                for i in range(header["cq_n"])):
            calendar.setdefault(cycle, []).append(seq)
        mao = arrays["mao"]
        stats = dataclasses.replace(self.stats)
        state.update(
            stats=stats,
            _next_seq=next_seq, _window_base=base,
            _next_dbb=header["next_dbb"],
            _mao_incomplete=header["mao_incomplete"],
            _accel_inflight=header["accel_inflight"],
            _finished=bool(header["finished"]),
            _live_total=header["live_total"],
            _last_terminator=header["last_terminator"],
            _last_terminator_done_at=header["last_terminator_done_at"],
            _launch_stall_until=header["launch_stall_until"],
            _prediction_correct=bool(header["prediction_correct"]),
            _prev_bid=None if header["prev_bid"] < 0
            else header["prev_bid"],
            _ready=sorted(arrays["ready"][:header["ready_n"]]), _retry=[],
            _calendar=calendar, _calendar_cycles=sorted(calendar),
            _mao=[mao[p & mask]
                  for p in range(header["mao_lo"], header["mao_hi"])],
            _mao_start=0,
            _fu_used=arrays["fu_used"].tolist()[:len(self._fu_limits)],
            _live_dbbs=arrays["live_dbbs"].tolist(),
            _last_seq=arrays["last_seq"].tolist(),
            _addr_cursor=arrays["addr_cursor"].tolist(),
            _r_deps=deps, _r_issued_at=arrays["issued_at"].tolist(),
            _d_launched_at=arrays["launched_at"].tolist(),
            _dyn_predictor=self._python_predictor())
        for name in ("r_iid", "r_state", "r_pending", "r_addr",
                     "r_addr_producer", "r_dbb", "d_remaining"):
            state["_" + name] = arrays[name].tolist()
        return state

    def _python_predictor(self):
        """The dynamic predictor with C's counters (and history)."""
        predictor = self._c_predictor
        if predictor is None:
            return None
        predictor = copy.copy(predictor)
        predictor._counters = self._c_arrays["pred"].tolist()
        if isinstance(predictor, GSharePredictor):
            predictor._history = self._c_h[H_PRED_HISTORY]
        return predictor

    def _c_category(self, name: str) -> int:
        """The ledger slot of attribution category ``name``."""
        ids = self._c_cat_ids
        category = ids.get(name)
        if category is None:
            if len(ids) == _CAT_CAP:
                raise SimulationError(
                    f"{self.name}: more than {_CAT_CAP} attribution "
                    f"categories")
            category = ids[name] = len(ids)
        return category

    def _sync_ledger(self, ledger) -> None:
        """Copy the C ledger into ``ledger`` (this tile's attributor) in
        the Python layout: categories in the order they were first
        booked, and pending or banked memory waits keyed by request."""
        arrays = self._c_arrays
        h = self._c_h
        names = list(self._c_cat_ids)
        order, cycles = arrays["cat_order"], arrays["cat_cycles"]
        booked = sorted((index for index in range(len(names))
                         if order[index]), key=order.__getitem__)
        ledger.cycles = {names[index]: cycles[index] for index in booked}
        ledger.cursor = h[_H["cursor"]]
        mask = self._mask
        requests = self._r_request
        pending = h[H_PENDING]
        ledger.pending = (names[pending] if pending >= 0
                          else requests[(-1 - pending) & mask])
        banked = arrays["banked"]
        ledger._deferred = {
            requests[seq & mask]: banked[seq & mask]
            for seq in range(h[_H["window_base"]], h[_H["next_seq"]])
            if banked[seq & mask]}

    def __reduce_ex__(self, protocol):
        return _blank_core_tile, (), self._python_state()

    # -- the Python view of C-owned state ---------------------------------
    @property
    def stats(self):
        stats = self.__dict__["stats"]
        h = self._c_h
        for name in _STATS:
            setattr(stats, name, h[_H[name]])
        stats.energy_nj = self._c_energy[0]
        return stats

    @stats.setter
    def stats(self, value) -> None:
        self.__dict__["stats"] = value

    @property
    def done(self) -> bool:
        return self._c_h[H_FINISHED] != 0

    @property
    def _accel_inflight(self) -> int:
        return self._c_h[H_ACCEL_INFLIGHT]

    @_accel_inflight.setter
    def _accel_inflight(self, value: int) -> None:
        self._c_h[H_ACCEL_INFLIGHT] = value

    def stall_state(self) -> dict:
        header = {name: self._c_h[index] for name, index in _H.items()}
        state = {
            "in_flight": header["next_seq"] - header["window_base"],
            "ready": header["ready_n"],
            "window_base": header["window_base"],
            "next_dbb": header["next_dbb"],
            "blocks_total": len(self.trace.block_trace),
            "outstanding_memory_ops": header["mao_incomplete"],
            "accel_inflight": header["accel_inflight"],
        }
        if self.attributor is not None:
            state["attribution"] = self.attributor.snapshot()
        return state

    # -- the step ----------------------------------------------------------
    def step(self, cycle: int) -> int:
        self.next_attention = NEVER
        result = self._c_step(self._c_ptr, cycle)
        while True:
            if self._c_h[H_NBUF]:
                self._flush(cycle)
            if result >= 0:
                return result
            result = self._c_exit(result, cycle)

    def _flush(self, cycle: int) -> None:
        """Send the plain-memory and store-buffer dispatches the C call
        queued, in issue order."""
        h = self._c_h
        buf = self._c_arrays["buf"]
        r_iid = self._r_iid
        r_addr = self._r_addr
        mask = self._mask
        kinds = self._dispatch_kind
        mem_args = self._mem_args_by_iid
        access = self.services.mem_access
        port = self.mem_port
        requests = self._r_request if self._c_attributed else None
        for index in range(h[H_NBUF]):
            seq = buf[index]
            slot = seq & mask
            iid = r_iid[slot]
            size, is_write, is_atomic, penalty = mem_args[iid]
            if kinds[iid] == _D_MEM:
                if penalty:
                    callback = _PenaltyComplete(self, seq, penalty)
                else:
                    callback = _ExternalComplete(self, seq)
                request = access(
                    port, r_addr[slot], size, is_write=is_write,
                    is_atomic=is_atomic, cycle=cycle, callback=callback)
                if requests is not None:
                    requests[slot] = request
            else:  # store buffer: retired at issue, drains async
                access(port, r_addr[slot], size, is_write=True,
                       is_atomic=False, cycle=cycle, callback=_noop)
        h[H_NBUF] = 0

    def _c_exit(self, code: int, cycle: int) -> int:
        """Handle what ended a C call (its queued dispatches already
        sent), then continue the step."""
        if code == _EXIT_RESERVE:
            argument = 1 if self._reserve_load_slot() else 0
        elif code == _EXIT_DISPATCH:
            seq = self._c_h[H_EXIT_SEQ]
            kind = self._dispatch_kind[self._r_iid[seq & self._mask]]
            self._c_exit_completion = -1
            if kind == _D_CALL_ACCEL:
                stats = self.stats
                self._dispatch_accel(seq, cycle)
                self._c_energy[0] = stats.energy_nj
            elif kind == _D_CALL_COMM:
                self._dispatch_comm(seq, cycle)
            else:  # DeSC: C already scheduled the retirement
                self._dispatch_desc(seq, kind, cycle)
            argument = self._c_exit_completion
        elif code == _ERR_TRACE:
            raise SimulationError(
                f"{self.name}: the address trace ran out while launching "
                f"DBB {self._c_h[_H['next_dbb']]}")
        else:
            raise SimulationError(
                f"{self.name}: compiled core capacity exceeded "
                f"(code {code})")
        return self._c_resume(self._c_ptr, cycle, argument)

    def _schedule_completion(self, seq: int, cycle: int) -> None:
        # only reached from a dispatch handled in _c_exit, for the exiting
        # instruction: core_resume pushes it in issue order
        self._c_exit_completion = cycle

    def _external_complete(self, seq: int, cycle: int) -> None:
        if self._c_attributed:
            # the response classified the request: name its level to C
            slot = seq & self._mask
            request = self._r_request[slot]
            if request is not None:
                self._r_request[slot] = None
                self._c_h[H_RESOLVE] = self._c_category(
                    memory_category(request))
        if self._c_complete(self._c_ptr, seq, cycle):
            raise SimulationError(
                f"{self.name}: compiled core capacity exceeded")
        self.wake(cycle)

