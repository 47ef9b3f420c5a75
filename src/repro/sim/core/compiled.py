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

:func:`bind` picks the backend when a run starts, with no knob: C when
the library loads, the tile has no tracer or attributor, and the branch
predictor is ``none``, ``perfect`` or ``static``; otherwise the Python
core, which stays the reference model. The library is built with
``gcc -O2 -shared -fPIC`` into the user cache directory, named by the
hash of the source, on the first compiled tile. With no ``gcc`` on
``PATH`` the Python core runs; a source that fails to build raises.

A compiled tile pickles in the Python layout (as a plain
:class:`CoreTile`), so a checkpoint resumes under either backend.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Optional

from ..errors import SimulationError
from ..tile import NEVER
from ...ir.instructions import Opcode
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
)
_H = {name: index for index, name in enumerate(_HEADER)}
H_FINISHED, H_ACCEL_INFLIGHT, H_EXIT_SEQ, H_NBUF = (
    _H["finished"], _H["accel_inflight"], _H["exit_seq"], _H["nbuf"])
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
)
_FLAG_FREE, _FLAG_MEM, _FLAG_STORE, _FLAG_PHI = 1, 2, 4, 8
_EXIT_RESERVE, _EXIT_DISPATCH, _ERR_TRACE = -1, -2, -3

#: branch predictors the C step implements
COMPILED_PREDICTORS = ("none", "perfect", "static")


class _Core(ctypes.Structure):
    _fields_ = [("h", ctypes.c_void_p), ("energy", ctypes.c_void_p)] + [
        (name, ctypes.c_void_p) for name in _ARRAYS]


# -- building and loading ------------------------------------------------
_library = None          # None: not tried yet; False: no compiler


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _build(gcc: str) -> Path:
    """Compile ``step.c`` once per source hash; returns the ``.so``."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    name = f"core-step-{digest}.so"
    for directory in (_cache_dir(), Path(tempfile.gettempdir()) / "repro"):
        path = directory / name
        if path.exists():
            return path
        try:
            directory.mkdir(parents=True, exist_ok=True)
            scratch = directory / f".{name}.{os.getpid()}.tmp"
            result = subprocess.run(
                [gcc, "-O2", "-shared", "-fPIC", "-o", str(scratch),
                 str(SOURCE)], capture_output=True, text=True)
        except OSError:
            continue  # unwritable cache directory: try the next one
        if result.returncode != 0:
            raise SimulationError(
                f"the compiled core ({SOURCE.name}) failed to build:\n"
                f"{result.stderr.strip()}")
        os.replace(scratch, path)  # atomic: readers never see a partial .so
        return path
    raise SimulationError("no writable directory for the compiled core")


def load() -> Optional[ctypes.CDLL]:
    """The compiled step library, or None when ``gcc`` is not on PATH.
    Built and loaded on first use, never at import."""
    global _library
    if _library is None:
        gcc = shutil.which("gcc")
        if gcc is None:
            _library = False
        else:
            lib = ctypes.CDLL(str(_build(gcc)))
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
    """Run ``tile`` on the compiled step when that applies."""
    if (type(tile) is not CoreTile or tile.tracer is not None
            or tile.attributor is not None or tile._finished
            or tile.config.branch_predictor not in COMPILED_PREDICTORS):
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
        "_r_request", "_d_remaining", "_d_launched_at")

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
            _r_deps=deps, _r_issued_at=[0] * ring,
            _r_request=[None] * ring, _d_launched_at=[0] * ring)
        for name in ("r_iid", "r_state", "r_pending", "r_addr",
                     "r_addr_producer", "r_dbb", "d_remaining"):
            state["_" + name] = arrays[name].tolist()
        return state

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
        return {
            "in_flight": header["next_seq"] - header["window_base"],
            "ready": header["ready_n"],
            "window_base": header["window_base"],
            "next_dbb": header["next_dbb"],
            "blocks_total": len(self.trace.block_trace),
            "outstanding_memory_ops": header["mao_incomplete"],
            "accel_inflight": header["accel_inflight"],
        }

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
                access(port, r_addr[slot], size, is_write=is_write,
                       is_atomic=is_atomic, cycle=cycle, callback=callback)
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
        if self._c_complete(self._c_ptr, seq, cycle):
            raise SimulationError(
                f"{self.name}: compiled core capacity exceeded")
        self.wake(cycle)

