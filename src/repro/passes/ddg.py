"""Static Data Dependency Graph (DDG) generator — paper §II-A.

From a finalized IR function, builds the graph representation the timing
simulator executes: per-basic-block instruction nodes with

* **intra/cross-block data edges** — for each operand produced by another
  instruction, a static edge producer → consumer. At simulation time a
  dynamic node's parent is the *latest dynamic instance* of the static
  producer (which, by SSA dominance and the serial launching of DBBs, is
  exactly the defining instance);
* **phi incoming maps** — a phi selects its producer by the basic block the
  control-flow trace actually arrived from;
* **terminator marking** — terminator completion launches the next DBB
  (paper rule 3).

The DDG is a pure-data structure (no references back into the IR except
node metadata) so the simulator can be driven from it and a trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..frontend import intrinsics as intrin
from ..ir.function import Function
from ..ir.instructions import (
    CallInst, Instruction, OpClass, Opcode, PhiInst,
)


@dataclass
class DDGNode:
    """One static instruction in the dependence graph."""

    iid: int
    opcode: Opcode
    opclass: OpClass
    bid: int
    #: producers of non-phi operands: (producer_iid, ...) — includes only
    #: operands that are instructions (constants/arguments are free)
    operand_iids: Tuple[int, ...] = ()
    #: for phi nodes: predecessor bid -> producer iid (or None for
    #: constant/argument incomings)
    phi_incoming: Dict[int, Optional[int]] = field(default_factory=dict)
    is_terminator: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    #: bytes accessed for memory ops
    access_size: int = 0
    #: producer of the address operand for memory ops (None when the
    #: address comes directly from an argument/constant) — used by the MAO
    #: to decide when an access's address is *resolved*
    pointer_operand_iid: Optional[int] = None
    #: callee name for call instructions ("" otherwise)
    callee: str = ""
    #: timing class for intrinsic calls ("" for non-calls)
    intrinsic_timing: str = ""
    #: static consumers (iids) of this node's result, for completion wakeups
    dependent_iids: Tuple[int, ...] = ()
    #: ISA-folded (paper §VI-A: "simulating pairs of load and
    #: getelementptr as one instruction for x86"): the node is free — it
    #: completes the moment its parents do, consumes no issue slot, and is
    #: not counted as an instruction. Set by ISA-tuning passes.
    folded: bool = False
    #: DAE decoupled load (DeSC terminal-load-buffer semantics): the load
    #: issues its memory request and immediately retires from the window;
    #: the response is deposited directly into the pair's load queue. Set
    #: by :func:`repro.passes.dae_slicing.mark_decoupled`.
    decoupled: bool = False
    #: DAE decoupled store (DeSC store address/value buffers): the store
    #: retires once its address is ready; the write fires when the value
    #: token arrives from the execute slice's store-value queue.
    decoupled_store: bool = False
    #: ``is_load or is_store``, materialized at build time — the timing
    #: simulator reads this on every issue/complete, so it must be a
    #: plain attribute, not a computed property
    is_memory: bool = False


@dataclass
class DDGBlock:
    """Static metadata for one basic block."""

    bid: int
    name: str
    #: node iids in program order (phis first)
    node_iids: List[int]
    #: number of leading phi nodes
    num_phis: int
    terminator_iid: int
    successor_bids: Tuple[int, ...]


@dataclass
class StaticDDG:
    """The full static dependence graph of one kernel function."""

    function: str
    nodes: List[DDGNode]          # indexed by iid (contiguous)
    blocks: List[DDGBlock]        # indexed by bid (contiguous)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_ddg(func: Function) -> StaticDDG:
    """Construct the static DDG for a finalized function."""
    if not func.finalized:
        func.finalize()

    nodes: List[Optional[DDGNode]] = [None] * func.num_instructions
    dependents: Dict[int, List[int]] = {}

    for block in func.blocks:
        for inst in block.instructions:
            node = _make_node(inst, block.bid)
            nodes[inst.iid] = node
            for producer in node.operand_iids:
                dependents.setdefault(producer, []).append(inst.iid)
            for producer in node.phi_incoming.values():
                if producer is not None:
                    dependents.setdefault(producer, []).append(inst.iid)

    for iid, consumer_list in dependents.items():
        nodes[iid].dependent_iids = tuple(sorted(set(consumer_list)))

    blocks = []
    for block in func.blocks:
        iids = [inst.iid for inst in block.instructions]
        term = block.terminator
        blocks.append(DDGBlock(
            bid=block.bid,
            name=block.name,
            node_iids=iids,
            num_phis=len(block.phis),
            terminator_iid=term.iid,
            successor_bids=tuple(s.bid for s in block.successors),
        ))

    return StaticDDG(func.name, [n for n in nodes], blocks)


def _make_node(inst: Instruction, bid: int) -> DDGNode:
    if isinstance(inst, PhiInst):
        incoming: Dict[int, Optional[int]] = {}
        for value, pred in zip(inst.operands, inst.incoming_blocks):
            producer = value.iid if isinstance(value, Instruction) else None
            incoming[pred.bid] = producer
        return DDGNode(inst.iid, inst.opcode, inst.opclass, bid,
                       phi_incoming=incoming)

    operand_iids = tuple(
        op.iid for op in inst.operands if isinstance(op, Instruction))
    node = DDGNode(inst.iid, inst.opcode, inst.opclass, bid,
                   operand_iids=operand_iids)
    node.is_terminator = inst.is_terminator
    node.is_branch = inst.opcode is Opcode.BR
    pointer = None
    if inst.opcode in (Opcode.LOAD, Opcode.ATOMICRMW):
        node.is_load = True
        node.access_size = inst.type.size
        pointer = inst.operands[0]
    if inst.opcode is Opcode.STORE:
        node.is_store = True
        node.access_size = inst.operands[0].type.size
        pointer = inst.operands[1]
    if inst.opcode is Opcode.ATOMICRMW:
        node.is_store = True
    if isinstance(pointer, Instruction):
        node.pointer_operand_iid = pointer.iid
    if isinstance(inst, CallInst):
        node.callee = inst.callee
        info = intrin.lookup(inst.callee)
        node.intrinsic_timing = info.timing if info else ""
    node.is_memory = node.is_load or node.is_store
    return node
