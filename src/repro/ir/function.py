"""Functions and modules of the mini-IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import IRType, VOID
from .values import Argument, GlobalVariable


class Function:
    """An IR function: a list of typed arguments and basic blocks.

    The first block is the entry block. After construction, call
    :meth:`finalize` to assign stable instruction ids (``iid``) used by the
    DDG, traces, and the timing simulator.
    """

    def __init__(self, name: str, arg_types: Sequence[Tuple[str, IRType]],
                 return_type: IRType = VOID):
        self.name = name
        self.return_type = return_type
        self.args: List[Argument] = [
            Argument(ty, arg_name, i)
            for i, (arg_name, ty) in enumerate(arg_types)
        ]
        self.blocks: List[BasicBlock] = []
        self._names_used: Dict[str, int] = {}
        #: set by :meth:`finalize`
        self.finalized = False
        #: attributes set by passes (e.g. "kernel", "dae_slice")
        self.attributes: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def add_block(self, name: str) -> BasicBlock:
        block = BasicBlock(self.unique_name(name))
        block.parent = self
        block.bid = len(self.blocks)
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block_by_name(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name} in {self.name}")

    # ------------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        """Return a name not yet used for a block or value in this function."""
        base = base or "v"
        count = self._names_used.get(base)
        if count is None:
            self._names_used[base] = 1
            return base
        self._names_used[base] = count + 1
        return f"{base}.{count}"

    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def finalize(self) -> "Function":
        """Assign sequential instruction ids and re-number blocks."""
        for bid, block in enumerate(self.blocks):
            block.bid = bid
        iid = 0
        for inst in self.instructions():
            inst.iid = iid
            iid += 1
        self.finalized = True
        return self

    @property
    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        return (f"<Function {self.name}({len(self.args)} args, "
                f"{len(self.blocks)} blocks)>")


class Module:
    """A compilation unit: named functions plus global array symbols."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name}")
        self.functions[func.name] = func
        return func

    def add_global(self, var: GlobalVariable) -> GlobalVariable:
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name}")
        self.globals[var.name] = var
        return var

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name} in module {self.name}") from None

    def __repr__(self) -> str:
        return f"<Module {self.name}: {sorted(self.functions)}>"
