"""Flat simulated memory for the trace interpreter.

The Dynamic Trace Generator executes kernels functionally, so — unlike the
timing simulator, which only needs tags — it holds real data. Memory is a
single 64-bit address space; :meth:`SimMemory.alloc` carves out typed array
segments (numpy-backed), and loads/stores translate addresses back to
segment elements. Host code initializes inputs and inspects outputs through
the returned :class:`ArrayRef` handles.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Union

import numpy as np

from ..ir.types import F32, F64, I8, I32, I64, IRType

_DTYPES = {
    "f64": np.float64, "f32": np.float32,
    "i64": np.int64, "i32": np.int32, "i8": np.int8, "i16": np.int16,
    "i1": np.int8,
}

#: base of the first allocated segment; leaves page zero unmapped so that
#: accidental null dereferences fault loudly.
_BASE_ADDRESS = 0x10000
_ALIGNMENT = 64


class MemoryError_(Exception):
    """Raised on out-of-bounds or unmapped access."""


class ArrayRef:
    """Host handle to an allocated array segment."""

    def __init__(self, name: str, base: int, element_type: IRType,
                 data: np.ndarray, memory: "SimMemory" = None):
        self.name = name
        self.base = base
        self.element_type = element_type
        self.data = data
        #: the SimMemory this segment belongs to
        self.memory = memory

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def end(self) -> int:
        return self.base + self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index):
        return self.data[index]

    def __setitem__(self, index, value) -> None:
        self.data[index] = value

    def address_of(self, index: int) -> int:
        return self.base + index * self.element_type.size

    def __repr__(self) -> str:
        return (f"<ArrayRef {self.name}: {len(self.data)} x "
                f"{self.element_type} @ {self.base:#x}>")


class SimMemory:
    """A 64-bit flat address space made of typed array segments."""

    def __init__(self):
        self._segments: List[ArrayRef] = []
        self._bases: List[int] = []
        self._next = _BASE_ADDRESS
        #: optional FaultInjector; when set, loads may return bit-flipped
        #: values (deterministic under the injector's seed)
        self.injector = None

    # ------------------------------------------------------------------
    def alloc(self, count: int, element_type: IRType,
              name: str = "arr",
              init: Optional[Union[Sequence, np.ndarray]] = None) -> ArrayRef:
        """Allocate ``count`` elements of ``element_type``; optionally copy
        ``init`` into the new segment."""
        if count <= 0:
            raise ValueError(f"allocation size must be positive, got {count}")
        dtype = _DTYPES[str(element_type)]
        data = np.zeros(count, dtype=dtype)
        if init is not None:
            arr = np.asarray(init, dtype=dtype)
            if arr.shape != (count,):
                raise ValueError(
                    f"init shape {arr.shape} != ({count},) for {name}")
            data[:] = arr
        ref = ArrayRef(name, self._next, element_type, data, memory=self)
        self._segments.append(ref)
        self._bases.append(ref.base)
        size = count * element_type.size
        self._next += (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        return ref

    # ------------------------------------------------------------------
    def _segment_for(self, address: int) -> ArrayRef:
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            raise MemoryError_(f"unmapped address {address:#x}")
        segment = self._segments[index]
        if address >= segment.end:
            raise MemoryError_(
                f"address {address:#x} past end of segment {segment.name} "
                f"([{segment.base:#x}, {segment.end:#x}))")
        return segment

    def load(self, address: int, ty: IRType):
        segment = self._segment_for(address)
        offset = address - segment.base
        elem_size = segment.element_type.size
        if offset % elem_size:
            raise MemoryError_(
                f"misaligned access at {address:#x} in {segment.name}")
        value = segment.data[offset // elem_size]
        value = float(value) if ty.is_float else int(value)
        if self.injector is not None:
            value = self.injector.corrupt_load(address, value)
        return value

    def store(self, address: int, value) -> None:
        segment = self._segment_for(address)
        offset = address - segment.base
        elem_size = segment.element_type.size
        if offset % elem_size:
            raise MemoryError_(
                f"misaligned access at {address:#x} in {segment.name}")
        segment.data[offset // elem_size] = value

    def view(self, address: int, count: int) -> np.ndarray:
        """Return a numpy view of ``count`` elements starting at ``address``
        (must lie within one segment). Used by functional accelerator ops."""
        segment = self._segment_for(address)
        start = (address - segment.base) // segment.element_type.size
        if start + count > len(segment.data):
            raise MemoryError_(
                f"view of {count} elements at {address:#x} exceeds segment "
                f"{segment.name}")
        return segment.data[start:start + count]

    @property
    def segments(self) -> List[ArrayRef]:
        return list(self._segments)

    @property
    def footprint_bytes(self) -> int:
        return sum(s.nbytes for s in self._segments)
