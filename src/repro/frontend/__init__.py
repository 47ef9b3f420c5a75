"""``repro.frontend`` — the kernel front-end (Clang analogue).

Compiles kernels written in a restricted Python dialect to the SSA mini-IR
and registers the simulator intrinsics (SPMD queries, message passing, DAE
queues, atomics, accelerator API).
"""

from .compiler import CompileError, compile_kernel, compile_module
from .intrinsics import ACCEL_INTRINSICS, IntrinsicInfo, all_intrinsics, lookup
from .native import NativeContext

__all__ = [
    "CompileError", "compile_kernel", "compile_module",
    "ACCEL_INTRINSICS", "IntrinsicInfo", "all_intrinsics", "lookup",
    "NativeContext",
]
