"""``repro.trace`` — the Dynamic Trace Generator.

Functional execution of mini-IR kernels over a flat simulated memory,
producing the control-flow and memory traces that drive the timing
simulator (paper §II-A), plus trace (de)serialization.
"""

from .accel_ops import apply_accelerator
from .interpreter import Interpreter, InterpreterError, StepLimitExceeded
from .memory import ArrayRef, MemoryError_, SimMemory
from .tracefile import (
    AccelInvocation, KernelTrace, load_traces, save_traces,
    trace_footprint_bytes,
)

__all__ = [
    "apply_accelerator",
    "Interpreter", "InterpreterError", "StepLimitExceeded",
    "ArrayRef", "MemoryError_", "SimMemory",
    "AccelInvocation", "KernelTrace", "load_traces", "save_traces",
    "trace_footprint_bytes",
]
