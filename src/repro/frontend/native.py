"""Native-Python shims for kernel intrinsics.

Kernels are plain Python functions, so they can also be executed directly
by CPython for differential testing against the IR interpreter. This module
provides the intrinsic names as ordinary functions operating on Python
lists / numpy arrays, with tile context supplied by :class:`NativeContext`.

Usage::

    with NativeContext(tile=0, num_tiles=4):
        my_kernel(A, B, C, n)
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..trace.accel_ops import ACCEL_OPS


class NativeContext:
    """Binds tile_id/num_tiles and message queues for a native run."""

    _current: "NativeContext" = None  # type: ignore[assignment]

    def __init__(self, tile: int = 0, num_tiles: int = 1):
        self.tile = tile
        self.num_tiles_value = num_tiles
        self.channels: Dict[int, List] = {}
        self._previous: "NativeContext" = None  # type: ignore[assignment]

    def __enter__(self) -> "NativeContext":
        self._previous = NativeContext._current
        NativeContext._current = self
        return self

    def __exit__(self, *exc) -> None:
        NativeContext._current = self._previous

    @classmethod
    def current(cls) -> "NativeContext":
        if cls._current is None:
            return NativeContext()
        return cls._current


def tile_id() -> int:
    return NativeContext.current().tile


def num_tiles() -> int:
    return NativeContext.current().num_tiles_value


def send_i64(dest: int, value: int) -> None:
    NativeContext.current().channels.setdefault(dest, []).append(int(value))


def send_f64(dest: int, value: float) -> None:
    NativeContext.current().channels.setdefault(dest, []).append(float(value))


def recv_i64(src: int) -> int:
    return NativeContext.current().channels.setdefault(src, []).pop(0)


def recv_f64(src: int) -> float:
    return NativeContext.current().channels.setdefault(src, []).pop(0)


def atomic_add(array, index: int, value):
    old = array[index]
    array[index] = old + value
    return old


def atomic_sub(array, index: int, value):
    old = array[index]
    array[index] = old - value
    return old


def atomic_min(array, index: int, value):
    old = array[index]
    array[index] = min(old, value)
    return old


def atomic_max(array, index: int, value):
    old = array[index]
    array[index] = max(old, value)
    return old


def atomic_xchg(array, index: int, value):
    old = array[index]
    array[index] = value
    return old


def sqrtf(x: float) -> float:
    return math.sqrt(x)


def rsqrtf(x: float) -> float:
    return 1.0 / math.sqrt(x)


def expf(x: float) -> float:
    return math.exp(x)


def logf(x: float) -> float:
    return math.log(x)


def sinf(x: float) -> float:
    return math.sin(x)


def cosf(x: float) -> float:
    return math.cos(x)


def fabsf(x: float) -> float:
    return abs(x)


def floorf(x: float) -> float:
    return float(math.floor(x))


# Accelerator invocations do not run natively: the numeric effect of an
# accelerated kernel region is applied by the functional model during
# trace generation, so native runs exercise the software fallback path.
def _accel(*args) -> None:
    raise NotImplementedError(
        "accelerator intrinsics only execute under the IR interpreter")


for _kind in ACCEL_OPS:
    globals()[f"accel_{_kind}"] = _accel
