"""Functional semantics of the accelerator-invocation intrinsics.

During trace generation, an ``accel_*`` call must actually *do* the work —
later kernel code (and host-side result checks) observe its output — while
the timing simulator separately charges its cost through an accelerator
tile model. These numpy implementations are shared by the interpreter and
the test suite.

Each kind is declared once, in :data:`ACCEL_OPS`: its numpy handler and
its argument layout (pointer arguments first, all base addresses into
:class:`~repro.trace.memory.SimMemory`, then the configuration
parameters). The intrinsic registry, the native shims and the timing
model's invocation decoder all read that table.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .memory import SimMemory


def apply_accelerator(name: str, args: Sequence, memory: SimMemory) -> None:
    """Execute the functional effect of accelerator intrinsic ``name``."""
    accel_op(name).handler(memory, *[int(a) for a in args])


def accel_op(name: str) -> "AccelOp":
    """The :data:`ACCEL_OPS` row of intrinsic ``name`` (``accel_<kind>``)."""
    op = ACCEL_OPS.get(name[len("accel_"):]) \
        if name.startswith("accel_") else None
    if op is None:
        raise KeyError(f"no accelerator kind for intrinsic {name!r}")
    return op


def _sgemm(mem: SimMemory, a: int, b: int, c: int, n: int, m: int,
           k: int) -> None:
    A = mem.view(a, n * k).reshape(n, k)
    B = mem.view(b, k * m).reshape(k, m)
    C = mem.view(c, n * m).reshape(n, m)
    C += A @ B


def _elementwise(mem: SimMemory, a: int, b: int, c: int, n: int) -> None:
    A = mem.view(a, n)
    B = mem.view(b, n)
    C = mem.view(c, n)
    np.multiply(A, B, out=C)


def _histo(mem: SimMemory, data: int, hist: int, n: int, bins: int,
           sat: int) -> None:
    values = mem.view(data, n).astype(np.int64) % bins
    H = mem.view(hist, bins)
    counts = np.bincount(values, minlength=bins)
    np.minimum(H + counts, sat, out=H)


def _conv2d(mem: SimMemory, x: int, w: int, y: int, h: int, width: int,
            cin: int, cout: int, kh: int, kw: int) -> None:
    X = mem.view(x, h * width * cin).reshape(h, width, cin)
    W = mem.view(w, kh * kw * cin * cout).reshape(kh, kw, cin, cout)
    oh, ow = h - kh + 1, width - kw + 1
    Y = mem.view(y, oh * ow * cout).reshape(oh, ow, cout)
    Y[:] = 0
    for di in range(kh):
        for dj in range(kw):
            patch = X[di:di + oh, dj:dj + ow, :]
            Y += np.tensordot(patch, W[di, dj], axes=([2], [0]))


def _dense(mem: SimMemory, x: int, w: int, y: int, batch: int, din: int,
           dout: int) -> None:
    X = mem.view(x, batch * din).reshape(batch, din)
    W = mem.view(w, din * dout).reshape(din, dout)
    Y = mem.view(y, batch * dout).reshape(batch, dout)
    Y[:] = X @ W


def _relu(mem: SimMemory, x: int, y: int, n: int) -> None:
    X = mem.view(x, n)
    Y = mem.view(y, n)
    np.maximum(X, 0, out=Y)


def _pool(mem: SimMemory, x: int, y: int, h: int, w: int, c: int,
          stride: int) -> None:
    X = mem.view(x, h * w * c).reshape(h, w, c)
    oh, ow = h // stride, w // stride
    Y = mem.view(y, oh * ow * c).reshape(oh, ow, c)
    trimmed = X[:oh * stride, :ow * stride, :]
    Y[:] = trimmed.reshape(oh, stride, ow, stride, c).max(axis=(1, 3))


def _batchnorm(mem: SimMemory, x: int, y: int, n: int) -> None:
    X = mem.view(x, n)
    Y = mem.view(y, n)
    std = X.std()
    Y[:] = (X - X.mean()) / (std if std > 0 else 1.0)


class AccelOp(NamedTuple):
    """One accelerator kind: the intrinsic ``accel_<kind>(*pointers,
    *params)`` does ``handler(memory, *args)``."""

    handler: Callable[..., None]
    #: how many leading arguments are base addresses
    pointers: int
    #: names of the configuration parameters that follow the pointers
    params: Tuple[str, ...]


#: accelerator kind -> functional model and argument layout
ACCEL_OPS: Dict[str, AccelOp] = {
    # (A, B, C, ...): C[n,m] += A[n,k] @ B[k,m]
    "sgemm": AccelOp(_sgemm, 3, ("n", "m", "k")),
    # (data, hist, ...): saturating histogram
    "histo": AccelOp(_histo, 2, ("n", "bins", "sat")),
    # (A, B, C, ...): C[i] = A[i] * B[i]
    "elementwise": AccelOp(_elementwise, 3, ("n",)),
    # (X, W, Y, ...): valid convolution
    "conv2d": AccelOp(_conv2d, 3, ("h", "w", "cin", "cout", "kh", "kw")),
    # (X, W, Y, ...): Y = X @ W
    "dense": AccelOp(_dense, 3, ("batch", "din", "dout")),
    # (X, Y, ...): max pool
    "pool": AccelOp(_pool, 2, ("h", "w", "c", "stride")),
    # (X, Y, ...): Y = max(X, 0)
    "relu": AccelOp(_relu, 2, ("n",)),
    # (X, Y, ...): normalize to zero mean / unit variance
    "batchnorm": AccelOp(_batchnorm, 2, ("n",)),
}
