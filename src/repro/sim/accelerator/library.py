"""Accelerator design library.

An :class:`AcceleratorDesign` is plain data: an accelerator kind and the
size of its private local memory (PLM), the design-space knob swept in
Figure 10 (4 KB–256 KB). Everything the performance models read comes
from the kind's row in :data:`KINDS`: the paper's three fixed-function
accelerators (§VI-A: matrix multiplication, saturating histogram,
element-wise arithmetic) and the neural-network kernels of §VII-C
(convolution, dense, pooling, activation, batch norm).

Every kind is one pipelined load / compute / store template (§IV-B): the
compute stage runs ``work(p) // lanes`` single-cycle iterations, and the
load and store stages move ``in_bytes`` and ``out_bytes`` through the
communication model. A kind whose output is read back as well as written
(sgemm's ``C +=``, histo's saturating update) moves its output twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ...trace.accel_ops import accel_op
from ...trace.tracefile import AccelInvocation

#: configuration parameters of one invocation (accelerator-specific keys,
#: e.g. {"n": 64, "m": 64, "k": 64}); the names follow the argument
#: layouts of :data:`repro.trace.accel_ops.ACCEL_OPS`
AccelParams = Dict[str, int]

#: bytes per element everywhere (f64 / i64)
ELEM = 8
KB = 1024
#: SRAM area per PLM byte, um^2 (22nm-flavored)
_AREA_PER_PLM_BYTE = 2.6


class AcceleratorKind(NamedTuple):
    """One row of the design library."""

    #: datapath lanes (elements processed per compute-loop iteration)
    lanes: int
    #: silicon area without the PLM (um^2)
    base_area_um2: float
    #: average power at a zero-byte PLM (W)
    base_power_w: float
    #: PLM size of the kind's default design point
    plm_bytes: int
    #: datapath operations of one invocation
    work: Callable[[AccelParams], int]
    #: bytes loaded per invocation, given the PLM size
    in_bytes: Callable[[AccelParams, int], int]
    #: bytes of output per invocation
    out_bytes: Callable[[AccelParams], int]
    #: the output is read back before it is written (moves twice)
    reads_output: bool = False
    #: chunk count, given the PLM size; by default the input streams
    #: through half the PLM (double buffering)
    chunks: Optional[Callable[[AccelParams, int], int]] = None


def _sgemm_block(plm_bytes: int) -> int:
    """The PLM holds an A, a B and a C tile, double-buffered, so the
    block edge is b ~ sqrt(PLM/2 / (3*8B))."""
    usable = max(3 * ELEM * 16, plm_bytes // 2)
    return max(4, math.isqrt(usable // (3 * ELEM)))


def _sgemm_in_bytes(p: AccelParams, plm_bytes: int) -> int:
    """A and B are reloaded once per block of the longer output edge:
    smaller PLMs reload tiles more often, which is the Figure 10a effect
    (execution time falls as the PLM grows)."""
    block = _sgemm_block(plm_bytes)
    reuse_blocks = max(1, math.ceil(max(p["n"], p["m"]) / block))
    return (p["n"] * p["k"] + p["k"] * p["m"]) * ELEM * reuse_blocks


def _sgemm_chunks(p: AccelParams, plm_bytes: int) -> int:
    block = _sgemm_block(plm_bytes)
    return math.ceil(p["n"] / block) * math.ceil(p["m"] / block)


def _conv_outputs(p: AccelParams) -> int:
    return (p["h"] - p["kh"] + 1) * (p["w"] - p["kw"] + 1) * p["cout"]


def _pool_elems(p: AccelParams) -> int:
    return p["h"] * p["w"] * p["c"]


#: accelerator kind -> design row; the kinds match
#: :data:`repro.trace.accel_ops.ACCEL_OPS`
KINDS: Dict[str, AcceleratorKind] = {
    # C[n,m] += A[n,k] @ B[k,m], blocked into PLM-sized tiles
    "sgemm": AcceleratorKind(
        8, 9.0e4, 0.45, 64 * KB,
        work=lambda p: p["n"] * p["m"] * p["k"],
        in_bytes=_sgemm_in_bytes,
        out_bytes=lambda p: p["n"] * p["m"] * ELEM,
        reads_output=True, chunks=_sgemm_chunks),
    # saturating histogram over n inputs into `bins` bins
    "histo": AcceleratorKind(
        2, 5.5e4, 0.18, 64 * KB,
        work=lambda p: p["n"],
        in_bytes=lambda p, plm: p["n"] * ELEM,
        out_bytes=lambda p: p["bins"] * ELEM,
        reads_output=True),
    # C[i] = A[i] * B[i] over n elements
    "elementwise": AcceleratorKind(
        16, 4.0e4, 0.12, 64 * KB,
        work=lambda p: p["n"],
        in_bytes=lambda p, plm: 2 * p["n"] * ELEM,
        out_bytes=lambda p: p["n"] * ELEM),
    "conv2d": AcceleratorKind(
        16, 1.1e5, 0.45, 128 * KB,
        work=lambda p: _conv_outputs(p) * p["kh"] * p["kw"] * p["cin"],
        in_bytes=lambda p, plm: (p["h"] * p["w"] * p["cin"] + p["kh"]
                                 * p["kw"] * p["cin"] * p["cout"]) * ELEM,
        out_bytes=lambda p: _conv_outputs(p) * ELEM),
    "dense": AcceleratorKind(
        4, 8.0e4, 0.80, 128 * KB,
        work=lambda p: p["batch"] * p["din"] * p["dout"],
        in_bytes=lambda p, plm: (p["batch"] * p["din"]
                                 + p["din"] * p["dout"]) * ELEM,
        out_bytes=lambda p: p["batch"] * p["dout"] * ELEM),
    "pool": AcceleratorKind(
        16, 4.5e4, 0.10, 32 * KB,
        work=_pool_elems,
        in_bytes=lambda p, plm: _pool_elems(p) * ELEM,
        out_bytes=lambda p: _pool_elems(p) * ELEM),
    "relu": AcceleratorKind(
        32, 3.0e4, 0.08, 16 * KB,
        work=lambda p: p["n"],
        in_bytes=lambda p, plm: p["n"] * ELEM,
        out_bytes=lambda p: p["n"] * ELEM),
    "batchnorm": AcceleratorKind(
        16, 5.0e4, 0.15, 32 * KB,
        work=lambda p: p["n"],
        in_bytes=lambda p, plm: p["n"] * ELEM,
        out_bytes=lambda p: p["n"] * ELEM),
}


@dataclass(frozen=True)
class AcceleratorDesign:
    """A design point: an accelerator kind at one PLM size (the kind's
    default when ``plm_bytes`` is None)."""

    kind: str
    #: private local memory size of this design point (bytes)
    plm_bytes: Optional[int] = None

    frequency_ghz = 1.0

    def __post_init__(self):
        if self.plm_bytes is None:
            object.__setattr__(self, "plm_bytes", KINDS[self.kind].plm_bytes)

    @property
    def row(self) -> AcceleratorKind:
        return KINDS[self.kind]

    @property
    def name(self) -> str:
        return f"{self.kind}_plm{self.plm_bytes // KB}k"

    @property
    def area_um2(self) -> float:
        """Silicon area of this design point, for DSE plots (Fig. 10)."""
        return self.row.base_area_um2 + _AREA_PER_PLM_BYTE * self.plm_bytes

    @property
    def avg_power_watts(self) -> float:
        return self.row.base_power_w * (1.0 + self.plm_bytes / (KB * KB))

    def bytes_transferred(self, params: AccelParams) -> int:
        """Bytes moved to and from memory by one invocation."""
        row = self.row
        out = row.out_bytes(params) * (2 if row.reads_output else 1)
        return row.in_bytes(params, self.plm_bytes) + out

    def num_chunks(self, params: AccelParams) -> int:
        """PLM-sized chunks the invocation is pipelined over."""
        row = self.row
        if row.chunks is not None:
            return max(1, row.chunks(params, self.plm_bytes))
        usable = max(ELEM, self.plm_bytes // 2)
        return max(1, math.ceil(row.in_bytes(params, self.plm_bytes)
                                / usable))

    def compute_cycles(self, params: AccelParams) -> int:
        """Cycles of the compute stage over the whole invocation."""
        return max(1, self.row.work(params) // self.row.lanes)


#: kind -> factory ``(plm_bytes=<the kind's default>) -> design``
DESIGN_FACTORIES: Dict[str, Callable[..., AcceleratorDesign]] = {
    kind: partial(AcceleratorDesign, kind) for kind in KINDS}
sgemm_design = DESIGN_FACTORIES["sgemm"]
histo_design = DESIGN_FACTORIES["histo"]
elementwise_design = DESIGN_FACTORIES["elementwise"]


def params_from_invocation(invocation: AccelInvocation) -> Tuple[
        str, AccelParams]:
    """Map a traced ``accel_*`` call to (design kind, model parameters):
    the configuration arguments after the pointers, named by the kind's
    layout in :data:`repro.trace.accel_ops.ACCEL_OPS`."""
    op = accel_op(invocation.name)
    args = [int(arg) for arg in invocation.args[op.pointers:]]
    return invocation.name[len("accel_"):], dict(zip(op.params, args))
