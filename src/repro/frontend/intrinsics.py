"""Simulator intrinsics callable from kernel code.

Kernels are written in a restricted Python dialect (see
:mod:`repro.frontend.compiler`). Calls to the names registered here are
lowered to IR ``call`` instructions which the trace interpreter executes
functionally and the timing simulator costs specially:

* ``tile_id`` / ``num_tiles`` — the SPMD execution-environment queries from
  paper §II-B.
* ``send`` / ``recv_*`` — the inter-tile message-passing API from §II-C.
* ``dae_*`` — the Decoupled Access/Execute queue operations used by the DAE
  compiler pass and case study (§VII-A).
* ``accel_*`` — the accelerator-invocation API from §II ("the programmer can
  utilize an accelerator API with common functions, e.g. matrix
  multiplication").
* math intrinsics (``sqrtf`` …) — long-latency FP operations.

When kernels run as plain Python (outside the compiler) the same names are
provided as ordinary functions so they can be unit-tested natively; those
shims live in :mod:`repro.frontend.native`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir.types import F64, I64, IRType, VOID
from ..trace.accel_ops import ACCEL_OPS


@dataclass(frozen=True)
class IntrinsicInfo:
    """Signature and timing class of a simulator intrinsic."""

    name: str
    arg_types: Tuple[IRType, ...]
    return_type: IRType
    #: latency class used by the core timing model
    timing: str  # "free" | "fp_long" | "comm" | "accel"
    #: variadic intrinsics accept any argument count >= len(arg_types)
    variadic: bool = False


_REGISTRY: Dict[str, IntrinsicInfo] = {}


def register(info: IntrinsicInfo) -> IntrinsicInfo:
    if info.name in _REGISTRY:
        raise ValueError(f"duplicate intrinsic {info.name}")
    _REGISTRY[info.name] = info
    return info


def lookup(name: str) -> Optional[IntrinsicInfo]:
    return _REGISTRY.get(name)


def all_intrinsics() -> Dict[str, IntrinsicInfo]:
    return dict(_REGISTRY)


# -- SPMD execution environment (§II-B) -------------------------------------
register(IntrinsicInfo("tile_id", (), I64, "free"))
register(IntrinsicInfo("num_tiles", (), I64, "free"))
#: global synchronization across the SPMD tile group (OpenMP-barrier
#: analogue); trace generation interleaves tiles co-operatively at barriers
register(IntrinsicInfo("barrier", (), VOID, "comm"))

# -- inter-tile message passing (§II-C) --------------------------------------
# send(dest_tile, value); recv(src_tile) -> value
register(IntrinsicInfo("send_i64", (I64, I64), VOID, "comm"))
register(IntrinsicInfo("send_f64", (I64, F64), VOID, "comm"))
register(IntrinsicInfo("recv_i64", (I64,), I64, "comm"))
register(IntrinsicInfo("recv_f64", (I64,), F64, "comm"))

# -- DAE queue operations (§VII-A) -------------------------------------------
# produce/consume on the load queue; store value queue handled symmetrically
register(IntrinsicInfo("dae_produce_i64", (I64,), VOID, "comm"))
register(IntrinsicInfo("dae_produce_f64", (F64,), VOID, "comm"))
register(IntrinsicInfo("dae_consume_i64", (), I64, "comm"))
register(IntrinsicInfo("dae_consume_f64", (), F64, "comm"))
register(IntrinsicInfo("dae_store_value_i64", (I64,), VOID, "comm"))
register(IntrinsicInfo("dae_store_value_f64", (F64,), VOID, "comm"))
register(IntrinsicInfo("dae_store_take_i64", (), I64, "comm"))
register(IntrinsicInfo("dae_store_take_f64", (), F64, "comm"))

# -- math ---------------------------------------------------------------------
for _name in ("sqrtf", "expf", "logf", "sinf", "cosf", "fabsf", "floorf",
              "rsqrtf"):
    register(IntrinsicInfo(_name, (F64,), F64, "fp_long"))

# -- accelerator invocation API (§II, §IV) ------------------------------------
# Variadic: pointer and size arguments are recorded in the dynamic trace so
# the matching accelerator model can be invoked with its configuration
# parameters during simulation. One intrinsic per kind in the accelerator
# table of repro.trace.accel_ops.
for _kind in ACCEL_OPS:
    register(IntrinsicInfo(f"accel_{_kind}", (), VOID, "accel",
                           variadic=True))

#: names of the accelerator intrinsics (used by passes and the simulator)
ACCEL_INTRINSICS = tuple(
    name for name, info in _REGISTRY.items() if info.timing == "accel")
