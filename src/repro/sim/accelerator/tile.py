"""Accelerator tile: the Interleaver-facing wrapper (paper §IV-A).

When a core's trace reaches an ``accel_*`` invocation, the Interleaver
queries the matching accelerator tile for latency, energy and bytes. The
tile decodes the recorded configuration parameters, runs its performance
model (closed-form generic model by default; a cycle-level RTL simulation
can be substituted — "a high-level accelerator model [can] be replaced by
a more detailed one"), serializes invocations across its hardware
instances, and returns the performance estimates.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...trace.tracefile import AccelInvocation
from ..errors import AcceleratorFaultError
from .library import DESIGN_FACTORIES, params_from_invocation
from .perf_model import AccelResult, AcceleratorDesign, \
    GenericPerformanceModel
from .rtl_sim import RTLSimulation


class _RTLEstimate:
    """Estimate entry point over a cycle-level RTL simulation (picklable
    stand-in for the former lambda, so checkpointed farms restore)."""

    __slots__ = ("rtl",)

    def __init__(self, rtl: RTLSimulation):
        self.rtl = rtl

    def __call__(self, params, num_instances: int = 1) -> AccelResult:
        return self.rtl.simulate(params)


class AcceleratorTile:
    """One accelerator (possibly with several parallel instances)."""

    def __init__(self, design: AcceleratorDesign, *,
                 num_instances: int = 1,
                 max_bandwidth_gbps: float = 16.0,
                 period: int = 2,
                 model: str = "generic"):
        self.design = design
        self.num_instances = num_instances
        #: global cycles per accelerator cycle (clock-ratio scaling)
        self.period = period
        if model == "generic":
            self._model = GenericPerformanceModel(design, max_bandwidth_gbps)
            self._estimate = self._model.estimate
        elif model == "rtl":
            self._estimate = _RTLEstimate(RTLSimulation(design))
        else:
            raise ValueError(f"unknown accelerator model {model!r}")
        #: next-free global cycle per hardware instance
        self._instance_free = [0] * num_instances
        self.invocations = 0
        self.busy_cycles = 0
        self.fallback_invocations = 0

    def invoke(self, invocation: AccelInvocation, cycle: int):
        """Returns ``(completion_cycle, energy_nj, bytes_transferred)``."""
        _, params = params_from_invocation(invocation)
        result: AccelResult = self._estimate(params)
        # pick the earliest-free instance; invocations on one instance
        # serialize
        idx = min(range(self.num_instances),
                  key=lambda i: self._instance_free[i])
        start = max(cycle, self._instance_free[idx])
        completion = start + result.cycles * self.period
        self._instance_free[idx] = completion
        self.invocations += 1
        self.busy_cycles += completion - start
        return completion, result.energy_nj, result.bytes_transferred

    def cycle_accounting(self, total_cycles: int) -> dict:
        """Attribution pseudo-ledger: instance-cycles over the whole run.

        An accelerator with N instances offers N instance-cycles per
        global cycle; busy instance-cycles are ``accel``, the rest
        ``frontend_idle``, so the entry obeys the same conservation
        invariant as core ledgers (categories sum to total_cycles).
        """
        capacity = total_cycles * self.num_instances
        busy = min(self.busy_cycles, capacity)
        return {
            "kind": "accelerator",
            "total_cycles": capacity,
            "instructions": 0,
            "categories": {
                "accel": busy,
                "frontend_idle": capacity - busy,
            },
        }

    def fallback_invoke(self, invocation: AccelInvocation, cycle: int,
                        slowdown: int = 8):
        """Timing estimate for the invoking core executing the same work
        itself (graceful degradation after an accelerator fault): the
        accelerator's cycle count scaled by ``slowdown``, on the core —
        no hardware instance is occupied. Functional results are
        unaffected; the trace interpreter already computed them."""
        _, params = params_from_invocation(invocation)
        result: AccelResult = self._estimate(params)
        completion = cycle + result.cycles * self.period * slowdown
        self.fallback_invocations += 1
        # a general-purpose core burns proportionally more energy on the
        # same work; bytes still move through the hierarchy
        return completion, result.energy_nj * slowdown, \
            result.bytes_transferred


class AcceleratorFarm:
    """Registry of accelerator tiles keyed by intrinsic name; the
    Interleaver consults it on every accelerator invocation."""

    def __init__(self):
        self._tiles: Dict[str, AcceleratorTile] = {}
        #: optional FaultInjector; may fail invocations
        self.injector = None
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()
        #: when True, a faulted invocation falls back to core execution
        #: instead of propagating the fault
        self.fallback_enabled = True
        #: core-vs-accelerator slowdown used by the fallback estimate
        self.fallback_slowdown = 8

    def add(self, kind: str, tile: AcceleratorTile) -> "AcceleratorFarm":
        self._tiles[f"accel_{kind}"] = tile
        return self

    def add_default(self, kind: str, plm_bytes: int = 64 * 1024,
                    **kwargs) -> "AcceleratorFarm":
        design = DESIGN_FACTORIES[kind](plm_bytes)
        return self.add(kind, AcceleratorTile(design, **kwargs))

    def get(self, intrinsic_name: str) -> Optional[AcceleratorTile]:
        return self._tiles.get(intrinsic_name)

    def _tile_for(self, invocation: AccelInvocation) -> AcceleratorTile:
        tile = self._tiles.get(invocation.name)
        if tile is None:
            raise KeyError(
                f"no accelerator registered for {invocation.name!r}; "
                f"available: {sorted(self._tiles)}")
        return tile

    def invoke(self, invocation: AccelInvocation, cycle: int):
        tile = self._tile_for(invocation)
        if self.injector is not None:
            transient = self.injector.accel_fault(invocation.name, cycle)
            if transient is not None:
                raise AcceleratorFaultError(invocation.name, cycle,
                                            transient)
        result = tile.invoke(invocation, cycle)
        for observer in self.observers:
            observer.accel_invocation(invocation.name, cycle, *result)
        return result

    def fallback_invoke(self, invocation: AccelInvocation, cycle: int):
        """Core-execution estimate for a faulted invocation."""
        result = self._tile_for(invocation).fallback_invoke(
            invocation, cycle, self.fallback_slowdown)
        for observer in self.observers:
            observer.accel_invocation(f"{invocation.name} (fallback)",
                                      cycle, *result)
        return result

    @property
    def tiles(self) -> Dict[str, AcceleratorTile]:
        return dict(self._tiles)
