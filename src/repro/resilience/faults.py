"""Deterministic, seeded fault injection.

A :class:`FaultPlan` declares *what can go wrong* — bit flips in
functional loads, dropped or delayed fabric messages, stalled DRAM
responses, failing accelerator invocations — as per-site rates plus an
optional active cycle window. A :class:`FaultInjector` realizes one plan
with independent per-site random streams, so the draw order in one
subsystem never perturbs another, and logs every injected fault.

Determinism contract: the simulator itself is deterministic (the event
scheduler breaks ties by insertion order), so with the same plan — same
seed included — every hook is queried in the same order and the same
faults fire at the same places. Two ``run_supervised`` runs with one
plan produce identical :class:`~repro.sim.statistics.SystemStats` and
identical fault logs.

Bit flips happen during trace generation (the functional phase), where
values are real; the timing simulator only sees addresses. Their
``cycle`` field therefore records the *load ordinal*, not a clock cycle.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

_SITES = ("mem", "msg", "dram", "accel")


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: where, when, and what happened."""

    site: str      # "mem" | "msg" | "dram" | "accel"
    kind: str      # "bitflip" | "drop" | "delay" | "stall" | "fail"
    cycle: int     # clock cycle (load ordinal for site "mem")
    detail: str = ""

    def as_tuple(self) -> Tuple[str, str, int, str]:
        return (self.site, self.kind, self.cycle, self.detail)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault model for one run. All rates are probabilities
    per opportunity (per load, per message, per DRAM request, per
    accelerator invocation); 0.0 disables a site."""

    seed: int = 0
    #: cycle window in which timing-level faults may fire
    start_cycle: int = 0
    end_cycle: Optional[int] = None
    #: functional loads: probability of flipping one bit of the value
    bitflip_load_rate: float = 0.0
    #: bits eligible for flipping in integer loads (low ``bitflip_bits``)
    bitflip_bits: int = 16
    #: fabric messages: delay by ``message_delay_cycles``, or drop outright
    message_delay_rate: float = 0.0
    message_delay_cycles: int = 32
    message_drop_rate: float = 0.0
    #: DRAM responses: extra stall cycles on top of the modeled latency
    dram_stall_rate: float = 0.0
    dram_stall_cycles: int = 256
    #: accelerator invocations: raise AcceleratorFaultError
    accel_fault_rate: float = 0.0
    #: transient faults may succeed on retry (supervisor reseeds)
    accel_fault_transient: bool = True

    def validate(self) -> None:
        for name in ("bitflip_load_rate", "message_delay_rate",
                     "message_drop_rate", "dram_stall_rate",
                     "accel_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.bitflip_bits <= 0 or self.bitflip_bits > 64:
            raise ValueError(
                f"bitflip_bits must be in [1, 64], got {self.bitflip_bits}")
        if self.message_delay_cycles < 0 or self.dram_stall_cycles < 0:
            raise ValueError("fault delay/stall cycles must be >= 0")
        combined = self.message_drop_rate + self.message_delay_rate
        if combined > 1.0:
            # message_action draws once per message and carves the unit
            # interval into [drop | delay | deliver]; a sum above 1.0
            # would silently truncate the effective delay probability
            raise ValueError(
                f"message_drop_rate + message_delay_rate must not exceed "
                f"1.0 (the two outcomes share one draw per message), got "
                f"{combined}")
        if self.end_cycle is not None and self.end_cycle <= self.start_cycle:
            raise ValueError("end_cycle must exceed start_cycle")

    @property
    def enabled(self) -> bool:
        return any(getattr(self, name) > 0.0 for name in (
            "bitflip_load_rate", "message_delay_rate", "message_drop_rate",
            "dram_stall_rate", "accel_fault_rate"))

    def reseeded(self, attempt: int) -> "FaultPlan":
        """Plan for retry ``attempt``: a different seed, same fault model,
        so transient faults may land elsewhere (or nowhere)."""
        if attempt == 0:
            return self
        return replace(self, seed=self.seed + 1_000_003 * attempt)


class FaultInjector:
    """Runtime realization of a :class:`FaultPlan`.

    One injector is consulted by every wired subsystem; each site draws
    from its own seeded stream. Construct a fresh injector per run —
    stream state and the log are cumulative.
    """

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self._rngs: Dict[str, random.Random] = {
            site: random.Random(f"{plan.seed}:{site}") for site in _SITES}
        self.log: List[FaultRecord] = []
        self._load_index = 0
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()

    # ------------------------------------------------------------------
    def _active(self, cycle: int) -> bool:
        plan = self.plan
        if cycle < plan.start_cycle:
            return False
        return plan.end_cycle is None or cycle < plan.end_cycle

    def _record(self, site: str, kind: str, cycle: int, detail: str) -> None:
        record = FaultRecord(site, kind, cycle, detail)
        self.log.append(record)
        for observer in self.observers:
            observer.fault(record)

    # -- functional loads (trace generation) ----------------------------
    def corrupt_load(self, address: int, value):
        """Possibly flip one bit of a functionally loaded value.

        Bit flips happen in the functional phase, which has no clock, so
        the plan's ``start_cycle``/``end_cycle`` window applies over the
        *load ordinal* — the same quantity the fault record's ``cycle``
        field reports.
        """
        index = self._load_index
        self._load_index += 1
        plan = self.plan
        if plan.bitflip_load_rate <= 0.0 or not self._active(index):
            return value
        rng = self._rngs["mem"]
        if rng.random() >= plan.bitflip_load_rate:
            return value
        if isinstance(value, int):
            bit = rng.randrange(plan.bitflip_bits)
            flipped = value ^ (1 << bit)
        else:
            # flip a low mantissa bit of the float64 representation so the
            # value stays finite
            bit = rng.randrange(min(plan.bitflip_bits, 48))
            bits = struct.unpack("<Q", struct.pack("<d", value))[0]
            flipped = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))[0]
        self._record("mem", "bitflip", index,
                     f"addr={address:#x} bit={bit}")
        return flipped

    # -- fabric messages -------------------------------------------------
    def message_action(self, src: int, dst: int,
                       cycle: int) -> Tuple[str, int]:
        """Returns ("deliver", 0), ("delay", extra_cycles) or ("drop", 0)."""
        plan = self.plan
        if (plan.message_drop_rate <= 0.0
                and plan.message_delay_rate <= 0.0) \
                or not self._active(cycle):
            return ("deliver", 0)
        rng = self._rngs["msg"]
        draw = rng.random()
        if draw < plan.message_drop_rate:
            self._record("msg", "drop", cycle, f"{src}->{dst}")
            return ("drop", 0)
        if draw < plan.message_drop_rate + plan.message_delay_rate:
            self._record("msg", "delay", cycle,
                         f"{src}->{dst} +{plan.message_delay_cycles}")
            return ("delay", plan.message_delay_cycles)
        return ("deliver", 0)

    # -- DRAM ------------------------------------------------------------
    def dram_stall(self, address: int, cycle: int) -> int:
        """Extra cycles to stall one DRAM response (0 = no fault)."""
        plan = self.plan
        if plan.dram_stall_rate <= 0.0 or not self._active(cycle):
            return 0
        rng = self._rngs["dram"]
        if rng.random() >= plan.dram_stall_rate:
            return 0
        self._record("dram", "stall", cycle,
                     f"addr={address:#x} +{plan.dram_stall_cycles}")
        return plan.dram_stall_cycles

    # -- accelerators ----------------------------------------------------
    def accel_fault(self, name: str, cycle: int) -> Optional[bool]:
        """None = no fault; otherwise the fault's ``transient`` flag."""
        plan = self.plan
        if plan.accel_fault_rate <= 0.0 or not self._active(cycle):
            return None
        rng = self._rngs["accel"]
        if rng.random() >= plan.accel_fault_rate:
            return None
        self._record("accel", "fail", cycle, name)
        return plan.accel_fault_transient


def fault_summary(log: Sequence[FaultRecord]) -> Dict[str, int]:
    """Fault counts of a fault log, keyed ``site.kind``."""
    counts: Dict[str, int] = {}
    for record in log:
        key = f"{record.site}.{record.kind}"
        counts[key] = counts.get(key, 0) + 1
    return counts
