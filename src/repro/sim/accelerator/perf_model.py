"""Generic accelerator performance model (paper §IV-B).

The paper abstracts a loosely-coupled, fixed-function accelerator as a set
of concurrent *processes* (load / one or more compute / store), each
executing one or more *loops*. A specific accelerator instantiates the
generic model with four arguments:

1. the number of processes;
2. the number of loops per process;
3. the per-iteration latency of each internal loop (back-annotated from
   instrumented RTL simulation — here, from the cycle-level RTL model in
   :mod:`repro.sim.accelerator.rtl_sim`);
4. the iteration count of each loop as a function of the invocation's
   configuration parameters.

The designer additionally supplies average power and an expression for the
bytes moved to/from memory. The model pipelines processes over PLM-sized
chunks (Figure 4: computation and communication overlap through a
circular/double buffer), scales execution time when the implied bandwidth
exceeds the system's maximum, and can invoke several accelerator instances
in parallel.

Every shipped design is one load, one compute and one store process, and
its compute process is one loop of latency 1. The load and store
processes are costed by the communication model, not by their loops. So
the four arguments reduce to one number per invocation, the compute
cycles, which :class:`~repro.sim.accelerator.library.AcceleratorDesign`
derives from its kind's row (``work // lanes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .library import AccelParams, AcceleratorDesign


@dataclass
class CommunicationModel:
    """DMA/NoC parameters of the target SoC (§IV-B "Communication Model"):
    access latency, bandwidth (interconnect bit-width), and average NoC
    hops between the accelerator and the memory interface. Shared by the
    cycle-level RTL simulation and the back-annotated generic model."""

    #: memory access latency per DMA transaction (cycles)
    access_latency: int = 60
    #: interconnect width (bytes transferred per cycle at full rate)
    interconnect_bytes: int = 8
    #: average NoC hops between accelerator and memory interface
    noc_hops: int = 2
    #: per-hop latency (cycles)
    hop_latency: int = 4

    def transfer_cycles(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        wire = math.ceil(nbytes / self.interconnect_bytes)
        return self.access_latency + self.noc_hops * self.hop_latency + wire


@dataclass
class AccelResult:
    """What an accelerator tile returns to the Interleaver (§IV-A): clock
    cycles, bytes of memory accessed, average power -> energy."""

    cycles: int
    energy_nj: float
    bytes_transferred: int
    design: str = ""


class GenericPerformanceModel:
    """Closed-form pipelined execution-time estimate for a design point.

    Per the paper's back-annotation methodology (§IV-B "Accelerator
    Instrumentation"), the per-chunk latencies of the load/store processes
    come from the same communication model the RTL simulation was
    validated with; the compute process uses the design's compute
    cycles. That is what keeps this model within a few percent of
    cycle-level RTL simulation (Figure 10d).
    """

    def __init__(self, design: AcceleratorDesign,
                 max_bandwidth_gbps: float = 16.0,
                 comm: "CommunicationModel" = None):
        self.design = design
        self.max_bandwidth_gbps = max_bandwidth_gbps
        self.comm = comm if comm is not None else CommunicationModel()

    def estimate(self, params: AccelParams,
                 num_instances: int = 1) -> AccelResult:
        """Estimate one invocation, optionally spread over parallel
        instances that share the memory bandwidth."""
        design = self.design
        chunks = design.num_chunks(params)
        nbytes_total = design.bytes_transferred(params)
        in_bytes = math.ceil(nbytes_total * 0.5)
        out_bytes = nbytes_total - in_bytes
        load_chunk = self.comm.transfer_cycles(math.ceil(in_bytes / chunks))
        store_chunk = self.comm.transfer_cycles(
            math.ceil(out_bytes / chunks))
        compute_chunk = math.ceil(design.compute_cycles(params) / chunks)
        per_chunk = [load_chunk, compute_chunk, store_chunk]
        # pipelined: fill with one chunk of every stage, then the slowest
        # stage dominates the remaining chunks
        fill = sum(per_chunk)
        steady = max(per_chunk) * (chunks - 1)
        cycles = fill + steady

        if num_instances > 1:
            # work divides across instances; each handles ~1/N chunks
            my_chunks = math.ceil(chunks / num_instances)
            cycles = sum(per_chunk) + max(per_chunk) * max(0, my_chunks - 1)

        nbytes = nbytes_total
        # bandwidth scaling: N instances share the memory interface
        seconds = cycles / (design.frequency_ghz * 1e9)
        demand_gbps = (nbytes / max(seconds, 1e-12)) / 1e9 * num_instances
        if demand_gbps > self.max_bandwidth_gbps:
            cycles = math.ceil(cycles * demand_gbps / self.max_bandwidth_gbps)
            seconds = cycles / (design.frequency_ghz * 1e9)

        energy_nj = design.avg_power_watts * seconds * 1e9
        return AccelResult(cycles=int(cycles), energy_nj=energy_nj,
                           bytes_transferred=nbytes, design=design.name)
