"""Cycle-level "RTL simulation" of the pipelined accelerator template.

Stand-in for SystemC/RTL simulation of the ESP-style accelerators
(paper §IV-B and Figure 4): a load process, one or more compute processes,
and a store process communicate through a double-buffered private local
memory. This model simulates the pipeline chunk by chunk with explicit
buffer hand-off, including fill/drain effects, integer chunk remainders,
and a communication model with access latency, bandwidth, interconnect
bit-width and NoC hops — the details the closed-form generic model
abstracts away. It is the validation target for Figure 10d (the generic
model tracks it within 97–100%).
"""

from __future__ import annotations

import math

from .library import AccelParams, AcceleratorDesign
from .perf_model import AccelResult, CommunicationModel

#: per-invocation device-driver overhead on the FPGA SoC (cycles)
DRIVER_OVERHEAD_CYCLES = 12_000
#: stretch of DMA latency and run time from system contention
CONTENTION_FACTOR = 1.06


class RTLSimulation:
    """Chunk-accurate pipeline simulation of one accelerator design point."""

    def __init__(self, design: AcceleratorDesign,
                 comm: CommunicationModel = None):
        self.design = design
        self.comm = comm if comm is not None else CommunicationModel()

    def simulate(self, params: AccelParams) -> AccelResult:
        design = self.design
        chunks = design.num_chunks(params)
        nbytes = design.bytes_transferred(params)
        # assume symmetric in/out split unless the design is input-heavy;
        # compute per-chunk DMA sizes from total traffic
        in_bytes = math.ceil(nbytes * 0.5)
        out_bytes = nbytes - in_bytes
        compute_chunk = math.ceil(design.compute_cycles(params) / chunks)

        # double-buffered pipeline: the load of chunk i reuses the PLM
        # buffer freed when the compute of chunk i-2 finished
        load_done = 0
        compute_done = 0
        store_done = 0
        compute_history = [0, 0]  # completions of chunks i-1 and i-2
        remaining_in = in_bytes
        remaining_out = out_bytes
        for chunk in range(chunks):
            this_in = min(math.ceil(in_bytes / chunks), remaining_in)
            this_out = min(math.ceil(out_bytes / chunks), remaining_out)
            remaining_in -= this_in
            remaining_out -= this_out
            load_cycles = self.comm.transfer_cycles(this_in)
            store_cycles = self.comm.transfer_cycles(this_out)
            buffer_free = compute_history[1] if chunk >= 2 else 0
            load_start = max(load_done, buffer_free)
            load_done = load_start + load_cycles
            compute_start = max(load_done, compute_done)
            compute_done = compute_start + compute_chunk
            compute_history = [compute_done, compute_history[0]]
            store_start = max(compute_done, store_done)
            store_done = store_start + store_cycles

        cycles = store_done
        seconds = cycles / (design.frequency_ghz * 1e9)
        energy_nj = design.avg_power_watts * seconds * 1e9
        return AccelResult(cycles=cycles, energy_nj=energy_nj,
                           bytes_transferred=nbytes, design=design.name)


class FPGAEmulation:
    """Full-system FPGA execution stand-in (§VI-A).

    The accelerator runs inside an SoC with Linux: each invocation pays a
    device-driver overhead, and DMA contends with the rest of the system,
    which stretches communication. Figure 10d's second accuracy bar
    compares the generic model against this target (≥ 89%).
    """

    def __init__(self, design: AcceleratorDesign,
                 comm: CommunicationModel = None):
        congested = comm if comm is not None else CommunicationModel()
        congested = CommunicationModel(
            access_latency=int(congested.access_latency
                               * CONTENTION_FACTOR) + 8,
            interconnect_bytes=congested.interconnect_bytes,
            noc_hops=congested.noc_hops,
            hop_latency=congested.hop_latency,
        )
        self._rtl = RTLSimulation(design, congested)

    def execute(self, params: AccelParams) -> AccelResult:
        result = self._rtl.simulate(params)
        cycles = int(result.cycles * CONTENTION_FACTOR) \
            + DRIVER_OVERHEAD_CYCLES
        seconds = cycles / (self._rtl.design.frequency_ghz * 1e9)
        return AccelResult(
            cycles=cycles,
            energy_nj=self._rtl.design.avg_power_watts * seconds * 1e9,
            bytes_transferred=result.bytes_transferred,
            design=result.design)
