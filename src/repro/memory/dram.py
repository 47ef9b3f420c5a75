"""DRAM models (paper §V-B).

``SimpleDRAM`` — the in-house default: every request sees a minimum
latency, and a maximum bandwidth is enforced in epochs. Once the requests
returned in an epoch exhaust the bandwidth budget, further responses wait
for the next epoch (modeling bandwidth contention and throttling).

``DRAMSim2Model`` — the detailed alternative (stand-in for DRAMSim2):
channels, banks and row buffers with tRCD/tRP/tCAS timing and per-channel
bus occupancy. Slower to simulate and with a larger footprint, as the
paper notes for the real DRAMSim2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.config import DRAMSim2Config, SimpleDRAMConfig
from ..sim.events import Scheduler
from ..sim.statistics import DRAMStats
from .request import MemRequest


class _DRAMModel:
    """What both models share: accounting, the injected stall, the
    observers and the response. A model's :meth:`_service` returns the
    completion cycle and its ``dram_access`` event arguments."""

    def __init__(self, config, scheduler: Scheduler, stats: DRAMStats,
                 energy_sink: Optional[List[float]], injector):
        self.config = config
        self.scheduler = scheduler
        self.stats = stats
        self.energy_sink = energy_sink
        #: optional FaultInjector: extra response stalls
        self.injector = injector
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()

    def access(self, request: MemRequest, cycle: int) -> None:
        self.stats.requests += 1
        if request.service_level is None:
            request.service_level = "dram"
        if self.energy_sink is not None:
            self.energy_sink[0] += self.config.energy_nj
        completion, event = self._service(request.address, cycle)
        if self.injector is not None:
            # stall the response only; bank/bus state frees on schedule
            completion += self.injector.dram_stall(request.address, cycle)
        self.stats.total_latency += completion - cycle
        for observer in self.observers:
            observer.dram_access(request, cycle, completion, **event)
        if request.callback is not None:
            self.scheduler.at(completion, request.callback)


class SimpleDRAM(_DRAMModel):
    def __init__(self, config: SimpleDRAMConfig, scheduler: Scheduler,
                 stats: DRAMStats, frequency_ghz: float,
                 energy_sink: Optional[List[float]] = None,
                 injector=None):
        super().__init__(config, scheduler, stats, energy_sink, injector)
        self._per_epoch = config.requests_per_epoch(frequency_ghz)
        #: epoch index -> responses already returned in that epoch
        self._epoch_counts: Dict[int, int] = {}

    def _service(self, address: int, cycle: int):
        ready = cycle + self.config.min_latency
        epoch = ready // self.config.epoch_cycles
        throttled = False
        # find the first epoch with remaining bandwidth budget
        while self._epoch_counts.get(epoch, 0) >= self._per_epoch:
            epoch += 1
            throttled = True
        self._epoch_counts[epoch] = self._epoch_counts.get(epoch, 0) + 1
        self._prune(cycle)
        if throttled:
            self.stats.throttled += 1
            return max(ready, epoch * self.config.epoch_cycles), \
                {"throttled": True}
        return ready, {"throttled": False}

    def _prune(self, cycle: int) -> None:
        if len(self._epoch_counts) > 1024:
            current = cycle // self.config.epoch_cycles
            self._epoch_counts = {
                e: c for e, c in self._epoch_counts.items() if e >= current}


class DRAMSim2Model(_DRAMModel):
    """Bank/row-buffer cycle-level model."""

    def __init__(self, config: DRAMSim2Config, scheduler: Scheduler,
                 stats: DRAMStats,
                 energy_sink: Optional[List[float]] = None,
                 injector=None):
        super().__init__(config, scheduler, stats, energy_sink, injector)
        num_banks = config.channels * config.banks_per_channel
        #: per-bank (open_row, next_free_cycle)
        self._banks: List[Tuple[Optional[int], int]] = [
            (None, 0)] * num_banks
        #: per-channel bus next-free cycle
        self._bus_free = [0] * config.channels

    def _map(self, address: int) -> Tuple[int, int, int]:
        """Return (channel, bank index, row) for an address.

        Line-interleaved across channels, then banks, to spread streams.
        """
        config = self.config
        line = address // config.line_bytes
        channel = line % config.channels
        bank_in_channel = (line // config.channels) % config.banks_per_channel
        bank = channel * config.banks_per_channel + bank_in_channel
        row = address // config.row_bytes
        return channel, bank, row

    def _service(self, address: int, cycle: int):
        config = self.config
        channel, bank, row = self._map(address)
        open_row, bank_free = self._banks[bank]
        start = max(cycle, bank_free, self._bus_free[channel])
        if open_row == row:
            self.stats.row_hits += 1
            service = config.t_cas
        else:
            self.stats.row_misses += 1
            if open_row is None:
                service = config.t_rcd + config.t_cas
            else:
                service = config.t_rp + config.t_rcd + config.t_cas
        service_cycles = (service + config.burst_cycles) * config.clock_ratio
        completion = start + service_cycles
        self._banks[bank] = (row, completion)
        self._bus_free[channel] = start + config.burst_cycles * \
            config.clock_ratio
        # the row open *before* this access: hit / closed-row miss /
        # conflict
        return completion, {"bank": bank, "open_row": open_row, "row": row}
