"""The composed memory system: per-core private caches, a shared LLC, and a
DRAM model (paper §V).

Each core tile owns a chain of private levels (L1 first); all chains merge
into the shared LLC, which forwards to DRAM. "Each core tile model
maintains a cache queue ordered with respect to the cache hierarchy" — the
chain of ``next_access`` callables realizes that queue.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.config import MemoryHierarchyConfig
from ..sim.events import Scheduler
from ..sim.statistics import CacheStats, DRAMStats
from .cache import Cache
from .coherence import Directory
from .dram import DRAMSim2Model, SimpleDRAM
from .noc import MeshNoC
from .request import MemRequest


# -- picklable callback objects -----------------------------------------------
#
# Everything that can sit in the Scheduler heap or on a MemRequest must
# be a callable class or bound method, never a closure, so the
# checkpoint layer (repro.checkpoint) can snapshot in-flight requests.

class _Deliver:
    """Deliver ``request`` to an access entry point at the fire cycle."""

    __slots__ = ("entry", "request")

    def __init__(self, entry: Callable[[MemRequest, int], None],
                 request: MemRequest):
        self.entry = entry
        self.request = request

    def __call__(self, cycle: int) -> None:
        self.entry(self.request, cycle)


class _NoCReturn:
    """Charge the response's mesh traversal back to the core before the
    original callback fires. The mesh's observers see the bank->core
    traversal at its *actual* start cycle (the response leaves the bank
    now, not at request time)."""

    __slots__ = ("scheduler", "callback", "delay", "noc", "src", "dst")

    def __init__(self, scheduler: Scheduler,
                 callback: Callable[[int], None], delay: int,
                 noc: MeshNoC, src: int, dst: int):
        self.scheduler = scheduler
        self.callback = callback
        self.delay = delay
        self.noc = noc
        self.src = src
        self.dst = dst

    def __call__(self, cycle: int) -> None:
        noc = self.noc
        for observer in noc.observers:
            observer.noc_traversal(noc, self.src, self.dst, cycle)
        self.scheduler.at(cycle + self.delay, self.callback)


class _NoCEntry:
    """Per-core hierarchy entry that charges the mesh traversal to and
    from the owning LLC bank (replaces MemorySystem._noc_wrap)."""

    __slots__ = ("noc", "scheduler", "core", "llc_access")

    def __init__(self, noc: MeshNoC, scheduler: Scheduler, core: int,
                 llc_access: Callable[[MemRequest, int], None]):
        self.noc = noc
        self.scheduler = scheduler
        self.core = core
        self.llc_access = llc_access

    def __call__(self, request: MemRequest, cycle: int) -> None:
        noc = self.noc
        bank_node = noc.bank_node(noc.bank_of(request.address))
        there = noc.latency(self.core, bank_node)
        for observer in noc.observers:
            observer.noc_traversal(noc, self.core, bank_node, cycle)
        original = request.callback
        if original is not None:
            # the return hops are computed now (latency is deterministic)
            # but observers see the response when it actually traverses
            # — _NoCReturn reports at fire time
            back = noc.latency(bank_node, self.core)
            request.callback = _NoCReturn(self.scheduler, original, back,
                                          noc, bank_node, self.core)
        self.scheduler.at(cycle + there,
                          _Deliver(self.llc_access, request))


class _Invalidator:
    """Coherence invalidation hook over one core's private levels."""

    __slots__ = ("levels",)

    def __init__(self, levels: List["Cache"]):
        self.levels = levels

    def __call__(self, address: int) -> None:
        for cache in self.levels:
            cache.invalidate(address)


class _TrackedCallback:
    """Response bookkeeping: decrement the outstanding count, observe the
    end-to-end latency, then run the issuer's callback."""

    __slots__ = ("memsys", "done", "issue_cycle")

    def __init__(self, memsys: "MemorySystem",
                 done: Callable[[int], None], issue_cycle: int):
        self.memsys = memsys
        self.done = done
        self.issue_cycle = issue_cycle

    def __call__(self, cycle: int) -> None:
        memsys = self.memsys
        memsys.outstanding -= 1
        for observer in memsys.observers:
            observer.mem_response(cycle - self.issue_cycle)
        self.done(cycle)


class MemorySystem:
    """Builds and owns the full cache/DRAM composition."""

    def __init__(self, config: MemoryHierarchyConfig, num_cores: int,
                 scheduler: Scheduler, frequency_ghz: float = 2.0,
                 injector=None):
        config.validate()
        self.config = config
        self.num_cores = num_cores
        self.scheduler = scheduler
        #: single-element lists so caches/DRAM accumulate energy in place
        self._cache_energy = [0.0]
        self._dram_energy = [0.0]
        self.dram_stats = DRAMStats()
        #: aggregated per level name ("L1", "L2", "LLC")
        self.cache_stats: Dict[str, CacheStats] = {}
        #: requests issued but not yet responded (deadlock diagnostics)
        self.outstanding = 0
        #: event handlers (repro.telemetry.observer), empty when unwatched
        self.observers = ()

        if config.dram_model == "simple":
            self.dram = SimpleDRAM(config.simple_dram, scheduler,
                                   self.dram_stats, frequency_ghz,
                                   self._dram_energy, injector=injector)
        elif config.dram_model == "dramsim2":
            self.dram = DRAMSim2Model(config.dramsim2, scheduler,
                                      self.dram_stats, self._dram_energy,
                                      injector=injector)
        else:
            raise ValueError(f"unknown DRAM model {config.dram_model!r}")

        dram_access = self.dram.access

        self.llc: Optional[Cache] = None
        llc_access = dram_access
        #: every cache instance (observers attach to each)
        self.caches: List[Cache] = []
        if config.llc is not None:
            stats = self._stats_for(config.llc.name)
            self.llc = Cache(config.llc, scheduler, dram_access, stats,
                             self._cache_energy)
            llc_access = self.llc.access
            self.caches.append(self.llc)

        # optional mesh NoC between private hierarchies and the LLC banks
        # (§V-A extension)
        self.noc: Optional[MeshNoC] = None
        if config.noc is not None:
            self.noc = MeshNoC(config.noc, num_cores)

        #: per-core entry point (the L1 access function)
        self._entries: List[Callable[[MemRequest, int], None]] = []
        self.private_caches: List[List[Cache]] = []
        for core in range(num_cores):
            chain_entry = llc_access
            if self.noc is not None:
                chain_entry = _NoCEntry(self.noc, scheduler, core,
                                        llc_access)
            levels: List[Cache] = []
            for level_config in reversed(config.private_levels):
                stats = self._stats_for(level_config.name)
                prefetch = (config.prefetcher
                            if level_config is config.private_levels[0]
                            else None)
                cache = Cache(level_config, scheduler, chain_entry, stats,
                              self._cache_energy, prefetcher=prefetch)
                chain_entry = cache.access
                levels.append(cache)
            levels.reverse()
            self.caches += levels
            self.private_caches.append(levels)
            self._entries.append(chain_entry)

        # optional directory coherence over the private hierarchies
        # (§V-A extension)
        self.directory: Optional[Directory] = None
        if config.coherence:
            line_bytes = (config.private_levels[0].line_bytes
                          if config.private_levels else 64)
            self.directory = Directory(
                num_cores, line_bytes=line_bytes,
                invalidation_latency=config.invalidation_latency,
                noc=self.noc)
            for core in range(num_cores):
                self.directory.invalidate_hooks[core] = \
                    _Invalidator(self.private_caches[core])

    def _stats_for(self, name: str) -> CacheStats:
        if name not in self.cache_stats:
            self.cache_stats[name] = CacheStats(name=name)
        return self.cache_stats[name]

    # ------------------------------------------------------------------
    def access(self, core_id: int, address: int, size: int, *,
               is_write: bool, cycle: int,
               callback: Callable[[int], None],
               is_atomic: bool = False) -> MemRequest:
        """Issue one memory access from ``core_id``'s L1.

        Returns the request object so callers that attribute stall cycles
        can read the ``service_level`` the hierarchy stamps on it."""
        self.outstanding += 1
        for observer in self.observers:
            observer.mem_entry(core_id, address)
        request = MemRequest(address, size, is_write=is_write,
                             is_atomic=is_atomic, core_id=core_id,
                             callback=_TrackedCallback(self, callback, cycle),
                             issue_cycle=cycle)
        if self.directory is not None:
            delay = self.directory.access(core_id, address,
                                          is_write or is_atomic)
            if delay:
                request.coherence_delay = delay
                self.scheduler.at(
                    cycle + delay,
                    _Deliver(self._entries[core_id], request))
                return request
        self._entries[core_id](request, cycle)
        return request

    def diagnostics(self) -> dict:
        """Memory snapshot for deadlock diagnosis: outstanding requests,
        and each cache's MSHR occupancy and parked-request count (a
        parked request is not a scheduled event, so the event count
        alone does not show it)."""
        caches = {}
        for core, levels in enumerate(self.private_caches):
            for cache in levels:
                caches[f"{cache.stats.name}.core{core}"] = {
                    "mshr": cache.mshr_occupancy, "parked": cache.parked}
        if self.llc is not None:
            caches[self.llc.stats.name] = {
                "mshr": self.llc.mshr_occupancy, "parked": self.llc.parked}
        return {"outstanding_requests": self.outstanding, "caches": caches}

    @property
    def line_bytes(self) -> int:
        """Cache-line size of the innermost configured level (used to turn
        DRAM request counts into byte traffic for the roofline)."""
        if self.config.private_levels:
            return self.config.private_levels[0].line_bytes
        if self.config.llc is not None:
            return self.config.llc.line_bytes
        return 64

    @property
    def cache_energy_nj(self) -> float:
        return self._cache_energy[0]

    @property
    def dram_energy_nj(self) -> float:
        return self._dram_energy[0]

    @property
    def energy_nj(self) -> float:
        return self._cache_energy[0] + self._dram_energy[0]
