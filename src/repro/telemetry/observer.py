"""The one event interface between the Python components and observers.

Every component an observer watches (``Cache``, ``SimpleDRAM``,
``DRAMSim2Model``, ``MeshNoC``, ``MemorySystem``, ``CommFabric``,
``AcceleratorFarm`` and ``FaultInjector``) holds one ``observers``
tuple, empty when nothing watches it, and each hook site is one loop
and one call: ``for observer in self.observers: observer.cache_hit(...)``.
A handler subclasses :class:`Observer` and overrides the events it
consumes. Handlers are pickled inside checkpoints, so they are plain
objects, never closures. ``docs/observability.md`` tabulates who
consumes which event.
"""

from __future__ import annotations

__all__ = ["Observer"]


class Observer:
    """No-op handlers for every event the Python components emit.
    ``cache_miss`` fires exactly where ``stats.misses`` increments. For
    DRAMSim2, ``open_row`` is the row open *before* the access; SimpleDRAM
    passes ``bank=None``."""

    __slots__ = ()

    # Cache
    def cache_hit(self, line, is_prefetch): pass
    def cache_miss(self, line, set_index): pass
    def cache_prefetch_fill(self, line): pass
    def cache_fill(self, level, line, miss_cycle, cycle): pass
    # SimpleDRAM, DRAMSim2Model
    def dram_access(self, request, cycle, completion, throttled=False,
                    bank=None, open_row=None, row=None): pass
    # MeshNoC, MemorySystem
    def noc_traversal(self, noc, src_node, dst_node, cycle): pass
    def mem_entry(self, core_id, address): pass
    def mem_response(self, latency): pass
    # CommFabric
    def fabric_send(self, src, dst, cycle): pass
    def fabric_drop(self, src, dst, cycle): pass
    def fabric_message(self, src, dst, start, end): pass
    def recv_wait(self, src, dst): pass
    def queue_full(self, name, cycle): pass
    def queue_depth(self, name, cycle, occupancy): pass
    def queue_empty(self, name, cycle): pass
    def barrier_release(self, group, generation, arrivals, cycle): pass
    # AcceleratorFarm, FaultInjector
    def accel_invocation(self, name, cycle, completion, energy_nj,
                         nbytes): pass
    def fault(self, record): pass
