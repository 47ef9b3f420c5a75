"""Cache model unit tests: hits, misses, LRU, writebacks, MSHR,
the MSHR wait list, prefetcher (paper §V-A)."""

import pytest

from repro.harness import dae_hierarchy
from repro.memory import MemorySystem
from repro.memory.cache import Cache
from repro.memory.request import MemRequest
from repro.sim.config import CacheConfig, PrefetcherConfig
from repro.sim.events import Scheduler
from repro.sim.statistics import CacheStats


class Backing:
    """Scriptable next level that records requests and answers after a
    fixed latency."""

    def __init__(self, scheduler, latency=100):
        self.scheduler = scheduler
        self.latency = latency
        self.requests = []

    def access(self, request, cycle):
        self.requests.append((request, cycle))
        if request.callback is not None:
            self.scheduler.at(cycle + self.latency, request.callback)


def make_cache(size=1024, line=64, assoc=2, latency=1, mshr=4, ports=2,
               prefetcher=None, backing_latency=100, energy_sink=None):
    scheduler = Scheduler()
    stats = CacheStats("L1")
    backing = Backing(scheduler, backing_latency)
    cache = Cache(CacheConfig(name="L1", size_bytes=size, line_bytes=line,
                              associativity=assoc, latency=latency,
                              ports=ports, mshr_entries=mshr,
                              energy_nj=1.0),
                  scheduler, backing.access, stats, energy_sink,
                  prefetcher=prefetcher)
    return cache, backing, scheduler, stats


def drain(scheduler, limit=100000):
    cycle = 0
    while scheduler.pending:
        nxt = scheduler.next_cycle()
        assert nxt is not None and nxt <= limit
        cycle = nxt
        scheduler.run_due(cycle)
    return cycle


def read(cache, address, cycle, done):
    cache.access(MemRequest(address, 8,
                            callback=lambda c: done.append((address, c))),
                 cycle)


def test_cold_miss_then_hit():
    cache, backing, scheduler, stats = make_cache()
    done = []
    read(cache, 0x1000, 0, done)
    drain(scheduler)
    assert stats.misses == 1 and stats.hits == 0
    read(cache, 0x1008, 200, done)  # same line
    drain(scheduler)
    assert stats.hits == 1
    # the hit was fast, the miss slow
    assert done[0][1] >= 100
    assert done[1][1] <= 205


def test_line_granularity():
    cache, backing, scheduler, stats = make_cache()
    done = []
    for i in range(8):
        read(cache, 0x1000 + 8 * i, i, done)
    drain(scheduler)
    assert stats.misses == 1  # one line


def test_lru_eviction():
    # 2-way, 1024B/64B = 16 lines, 8 sets; same set every 512 bytes
    cache, backing, scheduler, stats = make_cache()
    done = []
    base = 0x0
    conflicts = [base, base + 512, base + 1024]  # 3 lines, same set, 2 ways
    for i, address in enumerate(conflicts):
        read(cache, address, i * 300, done)
        drain(scheduler)
    assert stats.misses == 3
    # the first line was LRU-evicted: re-access misses again
    read(cache, conflicts[0], 2000, done)
    drain(scheduler)
    assert stats.misses == 4
    # the second line is still resident
    read(cache, conflicts[2], 3000, done)
    drain(scheduler)
    assert stats.hits == 1


def test_dirty_writeback():
    cache, backing, scheduler, stats = make_cache()
    cache.access(MemRequest(0x0, 8, is_write=True), 0)
    drain(scheduler)
    # evict the dirty line with two conflicting fills
    cache.access(MemRequest(512, 8), 1000)
    drain(scheduler)
    cache.access(MemRequest(1024, 8), 2000)
    drain(scheduler)
    assert stats.writebacks == 1
    writes = [r for r, _ in backing.requests if r.is_write]
    assert len(writes) == 1 and writes[0].address == 0x0


def test_mshr_merges_same_line():
    cache, backing, scheduler, stats = make_cache()
    done = []
    read(cache, 0x100, 0, done)
    read(cache, 0x108, 1, done)
    read(cache, 0x110, 2, done)
    drain(scheduler)
    assert stats.misses == 1
    assert stats.mshr_merges == 2
    assert len(done) == 3
    # only one fill went to the next level
    assert len(backing.requests) == 1


def test_mshr_full_backpressure():
    cache, backing, scheduler, stats = make_cache(mshr=2)
    done = []
    for i in range(4):
        read(cache, 0x1000 * (i + 1), 0, done)
    drain(scheduler)
    assert len(done) == 4  # all eventually served
    assert stats.misses == 4


def test_parked_request_schedules_nothing_until_a_fill():
    cache, backing, scheduler, stats = make_cache(mshr=2)
    done = []
    for i in range(3):
        read(cache, 0x1000 * (i + 1), 0, done)
    assert cache.mshr_occupancy == 2 and cache.parked == 1
    # no per-cycle retry: nothing fires while both misses are in flight
    assert sum(scheduler.run_due(cycle) for cycle in range(1, 100)) == 0
    assert scheduler.pending == 2 and cache.parked == 1
    drain(scheduler)
    assert cache.parked == 0 and len(done) == 3


def test_parked_requests_released_in_fifo_order_at_the_fill_cycle():
    cache, backing, scheduler, stats = make_cache(mshr=1)
    done = []
    addresses = [0x1000, 0x2000, 0x3000, 0x4000]
    for cycle, address in enumerate(addresses):
        read(cache, address, cycle, done)
    assert cache.parked == 3
    drain(scheduler)
    # each fill (at issue + 1 + 100) hands its entry to the oldest parked
    # request in the same cycle, which reaches the next level 1 cycle on
    assert [(r.address, c) for r, c in backing.requests] == [
        (0x1000, 1), (0x2000, 102), (0x3000, 203), (0x4000, 304)]
    assert [c for _, c in done] == [101, 202, 303, 404]


def test_replay_that_merges_releases_the_next_parked_request():
    cache, backing, scheduler, stats = make_cache(mshr=2)
    done = []
    read(cache, 0x1000, 0, done)     # fills at 101
    read(cache, 0x2000, 50, done)    # fills at 151
    read(cache, 0x3000, 60, done)    # parked
    read(cache, 0x3008, 61, done)    # parked: same line, not yet in MSHR
    read(cache, 0x4000, 62, done)    # parked
    assert cache.parked == 3
    scheduler.run_due(101)
    # 0x3000 takes the freed entry and the MSHR is full again
    assert cache.mshr_occupancy == 2 and cache.parked == 2
    scheduler.run_due(151)
    # 0x3008 merges into 0x3000's entry, so 0x4000 gets the freed one
    assert stats.mshr_merges == 1
    assert cache.mshr_occupancy == 2 and cache.parked == 0
    drain(scheduler)
    assert len(done) == 5 and stats.misses == 4


def test_replay_that_hits_releases_the_next_parked_request():
    cache, backing, scheduler, stats = make_cache(mshr=1)
    done = []
    read(cache, 0x1000, 0, done)     # fills at 101
    read(cache, 0x2000, 1, done)     # parked
    read(cache, 0x2008, 2, done)     # parked: same line, not yet in MSHR
    read(cache, 0x3000, 3, done)     # parked
    scheduler.run_due(101)
    # 0x2000 takes the freed entry (its fill lands at 202)
    assert cache.parked == 2
    scheduler.run_due(202)
    # 0x2008 hits on replay and takes no entry, so 0x3000 gets it
    assert stats.hits == 1
    assert cache.mshr_occupancy == 1 and cache.parked == 0
    drain(scheduler)
    assert len(done) == 4


def test_new_miss_queues_behind_parked_requests():
    cache, backing, scheduler, stats = make_cache(mshr=1)
    done = []
    read(cache, 0x1000, 0, done)     # fills at 101
    read(cache, 0x2000, 1, done)     # parked
    # an event queued for cycle 101 ahead of the fill's wake-up presents
    # a new miss after the fill has freed the entry
    scheduler.at(101, lambda cycle: read(cache, 0x3000, cycle, done))
    scheduler.run_due(101)
    # the new miss parks behind 0x2000 instead of taking its entry
    assert [r.address for r, _ in backing.requests] == [0x1000, 0x2000]
    assert cache.parked == 1
    drain(scheduler)
    assert [r.address for r, _ in backing.requests] == [
        0x1000, 0x2000, 0x3000]
    assert len(done) == 3


def test_replay_never_precedes_the_request_arrival():
    # an L1 forwards its miss to the L2 stamped 50 cycles ahead of the
    # scheduler; the L2's only MSHR entry fills at 11, before that stamp
    scheduler = Scheduler()
    backing = Backing(scheduler, latency=10)

    def level(name, latency, mshr, next_access):
        return Cache(CacheConfig(name=name, size_bytes=1024, line_bytes=64,
                                 associativity=2, latency=latency, ports=2,
                                 mshr_entries=mshr),
                     scheduler, next_access, CacheStats(name))

    l2 = level("L2", 1, 1, backing.access)
    l1 = level("L1", 50, 4, l2.access)
    done = []
    read(l2, 0x1000, 0, done)        # holds the L2 entry until 11
    read(l1, 0x2000, 0, done)        # reaches the L2 stamped 50: parked
    assert l2.parked == 1
    drain(scheduler)
    # the replay is served no earlier than its stamp plus the L2 latency
    assert [(r.address, c) for r, c in backing.requests] == [
        (0x1000, 1), (0x2000, 51)]
    assert [c for _, c in done] == [11, 61]


@pytest.mark.parametrize("latency", [50, 5000])
def test_parked_request_charges_at_most_two_lookups(latency):
    energy = [0.0]
    cache, backing, scheduler, stats = make_cache(
        mshr=1, backing_latency=latency, energy_sink=energy)
    done = []
    read(cache, 0x1000, 0, done)
    read(cache, 0x2000, 0, done)     # parked for the whole first miss
    drain(scheduler)
    assert len(done) == 2
    # one lookup for the first miss, two for the parked one, however
    # long it waited (energy_nj = 1.0)
    assert energy[0] == 3.0


def test_hierarchy_drains_parked_requests():
    scheduler = Scheduler()
    memory = MemorySystem(dae_hierarchy(), 1, scheduler)
    done = []
    for i in range(8):
        memory.access(0, 0x10000 * (i + 1), 8, is_write=False, cycle=0,
                      callback=done.append)
    # the L1 has 4 MSHR entries: the other 4 misses wait on its list
    caches = memory.diagnostics()["caches"]
    assert caches["L1.core0"] == {"mshr": 4, "parked": 4}
    assert memory.outstanding == 8
    drain(scheduler)
    assert len(done) == 8 and memory.outstanding == 0
    assert all(entry == {"mshr": 0, "parked": 0}
               for entry in memory.diagnostics()["caches"].values())


def test_write_allocate_marks_dirty():
    cache, backing, scheduler, stats = make_cache()
    cache.access(MemRequest(0x40, 8, is_write=True), 0)
    drain(scheduler)
    assert cache.contains(0x40)
    # evicting it must produce a writeback
    cache.access(MemRequest(0x40 + 512, 8), 100)
    drain(scheduler)
    cache.access(MemRequest(0x40 + 1024, 8), 200)
    drain(scheduler)
    assert stats.writebacks == 1


def test_prefetcher_detects_stride():
    prefetch_config = PrefetcherConfig(enabled=True, degree=2, trigger=3,
                                       distance=1)
    cache, backing, scheduler, stats = make_cache(
        size=4096, prefetcher=prefetch_config)
    done = []
    for i in range(6):
        read(cache, 0x0 + 64 * i, i * 10, done)
        drain(scheduler)
    assert stats.prefetches > 0
    # a later access to a prefetched line hits
    hits_before = stats.hits
    read(cache, 64 * 7, 1000, done)
    drain(scheduler)
    assert stats.hits > hits_before


def test_prefetch_callback_preserved_through_merge():
    """Regression: a demand miss merging into a prefetch-initiated fill
    must still complete (the bug behind the early deadlocks)."""
    prefetch_config = PrefetcherConfig(enabled=True, degree=4, trigger=2,
                                       distance=1)
    cache, backing, scheduler, stats = make_cache(
        size=4096, prefetcher=prefetch_config, backing_latency=500)
    done = []
    # trigger the prefetcher, then immediately demand-read a line that is
    # being prefetched
    for i in range(4):
        read(cache, 64 * i, i, done)
    read(cache, 64 * 5, 10, done)
    drain(scheduler)
    assert len(done) == 5


def test_port_contention_serializes():
    cache, backing, scheduler, stats = make_cache(ports=1)
    done = []
    # warm the line
    read(cache, 0x0, 0, done)
    drain(scheduler)
    done.clear()
    for i in range(4):
        read(cache, 0x0 + 8 * i, 1000, done)
    drain(scheduler)
    finish = sorted(c for _, c in done)
    assert finish[-1] > finish[0]  # one port: the 4 hits serialize
