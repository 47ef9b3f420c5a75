"""Data-movement observatory tests (repro.telemetry.memstat).

Three contracts under test:

* **conservation** — on every Parboil kernel the miss classes sum to
  the level's demand misses, per-set/per-bank counters sum to their
  totals, and ``validate_report`` accepts the schema-v3 report;
* **observation only** — attaching a MemStat leaves the cycle counts of
  the ooo/dae reference system bit-identical to the seed baseline
  (``BENCH_cycle_identity.json``), the same numbers the disabled path
  pins in ``test_behaviour_baseline.py``;
* **diagnosis** — a synthetic conflict-thrash microbenchmark whose
  misses classify as *conflict* at low associativity and vanish once
  the associativity covers the walk's footprint.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.harness import (
    dae_hierarchy, inorder_core, ooo_core, prepare, prepare_dae_sliced,
    render_attribution_report, render_memory_diff, render_memstat_report,
    simulate, simulate_dae,
)
from repro.ir import F64, I64
from repro.memory import NoCConfig
from repro.sim.config import CacheConfig, MemoryHierarchyConfig
from repro.telemetry import (
    Attributor, Histogram, MemStat, ReuseTracker, diff_memory_blocks,
    stats_to_dict, validate_memory_block, validate_report,
)
from repro.trace import SimMemory
from repro.workloads import PARBOIL, build_parboil

from . import kernels

BASELINE = json.loads(
    (Path(__file__).parent.parent / "benchmarks" / "results"
     / "BENCH_cycle_identity.json").read_text())


def _observed_run(kernel_name):
    memstat = MemStat()
    w = build_parboil(kernel_name)
    prepared = prepare(w.kernel, w.args, memory=w.memory)
    stats = simulate(w.kernel, w.args, prepared=prepared, core=ooo_core(),
                     hierarchy=dae_hierarchy(), attribution=Attributor(),
                     memstat=memstat)
    w.verify()
    return stats


class TestParboilConservation:
    @pytest.mark.parametrize("kernel", sorted(PARBOIL))
    def test_report_validates_and_conserves(self, kernel):
        stats = _observed_run(kernel)
        document = stats_to_dict(stats)
        assert document["schema_version"] == 3
        validate_report(document)  # raises on any conservation breach
        memory = document["memory"]
        for level, entry in memory["caches"].items():
            assert (entry["compulsory"] + entry["capacity"]
                    + entry["conflict"]) == entry["misses"]
            assert entry["misses"] == document["caches"][level]["misses"]
            assert sum(entry["set_misses"]) == entry["misses"]
            assert sum(entry["set_conflicts"]) == entry["conflict"]
        dram = memory["dram"]
        assert dram["accesses"] == document["dram"]["requests"]
        per_bank = dram["per_bank"]
        assert sum(b["hits"] for b in per_bank) == dram["row_hits"]
        assert sum(b["misses"] for b in per_bank) == dram["row_misses"]
        assert sum(b["conflicts"] for b in per_bank) \
            == dram["row_conflicts"]

    @pytest.mark.parametrize("kernel", sorted(PARBOIL))
    def test_enabled_observatory_is_observation_only(self, kernel):
        expected = BASELINE["kernels"][kernel]
        stats = _observed_run(kernel)
        assert (stats.cycles, stats.instructions) \
            == (expected["cycles"], expected["instructions"]), (
            f"{kernel}: attaching MemStat changed simulated time — the "
            f"observatory must be observation-only")


def _thrash_hierarchy(associativity, num_sets=32, line_bytes=64):
    l1 = CacheConfig(name="L1", line_bytes=line_bytes,
                     size_bytes=num_sets * line_bytes * associativity,
                     associativity=associativity, latency=1,
                     mshr_entries=4, energy_nj=0.10)
    base = dae_hierarchy()
    return replace(base, private_levels=(l1,) + base.private_levels[1:])


def _thrash_run(associativity, lines=8, rounds=6, num_sets=32):
    line_bytes = 64
    stride = num_sets * line_bytes // 8          # f64 elements per stride
    n = lines * stride
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    memstat = MemStat()
    prepared = prepare(kernels.thrash_walk, [A, n, stride, rounds],
                       memory=mem)
    stats = simulate(prepared.function, [], prepared=prepared,
                     core=inorder_core(),
                     hierarchy=_thrash_hierarchy(associativity,
                                                 num_sets=num_sets),
                     memstat=memstat)
    return stats.memstat["caches"]["L1"]


class TestConflictThrash:
    def test_low_associativity_classifies_conflicts(self):
        l1 = _thrash_run(associativity=2)
        assert l1["conflict"] > 0
        # the walk maps every line to one set: the conflicts concentrate
        # where the misses do
        assert sum(l1["set_conflicts"]) == l1["conflict"]
        hot_sets = [i for i, c in enumerate(l1["set_conflicts"]) if c]
        assert len(hot_sets) == 1
        assert (l1["compulsory"] + l1["capacity"] + l1["conflict"]) \
            == l1["misses"]

    def test_higher_associativity_dissolves_conflicts(self):
        thrashed = _thrash_run(associativity=2)
        roomy = _thrash_run(associativity=8)
        assert thrashed["conflict"] > 0
        assert roomy["conflict"] == 0
        # same walk, same footprint: the compulsory misses (first-touch)
        # are associativity-independent
        assert roomy["compulsory"] == thrashed["compulsory"]
        assert roomy["misses"] < thrashed["misses"]


class TestObservatoryBlocks:
    def test_disabled_by_default(self):
        mem = SimMemory()
        n = 64
        A = mem.alloc(n, F64, "A", init=np.ones(n))
        B = mem.alloc(n, F64, "B", init=np.ones(n))
        stats = simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                         hierarchy=dae_hierarchy(), memory=mem)
        assert stats.memstat is None
        assert "memory" not in stats_to_dict(stats)

    def test_tile_reuse_and_queue_depth_on_dae(self):
        mem = SimMemory()
        n = 128
        src = mem.alloc(n, F64, "src", init=np.ones(n))
        idx = mem.alloc(n, I64, "idx", init=np.arange(n))
        out = mem.alloc(n, F64, "out", init=np.zeros(n))
        memstat = MemStat()
        specs = prepare_dae_sliced(kernels.dae_friendly,
                                   [src, idx, out, n], memory=mem)
        stats = simulate_dae(specs, access_core=inorder_core(),
                             execute_core=inorder_core(),
                             hierarchy=dae_hierarchy(), memstat=memstat)
        memory = stats.memstat
        assert memory["tiles"], "hierarchy entry reuse profiles missing"
        queues = memory["queues"]
        assert queues, "DAE queue-depth histograms missing"
        for entry in queues.values():
            assert sum(entry["counts"]) == entry["count"] > 0
        validate_memory_block(stats_to_dict(stats))

    def test_noc_link_ledger_conserves(self):
        mem = SimMemory()
        n = 256
        A = mem.alloc(n, F64, "A", init=np.ones(n))
        B = mem.alloc(n, F64, "B", init=np.ones(n))
        memstat = MemStat()
        hierarchy = dae_hierarchy()
        hierarchy.noc = NoCConfig(width=2, height=2, llc_banks=4)
        stats = simulate(kernels.saxpy, [A, B, n, 2.0],
                         core=inorder_core(), hierarchy=hierarchy,
                         memory=mem, memstat=memstat)
        ledger = stats.memstat["noc_links"]
        assert ledger["traversals"] > 0
        span = ledger["epoch_cycles"]
        for link in ledger["links"].values():
            assert link["busy"] <= link["demand"]
            for point in link["epochs"].values():
                assert 0 < point["busy"] <= span
                assert point["busy"] <= point["demand"]

    def test_validator_rejects_broken_conservation(self):
        stats = _observed_run("histo")
        document = stats_to_dict(stats)
        document["memory"]["caches"]["L1"]["conflict"] += 1
        with pytest.raises(ValueError):
            validate_report(document)

    def test_diff_memory_blocks(self):
        before = stats_to_dict(_observed_run("histo"))
        after = json.loads(json.dumps(before))
        after["memory"]["caches"]["L1"]["misses"] += 3
        after["memory"]["caches"]["L1"]["capacity"] += 3
        delta = diff_memory_blocks(before["memory"], after["memory"])
        assert delta["caches"]["L1"]["misses"]["delta"] == 3
        assert delta["caches"]["L1"]["capacity"]["delta"] == 3
        rendered = render_memory_diff(delta)
        assert "L1.misses" in rendered
        assert diff_memory_blocks(before["memory"], None) is None


class TestReuseTracker:
    def test_distances_and_cold_counts(self):
        tracker = ReuseTracker(sample_every=1)
        for line in (1, 2, 3, 1, 3, 3):
            tracker.observe(line)
        # 1,2,3 are first touches (cold); reuse of 1 skips {3,2};
        # reuse of 3 skips {1}; immediate reuse of 3 skips nothing
        assert tracker.cold == 3
        assert tracker.sampled == 6
        hist = tracker.hist
        assert hist.count == 3
        assert hist.counts[hist.boundaries.index(0)] == 1
        assert hist.counts[hist.boundaries.index(1)] == 1
        assert hist.counts[hist.boundaries.index(2)] == 1

    def test_stride_sampling_is_deterministic(self):
        def profile():
            tracker = ReuseTracker(sample_every=4)
            for line in range(64):
                tracker.observe(line % 16)
            return tracker.as_dict()
        assert profile() == profile()


class TestPercentileSentinel:
    def test_empty_histogram_percentiles_are_none(self):
        hist = Histogram()
        assert hist.percentile(0.5) is None
        assert hist.percentile(0.99) is None
        # the deprecated quantile spelling delegates to percentile, so
        # the two can no longer disagree about an empty histogram
        assert hist.quantile(0.5) is None
        document = hist.as_dict()
        assert document["p50"] is None
        assert document["p90"] is None
        assert document["p99"] is None

    def test_populated_histogram_percentiles_survive(self):
        hist = Histogram((1, 2, 4))
        for value in (1, 1, 2, 4):
            hist.observe(value)
        assert hist.percentile(0.5) == hist.quantile(0.5)
        assert hist.as_dict()["p50"] == 1.0


class TestRendererGuards:
    def test_memstat_renderer_without_memory_block(self):
        assert "no memory block" in render_memstat_report({})

    def test_attribution_renderer_survives_empty_categories(self):
        document = {
            "attribution": {
                "total_cycles": 0,
                "tiles": {"tile0": {"kind": "core", "total_cycles": 0,
                                    "categories": {}}},
            },
        }
        rendered = render_attribution_report(document)
        assert "no attributed cycles" in rendered

    def test_memstat_renderer_on_zero_access_block(self):
        memstat = MemStat()
        memstat.cache_observer("L1", num_sets=4, associativity=2)
        document = {"memory": memstat.memory_block()}
        rendered = render_memstat_report(document)
        assert "data-movement observatory" in rendered
