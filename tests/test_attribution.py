"""Cycle-attribution tests (docs/observability.md, report schema v2).

The load-bearing property is *conservation*: every simulated cycle of
every tile lands in exactly one category and the stack sums to the
run's total — on every bundled workload, in DAE mode, under fault
injection, and with accelerators in the mix. Disabled attribution must
be an exact no-op on results (identity test), and ``diff_reports``
must attribute an L1-shrink slowdown to the memory-stall categories.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.harness import (
    dae_hierarchy, inorder_core, ooo_core, prepare_dae_sliced, simulate,
    simulate_dae, xeon_core, xeon_hierarchy,
)
from repro.resilience import FaultInjector, FaultPlan
from repro.sim import DeadlockError, Interleaver
from repro.telemetry import (
    Attributor, Histogram, MetricsRegistry, diff_reports, stats_to_dict,
    validate_report,
)
from repro.telemetry.attribution import (
    CAT_COMPUTE, CAT_FRONTEND_IDLE, MEMORY_PREFIX, TileAttribution,
)
from repro.workloads import PARBOIL, build_parboil

#: shrunken datasets so the all-Parboil sweep stays fast; anything not
#: listed simulates at its (already small) default size
SMALL_SIZES = {
    "bfs": dict(nverts=256, avg_degree=4),
    "cutcp": dict(natoms=24, gx=8, gy=8),
    "histo": dict(n=512),
    "lbm": dict(nx=8, ny=8),
    "mri-gridding": dict(nsamples=80, gsize=12),
    "mri-q": dict(nk=24, nvox=24),
    "sad": dict(height=8, width=8),
    "sgemm": dict(n=8, m=8, k=8),
    "spmv": dict(rows=96, nnz_per_row=6),
    "stencil": dict(nx=6, ny=6, nz=6, iters=1),
    "tpacf": dict(npoints=32, nbins=16),
}


def _assert_conserves(document: dict) -> dict:
    """validate_report re-checks conservation on the serialized numbers;
    assert it again explicitly so a failure names the tile."""
    assert validate_report(document) >= 1
    for name, entry in document["attribution"]["tiles"].items():
        booked = sum(entry["categories"].values())
        assert booked == entry["total_cycles"], (
            f"{name}: {booked} != {entry['total_cycles']}")
    return document


def _run_attributed(workload, **kwargs):
    attribution = Attributor()
    stats = simulate(workload.kernel, workload.args,
                     attribution=attribution, **kwargs)
    return stats, _assert_conserves(stats_to_dict(stats))


class TestConservation:
    @pytest.mark.parametrize("name", sorted(PARBOIL))
    def test_every_parboil_workload(self, name):
        workload = build_parboil(name, **SMALL_SIZES[name])
        _, document = _run_attributed(workload, core=xeon_core(),
                                      hierarchy=xeon_hierarchy())
        workload.verify()

    def test_multi_tile_spmd(self):
        workload = build_parboil("sgemm", **SMALL_SIZES["sgemm"])
        _, document = _run_attributed(workload, core=ooo_core(),
                                      num_tiles=4,
                                      hierarchy=dae_hierarchy())
        assert len(document["attribution"]["tiles"]) == 4

    def test_dae_mode(self):
        workload = build_parboil("sgemm", n=6, m=6, k=6)
        specs = prepare_dae_sliced(workload.kernel, workload.args, pairs=1)
        attribution = Attributor()
        stats = simulate_dae(specs, access_core=inorder_core(),
                             execute_core=inorder_core(),
                             hierarchy=dae_hierarchy(),
                             attribution=attribution)
        document = _assert_conserves(stats_to_dict(stats))
        tiles = document["attribution"]["tiles"]
        assert set(tiles) == {"access0", "execute0"}
        # the execute slice waits on the supply queue at least once
        assert any("dae_consume" in tiles[t]["categories"] for t in tiles)

    def test_under_fault_injection(self):
        plan = FaultPlan(seed=3, dram_stall_rate=0.3,
                         message_delay_rate=0.2)
        workload = build_parboil("sgemm", **SMALL_SIZES["sgemm"])
        _, document = _run_attributed(
            workload, core=ooo_core(), hierarchy=dae_hierarchy(),
            injector=FaultInjector(plan))
        assert document["attribution"]["total_cycles"] > 0

    def test_accelerated_workload(self):
        from repro.harness import default_farm
        from repro.frontend import compile_kernel
        from repro.workloads.sinkhorn import build_combined
        workload = build_combined(accelerated=True)
        farm = default_farm(compile_kernel(workload.kernel))
        assert farm is not None
        _, document = _run_attributed(
            workload, core=ooo_core(), hierarchy=dae_hierarchy(),
            accelerators=farm)
        kinds = {entry["kind"] for entry in
                 document["attribution"]["tiles"].values()}
        assert "accelerator" in kinds and "core" in kinds

    def test_no_hierarchy_books_ideal_memory(self):
        workload = build_parboil("sgemm", n=6, m=6, k=6)
        _, document = _run_attributed(workload, core=inorder_core())
        categories = set()
        for entry in document["attribution"]["tiles"].values():
            categories.update(entry["categories"])
        memory = {c for c in categories if c.startswith(MEMORY_PREFIX)}
        assert memory <= {MEMORY_PREFIX + "ideal"}


class TestDisabledIdentity:
    def test_disabled_attribution_is_bit_identical(self):
        def run(attribution):
            workload = build_parboil("sgemm", **SMALL_SIZES["sgemm"])
            return simulate(workload.kernel, workload.args,
                            core=xeon_core(), hierarchy=xeon_hierarchy(),
                            metrics=MetricsRegistry(),
                            attribution=attribution)

        base = stats_to_dict(run(None))
        attributed = stats_to_dict(run(Attributor()))
        assert "attribution" not in base
        attributed.pop("attribution")
        attributed.pop("roofline")
        assert attributed == base


class TestLedger:
    def test_cursor_books_intervals_to_pending(self):
        ledger = TileAttribution("t")
        ledger.pending = CAT_COMPUTE
        ledger.advance(10)
        ledger.pending = CAT_FRONTEND_IDLE
        ledger.advance(25)
        assert ledger.finalize(30) == {
            CAT_COMPUTE: 10, CAT_FRONTEND_IDLE: 20}

    def test_same_cycle_restep_is_noop(self):
        ledger = TileAttribution("t")
        ledger.pending = CAT_COMPUTE
        ledger.advance(5)
        ledger.advance(5)
        ledger.advance(3)  # never moves backwards
        assert ledger.cursor == 5

    def test_deferred_memory_resolves_on_completion(self):
        class Node:
            mem_req = None
        node = Node()

        class Req:
            service_level = "L1"
            coherence_delay = 0
        node.mem_req = Req()
        ledger = TileAttribution("t")
        ledger.pending = node
        ledger.advance(8)
        ledger.resolve_memory(node)
        # pending was the node: future cycles book to the resolved label
        assert ledger.pending == "memory.l1"
        assert ledger.finalize(8) == {"memory.l1": 8}

    def test_finalize_raises_on_lost_cycles(self):
        ledger = TileAttribution("t")
        ledger.pending = CAT_COMPUTE
        ledger.advance(4)
        with pytest.raises(AssertionError, match="lost cycles"):
            ledger.finalize(3)


class TestStallStateSingleSource:
    def _lonely_tile(self):
        from repro.frontend import compile_kernel
        from repro.passes import build_ddg
        from repro.sim.core.model import CoreTile
        from repro.trace.tracefile import KernelTrace
        source = (
            "def lonely(n: int):\n"
            "    v = recv_i64(1)\n"
        )
        func = compile_kernel(source)
        ddg = build_ddg(func)
        trace = KernelTrace("lonely")
        trace.block_trace = [0]
        trace.comm_trace = {
            next(i.iid for i in func.instructions()
                 if getattr(i, "callee", "") == "recv_i64"): [1]}
        return CoreTile("lonely", 0, ooo_core(), ddg, trace)

    def test_deadlock_diagnosis_carries_live_ledger(self):
        with pytest.raises(DeadlockError) as excinfo:
            Interleaver([self._lonely_tile()],
                        attribution=Attributor()).run()
        (tile,) = excinfo.value.diagnose()["tiles"]
        snapshot = tile["attribution"]
        # the tile is stuck waiting on the fabric: the live ledger says so
        assert snapshot["pending"] == "fabric"
        assert set(snapshot) == {"cursor", "pending", "categories"}

    def test_stall_state_without_attribution_omits_ledger(self):
        with pytest.raises(DeadlockError) as excinfo:
            Interleaver([self._lonely_tile()]).run()
        (tile,) = excinfo.value.diagnose()["tiles"]
        assert "attribution" not in tile


class TestDiffAttribution:
    @pytest.fixture(scope="class")
    def reports(self):
        def run(l1_bytes):
            hierarchy = xeon_hierarchy()
            hierarchy.private_levels[0].size_bytes = l1_bytes
            workload = build_parboil("sgemm")
            # in-order core: L1 misses stall at the window head, so the
            # shrink shows up as time, not just extra L2 traffic
            stats = simulate(workload.kernel, workload.args,
                             core=inorder_core(), hierarchy=hierarchy,
                             attribution=Attributor())
            return _assert_conserves(stats_to_dict(stats))

        return run(32 * 1024), run(512)

    def test_l1_shrink_is_predominantly_memory_stalls(self, reports):
        big, small = reports
        diff = diff_reports(big, small)
        assert diff["cycles_delta"] > 0
        assert diff["speedup"] < 1.0
        # the slowdown is attributed predominantly to memory categories
        assert diff["memory_stall_delta"] > 0.5 * diff["cycles_delta"]
        top_category, _ = diff["top_regressions"][0]
        assert top_category.startswith(MEMORY_PREFIX)

    def test_diff_is_antisymmetric(self, reports):
        big, small = reports
        forward = diff_reports(big, small)
        backward = diff_reports(small, big)
        assert forward["cycles_delta"] == -backward["cycles_delta"]
        assert forward["memory_stall_delta"] == \
            -backward["memory_stall_delta"]


class TestDiffAcrossCoreSwap:
    """``analyze --core ooo`` and ``--core ino`` name their tile ``OoO0``
    and ``InO0``: with no shared name, the diff pairs tiles by position
    instead of reporting no deltas."""

    def test_core_swap_pairs_tiles_by_position(self, tmp_path, capsys):
        paths = {}
        for core in ("ooo", "ino"):
            paths[core] = str(tmp_path / f"{core}.json")
            assert main(["analyze", "sgemm", "--core", core, "--size",
                         "n=8", "--size", "m=8", "--size", "k=8",
                         "--json", paths[core]]) == 0
        before, after = (json.loads(open(paths[core]).read())
                         for core in ("ooo", "ino"))
        diff = diff_reports(before, after)
        assert diff["tiles_matched_by"] == "position"
        assert diff["tiles_only_before"] == diff["tiles_only_after"] == []
        assert list(diff["tiles"]) == ["OoO0->InO0"]
        assert diff["cycles_delta"] > 0
        assert sum(entry["delta"] for entry in
                   diff["categories"].values()) == diff["cycles_delta"]
        capsys.readouterr()
        assert main(["diff", paths["ooo"], paths["ino"]]) == 0
        out = capsys.readouterr().out
        assert "tiles matched by position (no shared names): OoO0->InO0" \
            in out
        assert "category deltas" in out and "only in" not in out


class TestValidateReport:
    def _good(self):
        workload = build_parboil("sgemm", n=6, m=6, k=6)
        stats = simulate(workload.kernel, workload.args,
                         core=inorder_core(), hierarchy=dae_hierarchy(),
                         attribution=Attributor())
        return stats_to_dict(stats)

    def test_wrong_schema_version_rejected(self):
        document = self._good()
        document["schema_version"] = 1
        with pytest.raises(ValueError, match="schema version"):
            validate_report(document)

    def test_missing_attribution_rejected(self):
        document = self._good()
        del document["attribution"]
        with pytest.raises(ValueError, match="no attribution block"):
            validate_report(document)

    def test_conservation_violation_rejected(self):
        document = self._good()
        tile = next(iter(document["attribution"]["tiles"].values()))
        first = next(iter(tile["categories"]))
        tile["categories"][first] += 1
        with pytest.raises(ValueError, match="cycle conservation"):
            validate_report(document)

    def test_unknown_category_rejected(self):
        document = self._good()
        tile = next(iter(document["attribution"]["tiles"].values()))
        first = next(iter(tile["categories"]))
        tile["categories"]["mystery"] = tile["categories"].pop(first)
        with pytest.raises(ValueError, match="unknown category"):
            validate_report(document)

    def test_roofline_rides_along(self):
        document = self._good()
        assert document["roofline"]["flops"] > 0
        for tile in document["roofline"]["tiles"].values():
            assert tile["bound"] in ("memory", "compute")
            assert tile["attainable_ipc"] <= tile["peak_ipc"]


class TestHistogramQuantiles:
    def test_as_dict_carries_summary_quantiles(self):
        histogram = Histogram(boundaries=(1, 2, 4, 8))
        for value in (1, 1, 2, 3, 8):
            histogram.observe(value)
        document = histogram.as_dict()
        assert document["p50"] == 2.0
        assert document["p90"] == 8.0
        assert document["p99"] == 8.0

    def test_quantiles_reach_stats_json(self):
        workload = build_parboil("sgemm", n=6, m=6, k=6)
        stats = simulate(workload.kernel, workload.args,
                         core=ooo_core(), hierarchy=dae_hierarchy(),
                         metrics=MetricsRegistry())
        document = stats_to_dict(stats)
        histogram = document["metrics"]["histograms"][
            "memory.request_latency_cycles"]
        assert {"p50", "p90", "p99"} <= set(histogram)
        assert histogram["p50"] <= histogram["p90"] <= histogram["p99"]


class TestCLI:
    def test_analyze_run_and_report_roundtrip(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", "sgemm", "--size", "n=6", "--size", "m=6",
                     "--size", "k=6", "--hierarchy", "dae",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "top" in out
        assert main(["analyze", "--report", str(report)]) == 0
        assert "cycle attribution" in capsys.readouterr().out

    def test_analyze_rejects_invalid_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 2}))
        assert main(["analyze", "--report", str(bad)]) == 2
        assert "invalid report" in capsys.readouterr().err

    def test_analyze_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["analyze"]) == 2
        report = tmp_path / "r.json"
        report.write_text("{}")
        assert main(["analyze", "sgemm", "--report", str(report)]) == 2

    def test_diff_two_runs(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, hierarchy in ((a, "xeon"), (b, "dae")):
            assert main(["analyze", "sgemm", "--size", "n=6",
                         "--hierarchy", hierarchy,
                         "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out and "memory-stall delta" in out

    def test_diff_plain_stats_reports(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, core in ((a, "ooo"), (b, "ino")):
            assert main(["simulate", "sgemm", "--size", "n=6",
                         "--core", core, "--stats-json", str(path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        before, after = (json.loads(path.read_text()) for path in (a, b))
        assert f"cycles: {before['cycles']} -> {after['cycles']}" in out
        assert (f"instructions: {before['instructions']} -> "
                f"{after['instructions']}") in out
        assert "energy:" in out
        assert "category deltas skipped" in out
        assert "category deltas (cycles" not in out
        # a plain report still has to carry its totals
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"schema_version":
                                    before["schema_version"]}))
        assert main(["diff", str(a), str(bare)]) == 2
        assert "no non-negative cycles" in capsys.readouterr().err

    def test_stats_json_into_missing_directory_exits_2(self, tmp_path,
                                                       capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["simulate", "sgemm", "--size", "n=6",
                     "--stats-json", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err and ".tmp" not in err

    def test_diff_rejects_unreadable_input(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("not json")
        assert main(["diff", str(a), str(a)]) == 2
        assert "not a JSON report" in capsys.readouterr().err

    def test_timeline_filters(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["simulate", "sgemm", "--size", "n=6", "--tiles", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["timeline", str(trace)]) == 0
        full = capsys.readouterr().out
        assert main(["timeline", str(trace), "--tile", "OoO0",
                     "--name-prefix", "dbb", "--limit", "5"]) == 0
        filtered = capsys.readouterr().out
        assert "after filters" in filtered
        assert len(filtered) < len(full)
        # lanes other than the selected tile carry no events
        lanes = [line for line in filtered.splitlines() if "|" in line]
        assert all("OoO0" in line or line.strip(" |") == ""
                   for line in lanes)
