"""Harness tests: system presets, reference machine, reporting, trends,
trace footprint, power/area."""

import numpy as np
import pytest

from repro.harness import (
    accuracy_factor, dae_hierarchy, fold_for_x86, geomean, inorder_core,
    microprocessor_trends, ooo_core, prepare, reference_stats, render_bars,
    render_figure1, render_table, simulate, stagnation_year,
    trace_footprint_bytes, xeon_core, xeon_hierarchy,
)
from repro.ir import F64, Opcode
from repro.power import (
    INO_CORE_AREA_MM2, OOO_CORE_AREA_MM2, core_area_mm2, edp_improvement,
    equal_area_count, speedup, sram_area_mm2,
)
from repro.trace import SimMemory
from repro.workloads import build_parboil

from . import kernels


@pytest.fixture(scope="module")
def saxpy_prepared():
    mem = SimMemory()
    n = 64
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)


class TestSystems:
    def test_table2_parameters(self):
        ino, ooo = inorder_core(), ooo_core()
        assert ino.issue_width == 1 and ino.rob_size == 1
        assert ooo.issue_width == 4 and ooo.rob_size == 128
        assert ino.frequency_ghz == ooo.frequency_ghz == 2.0
        assert ino.area_mm2 == pytest.approx(1.01)
        assert ooo.area_mm2 == pytest.approx(8.44)

    def test_table1_hierarchy(self):
        h = xeon_hierarchy()
        assert h.private_levels[0].size_bytes == 32 * 1024
        assert h.private_levels[1].size_bytes == 2 * 1024 * 1024
        assert h.llc.size_bytes == 20 * 1024 * 1024
        assert h.llc.associativity == 20
        assert h.simple_dram.bandwidth_gbps == 68.0

    def test_dae_hierarchy_matches_table2(self):
        h = dae_hierarchy()
        assert h.simple_dram.bandwidth_gbps == 24.0
        assert h.simple_dram.min_latency == 200
        assert h.private_levels[0].latency == 1
        assert h.llc.latency == 6


class TestReferenceMachine:
    def test_folding_marks_geps_and_casts(self, saxpy_prepared):
        folded = fold_for_x86(saxpy_prepared.ddg)
        for node in folded.nodes:
            if node.opcode is Opcode.GEP:
                assert node.folded
            if node.opcode is Opcode.LOAD:
                assert not node.folded
        # original untouched
        assert not any(n.folded for n in saxpy_prepared.ddg.nodes)

    def test_reference_run(self, saxpy_prepared):
        ref = reference_stats(saxpy_prepared)
        assert ref.cycles > 0
        assert ref.frequency_ghz == 3.2

    def test_accuracy_factor_near_one(self, saxpy_prepared):
        mosaic = simulate(saxpy_prepared.function, [], core=xeon_core(),
                          hierarchy=xeon_hierarchy(),
                          prepared=saxpy_prepared)
        ref = reference_stats(saxpy_prepared)
        factor = accuracy_factor(mosaic, ref)
        assert 0.3 < factor < 3.0

    def test_folded_reference_executes_fewer_instructions(self,
                                                          saxpy_prepared):
        mosaic = simulate(saxpy_prepared.function, [], core=xeon_core(),
                          hierarchy=xeon_hierarchy(),
                          prepared=saxpy_prepared)
        ref = reference_stats(saxpy_prepared)
        assert ref.instructions < mosaic.instructions


class TestReporting:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        # degenerate inputs warn and return 0.0 instead of raising, so a
        # single bad sweep point cannot kill a whole report
        with pytest.warns(UserWarning):
            assert geomean([]) == 0.0
        with pytest.warns(UserWarning):
            assert geomean([1.0, -1.0]) == 0.0
        with pytest.warns(UserWarning):
            assert geomean([0.0, 2.0]) == 0.0

    def test_render_table(self):
        text = render_table(["name", "value"], [["a", 1.5], ["b", 2]],
                            title="T")
        assert "T" in text and "a" in text and "1.500" in text

    def test_render_bars(self):
        text = render_bars({"x": 1.0, "y": 2.0}, width=10, unit="x")
        assert "#" in text
        lines = text.splitlines()
        assert len(lines) == 2

    def test_render_bars_all_zero(self):
        text = render_bars({"x": 0.0, "y": 0.0}, width=10)
        assert "#" not in text
        assert len(text.splitlines()) == 2


class TestTrends:
    def test_figure1_series_shapes(self):
        points = microprocessor_trends()
        assert points[0].year == 1971
        assert points[-1].year == 2017
        # transistor counts keep growing
        assert points[-1].transistors_k > 1e6
        # frequency plateaus
        assert points[-1].frequency_mhz == points[-5].frequency_mhz
        # cores only appear after the Dennard wall
        assert points[20].cores == 1.0
        assert points[-1].cores > 8

    def test_stagnation_detected_mid_2000s(self):
        year = stagnation_year(microprocessor_trends())
        assert 2003 <= year <= 2007

    def test_render(self):
        text = render_figure1(microprocessor_trends())
        assert "transistors" in text and "2015" in text


class TestSimSpeed:
    def test_trace_footprint(self, saxpy_prepared):
        footprint = trace_footprint_bytes(saxpy_prepared)
        assert footprint["compressed_bytes"] > 0
        assert footprint["memory_accesses"] == 3 * 64


class TestPowerArea:
    def test_table2_anchors(self):
        assert core_area_mm2(inorder_core()) == pytest.approx(
            INO_CORE_AREA_MM2)
        assert core_area_mm2(ooo_core()) == pytest.approx(
            OOO_CORE_AREA_MM2)

    def test_equal_area_count_is_eight(self):
        assert equal_area_count(inorder_core(), ooo_core()) == 8

    def test_derived_core_area_interpolates(self):
        from repro.sim.config import CoreConfig
        mid = CoreConfig(issue_width=2, rob_size=32, area_mm2=0.0)
        area = core_area_mm2(mid)
        assert INO_CORE_AREA_MM2 < area < OOO_CORE_AREA_MM2

    def test_sram_area_positive(self):
        assert sram_area_mm2(1024 * 1024) > 0

    def test_speedup_and_edp(self, saxpy_prepared):
        slow = simulate(saxpy_prepared.function, [], core=inorder_core(),
                        hierarchy=dae_hierarchy(), prepared=saxpy_prepared)
        fast = simulate(saxpy_prepared.function, [], core=ooo_core(),
                        hierarchy=dae_hierarchy(), prepared=saxpy_prepared)
        assert speedup(slow, fast) > 1.0
        assert edp_improvement(slow, fast) > 0


class TestTraceCountValidation:
    def test_too_few_traces_still_raises(self):
        prepared = prepare(kernels.collatz_steps, [27], num_tiles=2)
        with pytest.raises(ValueError, match="cover 2 tile"):
            simulate(prepared.function, [], prepared=prepared,
                     num_tiles=4, core=ooo_core())

    def test_extra_traces_warn_by_default(self, capsys):
        prepared = prepare(kernels.collatz_steps, [27], num_tiles=2)
        stats = simulate(prepared.function, [], prepared=prepared,
                         num_tiles=1, core=ooo_core())
        assert stats.cycles > 0
        err = capsys.readouterr().err
        assert "extra 1 trace(s) are ignored" in err
