"""Sweep-utility tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import (
    dae_hierarchy, prepare, sweep_core, sweep_hierarchy, xeon_hierarchy,
)
from repro.ir import F64, I64
from repro.resilience import FaultPlan
from repro.sim.config import CoreConfig
from repro.telemetry import stats_to_dict
from repro.trace import SimMemory

from . import kernels
from .test_fuzz_differential import random_kernel


@pytest.fixture(scope="module")
def prepared():
    mem = SimMemory()
    n = 128
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)


BASE = CoreConfig(issue_width=4, rob_size=64, lsq_size=64,
                  branch_predictor="perfect")


def point_fingerprint(point) -> tuple:
    """A comparable record of one sweep point: its full stats report (or
    its failure record) — the unit of the bit-identical contract."""
    stats = (stats_to_dict(point.stats)
             if point.stats is not None else None)
    return (point.parameters, point.outcome, point.error, stats)


class TestSweepCore:
    def test_grid_cardinality(self, prepared):
        result = sweep_core(prepared, BASE,
                            {"issue_width": [1, 2], "rob_size": [8, 64]},
                            hierarchy_factory=dae_hierarchy)
        assert len(result.points) == 4
        combos = {(p.parameters["issue_width"], p.parameters["rob_size"])
                  for p in result.points}
        assert combos == {(1, 8), (1, 64), (2, 8), (2, 64)}

    def test_best_finds_minimum(self, prepared):
        result = sweep_core(prepared, BASE,
                            {"rob_size": [1, 64]},
                            hierarchy_factory=dae_hierarchy)
        best = result.best("cycles")
        assert best.parameters["rob_size"] == 64
        assert best.cycles == min(p.cycles for p in result.points)

    def test_table_renders_all_points(self, prepared):
        result = sweep_core(prepared, BASE, {"issue_width": [1, 4]},
                            hierarchy_factory=dae_hierarchy)
        text = result.table(title="T")
        assert "issue_width" in text and "cycles" in text
        assert len(text.splitlines()) == 3 + 2  # title + header + rule + 2

    def test_points_are_deterministic(self, prepared):
        first = sweep_core(prepared, BASE, {"issue_width": [2]},
                           hierarchy_factory=dae_hierarchy)
        second = sweep_core(prepared, BASE, {"issue_width": [2]},
                            hierarchy_factory=dae_hierarchy)
        assert first.points[0].cycles == second.points[0].cycles


class TestParallelSweeps:
    """The determinism contract: a sweep on a worker pool returns the
    same points, in the same order, with bit-identical per-point reports
    — including points that fail (deadlock) or run under a FaultPlan."""

    def test_serial_and_jobs4_are_bit_identical(self):
        # 8 points: 2 issue widths x 4 fault scenarios. drop-everything
        # deadlocks ping_pong (the tiles wait on messages that never
        # arrive); delay-everything and DRAM stalls complete with the
        # fault machinery engaged; None is the clean baseline.
        prepared = prepare(kernels.ping_pong, [16], num_tiles=2)
        grid = {
            "issue_width": [1, 2],
            "plan": [
                None,
                FaultPlan(seed=1, message_delay_rate=1.0),
                FaultPlan(seed=2, message_drop_rate=1.0),
                FaultPlan(seed=3, dram_stall_rate=0.5),
            ],
        }

        def run(jobs):
            return sweep_core(prepared, CoreConfig(), grid,
                              hierarchy_factory=dae_hierarchy,
                              num_tiles=2, jobs=jobs)

        serial, parallel = run(1), run(4)
        assert len(serial.points) == 8
        assert serial.outcomes() == {"ok": 6, "deadlock": 2}
        assert ([point_fingerprint(p) for p in serial.points]
                == [point_fingerprint(p) for p in parallel.points])


    def test_accelerated_points_build_their_own_farms(self):
        # a farm shared by serial points would carry instance occupancy
        # and invocation counts from one point to the next
        from repro.workloads.sinkhorn import build_combined
        workload = build_combined(accelerated=True)
        prepared = prepare(workload.kernel, workload.args,
                           memory=workload.memory)

        def run(jobs):
            return sweep_core(prepared, BASE, {"issue_width": [2, 4]},
                              hierarchy_factory=dae_hierarchy, jobs=jobs)

        serial, parallel = run(1), run(2)
        assert serial.outcomes() == {"ok": 2}
        assert ([point_fingerprint(p) for p in serial.points]
                == [point_fingerprint(p) for p in parallel.points])


class TestSweepHierarchy:
    def test_named_configs(self, prepared):
        result = sweep_hierarchy(prepared, BASE, {
            "dae": dae_hierarchy(),
            "xeon": xeon_hierarchy(),
        })
        names = {p.parameters["hierarchy"] for p in result.points}
        assert names == {"dae", "xeon"}
        assert all(p.cycles > 0 for p in result.points)

    def test_empty_result_table(self):
        from repro.harness.sweeps import SweepResult
        assert SweepResult().table(title="nothing") == "nothing"
        with pytest.raises(ValueError):
            SweepResult().best()


@given(pair=random_kernel(),
       data=st.lists(st.integers(-100, 100), min_size=4, max_size=12))
@settings(max_examples=5, deadline=None)
def test_fuzzed_kernel_sweeps_serial_equals_parallel(pair, data):
    """A random kernel, prepared once and swept over a 2-point core grid,
    reports the same per-point stats on one worker and on two."""
    n = len(data)
    mem = SimMemory()
    A = mem.alloc(n, I64, "A", init=np.array(data, dtype=np.int64))
    B = mem.alloc(n, I64, "B")
    prepared = prepare(pair[0], [A, B, n], memory=mem)

    def run(jobs):
        return sweep_core(prepared, BASE, {"issue_width": [1, 4]},
                          hierarchy_factory=dae_hierarchy, jobs=jobs)

    serial, parallel = run(1), run(2)
    assert [p.outcome for p in serial.points] == ["ok", "ok"]
    assert ([point_fingerprint(p) for p in serial.points]
            == [point_fingerprint(p) for p in parallel.points]), pair[0]
