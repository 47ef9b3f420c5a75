"""Resilience-layer tests: deterministic fault injection, the run
supervisor (cycle budget, watchdog, retries), deadlock diagnostics,
graceful sweep degradation, accelerator fallback, config validation,
cancellable events, and the CLI error paths."""

import numpy as np
import pytest

from repro.cli import main
from repro.harness import (
    classify_failure, dae_hierarchy, inorder_core, ooo_core, prepare,
    run_supervised, simulate, sweep_core, sweep_runs,
)
from repro.harness.sweeps import SweepResult
from repro.ir import F64, I64
from repro.memory.dram import SimpleDRAM
from repro.resilience import FaultInjector, FaultPlan
from repro.sim import (
    AcceleratorFaultError, CacheConfig, ConfigError, CoreConfig,
    CycleBudgetExceeded, DeadlockError, Interleaver, Scheduler,
    SimpleDRAMConfig, SimulationError, WatchdogTimeout,
)
from repro.sim.accelerator.tile import AcceleratorFarm
from repro.sim.config import MemoryHierarchyConfig
from repro.sim.core.model import CoreTile
from repro.sim.tile import Tile
from repro.trace import SimMemory

from . import kernels


def _saxpy_env(n=256, seed=0):
    rng = np.random.default_rng(seed)
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=rng.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=rng.uniform(-1, 1, n))
    return mem, A, B, n


class TestFaultDeterminism:
    def _run(self, plan):
        mem, A, B, n = _saxpy_env()
        run = run_supervised(kernels.saxpy, [A, B, n, 2.0], plan=plan,
                              core=ooo_core(), hierarchy=dae_hierarchy(),
                              memory=mem)
        return run, B.data.copy()

    def test_same_seed_is_bit_reproducible(self):
        plan = FaultPlan(seed=3, bitflip_load_rate=0.05,
                         dram_stall_rate=0.3)
        run1, b1 = self._run(plan)
        run2, b2 = self._run(plan)
        assert run1.stats == run2.stats
        assert run1.fault_log == run2.fault_log
        assert len(run1.fault_log) > 0
        assert np.array_equal(b1, b2)

    def test_message_faults_deterministic(self):
        plan = FaultPlan(seed=5, message_delay_rate=0.5,
                         message_delay_cycles=40)
        runs = [run_supervised(kernels.ping_pong, [16], plan=plan,
                                core=ooo_core(), num_tiles=2)
                for _ in range(2)]
        assert runs[0].stats == runs[1].stats
        assert runs[0].fault_log == runs[1].fault_log
        assert any(r.site == "msg" and r.kind == "delay"
                   for r in runs[0].fault_log)
        # delays cost cycles versus the clean run
        clean = simulate(kernels.ping_pong, [16], core=ooo_core(),
                         num_tiles=2)
        assert runs[0].stats.cycles > clean.cycles

    def test_different_seeds_draw_different_faults(self):
        run1, _ = self._run(FaultPlan(seed=1, dram_stall_rate=0.3))
        run2, _ = self._run(FaultPlan(seed=2, dram_stall_rate=0.3))
        assert run1.fault_log != run2.fault_log

    def test_disabled_plan_matches_baseline(self):
        run, b_faulted = self._run(FaultPlan(seed=9))
        mem, A, B, n = _saxpy_env()
        base = simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                        hierarchy=dae_hierarchy(), memory=mem)
        assert run.fault_log == ()
        assert run.stats == base
        assert np.array_equal(b_faulted, B.data)

    def test_bitflips_corrupt_functional_loads(self):
        n = 32
        mem = SimMemory()
        values = np.arange(1, n + 1, dtype=np.int64)
        A = mem.alloc(n, I64, "A", init=values)
        B = mem.alloc(n, I64, "B")
        clean = SimMemory()
        Ac = clean.alloc(n, I64, "A", init=values)
        Bc = clean.alloc(n, I64, "B")
        simulate(kernels.int_ops, [Ac, Bc, n], memory=clean)
        run = run_supervised(kernels.int_ops, [A, B, n],
                              plan=FaultPlan(seed=11,
                                             bitflip_load_rate=1.0),
                              memory=mem)
        assert any(r.site == "mem" and r.kind == "bitflip"
                   for r in run.fault_log)
        assert not np.array_equal(B.data, Bc.data)


class TestOnePlanPath:
    """run_plan decides the functional/timing split for every caller."""

    @pytest.fixture
    def functional_passes(self, monkeypatch):
        from repro.trace.interpreter import Interpreter
        calls = []
        real = Interpreter.run_spmd

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Interpreter, "run_spmd", counted)
        return calls

    def test_timing_plan_retimes_prepared_traces(self, functional_passes):
        mem, A, B, n = _saxpy_env(64)
        prepared = prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)
        assert len(functional_passes) == 1
        outcome = run_supervised(
            kernels.saxpy, [A, B, n, 2.0], memory=mem, prepared=prepared,
            plan=FaultPlan(seed=3, dram_stall_rate=0.3), core=ooo_core(),
            hierarchy=dae_hierarchy())
        assert outcome.ok and outcome.fault_log
        assert len(functional_passes) == 1

    def test_timing_plan_traces_once_across_retries(self,
                                                    functional_passes):
        outcome = run_supervised(
            kernels.ping_pong, [16], num_tiles=2, retries=2,
            plan=FaultPlan(message_drop_rate=1.0), core=ooo_core())
        assert outcome.status == "deadlock" and outcome.attempts == 3
        assert len(functional_passes) == 1

    def test_bitflip_plan_reinterprets_fresh_state(self,
                                                   functional_passes):
        fresh_calls = []

        def fresh():
            fresh_calls.append(1)
            mem, A, B, n = _saxpy_env(64)
            return kernels.saxpy, [A, B, n, 2.0], mem

        kernel, args, mem = fresh()
        prepared = prepare(kernel, args, memory=mem)
        outcome = run_supervised(
            kernel, args, memory=mem, prepared=prepared, fresh=fresh,
            plan=FaultPlan(seed=3, bitflip_load_rate=0.05),
            core=ooo_core(), hierarchy=dae_hierarchy())
        assert outcome.ok
        assert any(r.site == "mem" for r in outcome.fault_log)
        assert len(functional_passes) == 2 and len(fresh_calls) == 2

    def test_bitflip_plan_needs_fresh_state_after_a_run(self):
        mem, A, B, n = _saxpy_env(16)
        prepared = prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)
        plan = FaultPlan(seed=1, bitflip_load_rate=0.01)
        for extra in ({"prepared": prepared}, {"retries": 1}):
            with pytest.raises(ValueError, match="fresh="):
                run_supervised(kernels.saxpy, [A, B, n, 2.0], memory=mem,
                               plan=plan, **extra)

    def test_sweep_refuses_bitflip_plans_before_any_point(self,
                                                         monkeypatch):
        from repro.harness import sweeps
        monkeypatch.setattr(sweeps, "_execute_spec",
                            lambda *_: pytest.fail("a point ran"))
        prepared = prepare(kernels.ping_pong, [16], num_tiles=2)
        plans = [None, FaultPlan(seed=1, bitflip_load_rate=0.1)]
        with pytest.raises(ValueError, match="repro campaign --sites mem"):
            sweep_core(prepared, ooo_core(), {"plan": plans}, num_tiles=2)
        with pytest.raises(ValueError, match="bitflip_load_rate=0.1"):
            sweep_runs(prepared, {"flip": {"core": ooo_core(),
                                           "num_tiles": 2,
                                           "plan": plans[1]}})


class _SpinTile(Tile):
    """Never finishes: exercises cycle budget and wall-clock watchdog."""

    def __init__(self):
        super().__init__("spin", 0)

    def step(self, cycle: int) -> int:
        self.next_attention = cycle + 1
        return self.next_attention

    @property
    def done(self) -> bool:
        return False


class TestSupervisor:
    def test_cycle_budget_raises_and_classifies(self):
        with pytest.raises(CycleBudgetExceeded, match="exceeded"):
            Interleaver([_SpinTile()], max_cycles=1000).run()

    def test_watchdog_fires_on_wall_clock(self):
        with pytest.raises(WatchdogTimeout, match="watchdog"):
            Interleaver([_SpinTile()], max_cycles=1 << 60,
                        wall_clock_limit=0.05).run()

    def test_classify_failure_labels(self):
        assert classify_failure(DeadlockError("x")) == "deadlock"
        assert classify_failure(CycleBudgetExceeded("x")) == "timeout"
        assert classify_failure(WatchdogTimeout("x")) == "timeout"
        assert classify_failure(AcceleratorFaultError("a", 1)) == "fault"
        assert classify_failure(ConfigError("x")) == "config-error"
        assert classify_failure(SimulationError("x")) == "error"

    def test_run_supervised_ok(self):
        mem, A, B, n = _saxpy_env(64)
        outcome = run_supervised(kernels.saxpy, [A, B, n, 2.0],
                                 core=ooo_core(),
                                 hierarchy=dae_hierarchy(), memory=mem)
        assert outcome.ok and outcome.status == "ok"
        assert outcome.stats.cycles > 0
        assert outcome.attempts == 1

    def test_run_supervised_records_timeout(self):
        mem, A, B, n = _saxpy_env(64)
        outcome = run_supervised(kernels.saxpy, [A, B, n, 2.0],
                                 core=ooo_core(),
                                 hierarchy=dae_hierarchy(), memory=mem,
                                 max_cycles=10)
        assert not outcome.ok
        assert outcome.status == "timeout"
        assert "exceeded" in outcome.error
        assert outcome.stats is None

    def test_run_supervised_failure_keeps_profile(self):
        # regression: the failure path used to drop profiler.report, so
        # a timed-out run's phase buckets — exactly the runs worth
        # profiling — were lost
        from repro.telemetry.profiler import SelfProfiler
        mem, A, B, n = _saxpy_env(64)
        profiler = SelfProfiler()
        outcome = run_supervised(kernels.saxpy, [A, B, n, 2.0],
                                 core=ooo_core(),
                                 hierarchy=dae_hierarchy(), memory=mem,
                                 profiler=profiler, max_cycles=10)
        assert outcome.status == "timeout"
        assert outcome.profile is not None
        assert outcome.profile.wall_seconds >= 0.0

    def test_run_supervised_retries_transient_faults(self):
        # rate-1.0 faults recur on every reseeded attempt: the supervisor
        # exhausts its retries and reports the fault
        farm = AcceleratorFarm().add_default("sgemm")
        farm.fallback_enabled = False
        mem = SimMemory()
        n = 8
        A = mem.alloc(n * n, F64, "A", init=np.ones(n * n))
        B = mem.alloc(n * n, F64, "B", init=np.ones(n * n))
        C = mem.alloc(n * n, F64, "C")
        outcome = run_supervised(
            kernels.accel_sgemm_wrapper, [A, B, C, n, n, n],
            plan=FaultPlan(seed=1, accel_fault_rate=1.0),
            core=inorder_core(), accelerators=farm, memory=mem,
            retries=2)
        assert outcome.status == "fault"
        assert outcome.attempts == 3
        assert "accelerator fault" in outcome.error


class TestDeadlockDiagnostics:
    def _lonely_tile(self):
        source = (
            "def lonely(n: int):\n"
            "    v = recv_i64(1)\n"
        )
        from repro.frontend import compile_kernel
        from repro.passes import build_ddg
        from repro.trace.tracefile import KernelTrace
        func = compile_kernel(source)
        ddg = build_ddg(func)
        trace = KernelTrace("lonely")
        trace.block_trace = [0]
        trace.comm_trace = {
            next(i.iid for i in func.instructions()
                 if getattr(i, "callee", "") == "recv_i64"): [1]}
        return CoreTile("lonely", 0, ooo_core(), ddg, trace)

    def test_deadlock_carries_structured_diagnosis(self):
        with pytest.raises(DeadlockError) as excinfo:
            Interleaver([self._lonely_tile()]).run()
        diagnosis = excinfo.value.diagnose()
        assert set(diagnosis) >= {"cycle", "tiles", "fabric",
                                  "events_pending"}
        (tile,) = diagnosis["tiles"]
        assert tile["name"] == "lonely"
        assert not tile["done"]
        assert tile["next_attention"] is None
        fabric = diagnosis["fabric"]
        assert fabric["recv_waiters"] == 1
        assert fabric["pending_messages"] == 0
        assert diagnosis["events_pending"] == 0
        assert "deadlock at cycle" in str(excinfo.value)

    def test_dropped_messages_deadlock_is_diagnosed(self):
        injector = FaultInjector(FaultPlan(seed=0, message_drop_rate=1.0))
        with pytest.raises(DeadlockError) as excinfo:
            simulate(kernels.ping_pong, [4], core=ooo_core(), num_tiles=2,
                     injector=injector)
        assert excinfo.value.diagnose()["fabric"]["dropped_messages"] > 0
        assert any(r.kind == "drop" for r in injector.log)

    def test_deadlock_snapshot_lists_every_cache_wait_list(self):
        # a request parked behind a full MSHR is not a scheduled event:
        # the memory snapshot names each cache's MSHR and parked count
        injector = FaultInjector(FaultPlan(seed=0, message_drop_rate=1.0))
        with pytest.raises(DeadlockError) as excinfo:
            simulate(kernels.ping_pong, [4], core=ooo_core(), num_tiles=2,
                     hierarchy=dae_hierarchy(), injector=injector)
        memory = excinfo.value.diagnose()["memory"]
        assert memory["outstanding_requests"] == 0
        assert {"L1.core0", "L1.core1"} <= set(memory["caches"])
        for entry in memory["caches"].values():
            assert entry == {"mshr": 0, "parked": 0}

    def test_lost_fills_leave_parked_requests_in_the_snapshot(
            self, monkeypatch):
        # a DRAM that never answers: the L1's misses fill its MSHR, the
        # rest park on its wait list, and the run deadlocks with no event
        # pending -- only the memory snapshot shows where requests sit
        monkeypatch.setattr(SimpleDRAM, "access",
                            lambda self, request, cycle: None)
        mem = SimMemory()
        A = mem.alloc(512, F64, "A", init=np.zeros(512))
        with pytest.raises(DeadlockError) as excinfo:
            # one load per cache line, with independent addresses
            simulate(kernels.thrash_walk, [A, 512, 8, 1], core=ooo_core(),
                     hierarchy=dae_hierarchy(), memory=mem)
        diagnosis = excinfo.value.diagnose()
        assert diagnosis["events_pending"] == 0
        l1 = diagnosis["memory"]["caches"]["L1.core0"]
        assert l1["mshr"] == dae_hierarchy().private_levels[0].mshr_entries
        assert l1["parked"] > 0
        assert diagnosis["memory"]["outstanding_requests"] > l1["mshr"]


class TestSweepDegradation:
    @pytest.fixture(scope="class")
    def prepared(self):
        return prepare(kernels.ping_pong, [16], num_tiles=2)

    def test_sweep_runs_continues_past_failures(self, prepared):
        result = sweep_runs(prepared, {
            "clean": {"core": ooo_core(), "num_tiles": 2},
            "dropped": {"core": ooo_core(), "num_tiles": 2,
                        "plan": FaultPlan(message_drop_rate=1.0)},
            "strangled": {"core": ooo_core(), "num_tiles": 2,
                          "max_cycles": 50},
        })
        by_name = {p.parameters["run"]: p for p in result.points}
        assert by_name["clean"].ok
        assert by_name["dropped"].outcome == "deadlock"
        assert by_name["strangled"].outcome == "timeout"
        assert result.outcomes() == {"ok": 1, "deadlock": 1, "timeout": 1}
        assert result.best().parameters["run"] == "clean"
        table = result.table()
        assert "deadlock" in table and "timeout" in table

    def test_sweep_core_records_config_errors(self):
        mem, A, B, n = _saxpy_env(64)
        prepared = prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)
        result = sweep_core(prepared, CoreConfig(),
                            {"issue_width": [0, 2]},
                            hierarchy_factory=dae_hierarchy)
        assert result.outcomes() == {"config-error": 1, "ok": 1}
        assert result.best().parameters["issue_width"] == 2
        bad = next(p for p in result.points if not p.ok)
        assert "issue_width" in bad.error
        assert bad.cycles is None

    def test_empty_best_raises(self):
        with pytest.raises(ValueError, match="no successful"):
            SweepResult().best()


class TestAcceleratorFallback:
    def _env(self, n=12):
        rng = np.random.default_rng(0)
        mem = SimMemory()
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        A = mem.alloc(n * n, F64, "A", init=a.ravel())
        B = mem.alloc(n * n, F64, "B", init=b.ravel())
        C = mem.alloc(n * n, F64, "C")
        farm = AcceleratorFarm().add_default("sgemm")
        return mem, A, B, C, a, b, n, farm

    def test_faulted_invocations_fall_back_and_stay_correct(self):
        mem, A, B, C, a, b, n, farm = self._env()
        clean = simulate(kernels.accel_sgemm_wrapper, [A, B, C, n, n, n],
                         core=inorder_core(), memory=mem,
                         accelerators=farm)
        assert np.allclose(C.data.reshape(n, n), a @ b)

        mem, A, B, C, a, b, n, farm = self._env()
        run = run_supervised(
            kernels.accel_sgemm_wrapper, [A, B, C, n, n, n],
            plan=FaultPlan(seed=4, accel_fault_rate=1.0),
            core=inorder_core(), memory=mem, accelerators=farm)
        tile = run.stats.tiles[0]
        assert tile.accel_faults > 0
        assert tile.accel_fallbacks == tile.accel_faults
        # functional result survives the fault (trace interpreter already
        # computed it); only the timing degrades
        assert np.allclose(C.data.reshape(n, n), a @ b)
        assert run.stats.cycles > clean.cycles
        assert farm.get("accel_sgemm").fallback_invocations > 0

    def test_fault_propagates_when_fallback_disabled(self):
        mem, A, B, C, a, b, n, farm = self._env()
        farm.fallback_enabled = False
        injector = FaultInjector(FaultPlan(seed=4, accel_fault_rate=1.0))
        with pytest.raises(AcceleratorFaultError, match="accel_sgemm"):
            simulate(kernels.accel_sgemm_wrapper, [A, B, C, n, n, n],
                     core=inorder_core(), memory=mem, accelerators=farm,
                     injector=injector)


class TestConfigValidation:
    def test_core_rejects_zero_issue_width(self):
        with pytest.raises(ConfigError, match="issue_width"):
            CoreConfig(issue_width=0).validate()

    def test_core_rejects_bad_frequency(self):
        with pytest.raises(ConfigError, match="frequency"):
            CoreConfig(frequency_ghz=0.0).validate()

    def test_cache_rejects_non_power_of_two_lines(self):
        with pytest.raises(ConfigError, match="power of"):
            CacheConfig(line_bytes=48).validate()

    def test_cache_rejects_impossible_geometry(self):
        with pytest.raises(ConfigError, match="too small"):
            CacheConfig(size_bytes=64, line_bytes=64,
                        associativity=8).validate()

    def test_dram_rejects_zero_epoch(self):
        with pytest.raises(ConfigError, match="epoch_cycles"):
            SimpleDRAMConfig(epoch_cycles=0).validate()

    def test_hierarchy_rejects_unknown_dram_model(self):
        with pytest.raises(ConfigError, match="DRAM model"):
            MemoryHierarchyConfig(dram_model="weird").validate()

    def test_simulate_validates_core_upfront(self):
        with pytest.raises(ConfigError, match="rob_size"):
            simulate(kernels.empty_loop, [4], core=CoreConfig(rob_size=0))

    def test_configfile_load_validates(self):
        from repro.sim.configfile import core_from_dict
        with pytest.raises(ConfigError, match="lsq_size"):
            core_from_dict({"lsq_size": 0})

    def test_fault_plan_validates_rates(self):
        with pytest.raises(ValueError, match="bitflip_load_rate"):
            FaultPlan(bitflip_load_rate=1.5).validate()
        with pytest.raises(ValueError, match="end_cycle"):
            FaultPlan(start_cycle=10, end_cycle=5).validate()

    def test_fault_plan_rejects_overcommitted_message_draw(self):
        # drop and delay share one uniform draw per message; a combined
        # rate above 1.0 would silently truncate the delay probability
        with pytest.raises(ValueError, match="must not exceed"):
            FaultPlan(message_drop_rate=0.7,
                      message_delay_rate=0.5).validate()
        # exactly 1.0 saturates the draw and is legal
        FaultPlan(message_drop_rate=0.5,
                  message_delay_rate=0.5).validate()


class TestFaultWindow:
    def test_corrupt_load_honors_window_over_load_ordinal(self):
        # rate 1.0: every eligible load flips, so the flipped set IS the
        # active window — the regression was corrupt_load ignoring it
        injector = FaultInjector(FaultPlan(
            seed=0, bitflip_load_rate=1.0, start_cycle=2, end_cycle=5))
        flipped = [injector.corrupt_load(0x1000 + 8 * i, 0) != 0
                   for i in range(8)]
        assert flipped == [False, False, True, True, True,
                           False, False, False]
        assert [r.cycle for r in injector.log] == [2, 3, 4]
        assert all(r.site == "mem" and r.kind == "bitflip"
                   for r in injector.log)

    def test_corrupt_load_open_window_starts_at_start_cycle(self):
        injector = FaultInjector(FaultPlan(
            seed=0, bitflip_load_rate=1.0, start_cycle=3))
        flipped = [injector.corrupt_load(0x1000, 0) != 0 for _ in range(6)]
        assert flipped == [False, False, False, True, True, True]

    def test_windowed_bitflips_spare_early_loads_end_to_end(self):
        mem, A, B, n = _saxpy_env(64)
        baseline = A.data.copy(), B.data.copy()
        run_supervised(
            kernels.saxpy, [A, B, n, 2.0],
            plan=FaultPlan(seed=7, bitflip_load_rate=1.0, end_cycle=1),
            core=ooo_core(), hierarchy=dae_hierarchy(), memory=mem)
        mem2, A2, B2, n2 = _saxpy_env(64)
        run_supervised(
            kernels.saxpy, [A2, B2, n2, 2.0],
            plan=FaultPlan(seed=7, bitflip_load_rate=1.0),
            core=ooo_core(), hierarchy=dae_hierarchy(), memory=mem2)
        # the 1-load window corrupts strictly less than the open plan
        windowed = np.sum(B.data != (2.0 * baseline[0] + baseline[1]))
        assert windowed <= 1
        assert np.sum(B2.data != (2.0 * baseline[0] + baseline[1])) \
            > windowed


class TestStampedCycle:
    """Regression tests for the cycle-stamp skew bug: ``run_due`` used to
    invoke every past-due callback with the *drain* cycle, silently
    shifting completion times whenever an event was scheduled behind the
    cycle the Interleaver later drained at."""

    def test_past_due_event_fires_with_its_own_cycle(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(3, fired.append)  # behind the eventual drain cycle
        scheduler.at(7, fired.append)
        scheduler.run_due(10)
        assert fired == [3, 7], "callbacks must see their stamped cycle"

    def test_callback_scheduling_in_the_past_lands_next_drain(self):
        scheduler = Scheduler()
        fired = []

        def reschedule(cycle):
            # schedules behind the drain cycle: must still fire with
            # its own stamp on the next drain
            scheduler.at(cycle + 1, fired.append)

        scheduler.at(4, reschedule)
        scheduler.run_due(10)
        scheduler.run_due(10)
        assert fired == [5]


SPMV = ["spmv", "--size", "rows=16", "--size", "cols=16"]


class TestCLI:
    def test_simulate_ok(self, capsys):
        assert main(["simulate"] + SPMV) == 0
        assert "cycles:" in capsys.readouterr().out

    def test_budget_failure_exits_nonzero(self, capsys):
        assert main(["simulate"] + SPMV + ["--max-cycles", "10"]) == 2
        assert "exceeded" in capsys.readouterr().err

    def test_simulate_sweep_renders_point_table(self, capsys):
        assert main(["simulate"] + SPMV
                    + ["--sweep", "issue_width=1,2"]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out and "outcomes: ok:2" in out

    def test_inject_sweep_fans_plan_over_seeds(self, capsys):
        assert main(["inject"] + SPMV
                    + ["--dram-stall-rate", "0.3", "--sweep", "seed=0,1"]) == 0
        out = capsys.readouterr().out
        assert "seed=0" in out and "seed=1" in out
        assert "outcomes: ok:2" in out

    def test_inject_sweep_refuses_bitflips(self, capsys):
        assert main(["inject"] + SPMV
                    + ["--bitflip-rate", "0.05",
                       "--sweep", "seed=0,1"]) == 2
        captured = capsys.readouterr()
        assert "repro campaign --sites mem" in captured.err
        assert "outcomes:" not in captured.out

    def test_inject_functional_crash_is_an_outcome(self, capsys):
        # a flipped bfs index load walks off its segment during the
        # functional pass
        assert main(["inject", "bfs", "--bitflip-rate", "0.001",
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "outcome: error  attempts: 1" in captured.out
        assert "faults injected: 14" in captured.out
        assert "mem.bitflip: 14" in captured.out
        assert "error: MemoryError_: address" in captured.err

    def test_accelerated_sweep_builds_a_farm_per_point(self, capsys):
        tables = []
        for jobs in ("1", "2"):
            assert main(["simulate", "sinkhorn-accel", "--sweep",
                         "issue_width=2,4", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            assert "outcomes: ok:2" in out
            tables.append(out.split("\n", 1)[1])
        assert tables[0] == tables[1]

    def test_supervised_failure_exits_nonzero(self, capsys):
        assert main(["simulate"] + SPMV
                    + ["--max-cycles", "10", "--retries", "1"]) == 2
        err = capsys.readouterr().err
        assert "timeout" in err and "2 attempt" in err

    def test_config_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "core.json"
        bad.write_text('{"issue_width": 0}')
        assert main(["simulate"] + SPMV
                    + ["--core-config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.slow
    def test_inject_campaign(self, capsys):
        assert main(["inject"] + SPMV
                    + ["--seed", "3", "--dram-stall-rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "outcome: ok" in out
        assert "dram.stall" in out
