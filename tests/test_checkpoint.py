"""Checkpoint/restore tests (docs/resilience.md, "Checkpoint & resume").

The hard guarantee under test is **resume-identity**: a run killed at a
randomized cycle and resumed from its checkpoint produces bit-identical
final stats (``stats_to_dict``) to an uninterrupted run — on every
Parboil kernel, in DAE mode, under fault injection, and with
accelerators in the mix. The format tests pin the failure contract:
every bad checkpoint raises a structured :class:`CheckpointError`,
never a pickle traceback. The sweep tests cover the crash-recoverable
journal: a truncated journal re-runs exactly the missing points, and a
SIGKILLed worker becomes a ``worker_died`` point instead of a hang.
"""

import json
import os
import signal
import zlib

import numpy as np
import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION, CheckpointSink, _HEADER, _MAGIC,
    find_injector, load_checkpoint, resume_simulation, save_checkpoint,
)
from repro.cli import main as cli_main
from repro.harness import (
    DEFAULT_MAX_CYCLES, build_dae, build_system, dae_hierarchy,
    graceful_interrupts, inorder_core, ooo_core, prepare,
    prepare_dae_sliced, sweep_core, xeon_core, xeon_hierarchy,
)
from repro.harness import sweeps
from repro.harness.sweeps import SweepJournal
from repro.ir import F64
from repro.resilience import FaultInjector, FaultPlan
from repro.sim import (
    CheckpointError, CoreConfig, CycleBudgetExceeded, SimulationInterrupted,
)
from repro.telemetry import (
    Attributor, Tracer, stats_to_dict, validate_report,
)
from repro.telemetry.profiler import PHASES
from repro.trace import SimMemory
from repro.workloads import PAPER_ORDER, build_parboil
from repro.workloads.graphproj import build as build_graphproj
from repro.workloads.sinkhorn import build_combined, build_ewsd

from . import kernels
from .test_sweeps import point_fingerprint

#: shrunken datasets so the all-Parboil identity sweep stays fast
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

#: save far apart so only the budget-exceeded flush writes the snapshot
NO_AUTOSAVE = 10 ** 9


def _saxpy_system(checkpoint=None, max_cycles=DEFAULT_MAX_CYCLES, *,
                  n=256, seed=0, injector=None, tracer=None):
    rng = np.random.default_rng(seed)
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=rng.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=rng.uniform(-1, 1, n))
    return build_system(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                        hierarchy=dae_hierarchy(), memory=mem,
                        injector=injector, tracer=tracer,
                        checkpoint=checkpoint, max_cycles=max_cycles)


def _assert_resume_identity(make, tmp_path, seed):
    """``make(checkpoint, max_cycles)`` must build a *fresh* system each
    call. Runs an uninterrupted baseline, kills a second run at a
    seeded-random cycle (flushing a checkpoint), resumes it, and demands
    a bit-identical final report. Returns the baseline report."""
    baseline = make(None, DEFAULT_MAX_CYCLES).run()
    want = stats_to_dict(baseline)
    rng = np.random.default_rng(seed)
    kill_at = int(rng.integers(1, baseline.cycles))
    path = str(tmp_path / "ck.bin")
    sink = CheckpointSink(path, NO_AUTOSAVE)
    with pytest.raises(CycleBudgetExceeded) as err:
        make(sink, kill_at).run()
    assert err.value.checkpoint_path == path
    resumed = resume_simulation(path, max_cycles=DEFAULT_MAX_CYCLES)
    assert stats_to_dict(resumed) == want
    return want


class TestResumeIdentity:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_every_parboil_kernel(self, name, tmp_path):
        def make(checkpoint, max_cycles):
            w = build_parboil(name, **SMALL_SIZES[name])
            return build_system(w.kernel, w.args, core=xeon_core(),
                                hierarchy=xeon_hierarchy(), memory=w.memory,
                                attribution=Attributor(),
                                checkpoint=checkpoint, max_cycles=max_cycles)

        document = _assert_resume_identity(
            make, tmp_path, seed=zlib.crc32(name.encode()))
        # the resumed report is a valid, conservation-checked analyze
        # report, not just equal bytes
        assert validate_report(document) >= 1

    def test_dae_pair(self, tmp_path):
        def make(checkpoint, max_cycles):
            w = build_ewsd(nnz=128, dense_len=256)
            specs = prepare_dae_sliced(w.kernel, w.args, pairs=1)
            return build_dae(specs, access_core=inorder_core(),
                             execute_core=inorder_core(),
                             hierarchy=dae_hierarchy(),
                             checkpoint=checkpoint, max_cycles=max_cycles)

        _assert_resume_identity(make, tmp_path, seed=7)

    def test_dae_pair_with_parked_l1_requests(self, tmp_path):
        """The snapshot catches requests parked behind a full L1 MSHR
        (they are on the cache's wait list, not in the scheduler heap)."""
        def make(checkpoint, max_cycles):
            w = build_graphproj(nleft=16, nright=64, avg_degree=4)
            specs = prepare_dae_sliced(w.kernel, w.args, pairs=1)
            return build_dae(specs, access_core=inorder_core(),
                             execute_core=inorder_core(),
                             hierarchy=dae_hierarchy(),
                             checkpoint=checkpoint, max_cycles=max_cycles)

        want = stats_to_dict(make(None, DEFAULT_MAX_CYCLES).run())
        path = str(tmp_path / "ck.bin")
        for kill_at in range(500, want["cycles"], 50):
            with pytest.raises(CycleBudgetExceeded):
                make(CheckpointSink(path, NO_AUTOSAVE), kill_at).run()
            memory = load_checkpoint(path).interleaver.memory
            if memory.private_caches[0][0].parked:
                break
        else:
            pytest.fail("no snapshot caught a parked L1 request")
        resumed = resume_simulation(path, max_cycles=DEFAULT_MAX_CYCLES)
        assert stats_to_dict(resumed) == want

    def test_fault_injected(self, tmp_path):
        plan = FaultPlan(seed=3, bitflip_load_rate=0.05,
                         dram_stall_rate=0.3)

        def make(checkpoint, max_cycles):
            return _saxpy_system(checkpoint, max_cycles,
                                 injector=FaultInjector(plan))

        want = _assert_resume_identity(make, tmp_path, seed=11)
        # the faulted run must differ from a clean one, or the identity
        # check would not prove the injector RNG streams were restored
        clean = stats_to_dict(_saxpy_system().run())
        assert want != clean

    def test_accelerated(self, tmp_path):
        from repro.harness import default_farm
        from repro.frontend import compile_kernel

        def make(checkpoint, max_cycles):
            w = build_combined(accelerated=True)
            farm = default_farm(compile_kernel(w.kernel))
            assert farm is not None
            return build_system(w.kernel, w.args, core=ooo_core(),
                                hierarchy=dae_hierarchy(), memory=w.memory,
                                accelerators=farm, checkpoint=checkpoint,
                                max_cycles=max_cycles)

        _assert_resume_identity(make, tmp_path, seed=13)

    def test_chained_resume(self, tmp_path):
        """Kill, resume, kill again, resume again — the re-flushed
        snapshot chains because the sink travels inside the pickle."""
        want = stats_to_dict(_saxpy_system().run())
        path = str(tmp_path / "ck.bin")
        with pytest.raises(CycleBudgetExceeded):
            _saxpy_system(CheckpointSink(path, NO_AUTOSAVE), 400).run()
        with pytest.raises(CycleBudgetExceeded):
            resume_simulation(path, max_cycles=800)
        final = resume_simulation(path, max_cycles=DEFAULT_MAX_CYCLES)
        assert stats_to_dict(final) == want

    def test_autosave_does_not_perturb_results(self, tmp_path):
        want = stats_to_dict(_saxpy_system().run())
        sink = CheckpointSink(str(tmp_path / "auto.bin"), 200, keep=3)
        stats = _saxpy_system(sink).run()
        assert stats_to_dict(stats) == want
        assert sink.saves > 1
        assert os.path.exists(sink.path)
        assert os.path.exists(sink.path + ".1")

    def test_resume_restores_injector(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        plan = FaultPlan(seed=3, dram_stall_rate=0.3)
        with pytest.raises(CycleBudgetExceeded):
            _saxpy_system(CheckpointSink(path, NO_AUTOSAVE), 500,
                          injector=FaultInjector(plan)).run()
        restored = load_checkpoint(path)
        assert restored.cycle >= 1
        assert find_injector(restored.interleaver) is not None

    def test_resumed_trace_is_byte_identical(self, tmp_path):
        """The tracer ring travels inside the snapshot: a traced run
        killed mid-flight and resumed exports the same trace bytes as
        an uninterrupted traced run."""
        def traced(checkpoint=None, max_cycles=DEFAULT_MAX_CYCLES):
            return _saxpy_system(checkpoint, max_cycles, tracer=Tracer())

        baseline = traced()
        baseline.run()
        want = tmp_path / "want.json"
        baseline.tracer.write(str(want), frequency_ghz=2.0)
        path = str(tmp_path / "ck.bin")
        with pytest.raises(CycleBudgetExceeded):
            traced(CheckpointSink(path, NO_AUTOSAVE), 500).run()
        restored = load_checkpoint(path).interleaver
        assert len(restored.tracer) > 0
        restored.max_cycles = DEFAULT_MAX_CYCLES
        restored.run()
        got = tmp_path / "got.json"
        restored.tracer.write(str(got), frequency_ghz=2.0)
        assert got.read_bytes() == want.read_bytes()

    def test_resumed_wrapped_trace_is_byte_identical(self, tmp_path):
        """A small ring wraps before the snapshot and again after the
        resume, so the resumed run overwrites slots the snapshot
        carried."""
        def traced(checkpoint=None, max_cycles=DEFAULT_MAX_CYCLES):
            return _saxpy_system(checkpoint, max_cycles,
                                 tracer=Tracer(capacity=64))

        baseline = traced()
        baseline.run()
        want = tmp_path / "want.json"
        baseline.tracer.write(str(want), frequency_ghz=2.0)
        path = str(tmp_path / "ck.bin")
        with pytest.raises(CycleBudgetExceeded):
            traced(CheckpointSink(path, NO_AUTOSAVE), 500).run()
        restored = load_checkpoint(path).interleaver
        assert restored.tracer.dropped > 0
        dropped_at_snapshot = restored.tracer.dropped
        restored.max_cycles = DEFAULT_MAX_CYCLES
        restored.run()
        assert restored.tracer.dropped > dropped_at_snapshot + 64
        got = tmp_path / "got.json"
        restored.tracer.write(str(got), frequency_ghz=2.0)
        assert got.read_bytes() == want.read_bytes()

    def test_clean_run_has_no_injector(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        with pytest.raises(CycleBudgetExceeded):
            _saxpy_system(CheckpointSink(path, NO_AUTOSAVE), 500).run()
        assert find_injector(load_checkpoint(path).interleaver) is None


class TestCheckpointFormat:
    @pytest.fixture
    def snapshot(self, tmp_path):
        """A valid cycle-0 snapshot of a built-but-unrun system."""
        path = str(tmp_path / "good.bin")
        save_checkpoint(_saxpy_system(), path, cycle=0)
        return path

    def test_round_trip_from_cycle_zero(self, snapshot):
        want = stats_to_dict(_saxpy_system().run())
        assert stats_to_dict(resume_simulation(snapshot)) == want

    def test_snapshot_with_the_older_scheduler_state_resumes(self,
                                                            tmp_path):
        # schema-6 snapshots taken before the scheduler dropped its
        # cancellable events carry two attributes it no longer reads
        want = stats_to_dict(_saxpy_system().run())
        path = str(tmp_path / "older.bin")
        system = _saxpy_system(CheckpointSink(path, NO_AUTOSAVE), 500)
        system.scheduler._cancellable = 0
        system.scheduler.slow_drains = 0
        with pytest.raises(CycleBudgetExceeded):
            system.run()
        assert load_checkpoint(path).interleaver.scheduler.pending > 0
        resumed = resume_simulation(path, max_cycles=DEFAULT_MAX_CYCLES)
        assert stats_to_dict(resumed) == want

    def test_schema_version_bump_is_structured(self, snapshot, tmp_path):
        blob = open(snapshot, "rb").read()
        magic, version, digest, length = _HEADER.unpack_from(blob)
        bumped = tmp_path / "bumped.bin"
        bumped.write_bytes(_HEADER.pack(magic, version + 1, digest, length)
                           + blob[_HEADER.size:])
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(str(bumped))

    def test_previous_schema_version_is_refused(self, snapshot, tmp_path):
        # version 8: an accelerator design pickles as plain data
        # (kind, PLM size) instead of a rebuild recipe, so a version-7
        # pickle cannot resume
        assert CHECKPOINT_SCHEMA_VERSION == 8
        blob = open(snapshot, "rb").read()
        magic, _, digest, length = _HEADER.unpack_from(blob)
        old = tmp_path / "v7.bin"
        old.write_bytes(_HEADER.pack(magic, 7, digest, length)
                        + blob[_HEADER.size:])
        with pytest.raises(CheckpointError,
                           match="schema version 7, but this build reads "
                                 "version 8"):
            load_checkpoint(str(old))

    def test_truncated_payload_is_structured(self, snapshot, tmp_path):
        blob = open(snapshot, "rb").read()
        torn = tmp_path / "torn.bin"
        torn.write_bytes(blob[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(torn))

    def test_truncated_header_is_structured(self, snapshot, tmp_path):
        stub = tmp_path / "stub.bin"
        stub.write_bytes(open(snapshot, "rb").read()[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(stub))

    def test_foreign_file_is_structured(self, tmp_path):
        foreign = tmp_path / "foreign.bin"
        foreign.write_bytes(b"PK\x03\x04" + b"\x00" * 60)
        with pytest.raises(CheckpointError, match="not a MosaicSim"):
            load_checkpoint(str(foreign))

    def test_corrupt_payload_is_structured(self, snapshot, tmp_path):
        blob = bytearray(open(snapshot, "rb").read())
        blob[_HEADER.size + 5] ^= 0xFF
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(str(corrupt))

    def test_missing_file_is_structured(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nonesuch.bin"))

    def test_header_constants(self, snapshot):
        blob = open(snapshot, "rb").read()
        magic, version, _, length = _HEADER.unpack_from(blob)
        assert magic == _MAGIC == b"MSIMCKPT"
        assert version == CHECKPOINT_SCHEMA_VERSION
        assert length == len(blob) - _HEADER.size

    def test_profiled_run_checkpoints_and_resumes(self, tmp_path, capsys):
        # the sampler holds no simulator state: a profiled run snapshots,
        # and a profiled resume samples only the part it runs
        histo = ["simulate", "histo", "--core", "ooo", "--hierarchy", "dae"]
        snapshot = tmp_path / "histo.ckpt"
        baseline = tmp_path / "baseline.json"
        resumed = tmp_path / "resumed.json"
        assert cli_main(histo + ["--stats-json", str(baseline)]) == 0
        assert cli_main(histo + ["--checkpoint", str(snapshot),
                                 "--checkpoint-every", "5000",
                                 "--max-cycles", "12000", "--profile"]) == 2
        stopped_at = load_checkpoint(str(snapshot)).cycle
        capsys.readouterr()
        assert cli_main(histo + ["--resume", str(snapshot), "--profile",
                                 "--stats-json", str(resumed)]) == 0
        document = json.loads(resumed.read_text())
        assert document == json.loads(baseline.read_text())
        header = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("simulator self-profile:"))
        assert f" {document['cycles'] - stopped_at} cycles " in header


class TestCheckpointSink:
    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CheckpointSink("x", 0)
        with pytest.raises(ValueError, match="at least 1"):
            CheckpointSink("x", 100, keep=0)

    def test_due_respects_interval(self):
        sink = CheckpointSink("x", 100)
        assert not sink.due(99)
        assert sink.due(100)

    def test_rotation_keeps_last_k(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        sink = CheckpointSink(path, 1, keep=3)
        system = _saxpy_system()
        for cycle in range(4):
            sink.save(system, cycle)
        assert sink.saves == 4
        assert sink.last_path == path
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        assert os.path.exists(path + ".2")
        assert not os.path.exists(path + ".3")
        # the newest snapshot is the highest cycle
        assert load_checkpoint(path).cycle == 3
        assert load_checkpoint(path + ".2").cycle == 1


class TestGracefulInterrupt:
    def test_interrupt_flushes_checkpoint_and_partial_stats(self, tmp_path):
        want = stats_to_dict(_saxpy_system().run())
        path = str(tmp_path / "ck.bin")
        system = _saxpy_system(CheckpointSink(path, NO_AUTOSAVE))
        system.arm_interrupts()
        system.request_interrupt(signal.SIGTERM)
        with pytest.raises(SimulationInterrupted) as err:
            system.run()
        exc = err.value
        assert exc.signum == signal.SIGTERM
        assert "SIGTERM" in str(exc) and "--resume" in str(exc)
        assert exc.checkpoint_path == path
        assert exc.partial_stats is not None
        assert exc.partial_stats.cycles == exc.cycle > 0
        resumed = resume_simulation(path, max_cycles=DEFAULT_MAX_CYCLES)
        assert stats_to_dict(resumed) == want

    def test_context_manager_installs_and_restores_handlers(self):
        system = _saxpy_system()
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with graceful_interrupts(system):
            assert signal.getsignal(signal.SIGINT) is not before_int
            os.kill(os.getpid(), signal.SIGTERM)
            # the handler is async-signal-safe: it only notes the signal
            assert system._interrupt_signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term


HISTO = ["histo", "--core", "ooo", "--hierarchy", "dae"]


@pytest.fixture
def sigterm_on_first_save(monkeypatch):
    """Deliver SIGTERM to this process right after a run's first
    autosave, the way a scheduler would stop a job mid-run. A run that
    is not armed for it finishes (and fails its test) instead of
    killing the test process: the fallback handler ignores the signal."""
    save = CheckpointSink.save
    sent = []

    def save_then_terminate(self, interleaver, cycle):
        path = save(self, interleaver, cycle)
        if not sent:
            sent.append(cycle)
            os.kill(os.getpid(), signal.SIGTERM)
        return path

    monkeypatch.setattr(CheckpointSink, "save", save_then_terminate)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    yield sent
    signal.signal(signal.SIGTERM, previous)


class TestCLIRunPath:
    """Every CLI run goes through one run path: it is armed for SIGTERM
    (supervised runs too) and prints its profile on every exit."""

    @pytest.mark.parametrize("extra", [[], ["--retries", "1"]])
    def test_failed_run_prints_its_profile(self, capsys, extra):
        assert cli_main(["simulate", "histo", "--max-cycles", "12000",
                         "--profile"] + extra) == 2
        out = capsys.readouterr().out
        assert "simulator self-profile:" in out
        for phase in PHASES:
            assert f"\n  {phase} " in out, phase

    def test_supervised_simulate_stops_on_sigterm_and_resumes(
            self, tmp_path, capsys, sigterm_on_first_save):
        snapshot = tmp_path / "run.ckpt"
        baseline = tmp_path / "baseline.json"
        resumed = tmp_path / "resumed.json"
        assert cli_main(["simulate"] + HISTO + [
            "--retries", "1", "--checkpoint", str(snapshot),
            "--checkpoint-every", "5000"]) == 128 + signal.SIGTERM
        assert f"resume with --resume {snapshot}" in capsys.readouterr().err
        assert load_checkpoint(str(snapshot)).cycle \
            >= sigterm_on_first_save[0]
        assert cli_main(["simulate"] + HISTO
                        + ["--stats-json", str(baseline)]) == 0
        assert cli_main(["simulate"] + HISTO + [
            "--resume", str(snapshot), "--stats-json", str(resumed)]) == 0
        assert json.loads(resumed.read_text()) \
            == json.loads(baseline.read_text())

    def test_inject_stops_on_sigterm_and_resumes(
            self, tmp_path, capsys, sigterm_on_first_save):
        plan = ["--seed", "3", "--dram-stall-rate", "0.2"]
        snapshot = tmp_path / "run.ckpt"
        assert cli_main(["inject", "histo"] + plan + [
            "--checkpoint", str(snapshot),
            "--checkpoint-every", "5000"]) == 128 + signal.SIGTERM
        assert f"resume with --resume {snapshot}" in capsys.readouterr().err
        assert cli_main(["inject", "histo"] + plan) == 0
        uninterrupted = capsys.readouterr().out
        assert cli_main(["inject", "histo", "--resume", str(snapshot)]) == 0
        header, summary = capsys.readouterr().out.split("\n", 1)
        faults = header.rsplit("faults injected: ", 1)[1]
        assert f"faults injected: {faults}\n" in uninterrupted
        assert int(faults) > 0
        assert uninterrupted.endswith(summary)


@pytest.fixture(scope="module")
def prepared():
    mem = SimMemory()
    n = 128
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)


BASE = CoreConfig(issue_width=4, rob_size=64, lsq_size=64,
                  branch_predictor="perfect")

GRID = {"rob_size": [16, 32, 64, 128], "issue_width": [1, 2]}  # 8 points


def _fingerprints(result):
    return [point_fingerprint(point) for point in result.points]


class TestSweepJournal:
    def test_resume_runs_only_missing_points(self, prepared, tmp_path,
                                             monkeypatch):
        serial = sweep_core(prepared, BASE, GRID,
                            hierarchy_factory=dae_hierarchy)
        journal = tmp_path / "sweep.jsonl"
        full = sweep_core(prepared, BASE, GRID,
                          hierarchy_factory=dae_hierarchy,
                          journal_path=str(journal))
        assert _fingerprints(full) == _fingerprints(serial)
        assert len(journal.read_text().splitlines()) == 8

        # crash after 5 of 8 points: truncate the journal
        lines = journal.read_text().splitlines(True)
        journal.write_text("".join(lines[:5]))
        calls = []
        real = sweeps._execute_spec
        monkeypatch.setattr(
            sweeps, "_execute_spec",
            lambda prep, spec: calls.append(1) or real(prep, spec))
        resumed = sweep_core(prepared, BASE, GRID,
                             hierarchy_factory=dae_hierarchy,
                             journal_path=str(journal), resume=True)
        assert len(calls) == 3
        assert _fingerprints(resumed) == _fingerprints(serial)

    def test_torn_tail_line_reruns_from_crash_point(self, prepared,
                                                    tmp_path, monkeypatch):
        journal = tmp_path / "sweep.jsonl"
        sweep_core(prepared, BASE, GRID, hierarchy_factory=dae_hierarchy,
                   journal_path=str(journal))
        lines = journal.read_text().splitlines(True)
        journal.write_text("".join(lines[:4]) + '{"version": 1, "ind')
        assert len(SweepJournal(str(journal)).load()) == 4
        calls = []
        real = sweeps._execute_spec
        monkeypatch.setattr(
            sweeps, "_execute_spec",
            lambda prep, spec: calls.append(1) or real(prep, spec))
        sweep_core(prepared, BASE, GRID, hierarchy_factory=dae_hierarchy,
                   journal_path=str(journal), resume=True)
        assert len(calls) == 4

    def test_tampered_stats_blob_reruns_point(self, prepared, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep_core(prepared, BASE, {"rob_size": [16]},
                   hierarchy_factory=dae_hierarchy,
                   journal_path=str(journal))
        entry = json.loads(journal.read_text().splitlines()[0])
        good = SweepJournal.restore_point({"rob_size": 16}, entry)
        assert good is not None and good.ok
        entry["digest"] = "0" * 64
        assert SweepJournal.restore_point({"rob_size": 16}, entry) is None
        entry["stats"] = "!!not base64!!"
        assert SweepJournal.restore_point({"rob_size": 16}, entry) is None

    def test_fresh_sweep_starts_journal_empty(self, prepared, tmp_path,
                                              monkeypatch):
        grid = {"rob_size": [16, 64]}
        journal = tmp_path / "sweep.jsonl"
        for _ in range(2):
            first = sweep_core(prepared, BASE, grid,
                               hierarchy_factory=dae_hierarchy,
                               journal_path=str(journal))
        # the second fresh sweep replaced the first one's points
        assert len(journal.read_text().splitlines()) == 2
        calls = []
        real = sweeps._execute_spec
        monkeypatch.setattr(
            sweeps, "_execute_spec",
            lambda prep, spec: calls.append(1) or real(prep, spec))
        resumed = sweep_core(prepared, BASE, grid,
                             hierarchy_factory=dae_hierarchy,
                             journal_path=str(journal), resume=True)
        assert calls == []
        assert _fingerprints(resumed) == _fingerprints(first)

    def test_resume_without_journal_rejected(self, prepared):
        with pytest.raises(ValueError, match="journal_path"):
            sweep_core(prepared, BASE, {"rob_size": [16]},
                       hierarchy_factory=dae_hierarchy, resume=True)

    def test_changed_grid_invalidates_journal_entries(self, prepared,
                                                      tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep_core(prepared, BASE, {"rob_size": [16, 32]},
                   hierarchy_factory=dae_hierarchy,
                   journal_path=str(journal))
        # same indices, different parameters: fingerprints mismatch, so
        # every point re-runs instead of restoring the wrong results
        result = sweep_core(prepared, BASE, {"rob_size": [64, 128]},
                            hierarchy_factory=dae_hierarchy,
                            journal_path=str(journal), resume=True)
        assert [p.parameters["rob_size"] for p in result.points] == [64, 128]
        assert all(p.ok for p in result.points)


class TestWorkerDeath:
    def test_sigkilled_worker_recorded_not_hung(self, prepared,
                                                monkeypatch):
        real = sweeps._execute_spec

        def lethal(prep, spec):
            if spec["core"].rob_size == 16:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(prep, spec)

        monkeypatch.setattr(sweeps, "_execute_spec", lethal)
        result = sweep_core(prepared, BASE, {"rob_size": [16, 32]},
                            hierarchy_factory=dae_hierarchy, jobs=2,
                            point_retries=1, retry_backoff=0.0)
        outcomes = result.outcomes()
        assert sum(outcomes.values()) == 2  # no point silently dropped
        assert outcomes.get("worker_died", 0) >= 1
        poisoned = next(p for p in result.points
                        if p.parameters["rob_size"] == 16)
        assert poisoned.outcome == "worker_died"
        assert "SIGKILL" in poisoned.error

    def test_worker_died_points_retry_on_resume(self, prepared, tmp_path,
                                                monkeypatch):
        serial = sweep_core(prepared, BASE, {"rob_size": [16, 32]},
                            hierarchy_factory=dae_hierarchy)
        journal = tmp_path / "sweep.jsonl"
        real = sweeps._execute_spec

        def lethal(prep, spec):
            if spec["core"].rob_size == 16:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(prep, spec)

        monkeypatch.setattr(sweeps, "_execute_spec", lethal)
        crashed = sweep_core(prepared, BASE, {"rob_size": [16, 32]},
                             hierarchy_factory=dae_hierarchy, jobs=2,
                             point_retries=0, retry_backoff=0.0,
                             journal_path=str(journal))
        assert crashed.outcomes().get("worker_died", 0) >= 1

        # worker_died points are never journaled, so a resume (with the
        # poison gone) re-runs exactly them and completes the sweep
        monkeypatch.setattr(sweeps, "_execute_spec", real)
        resumed = sweep_core(prepared, BASE, {"rob_size": [16, 32]},
                             hierarchy_factory=dae_hierarchy,
                             journal_path=str(journal), resume=True)
        assert resumed.outcomes() == {"ok": 2}
        assert _fingerprints(resumed) == _fingerprints(serial)
