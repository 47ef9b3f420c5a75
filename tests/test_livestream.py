"""Live telemetry: heartbeat streaming, sweep watch, run id stamping.

Covers the PR-7 observability layer end to end:

* heartbeat determinism — cycle-stamped fields are bit-identical
  across reruns (wall-clock lives under one strippable key);
* the emitter is non-blocking and zero-cost when absent;
* sweep heartbeat streams (serial and parallel) and the watch
  dashboard's ETA/straggler math;
* ``--run-id`` provenance stamping of every artifact a run writes and
  its inheritance on ``--resume``, including acceptance of unstamped
  artifacts.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.harness import (
    NORMAL, QUIET, STATUS, VERBOSE, dae_hierarchy, estimate_total_cycles,
    eta_seconds, heartbeats_path_for, inorder_core, ooo_core, prepare,
    render_watch, set_status_level, simulate, sweep_core, sweep_hierarchy,
    sweep_runs, watch_loop,
)
from repro.harness import watch
from repro.ir import F64
from repro.telemetry import (
    HeartbeatEmitter, heartbeat_digest, heartbeat_key, read_heartbeats,
    stats_to_dict, validate_chrome_trace, validate_heartbeat,
)
from repro.telemetry.livestream import HEARTBEAT_SCHEMA_VERSION
from repro.trace import SimMemory

from . import kernels


def _saxpy_run(emitter=None, n=256):
    generator = np.random.default_rng(11)
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
    return simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                    num_tiles=2, hierarchy=dae_hierarchy(), memory=mem,
                    emitter=emitter)


# -- heartbeat emitter -------------------------------------------------------

class TestHeartbeatEmitter:
    def test_streams_periodic_snapshots(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        emitter = HeartbeatEmitter(str(path), every_cycles=200)
        stats = _saxpy_run(emitter)
        beats = read_heartbeats(str(path))
        assert len(beats) >= 3
        for beat in beats:
            assert validate_heartbeat(beat) == beat["seq"]
        # monotone cycle stamps, final beat at the run's last cycle
        cycles = [b["cycle"] for b in beats]
        assert cycles == sorted(cycles)
        assert beats[-1]["final"] is True
        assert beats[-1]["cycle"] == stats.cycles
        assert beats[-1]["instructions"] == stats.instructions
        assert emitter.errors == 0

    def test_cycle_stamped_content_deterministic(self, tmp_path):
        digests = []
        for attempt in ("one", "two"):
            path = tmp_path / f"hb-{attempt}.jsonl"
            _saxpy_run(HeartbeatEmitter(str(path), every_cycles=200))
            beats = read_heartbeats(str(path))
            # wall-clock is confined to the one strippable key
            assert all("wall" in b for b in beats)
            digests.append(heartbeat_digest(beats))
        assert digests[0] == digests[1]

    def test_heartbeat_key_strips_only_wall(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        _saxpy_run(HeartbeatEmitter(str(path), every_cycles=500))
        beat = read_heartbeats(str(path))[0]
        key = heartbeat_key(beat)
        assert "wall" not in key
        assert set(beat) - set(key) == {"wall"}

    def test_streaming_does_not_change_results(self, tmp_path):
        bare = _saxpy_run()
        streamed = _saxpy_run(HeartbeatEmitter(
            str(tmp_path / "hb.jsonl"), every_cycles=100))
        assert streamed.cycles == bare.cycles
        assert stats_to_dict(streamed) == stats_to_dict(bare)

    def test_emitter_requires_exactly_one_sink(self, tmp_path):
        with pytest.raises(TypeError):
            HeartbeatEmitter()
        with pytest.raises(ValueError):
            HeartbeatEmitter(None)
        with pytest.raises(ValueError):
            HeartbeatEmitter(str(tmp_path / "hb.jsonl"), every_cycles=0)

    def test_write_failures_counted_never_raised(self, tmp_path):
        # a directory is unopenable for append: every emit must fail
        # quietly and the run itself must stay healthy
        emitter = HeartbeatEmitter(str(tmp_path), every_cycles=200)
        stats = _saxpy_run(emitter)
        assert stats.cycles > 0
        assert emitter.errors > 0

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        _saxpy_run(HeartbeatEmitter(str(path), every_cycles=200))
        whole = read_heartbeats(str(path))
        with open(path, "a") as handle:
            handle.write('{"v": 1, "seq": 99, "cyc')  # crash mid-append
        assert read_heartbeats(str(path)) == whole

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_heartbeat({"v": HEARTBEAT_SCHEMA_VERSION + 1})
        with pytest.raises(ValueError):
            validate_heartbeat({"v": HEARTBEAT_SCHEMA_VERSION,
                                "seq": -1})


# -- sweep heartbeat stream + watch dashboard ---------------------------------

GRID = {"rob_size": [16, 32, 64]}


@pytest.fixture(scope="module")
def prepared():
    generator = np.random.default_rng(5)
    mem = SimMemory()
    n = 192
    A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)


class TestSweepHeartbeatStream:
    def _run(self, prepared, tmp_path, jobs):
        tmp_path.mkdir(parents=True, exist_ok=True)
        journal = tmp_path / "sweep.jsonl"
        result = sweep_core(prepared, inorder_core(), GRID,
                            hierarchy_factory=dae_hierarchy, jobs=jobs,
                            journal_path=str(journal),
                            heartbeat_every=200)
        return result, read_heartbeats(heartbeats_path_for(str(journal)))

    def test_serial_sweep_streams_heartbeats(self, prepared, tmp_path):
        result, heartbeats = self._run(prepared, tmp_path, jobs=1)
        for heartbeat in heartbeats:
            validate_heartbeat(heartbeat)
            assert heartbeat["source"]["points"] == 3
        for index, point in enumerate(result.points):
            own = [h for h in heartbeats
                   if h["source"]["point"] == index]
            # a mid-run heartbeat, then exactly one final at the end
            assert len(own) >= 2
            assert [h.get("final", False) for h in own] == \
                [False] * (len(own) - 1) + [True]
            assert own[-1]["cycle"] == point.cycles

    def test_parallel_final_heartbeats_match_points(self, prepared,
                                                    tmp_path):
        serial, _ = self._run(prepared, tmp_path / "s", jobs=1)
        parallel, heartbeats = self._run(prepared, tmp_path / "p", jobs=2)
        assert [p.cycles for p in parallel.points] == \
            [p.cycles for p in serial.points]
        finals = {h["source"]["point"]: h["cycle"] for h in heartbeats
                  if h.get("final")}
        assert finals == {index: point.cycles
                          for index, point in enumerate(parallel.points)}

    def test_fresh_sweep_restarts_stream_resume_appends(self, prepared,
                                                        tmp_path):
        journal = tmp_path / "sweep.jsonl"
        stream = heartbeats_path_for(str(journal))

        def run(resume):
            sweep_core(prepared, inorder_core(), GRID,
                       hierarchy_factory=dae_hierarchy,
                       journal_path=str(journal), resume=resume,
                       heartbeat_every=200)
            return len(read_heartbeats(stream))

        first = run(resume=False)
        assert run(resume=False) == first
        # crash after one point, then resume: only the two missing
        # points stream, after what the first run left behind
        journal.write_text(journal.read_text().splitlines(True)[0])
        assert first < run(resume=True) < 2 * first

    @pytest.mark.parametrize("entry", ["core", "hierarchy", "runs"])
    def test_heartbeats_need_a_journal(self, prepared, entry):
        calls = {
            "core": lambda **kw: sweep_core(
                prepared, inorder_core(), GRID, **kw),
            "hierarchy": lambda **kw: sweep_hierarchy(
                prepared, inorder_core(), {"dae": dae_hierarchy()}, **kw),
            "runs": lambda **kw: sweep_runs(
                prepared, {"ino": {"core": inorder_core()}}, **kw),
        }
        with pytest.raises(ValueError, match="journal_path"):
            calls[entry](heartbeat_every=200)


def _beat(point, cycle, unix, points=3, final=False, **extra):
    heartbeat = {"cycle": cycle, "ipc": 0.5,
                 "source": {"point": point, "points": points},
                 "wall": {"unix": unix, "seconds": 4.0,
                          "cycles_per_second": 100.0}}
    if final:
        heartbeat["final"] = True
    heartbeat.update(extra)
    return heartbeat


class TestWatchMath:
    def test_estimate_total_cycles(self):
        assert estimate_total_cycles([]) is None
        assert estimate_total_cycles([100, 300]) == 200.0

    def test_eta_seconds(self):
        assert eta_seconds(500, 100.0, 1500.0) == 10.0
        # past the estimate: no prediction, not a negative one
        assert eta_seconds(1500, 100.0, 1500.0) is None
        assert eta_seconds(500, 0.0, 1500.0) is None
        assert eta_seconds(500, 100.0, None) is None

    def test_render_counts_and_eta(self):
        now = 1000.0
        heartbeats = [_beat(0, 400, now - 5.0),
                      _beat(1, 200, now - 3.0),
                      _beat(0, 1000, now - 2.0, final=True),
                      _beat(1, 500, now - 1.0)]
        frame = render_watch({0: {"outcome": "ok"}}, heartbeats, now=now)
        assert "1/3 done, 1 running, 0 stalled, 1 pending" in frame
        # the done point's cycles and time come from its final heartbeat
        assert "1000 cycles in 4.0s" in frame
        # 500 of ~1000 cycles left at 100 cyc/s -> 5s ETA
        assert "eta 5s" in frame
        # a started point with no heartbeat yet reads pending
        assert "[  2] pending" in frame

    def test_stale_heartbeat_renders_straggler_diagnosis(self):
        now = 1000.0
        stuck = _beat(0, 123, now - 60.0, points=1, mem_inflight=2,
                      events_pending=0,
                      tiles=[{"name": "InO0", "done": False,
                              "next_attention": None, "in_flight": 1,
                              "outstanding_memory_ops": 2, "ready": 0,
                              "accel_inflight": 0}])
        frame = render_watch({}, [stuck], now=now, stall_after=10.0)
        assert "0/1 done, 0 running, 1 stalled" in frame
        assert "STALLED" in frame and "stuck at cycle 123" in frame
        assert "InO0" in frame and "outstanding_memory_ops=2" in frame

    def test_journal_entry_beats_later_heartbeat(self):
        # a stale mid-run heartbeat (e.g. from before a crash) must not
        # make a journaled point read running or stalled
        now = 1000.0
        frame = render_watch({0: {"outcome": "deadlock",
                                  "error": "deadlock at cycle 9"}},
                             [_beat(0, 9, now - 60.0, points=1)], now=now)
        assert "1/1 done, 0 running, 0 stalled, 0 pending" in frame
        assert "deadlock at cycle 9" in frame and "STALLED" not in frame

    def test_journal_only_progress_still_renders(self):
        frame = render_watch({0: {"outcome": "ok"}}, [], now=0.0)
        assert "1/1 done" in frame

    def test_watch_loop_once_exits_zero(self, prepared, tmp_path,
                                        monkeypatch):
        journal = tmp_path / "sweep.jsonl"
        sweep_core(prepared, inorder_core(), GRID,
                   hierarchy_factory=dae_hierarchy, jobs=2,
                   journal_path=str(journal), heartbeat_every=200)
        out = io.StringIO()
        assert watch_loop(str(journal), once=True, out=out) == 0
        assert "3/3 done, 0 running, 0 stalled, 0 pending" in \
            out.getvalue()

        # without once, a finished sweep ends the loop after one frame
        def no_sleep(seconds):
            raise AssertionError("watch kept polling a finished sweep")
        monkeypatch.setattr(watch.time, "sleep", no_sleep)
        out = io.StringIO()
        assert watch_loop(str(journal), out=out) == 0
        assert out.getvalue().count("3/3 done") == 1


# -- run_id provenance stamping ----------------------------------------------

class TestRunIdStamping:
    def test_stats_stamped_only_when_requested(self):
        stats = _saxpy_run()
        assert "run_id" not in stats_to_dict(stats)
        stamped = stats_to_dict(stats, run_id="r-test")
        assert stamped["run_id"] == "r-test"
        # stamping only inserts the one key
        del stamped["run_id"]
        assert stamped == stats_to_dict(stats)

    def test_trace_stamped_and_validators_accept_both(self):
        from repro.telemetry import Tracer
        tracer = Tracer()
        tracer.complete("core", "add", 0, 4, tracer.tid_for("core0"))
        plain = tracer.to_chrome()
        assert "run_id" not in plain["otherData"]
        validate_chrome_trace(plain)
        stamped = tracer.to_chrome(run_id="r-test")
        assert stamped["otherData"]["run_id"] == "r-test"
        validate_chrome_trace(stamped)
        stamped["otherData"]["run_id"] = ""
        with pytest.raises(ValueError):
            validate_chrome_trace(stamped)

    def test_checkpoint_carries_run_id(self, tmp_path):
        from repro.checkpoint import load_checkpoint
        from repro.harness import build_system
        from repro.checkpoint import save_checkpoint
        generator = np.random.default_rng(11)
        mem = SimMemory()
        n = 64
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        interleaver = build_system(kernels.saxpy, [A, B, n, 2.0],
                                   core=inorder_core(), memory=mem,
                                   max_cycles=50)
        try:
            interleaver.run()
        except Exception:
            pass
        path = str(tmp_path / "ck.bin")
        save_checkpoint(interleaver, path, cycle=50, run_id="r-test")
        assert load_checkpoint(path).run_id == "r-test"
        # unstamped snapshots load with run_id None
        save_checkpoint(interleaver, path, cycle=50)
        assert load_checkpoint(path).run_id is None


# -- status logger + CLI -----------------------------------------------------

class TestStatusLogger:
    @pytest.fixture(autouse=True)
    def _reset_level(self):
        yield
        set_status_level(NORMAL)

    def test_levels(self, capsys):
        set_status_level(NORMAL)
        STATUS.info("hello")
        STATUS.verbose("detail")
        STATUS.warn("careful")
        err = capsys.readouterr().err
        assert "hello" in err and "careful" in err
        assert "detail" not in err
        set_status_level(VERBOSE)
        STATUS.verbose("detail")
        assert "detail" in capsys.readouterr().err
        set_status_level(QUIET)
        STATUS.info("hidden")
        STATUS.warn("still-shown")
        err = capsys.readouterr().err
        assert "hidden" not in err and "still-shown" in err


HISTO = ["histo", "--size", "n=256", "--core", "ino"]


class TestCLI:
    def test_run_id_stamps_every_artifact_and_survives_resume(
            self, tmp_path, capsys):
        from repro.checkpoint import load_checkpoint
        hb = tmp_path / "hb.jsonl"
        stats_json = tmp_path / "stats.json"
        trace = tmp_path / "trace.json"
        checkpoint = tmp_path / "ck.bin"
        assert cli_main(["simulate"] + HISTO + [
            "--run-id", "r-test",
            "--heartbeat", str(hb), "--heartbeat-every", "500",
            "--stats-json", str(stats_json), "--trace", str(trace),
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "2000"]) == 0
        assert "cycles:" in capsys.readouterr().out
        assert json.loads(stats_json.read_text())["run_id"] == "r-test"
        assert json.loads(trace.read_text())["otherData"]["run_id"] \
            == "r-test"
        assert load_checkpoint(str(checkpoint)).run_id == "r-test"
        beats = read_heartbeats(str(hb))
        assert beats and beats[-1]["final"] is True
        assert all(beat["source"] == {"workload": "histo",
                                      "run_id": "r-test"}
                   for beat in beats)
        # a resume without --run-id keeps the snapshot's id
        resumed_hb = tmp_path / "resumed.jsonl"
        resumed_stats = tmp_path / "resumed.json"
        assert cli_main(["simulate", "histo", "--resume", str(checkpoint),
                         "--heartbeat", str(resumed_hb),
                         "--stats-json", str(resumed_stats)]) == 0
        capsys.readouterr()
        assert json.loads(resumed_stats.read_text())["run_id"] == "r-test"
        beats = read_heartbeats(str(resumed_hb))
        assert beats and all(beat["source"]["run_id"] == "r-test"
                             for beat in beats)

    def test_unstamped_run_writes_no_run_id(self, tmp_path, capsys):
        hb = tmp_path / "hb.jsonl"
        stats_json = tmp_path / "stats.json"
        assert cli_main(["simulate"] + HISTO + [
            "--heartbeat", str(hb), "--heartbeat-every", "500",
            "--stats-json", str(stats_json)]) == 0
        capsys.readouterr()
        assert "run_id" not in json.loads(stats_json.read_text())
        assert all(beat["source"] == {"workload": "histo"}
                   for beat in read_heartbeats(str(hb)))

    def test_quiet_suppresses_status_lines(self, tmp_path, capsys):
        stats_json = tmp_path / "stats.json"
        assert cli_main(["-q", "simulate"] + HISTO
                        + ["--stats-json", str(stats_json)]) == 0
        captured = capsys.readouterr()
        assert "cycles:" in captured.out  # report stays on stdout
        assert captured.err == ""

    def test_journaled_sweep_then_watch_once(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert cli_main(["simulate"] + HISTO + [
            "--sweep", "rob_size=16,32", "--journal", str(journal),
            "--heartbeat-every", "500"]) == 0
        capsys.readouterr()
        assert cli_main(["watch", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out

    def test_sweep_rejects_per_run_telemetry_flags(self, tmp_path,
                                                   capsys):
        assert cli_main(["simulate"] + HISTO + [
            "--sweep", "rob_size=16,32",
            "--heartbeat", str(tmp_path / "hb.jsonl")]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_sweep_heartbeat_every_needs_journal(self, capsys):
        assert cli_main(["simulate"] + HISTO + [
            "--sweep", "rob_size=16,32", "--heartbeat-every", "500"]) == 2
        err = capsys.readouterr().err
        assert "--heartbeat-every" in err and "--journal" in err
