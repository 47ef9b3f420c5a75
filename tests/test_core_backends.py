"""The two core backends: the Python reference core and the compiled C
step (``repro.sim.core.compiled``) must produce identical reports.

* the compiled core loads wherever ``gcc`` is on PATH (this test fails,
  it does not skip, so CI cannot pass while checking only one backend),
  and then steps every core tile, observed or not;
* every behaviour-baseline case, attribution and memstat included, runs
  on the Python core here and on the compiled one in
  ``test_behaviour_baseline.py``;
* the 11 Parboil kernels write byte-identical traces and attribution
  blocks on both backends, at the default ring capacity and on a ring
  that wraps;
* random kernels from the differential fuzzer run through the timing
  model on InO and OoO cores, 1 and 2 tiles, twobit and gshare
  predictors, and beside a narrow core that turns on every remaining
  limit, on both backends, with and without an attributor;
* random kernels stopped at a cycle budget resume from their snapshot
  to the uninterrupted report on both backends;
* a compiled tile runs ahead in C: one crossing per stretch of
  core-only cycles, a cycle budget inside a stretch stops both backends
  at the same clock, and a tile that finishes mid-stretch reports the
  Python core's cycles;
* a checkpoint taken on one backend resumes on the other, traced and
  attributed runs included; heartbeats and interrupt partial stats agree
  across backends on two saxpy tiles, which take the same steps on both;
  a lone tile, whose stretches move the outer loop's polls, streams the
  same heartbeats on every run and ends on the Python core's last
  heartbeat and report.
"""

import contextlib
import dataclasses
import hashlib
import json
import shutil
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import (
    CheckpointSink, load_checkpoint, resume_simulation)
from repro.harness import (
    build_dae, build_heterogeneous, build_system, dae_hierarchy,
    inorder_core, ooo_core, prepare, prepare_dae_sliced,
    simulate, simulate_heterogeneous,
)
from repro.ir import F64, I64, OpClass
from repro.sim import (
    CycleBudgetExceeded, SimulationError, SimulationInterrupted,
)
from repro.sim.core import compiled
from repro.telemetry import (
    Attributor, HeartbeatEmitter, Tracer, read_heartbeats, stats_to_dict,
    validate_report,
)
from repro.telemetry.livestream import heartbeat_key
from repro.trace import SimMemory
from repro.workloads import PARBOIL, build_parboil
from repro.workloads.sinkhorn import build_ewsd

from . import behaviour_baseline, kernels
from .test_checkpoint import SMALL_SIZES
from .test_fuzz_differential import random_kernel

HAVE_GCC = shutil.which("gcc") is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH")


@contextlib.contextmanager
def python_core():
    """Run every tile on the Python reference core."""
    saved = compiled._library
    compiled._library = False
    try:
        yield
    finally:
        compiled._library = saved


@contextlib.contextmanager
def counting_compiled_tiles():
    """Count the tiles that switch to the compiled step."""
    attach = compiled.CompiledCoreTile._c_attach
    count = [0]

    def counting(tile, lib):
        count[0] += 1
        attach(tile, lib)

    compiled.CompiledCoreTile._c_attach = counting
    try:
        yield count
    finally:
        compiled.CompiledCoreTile._c_attach = attach


def test_compiled_core_loads_where_gcc_is():
    assert (compiled.load() is not None) == HAVE_GCC


@needs_gcc
def test_broken_source_raises(tmp_path, monkeypatch):
    broken = tmp_path / "step.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(compiled, "SOURCE", broken)
    monkeypatch.setattr(compiled, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(SimulationError, match="failed to build"):
        compiled.load()
    assert not list((tmp_path / "cache").glob("repro/*.so"))


def _predicted_core(predictor):
    return dataclasses.replace(ooo_core(), branch_predictor=predictor)


def test_backend_choice():
    mem = SimMemory()
    n = 16
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    args = [A, B, n, 2.0]
    for options in (dict(core=ooo_core()),
                    dict(core=ooo_core(), attribution=Attributor()),
                    dict(core=ooo_core(), tracer=Tracer()),
                    dict(core=_predicted_core("twobit")),
                    dict(core=_predicted_core("gshare"))):
        system = build_system(kernels.saxpy, args, memory=mem, **options)
        system.run()
        assert system.tiles[0].backend == (
            "compiled" if HAVE_GCC else "python"), options


def test_profile_names_each_tile_backend(capsys):
    from repro.cli import main
    assert main(["simulate", "sgemm", "--size", "n=8", "--size", "m=8",
                 "--size", "k=8", "--tiles", "2", "--profile"]) == 0
    backend = "compiled" if HAVE_GCC else "python"
    assert f"  backends: OoO0 {backend}, OoO1 {backend}" \
        in capsys.readouterr().out


def test_traced_run_profiles_its_backend(capsys, tmp_path):
    from repro.cli import main
    assert main(["simulate", "sgemm", "--size", "n=8", "--size", "m=8",
                 "--size", "k=8", "--profile",
                 "--trace", str(tmp_path / "trace.json")]) == 0
    backend = "compiled" if HAVE_GCC else "python"
    assert f"  backends: OoO0 {backend}" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_address_trace_overrun_raises(backend):
    mem = SimMemory()
    n = 16
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    system = build_system(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                          memory=mem)
    trace = system.tiles[0].trace
    iid = next(iter(trace.addr_trace))
    del trace.addr_trace[iid][n // 2:]
    with _on(backend), pytest.raises(
            SimulationError, match="OoO0: the address trace ran out while "
                                   "launching DBB 26"):
        system.run()


# -- the behaviour baseline on both backends ----------------------------------
BASELINE = behaviour_baseline.load_baseline()


@pytest.mark.parametrize("name", sorted(behaviour_baseline.CASES))
def test_python_core_matches_baseline(name):
    # the compiled core is checked against the same reports by
    # test_behaviour_baseline.py wherever it loads
    with python_core(), counting_compiled_tiles() as count:
        live = behaviour_baseline.run_case(name)
    assert count[0] == 0
    want = BASELINE[behaviour_baseline.SAME_AS.get(name, name)]
    assert behaviour_baseline.diff(want, live) == []


# -- observers on both backends -------------------------------------------------
def _traced_parboil(kernel, capacity, tmp_path):
    """SHA-256 of the trace export, the attribution block as JSON, and
    the events the ring dropped."""
    w = build_parboil(kernel)
    tracer = Tracer(capacity=capacity)
    stats = simulate(w.kernel, w.args, core=ooo_core(),
                     hierarchy=dae_hierarchy(), tracer=tracer,
                     attribution=Attributor())
    path = tmp_path / f"{kernel}.trace.json"
    tracer.write(str(path), frequency_ghz=stats.frequency_ghz)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            json.dumps(stats.attribution), tracer.dropped)


@needs_gcc
@pytest.mark.parametrize("kernel", sorted(PARBOIL))
def test_traces_and_attribution_agree_across_backends(kernel, tmp_path):
    for capacity in (Tracer().capacity, 5000):
        with python_core():
            reference = _traced_parboil(kernel, capacity, tmp_path)
        with counting_compiled_tiles() as count:
            live = _traced_parboil(kernel, capacity, tmp_path)
        assert count[0] == 1
        assert live == reference, capacity
    assert reference[2] > 0  # the small ring wrapped


# -- random kernels through the timing model -----------------------------------
def _narrow_core():
    """Every limit the stock cores leave open: FU counts, a small window
    and LSQ, the live-DBB limit, static prediction, no alias
    speculation, and half the clock (period 2 beside a 2 GHz core)."""
    return dataclasses.replace(
        ooo_core("Narrow"), issue_width=2, rob_size=24, lsq_size=6,
        fu_counts={OpClass.IALU: 1, OpClass.LOAD: 1}, live_dbb_limit=2,
        branch_predictor="static", perfect_alias=False, store_buffer=False,
        frequency_ghz=1.0)


def _exact_alias_core():
    """A full OoO window that waits on unresolved store addresses."""
    return dataclasses.replace(ooo_core(), perfect_alias=False,
                               store_buffer=False)


#: core lists, one tile each
SYSTEMS = [[inorder_core()], [inorder_core()] * 2, [ooo_core()],
           [ooo_core()] * 2, [ooo_core(), _narrow_core()],
           [_predicted_core("twobit")],
           [_predicted_core("gshare"), inorder_core()]]


@needs_gcc
@given(pair=random_kernel(),
       data=st.lists(st.integers(-100, 100), min_size=4, max_size=12))
@settings(max_examples=40, deadline=None)
def test_fuzzed_kernels_agree_across_backends(pair, data):
    source = pair[0]
    n = len(data)
    for cores in SYSTEMS:
        mem = SimMemory()
        A = mem.alloc(n, I64, "A", init=np.array(data, dtype=np.int64))
        B = mem.alloc(n, I64, "B")
        args = [A, B, n]
        prepared = prepare(source, args, num_tiles=len(cores), memory=mem)
        options = dict(prepared=prepared, cores=cores, memory=mem,
                       hierarchy=dae_hierarchy())
        with python_core():
            reference = stats_to_dict(
                simulate_heterogeneous(source, args, **options))
            attributed = stats_to_dict(simulate_heterogeneous(
                source, args, attribution=Attributor(), **options))
        with counting_compiled_tiles() as count:
            live = stats_to_dict(
                simulate_heterogeneous(source, args, **options))
            live_attributed = stats_to_dict(simulate_heterogeneous(
                source, args, attribution=Attributor(), **options))
        assert count[0] == 2 * len(cores)
        assert live == reference, source
        assert live_attributed == attributed, source
        assert validate_report(attributed) >= 1
        assert attributed["cycles"] == reference["cycles"]


@needs_gcc
@given(pair=random_kernel(),
       data=st.lists(st.integers(-100, 100), min_size=4, max_size=12),
       cut=st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_fuzzed_kernels_resume_from_a_checkpoint(pair, data, cut,
                                                 tmp_path_factory):
    """A random kernel stopped at a cycle budget, saved and resumed
    reports exactly what its uninterrupted run does, on both backends."""
    source = pair[0]
    n = len(data)
    path = str(tmp_path_factory.mktemp("fuzz") / "run.ckpt")
    for cores in ([inorder_core()] * 2, [ooo_core(), _narrow_core()],
                  [_predicted_core("gshare"), _predicted_core("twobit")]):
        mem = SimMemory()
        A = mem.alloc(n, I64, "A", init=np.array(data, dtype=np.int64))
        B = mem.alloc(n, I64, "B")
        args = [A, B, n]
        prepared = prepare(source, args, num_tiles=len(cores), memory=mem)

        def system(**options):
            return build_heterogeneous(
                source, args, prepared=prepared, cores=cores, memory=mem,
                hierarchy=dae_hierarchy(), **options)

        with python_core():
            baseline = system().run()
        want = stats_to_dict(baseline)
        for backend in ("python", "compiled"):
            with _on(backend):
                stopped = system(checkpoint=CheckpointSink(path, 10 ** 9),
                                 max_cycles=int(cut * baseline.cycles))
                with pytest.raises(CycleBudgetExceeded):
                    stopped.run()
                resumed = resume_simulation(path, max_cycles=10 ** 9)
            assert stats_to_dict(resumed) == want, (source, backend)


@needs_gcc
@pytest.mark.parametrize("kernel", ["bfs", "histo", "tpacf"])
def test_limited_cores_agree_across_backends(kernel):
    """Small Parboil kernels on the limits the baseline's cores leave
    open: MAO waits on unresolved addresses, static-prediction
    redirects, FU and live-DBB limits and a period-2 clock."""
    def run():
        w = build_parboil(kernel, **SMALL_SIZES[kernel])
        return stats_to_dict(simulate_heterogeneous(
            w.kernel, w.args, cores=[_exact_alias_core(), _narrow_core()],
            memory=w.memory, hierarchy=dae_hierarchy()))

    with python_core():
        reference = run()
    with counting_compiled_tiles() as count:
        live = run()
    assert count[0] == 2
    assert behaviour_baseline.diff(reference, live) == []
    tiles = reference["tiles"]
    assert sum(tile["mao_stalls"] for tile in tiles) > 0
    assert tiles[1]["mispredictions"] > 0


# -- run-ahead: one crossing per stretch of core-only cycles -------------------
def _small_spmv(**options):
    w = build_parboil("spmv", **SMALL_SIZES["spmv"])
    return build_system(w.kernel, w.args, core=inorder_core(),
                        memory=w.memory, hierarchy=dae_hierarchy(), **options)


@contextlib.contextmanager
def recorded_stretches():
    """(first cycle, last cycle, done) of every compiled advance call."""
    advance = compiled.CompiledCoreTile.advance
    stretches = []

    def recording(tile, cycle, horizon):
        last = advance(tile, cycle, horizon)
        stretches.append((cycle, last, tile.done))
        return last

    compiled.CompiledCoreTile.advance = recording
    try:
        yield stretches
    finally:
        compiled.CompiledCoreTile.advance = advance


@needs_gcc
def test_a_lone_compiled_tile_crosses_once_per_stretch():
    with python_core():
        reference = _small_spmv()
        want = stats_to_dict(reference.run())
    system = _small_spmv()
    live = stats_to_dict(system.run())
    assert system.tiles[0].backend == "compiled"
    assert live == want
    assert system.tile_steps * 4 < reference.tile_steps


@needs_gcc
def test_tiles_beside_each_other_run_ahead_to_the_next_attention():
    with python_core():
        reference = _small_spmv(num_tiles=2)
        want = stats_to_dict(reference.run())
    system = _small_spmv(num_tiles=2)
    assert stats_to_dict(system.run()) == want
    assert system.tile_steps * 2 < reference.tile_steps


@needs_gcc
def test_a_budget_inside_a_stretch_stops_both_backends_alike(tmp_path):
    with python_core():
        want = stats_to_dict(_small_spmv().run())
    with recorded_stretches() as stretches:
        _small_spmv().run()
    # a budget strictly inside a stretch of several core-only cycles
    first, last, _ = next(stretch
                          for stretch in stretches[len(stretches) // 2:]
                          if stretch[1] - stretch[0] >= 4)
    budget = (first + last) // 2
    stopped_at = {}
    for backend in ("python", "compiled"):
        path = str(tmp_path / f"{backend}.ckpt")
        with _on(backend):
            system = _small_spmv(checkpoint=CheckpointSink(path, 10 ** 9),
                                 max_cycles=budget)
            with pytest.raises(CycleBudgetExceeded):
                system.run()
            stopped_at[backend] = system.cycle
            resumed = resume_simulation(path, max_cycles=10 ** 9)
        assert stats_to_dict(resumed) == want, backend
    assert stopped_at["compiled"] == stopped_at["python"] > budget


@needs_gcc
def test_a_tile_finishing_mid_stretch_reports_the_python_cycles():
    def run():
        # a budget past what a C int64 horizon holds still runs ahead
        system = build_system(kernels.collatz_steps, [27],
                              core=inorder_core(), hierarchy=dae_hierarchy(),
                              max_cycles=1 << 70)
        return system, stats_to_dict(system.run())

    with python_core():
        reference, want = run()
    with recorded_stretches() as stretches:
        system, live = run()
    first, last, done = stretches[-1]
    assert done and first < last
    assert live == want
    assert system.cycle == reference.cycle == want["cycles"] == last


# -- checkpoints, heartbeats and partial stats across backends -----------------
def _saxpy(checkpoint=None, max_cycles=10 ** 9, **observers):
    rng = np.random.default_rng(5)
    n = 256
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=rng.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=rng.uniform(-1, 1, n))
    return build_system(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                        num_tiles=2, hierarchy=dae_hierarchy(), memory=mem,
                        checkpoint=checkpoint, max_cycles=max_cycles,
                        **observers)


def _dae_pair(checkpoint=None, max_cycles=10 ** 9, **observers):
    w = build_ewsd(nnz=128, dense_len=256)
    specs = prepare_dae_sliced(w.kernel, w.args, pairs=1)
    return build_dae(specs, access_core=inorder_core(),
                     execute_core=inorder_core(), hierarchy=dae_hierarchy(),
                     checkpoint=checkpoint, max_cycles=max_cycles,
                     **observers)


def _on(backend):
    return python_core() if backend == "python" else contextlib.nullcontext()


@needs_gcc
@pytest.mark.parametrize("make", [_saxpy, _dae_pair],
                         ids=["saxpy-ooo-2t", "dae-pair"])
@pytest.mark.parametrize("saved_on,resumed_on", [("compiled", "python"),
                                                 ("python", "compiled")])
def test_checkpoint_resumes_on_the_other_backend(make, saved_on, resumed_on,
                                                 tmp_path):
    with python_core():
        baseline = make().run()
    want = stats_to_dict(baseline)
    path = str(tmp_path / "run.ckpt")
    with _on(saved_on):
        system = make(CheckpointSink(path, 10 ** 9), baseline.cycles // 2)
        with pytest.raises(CycleBudgetExceeded):
            system.run()
    assert {tile.backend for tile in system.tiles} == {saved_on}
    with _on(resumed_on), counting_compiled_tiles() as count:
        resumed = resume_simulation(path, max_cycles=10 ** 9)
    assert (count[0] > 0) == (resumed_on == "compiled")
    assert stats_to_dict(resumed) == want


@needs_gcc
@pytest.mark.parametrize("make", [_saxpy, _dae_pair],
                         ids=["saxpy-ooo-2t", "dae-pair"])
@pytest.mark.parametrize("saved_on,resumed_on", [("compiled", "python"),
                                                 ("python", "compiled")])
def test_observed_checkpoint_resumes_on_the_other_backend(
        make, saved_on, resumed_on, tmp_path):
    """A traced, attributed run saved mid-trace on one backend finishes
    on the other with the uninterrupted run's report and trace bytes
    (on a ring that wraps before and after the snapshot)."""
    def observed(*args):
        return make(*args, tracer=Tracer(capacity=1000),
                    attribution=Attributor())

    def finish(system):
        stats = system.run()
        path = tmp_path / "trace.json"
        system.tracer.write(str(path))
        assert system.tracer.dropped > 0
        return stats_to_dict(stats), path.read_bytes()

    with python_core():
        baseline = observed()
        want = finish(baseline)
    path = str(tmp_path / "run.ckpt")
    with _on(saved_on):
        system = observed(CheckpointSink(path, 10 ** 9),
                          want[0]["cycles"] // 2)
        with pytest.raises(CycleBudgetExceeded):
            system.run()
    assert {tile.backend for tile in system.tiles} == {saved_on}
    restored = load_checkpoint(path).interleaver
    restored.max_cycles = 10 ** 9
    with _on(resumed_on):
        assert finish(restored) == want
    assert {tile.backend for tile in restored.tiles} == {resumed_on}


@needs_gcc
def test_heartbeats_and_partial_stats_agree_across_backends(tmp_path):
    beats, partials, steps = {}, {}, {}
    for backend in ("python", "compiled"):
        path = tmp_path / f"{backend}.jsonl"
        with _on(backend):
            streamed = _saxpy(emitter=HeartbeatEmitter(str(path),
                                                       every_cycles=300))
            streamed.run()
            steps[backend] = streamed.tile_steps
            system = _saxpy()
            system.arm_interrupts()
            system.request_interrupt(signal.SIGTERM)
            with pytest.raises(SimulationInterrupted) as err:
                system.run()
        beats[backend] = [heartbeat_key(beat)
                          for beat in read_heartbeats(str(path))]
        partials[backend] = stats_to_dict(err.value.partial_stats)
    assert len(beats["python"]) >= 3
    # here no compiled tile runs ahead: both backends take the same steps
    assert steps["compiled"] == steps["python"]
    assert beats["compiled"] == beats["python"]
    assert partials["compiled"] == partials["python"]


@needs_gcc
def test_a_lone_tile_streams_the_same_heartbeats_on_every_run(tmp_path):
    def run(name):
        path = tmp_path / f"{name}.jsonl"
        system = _small_spmv(emitter=HeartbeatEmitter(str(path),
                                                      every_cycles=2000))
        stats = stats_to_dict(system.run())
        return (stats, system.tile_steps,
                [heartbeat_key(beat) for beat in read_heartbeats(str(path))])

    def settled(beat):
        # how many heartbeats came before, and the IPC since the last
        return {name: value for name, value in beat.items()
                if name not in ("seq", "ipc")}

    with python_core():
        want, python_steps, reference = run("python")
    first, steps, beats = run("compiled")
    second, _, again = run("compiled-again")
    assert steps * 4 < python_steps
    assert first == second == want
    assert len(beats) >= 3
    assert beats == again
    assert beats[-1]["final"] and reference[-1]["final"]
    assert settled(beats[-1]) == settled(reference[-1])
