"""Observer plumbing: the runner entry points forward ``**observers``
unchanged to the Interleaver, the CLI builds them from its flags,
``--resume`` refuses flags whose observer the snapshot never carried,
and every watched component holds one ``observers`` tuple of handlers
in place of a field per observer.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.harness import (
    build_dae, build_heterogeneous, build_system, dae_hierarchy,
    inorder_core, prepare_dae_sliced, run_supervised, simulate,
    simulate_dae, simulate_heterogeneous,
)
from repro.memory import NoCConfig
from repro.memory.dram import DRAMSim2Model, SimpleDRAM
from repro.resilience import FaultInjector, FaultPlan
from repro.sim.accelerator import AcceleratorFarm
from repro.telemetry import (
    Attributor, MemStat, MetricsRegistry, Tracer, stats_to_dict,
    validate_report,
)
from repro.telemetry.memstat import CacheMemStat, DRAMMemStat, NoCLinkObserver
from repro.telemetry.tracer import TraceLane
from repro.workloads import build_parboil


def _sgemm():
    return build_parboil("sgemm", n=6, m=6, k=6)


def _dae_specs(workload):
    return prepare_dae_sliced(workload.kernel, workload.args, pairs=1)


#: every runner entry point, driven to SystemStats on a small sgemm
ENTRY_POINTS = {
    "build_system": lambda w, **obs: build_system(
        w.kernel, w.args, core=inorder_core(), hierarchy=dae_hierarchy(),
        **obs).run(),
    "simulate": lambda w, **obs: simulate(
        w.kernel, w.args, core=inorder_core(), hierarchy=dae_hierarchy(),
        **obs),
    "build_heterogeneous": lambda w, **obs: build_heterogeneous(
        w.kernel, w.args, cores=[inorder_core()], hierarchy=dae_hierarchy(),
        **obs).run(),
    "simulate_heterogeneous": lambda w, **obs: simulate_heterogeneous(
        w.kernel, w.args, cores=[inorder_core()], hierarchy=dae_hierarchy(),
        **obs),
    "build_dae": lambda w, **obs: build_dae(
        _dae_specs(w), access_core=inorder_core(),
        execute_core=inorder_core(), hierarchy=dae_hierarchy(),
        **obs).run(),
    "simulate_dae": lambda w, **obs: simulate_dae(
        _dae_specs(w), access_core=inorder_core(),
        execute_core=inorder_core(), hierarchy=dae_hierarchy(), **obs),
    "run_supervised": lambda w, **obs: run_supervised(
        w.kernel, w.args, core=inorder_core(), hierarchy=dae_hierarchy(),
        **obs).stats,
}


class TestEntryPointsForwardObservers:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_tracer_and_attributor_reach_the_run(self, entry):
        tracer = Tracer()
        stats = ENTRY_POINTS[entry](_sgemm(), tracer=tracer,
                                    attribution=Attributor())
        assert len(tracer) > 0
        document = stats_to_dict(stats)
        assert document["attribution"]["tiles"]
        validate_report(document)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unknown_observer_keyword_raises(self, entry):
        with pytest.raises(TypeError, match="profiller"):
            ENTRY_POINTS[entry](_sgemm(), profiller=object())


HISTO = ["simulate", "histo", "--core", "ooo", "--hierarchy", "dae"]

#: histo on the ooo/dae reference system (BENCH_cycle_identity.json)
HISTO_CYCLES = 30937


@pytest.fixture
def histo_snapshot(tmp_path):
    """A histo run cut off by its cycle budget, leaving a snapshot."""
    snapshot = tmp_path / "histo.ckpt"
    assert main(HISTO + ["--checkpoint", str(snapshot),
                         "--checkpoint-every", "5000",
                         "--max-cycles", "12000"]) == 2
    assert snapshot.exists()
    return snapshot


class TestCLIResume:
    def test_resume_matches_uninterrupted_run(self, histo_snapshot,
                                              tmp_path):
        baseline = tmp_path / "baseline.json"
        resumed = tmp_path / "resumed.json"
        heartbeat = tmp_path / "heartbeat.jsonl"
        assert main(HISTO + ["--stats-json", str(baseline)]) == 0
        assert main(HISTO + ["--resume", str(histo_snapshot),
                             "--heartbeat", str(heartbeat),
                             "--stats-json", str(resumed)]) == 0
        document = json.loads(resumed.read_text())
        assert document["cycles"] == HISTO_CYCLES
        assert document == json.loads(baseline.read_text())
        # the heartbeat emitter attaches on resume
        assert heartbeat.read_text().strip()

    @pytest.mark.parametrize("flags, flag", [
        (["--trace", "{tmp}/t.json"], "--trace"),
        (["--metrics", "{tmp}/m.json"], "--metrics"),
        (["--memstat"], "--memstat"),
    ])
    def test_observer_flag_missing_from_snapshot_exits_2(
            self, histo_snapshot, tmp_path, capsys, flags, flag):
        argv = HISTO + ["--resume", str(histo_snapshot)]
        argv += [f.format(tmp=tmp_path) for f in flags]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()
        assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["analyze", "memstat"])
def test_dae_workload_report_validates(command, tmp_path):
    report = tmp_path / "report.json"
    assert main([command, "graph-projection", "--size", "nleft=24",
                 "--size", "nright=16", "--dae", "--pairs", "2",
                 "--json", str(report)]) == 0
    document = json.loads(report.read_text())
    assert validate_report(document) == 4
    assert set(document["attribution"]["tiles"]) == {
        "access0", "access1", "execute0", "execute1"}


class TestOneObserverSlot:
    """Each of the eight watched component kinds holds exactly one
    ``observers`` tuple; attaching the four observers fills it with
    their handlers in attach order (tracer, attribution, memstat,
    metrics)."""

    def _system(self, dram, farm=None, **observers):
        w = build_parboil("sgemm", n=4, m=4, k=4)
        hierarchy = replace(dae_hierarchy(), dram_model=dram,
                            noc=NoCConfig(), coherence=True)
        return build_system(
            w.kernel, w.args, core=inorder_core(), num_tiles=2,
            hierarchy=hierarchy, memory=w.memory,
            accelerators=farm or AcceleratorFarm().add_default("sgemm"),
            injector=FaultInjector(FaultPlan(seed=0)), **observers)

    def _components(self, system):
        memory = system.memory
        return [*memory.caches, memory.dram, memory.noc, memory,
                system.fabric, system.accelerators, system.fabric.injector]

    @pytest.mark.parametrize("dram", ["simple", "dramsim2"])
    def test_unwatched_components_hold_an_empty_tuple(self, dram):
        components = self._components(self._system(dram))
        assert {type(c).__name__ for c in components} == {
            "Cache", "SimpleDRAM" if dram == "simple" else "DRAMSim2Model",
            "MeshNoC", "MemorySystem", "CommFabric", "AcceleratorFarm",
            "FaultInjector"}
        for component in components:
            assert component.observers == (), type(component).__name__

    @pytest.mark.parametrize("dram", ["simple", "dramsim2"])
    def test_handlers_sit_in_attach_order(self, dram):
        tracer, memstat = Tracer(), MemStat()
        attribution, metrics = Attributor(), MetricsRegistry()
        system = self._system(dram, tracer=tracer, attribution=attribution,
                              memstat=memstat, metrics=metrics)
        memory = system.memory
        assert list(tracer.tid_names.values()) == [
            "InO0", "InO1", "fabric", "cache", "dram", "accel", "fault"]

        def lane(name):
            return (TraceLane, tracer.tid_for(name))

        def kinds(component):
            return [(type(o), o.tid) if isinstance(o, TraceLane) else o
                    for o in component.observers]

        for cache in memory.caches:
            assert kinds(cache)[0] == lane("cache")
            (handler,) = cache.observers[1:]
            assert type(handler) is CacheMemStat
            assert handler in memstat.cache_observers[cache.stats.name]
        assert isinstance(memory.dram,
                          SimpleDRAM if dram == "simple" else DRAMSim2Model)
        assert type(memstat.dram) is DRAMMemStat
        assert kinds(memory.dram) == [lane("dram"), memstat.dram]
        assert type(memstat.noc) is NoCLinkObserver
        assert kinds(memory.noc) == [memstat.noc]
        assert kinds(memory) == [
            memstat, metrics.histogram("memory.request_latency_cycles")]
        assert kinds(system.fabric) == [lane("fabric"), attribution, memstat]
        assert kinds(system.accelerators) == [lane("accel")]
        assert kinds(system.fabric.injector) == [lane("fault")]

    def test_no_component_keeps_a_field_per_observer(self):
        system = self._system("simple", tracer=Tracer(),
                              attribution=Attributor(), memstat=MemStat(),
                              metrics=MetricsRegistry())
        for component in self._components(system):
            for name in ("tracer", "trace_tid", "memstat", "attributor",
                         "_memstat", "_latency_hist"):
                assert not hasattr(component, name), \
                    f"{type(component).__name__}.{name}"

    def test_a_farm_serving_two_runs_holds_the_last_runs_lane(self):
        # run_supervised hands one farm to every retry
        farm = AcceleratorFarm().add_default("sgemm")
        self._system("simple", farm, tracer=Tracer())
        tracer = Tracer()
        self._system("simple", farm, tracer=tracer)
        assert [(type(o), o.tracer) for o in farm.observers] \
            == [(TraceLane, tracer)]
        self._system("simple", farm)
        assert farm.observers == ()
