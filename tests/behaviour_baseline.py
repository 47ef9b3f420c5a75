"""Behaviour baseline: the full stats report of a fixed set of runs.

This is the simulator's determinism contract. A change that is not
meant to alter simulated behaviour must leave every case's
``stats_to_dict`` report bit-identical. The cases are:

* the 11 Parboil kernels on the ooo/dae reference system, unobserved
  and at default sizes. Their ``(cycles, instructions)`` are also the
  figures in ``benchmarks/results/BENCH_cycle_identity.json``;
* a matrix with attribution and memstat attached: {InO, OoO} x
  {1, 4 tiles} x {SimpleDRAM, DRAMSim2} on small sgemm and spmv;
* a mesh NoC with directory coherence, 2 DAE pairs (Fig 11), an
  accelerated kernel (Fig 12/13) and one fault-injected seed;
* one run killed mid-flight and resumed from its checkpoint, which must
  equal its uninterrupted case (:data:`SAME_AS`).

``behaviour_baseline.json`` beside this file holds the committed
reports. A list longer than :data:`HASH_OVER` entries (the per-set and
per-bank arrays) is stored as its SHA-256; every other leaf is stored
in full, so a mismatch names each changed leaf with its baseline and
live values.

Rewrite the baseline only when simulated behaviour is meant to change,
and commit it for review with the diff explained::

    PYTHONPATH=src python tests/behaviour_baseline.py --write

Without ``--write`` the script checks every case and prints the diff.
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

from repro.checkpoint import CheckpointSink, resume_simulation
from repro.harness import (
    build_system, dae_hierarchy, inorder_core, ooo_core, prepare,
    prepare_dae_sliced, run_with_faults, simulate, simulate_dae,
)
from repro.memory import NoCConfig
from repro.resilience import FaultPlan
from repro.sim import CycleBudgetExceeded
from repro.sim.accelerator import AcceleratorFarm
from repro.telemetry import Attributor, MemStat, stats_to_dict
from repro.workloads import PARBOIL, build_parboil
from repro.workloads.graphproj import build as build_graphproj
from repro.workloads.sinkhorn import build_combined

BASELINE_PATH = Path(__file__).with_suffix(".json")

#: lists longer than this are stored as a SHA-256 of their JSON
HASH_OVER = 16

SMALL = {"sgemm": dict(n=8, m=8, k=8), "spmv": dict(rows=96, nnz_per_row=6)}
CORES = {"ino": inorder_core, "ooo": ooo_core}

#: the resumed case is killed at this cycle, well before its end
KILL_AT = 2000


def _observers():
    return dict(attribution=Attributor(), memstat=MemStat())


def _hierarchy(dram="simple"):
    return replace(dae_hierarchy(), dram_model=dram)


def _parboil(kernel):
    w = build_parboil(kernel)
    prepared = prepare(w.kernel, w.args, memory=w.memory)
    stats = simulate(w.kernel, w.args, prepared=prepared, core=ooo_core(),
                     hierarchy=dae_hierarchy())
    w.verify()
    return stats_to_dict(stats)


def _matrix(kernel, core, tiles, dram):
    w = build_parboil(kernel, **SMALL[kernel])
    stats = simulate(w.kernel, w.args, core=CORES[core](), num_tiles=tiles,
                     hierarchy=_hierarchy(dram), memory=w.memory,
                     **_observers())
    w.verify()
    return stats_to_dict(stats)


def _mesh_coherence():
    w = build_parboil("spmv", **SMALL["spmv"])
    hierarchy = replace(dae_hierarchy(), noc=NoCConfig(), coherence=True)
    stats = simulate(w.kernel, w.args, core=ooo_core(), num_tiles=4,
                     hierarchy=hierarchy, memory=w.memory, **_observers())
    w.verify()
    return stats_to_dict(stats)


def _dae_pairs():
    w = build_graphproj(nleft=16, nright=64, avg_degree=4)
    specs = prepare_dae_sliced(w.kernel, w.args, pairs=2)
    stats = simulate_dae(specs, access_core=inorder_core(),
                         execute_core=inorder_core(),
                         hierarchy=dae_hierarchy(), **_observers())
    w.verify()
    return stats_to_dict(stats)


def _accelerated():
    w = build_combined(mix="dense-heavy", accelerated=True)
    farm = AcceleratorFarm().add_default("sgemm")
    stats = simulate(w.kernel, w.args, core=ooo_core(), num_tiles=4,
                     hierarchy=dae_hierarchy(), memory=w.memory,
                     accelerators=farm, **_observers())
    w.verify()
    return stats_to_dict(stats)


def _faulted():
    w = build_parboil("sgemm", **SMALL["sgemm"])
    run = run_with_faults(
        w.kernel, w.args, memory=w.memory, core=inorder_core(),
        hierarchy=dae_hierarchy(),
        plan=FaultPlan(seed=3, bitflip_load_rate=0.05, dram_stall_rate=0.3))
    document = stats_to_dict(run.stats)
    document["faults"] = run.fault_summary
    document["fault_log"] = [record.as_tuple() for record in run.fault_log]
    return document


def _resumed():
    """sgemm/ooo/1t/simple, killed at :data:`KILL_AT` and resumed."""
    w = build_parboil("sgemm", **SMALL["sgemm"])
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "run.ckpt")
        system = build_system(w.kernel, w.args, core=ooo_core(),
                              hierarchy=_hierarchy(), memory=w.memory,
                              checkpoint=CheckpointSink(path, 10 ** 9),
                              max_cycles=KILL_AT, **_observers())
        try:
            system.run()
        except CycleBudgetExceeded:
            stats = resume_simulation(path, max_cycles=10 ** 9)
        else:
            raise AssertionError(f"run ended before cycle {KILL_AT}")
    return stats_to_dict(stats)


def _cases():
    cases = {f"parboil-{kernel}": partial(_parboil, kernel)
             for kernel in sorted(PARBOIL)}
    for kernel in sorted(SMALL):
        for core in CORES:
            for tiles in (1, 4):
                for dram in ("simple", "dramsim2"):
                    cases[f"{kernel}-{core}-{tiles}t-{dram}"] = partial(
                        _matrix, kernel, core, tiles, dram)
    cases.update({
        "mesh-coherence-spmv-ooo-4t": _mesh_coherence,
        "dae-graphproj-2pairs": _dae_pairs,
        "accel-sinkhorn-ooo-4t": _accelerated,
        "faults-sgemm-ino-seed3": _faulted,
        "resumed-sgemm-ooo-1t-simple": _resumed,
    })
    return cases


#: case name -> zero-argument callable returning its full report
CASES = _cases()
#: cases with no baseline entry of their own: each must equal another
SAME_AS = {"resumed-sgemm-ooo-1t-simple": "sgemm-ooo-1t-simple"}


def compact(document):
    """``document`` as stored: JSON-normalised, with every list longer
    than :data:`HASH_OVER` replaced by ``"sha256:<hex>"``."""
    def walk(value):
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            if len(value) > HASH_OVER:
                canonical = json.dumps(value, sort_keys=True,
                                       separators=(",", ":"))
                return "sha256:" + hashlib.sha256(
                    canonical.encode()).hexdigest()
            return [walk(item) for item in value]
        return value
    return walk(json.loads(json.dumps(document)))


def run_case(name):
    return compact(CASES[name]())


def leaves(value, path=""):
    """``(path, leaf)`` pairs of a nested document; an empty container
    is a leaf of its own."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), item)
                 for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{index}]", item)
                 for index, item in enumerate(value)]
    else:
        return [(path, value)]
    if not items:
        return [(path, value)]
    return [pair for key, item in items for pair in leaves(item, key)]


def diff(baseline, live):
    """Every difference between two ``{case: report}`` maps, one line
    each: a case only one side has, or a leaf whose value differs."""
    problems = []
    for case in sorted(set(baseline) | set(live)):
        if case not in live:
            problems.append(f"{case}: in the baseline but not run")
            continue
        if case not in baseline:
            problems.append(f"{case}: run but not in the baseline")
            continue
        want, got = dict(leaves(baseline[case])), dict(leaves(live[case]))
        for path in sorted(set(want) | set(got)):
            before = json.dumps(want[path]) if path in want else "<absent>"
            after = json.dumps(got[path]) if path in got else "<absent>"
            if before != after:
                problems.append(
                    f"{case}: {path}: baseline {before}, live {after}")
    return problems


def load_baseline():
    return json.loads(BASELINE_PATH.read_text())


def check_case(name, baseline):
    """Run ``name`` and diff it against its baseline entry."""
    expected = SAME_AS.get(name, name)
    return diff({name: baseline[expected]} if expected in baseline else {},
                {name: run_case(name)})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        print(f"usage: {sys.argv[0]} [--write]", file=sys.stderr)
        return 2
    if argv == ["--write"]:
        reports = {name: run_case(name) for name in CASES}
        twins = {name: reports.pop(name) for name in SAME_AS}
        problems = diff({name: reports[SAME_AS[name]] for name in twins},
                        twins)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        BASELINE_PATH.write_text(
            json.dumps(reports, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(reports)} cases to {BASELINE_PATH}")
        return 0
    baseline = load_baseline()
    problems = [line for name in CASES for line in check_case(name, baseline)]
    problems += [f"{case}: in the baseline but not a case"
                 for case in sorted(set(baseline) - set(CASES))]
    print("\n".join(problems) or f"{len(CASES)} cases match the baseline")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
