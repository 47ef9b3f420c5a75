"""Figure 11 — DAE for latency tolerance on the bipartite graph
projection kernel (paper §VII-A).

Systems (Table II cores, normalized to one InO core):
left: 1 InO, 1 OoO; right (OoO-area-equivalent scaling): 2 cores / 1 DAE
pair, 8 cores / 4 DAE pairs. Paper claims: OoO well above InO;
near-linear scaling for homogeneous parallelism; heterogeneous DAE
parallelism highest, beating the area-equivalent 8-InO system by ~2x and
the OoO core overall.
"""

import pytest

from repro.harness import (
    dae_hierarchy, inorder_core, ooo_core, prepare_dae_sliced,
    render_attribution_report, render_bars, render_table, simulate,
    simulate_dae,
)
from repro.power import equal_area_count
from repro.telemetry import (
    Attributor, is_memory_category, stats_to_dict, validate_report,
)
from repro.workloads.graphproj import build as build_graphproj

from .conftest import record

#: the projection matrix (nright^2 doubles = 2 MB) misses the shared L2,
#: so every update is an irregular DRAM access — the latency-bound
#: behavior the paper's kernel exhibits
SIZE = dict(nleft=64, nright=512, avg_degree=6)

#: paper-reported speedups (read off Fig. 11)
PAPER = {
    "1 InO": 1.0, "1 OoO": 3.3, "2 InO": 1.9, "1 DAE pair": 1.9,
    "8 InO": 3.5, "4 DAE pairs": 6.6,
}


def _measure():
    results = {}

    def fresh():
        return build_graphproj(**SIZE)

    w = fresh()
    results["1 InO"] = simulate(w.kernel, w.args, core=inorder_core(),
                                hierarchy=dae_hierarchy()).runtime_seconds
    w = fresh()
    results["1 OoO"] = simulate(w.kernel, w.args, core=ooo_core(),
                                hierarchy=dae_hierarchy()).runtime_seconds
    for cores in (2, 8):
        w = fresh()
        results[f"{cores} InO"] = simulate(
            w.kernel, w.args, core=inorder_core(), num_tiles=cores,
            hierarchy=dae_hierarchy()).runtime_seconds
    for pairs in (1, 4):
        w = fresh()
        specs = prepare_dae_sliced(w.kernel, w.args, pairs=pairs)
        label = "1 DAE pair" if pairs == 1 else f"{pairs} DAE pairs"
        results[label] = simulate_dae(
            specs, access_core=inorder_core(), execute_core=inorder_core(),
            hierarchy=dae_hierarchy()).runtime_seconds
        w.verify()
    base = results["1 InO"]
    return {k: base / v for k, v in results.items()}


def test_fig11_dae_latency_tolerance(benchmark):
    speedups = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [[k, v, PAPER.get(k, "-")] for k, v in speedups.items()]
    record("fig11_dae", render_table(
        ["system", "measured speedup", "paper speedup"], rows,
        title="Figure 11: graph projection speedups vs 1 InO core")
        + "\n\n" + render_bars(speedups, unit="x"))

    # area equivalence from McPAT numbers: 8 InO ~ 1 OoO
    assert equal_area_count(inorder_core(), ooo_core()) == 8
    # the paper's qualitative claims
    assert speedups["1 OoO"] > 2.0                       # latency tolerance
    assert speedups["8 InO"] > speedups["2 InO"] > 1.3   # parallel scaling
    assert speedups["4 DAE pairs"] > speedups["8 InO"]   # heterogeneity wins
    assert speedups["4 DAE pairs"] > speedups["1 OoO"]
    # equal area (4 DAE pairs = 8 InO cores, 8 InO ~ 1 OoO): the
    # committed table reads 12.506 / 5.579 = 2.24, the ~2x headline of
    # EXPERIMENTS.md; the band catches a drift either way (the paper's
    # own ratio, 6.6 / 3.5 = 1.9, sits just under it: known gap 1)
    assert 2.0 < speedups["4 DAE pairs"] / speedups["8 InO"] < 2.5


def _memory_share(entry: dict) -> float:
    """Fraction of a tile's cycles attributed to memory-stall categories."""
    stalled = sum(cycles for category, cycles in entry["categories"].items()
                  if is_memory_category(category))
    return stalled / entry["total_cycles"] if entry["total_cycles"] else 0.0


def test_fig11_dae_cpi_stacks():
    """Explain the Fig. 11 DAE speedup with CPI stacks: the InO baseline
    drowns in memory stalls; decoupling moves that wait off the execute
    slice (what remains shows up as ``dae_consume``, overlapped by the
    access slice running ahead)."""
    w = build_graphproj(**SIZE)
    baseline = simulate(w.kernel, w.args, core=inorder_core(),
                        hierarchy=dae_hierarchy(), attribution=Attributor())
    w = build_graphproj(**SIZE)
    specs = prepare_dae_sliced(w.kernel, w.args, pairs=1)
    dae = simulate_dae(specs, access_core=inorder_core(),
                       execute_core=inorder_core(),
                       hierarchy=dae_hierarchy(), attribution=Attributor())
    w.verify()

    base_doc = stats_to_dict(baseline)
    dae_doc = stats_to_dict(dae)
    validate_report(base_doc)
    validate_report(dae_doc)

    record("fig11_dae_cpi",
           "Figure 11 companion: the DAE speedup as CPI stacks\n\n"
           "--- 1 InO core ---\n"
           + render_attribution_report(base_doc)
           + "\n\n--- 1 DAE pair (access + execute slices) ---\n"
           + render_attribution_report(dae_doc))

    base_tile = next(iter(base_doc["attribution"]["tiles"].values()))
    dae_tiles = dae_doc["attribution"]["tiles"]
    execute = next(entry for name, entry in dae_tiles.items()
                   if name.startswith("execute"))

    # the decoupled pair finishes sooner than the coupled baseline
    assert (dae_doc["attribution"]["total_cycles"]
            < base_doc["attribution"]["total_cycles"])
    # the baseline InO core is memory-bound: most cycles are stalls
    assert _memory_share(base_tile) > 0.5
    # the execute slice's memory stalls collapse — the access slice
    # absorbs the DRAM latency through the queue
    assert _memory_share(execute) < _memory_share(base_tile) / 2
