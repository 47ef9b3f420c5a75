"""The benchmark's four workloads; one invocation runs one pass of one.

    python bench/workloads.py WORKLOAD SEED MODE WORKDIR

``bench/run.py`` starts this script in a fresh interpreter for every
(workload, pass), with ``src`` on ``PYTHONPATH``. MODE is

* ``plain``: the timed user path with nothing attached;
* ``traced``: spans around every layer call and a SelfProfiler on every
  run (see ``tracing.py``); sweeps run serially;
* ``cprofile``: the slice of the workload named in ``CPROFILE``, under
  cProfile, for exact call counts.

Each run is timed over the user path (build inputs, prepare, simulate,
verify, write the report). The benchmark's own checks on the written
report run after the timer stops. Reports go to WORKDIR; the pass
result goes to ``WORKDIR/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import repro  # noqa: E402  (on PYTHONPATH, set by run.py)
from repro import cli, telemetry  # noqa: E402
from repro.harness import (  # noqa: E402
    QUIET, dae_hierarchy, inorder_core, ooo_core, prepare,
    prepare_dae_sliced, set_status_level, simulate, simulate_dae, sweeps,
)
from repro.telemetry import (  # noqa: E402
    SUPPORTED_REPORT_VERSIONS, Attributor, MemStat, MetricsRegistry,
    SelfProfiler, Tracer, validate_report,
)
from repro.workloads import graphproj  # noqa: E402
from repro.workloads.parboil import PARBOIL  # noqa: E402

import tracing  # noqa: E402

PARBOIL_KERNELS = tuple(sorted(PARBOIL))

#: Fig 11's graph projection: the 2 MB projection misses the 2 MB L2
GRAPHPROJ_SIZE = dict(nleft=64, nright=512, avg_degree=6)
#: Fig 11's six systems: label -> (core, tiles, DAE pairs)
GRAPHPROJ_SYSTEMS = {
    "1-ino": (inorder_core, 1, 0),
    "1-ooo": (ooo_core, 1, 0),
    "2-ino": (inorder_core, 2, 0),
    "8-ino": (inorder_core, 8, 0),
    "1-dae": (inorder_core, 0, 1),
    "4-dae": (inorder_core, 0, 4),
}

DSE_KERNELS = ("spmv", "sgemm", "bfs")
DSE_GRID = {"issue_width": [1, 2, 4], "rob_size": [16, 64, 128]}
#: sweep workers in untraced passes (the 2-vCPU reference host's nproc)
DSE_JOBS = 2

#: what the cprofile pass covers: cProfile slows the simulator about
#: 2.5x, so each workload profiles only the runs that answer its question
CPROFILE = {
    "parboil-ooo": {},
    "graphproj-dae": {"systems": ("1-ooo", "4-dae")},
    "parboil-observed": {"kernels": ("spmv",)},
    "dse-sweep": {"kernels": ("spmv",),
                  "grid": {"issue_width": [1], "rob_size": [16]}},
}


def _digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_report(document: dict) -> None:
    """``validate_report`` needs an attribution block, which only runs
    with an Attributor attached produce; other reports are checked for a
    supported schema and per-tile instructions that sum to the total."""
    if "attribution" in document:
        validate_report(document)
        return
    if document.get("schema_version") not in SUPPORTED_REPORT_VERSIONS:
        raise ValueError(f"unsupported report schema "
                         f"{document.get('schema_version')!r}")
    tiles = sum(tile["instructions"] for tile in document["tiles"])
    if tiles != document["instructions"]:
        raise ValueError(f"tiles sum to {tiles} instructions, report "
                         f"says {document['instructions']}")


class Pass:
    """One pass: its runs, spans and layer counters."""

    def __init__(self, seed: int, mode: str, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.jobs = DSE_JOBS if mode == "plain" else 1
        self.runs: list = []
        self.spans = tracing.Spans(enabled=mode == "traced")
        self.counts: dict = defaultdict(float)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    @contextlib.contextmanager
    def run(self, name: str):
        """Time one run's user path; an exception fails the run, not
        the pass."""
        record = {"name": name, "seconds": None, "instructions": 0,
                  "cycles": 0, "l1_hits": 0, "l1_misses": 0,
                  "dram_requests": 0, "digest": None, "error": None}
        self.runs.append(record)
        self.spans.run = name
        with self.spans.span("bench.run"):
            start = time.perf_counter()
            try:
                yield record
            except (Exception, SystemExit) as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - start

    def check(self, record: dict, reports: list) -> None:
        """Read back a run's reports, check them, and record their
        totals and digest (one digest per sweep point)."""
        if record["error"] is not None:
            return
        with self.spans.span("bench.check"):
            try:
                digests = []
                for report in reports:
                    with open(report, encoding="utf-8") as handle:
                        document = json.load(handle)
                    _check_report(document)
                    record["cycles"] += document["cycles"]
                    record["instructions"] += document["instructions"]
                    l1 = document["caches"].get("L1", {})
                    record["l1_hits"] += l1.get("hits", 0)
                    record["l1_misses"] += l1.get("misses", 0)
                    record["dram_requests"] += document["dram"]["requests"]
                    digests.append(_digest(document))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                record["error"] = f"report check: {exc}"
                return
        if len(digests) == 1:
            record["digest"] = digests[0]
        else:
            record["points"] = digests
            record["digest"] = _digest({"points": digests})


# -- the four workloads -------------------------------------------------------

def parboil_ooo(run: Pass, kernels=PARBOIL_KERNELS) -> None:
    """All Parboil kernels through the CLI on the reference system."""
    for kernel in kernels:
        report = run.path(f"{kernel}.json")
        with run.run(kernel) as record:
            code = cli.main(["--quiet", "simulate", kernel, "--core", "ooo",
                             "--hierarchy", "dae", "--size",
                             f"seed={run.seed}", "--stats-json", report])
            if code:
                raise RuntimeError(f"repro simulate exited {code}")
        run.check(record, [report])


def graphproj_dae(run: Pass, systems=tuple(GRAPHPROJ_SYSTEMS)) -> None:
    """Fig 11's systems on graph projection."""
    for label in systems:
        core, tiles, pairs = GRAPHPROJ_SYSTEMS[label]
        report = run.path(f"{label}.json")
        with run.run(label) as record:
            workload = graphproj.build(seed=run.seed, **GRAPHPROJ_SIZE)
            if pairs:
                specs = prepare_dae_sliced(workload.kernel, workload.args,
                                           pairs=pairs)
                stats = simulate_dae(specs, access_core=core(),
                                     execute_core=core(),
                                     hierarchy=dae_hierarchy())
            else:
                stats = simulate(workload.kernel, workload.args,
                                 core=core(), num_tiles=tiles,
                                 hierarchy=dae_hierarchy())
            workload.verify()
            telemetry.write_stats_json(stats, report)
        run.check(record, [report])


def parboil_observed(run: Pass, kernels=PARBOIL_KERNELS) -> None:
    """``parboil-ooo`` with every observer attached and exported."""
    for kernel in kernels:
        report = run.path(f"{kernel}.json")
        with run.run(kernel) as record:
            workload = PARBOIL[kernel](seed=run.seed)
            tracer = Tracer()
            stats = simulate(workload.kernel, workload.args, core=ooo_core(),
                             hierarchy=dae_hierarchy(), tracer=tracer,
                             metrics=MetricsRegistry(),
                             profiler=SelfProfiler(),
                             attribution=Attributor(), memstat=MemStat())
            workload.verify()
            tracer.write(run.path(f"{kernel}.trace.json"),
                         frequency_ghz=stats.frequency_ghz)
            telemetry.write_stats_json(stats, report)
            telemetry.validate_report(telemetry.stats_to_dict(stats))
        run.check(record, [report])


def dse_sweep(run: Pass, kernels=DSE_KERNELS, grid=DSE_GRID) -> None:
    """§VII-B design-space exploration: prepare once, sweep the core."""
    for kernel in kernels:
        reports = []
        with run.run(kernel) as record:
            workload = PARBOIL[kernel](seed=run.seed)
            prepared = prepare(workload.kernel, workload.args,
                               memory=workload.memory)
            workload.verify()
            start = time.perf_counter()
            result = sweeps.sweep_core(prepared, ooo_core(), grid,
                                       hierarchy_factory=dae_hierarchy,
                                       jobs=run.jobs)
            record["sweep_seconds"] = time.perf_counter() - start
            for index, point in enumerate(result.points):
                if not point.ok:
                    raise RuntimeError(f"point {point.parameters}: "
                                       f"{point.outcome} {point.error}")
                reports.append(run.path(f"{kernel}-{index}.json"))
                telemetry.write_stats_json(point.stats, reports[-1])
        run.check(record, reports)


WORKLOADS = {
    "parboil-ooo": parboil_ooo,
    "graphproj-dae": graphproj_dae,
    "parboil-observed": parboil_observed,
    "dse-sweep": dse_sweep,
}


def run_pass(name: str, seed: int, mode: str, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    run = Pass(seed, mode, workdir)
    tracing.count_pool_payloads(run.counts)
    if mode == "traced":
        tracing.instrument(run.spans, run.counts)
    start = time.perf_counter()
    if mode == "cprofile":
        import cProfile
        profile = cProfile.Profile()
        profile.enable()
        try:
            workload(run, **CPROFILE[name])
        finally:
            profile.disable()
        run.counts.update(tracing.profile_counts(profile))
    else:
        with run.spans.span("bench.pass"):
            workload(run)
    wall = time.perf_counter() - start
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"workload": name, "seed": seed, "mode": mode, "wall_s": wall,
              "peak_rss_mb": peak_kb / 1024.0, "runs": run.runs,
              "counts": dict(run.counts)}
    if mode == "traced":
        result.update(run.spans.totals())
        result["spans"] = run.spans.as_list()
    return result


def main(argv) -> int:
    name, seed, mode, workdir = argv
    source = ROOT / "src"
    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"bench: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    set_status_level(QUIET)
    result = run_pass(name, int(seed), mode, Path(workdir))
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
