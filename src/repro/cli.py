"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list`` — available workloads and system presets;
* ``ir <workload>`` — print a workload kernel's IR;
* ``simulate <workload>`` — run the full toolchain on a system preset
  (``--trace``/``--metrics``/``--profile``/``--stats-json`` attach the
  observability layer, see ``docs/observability.md``; ``--sweep
  FIELD=V1,V2`` + ``--jobs N`` fan a core-config grid out over a worker
  pool, see ``docs/performance.md``; ``--checkpoint FILE`` autosaves a
  resumable snapshot every ``--checkpoint-every`` cycles and
  ``--resume FILE`` continues a killed run bit-identically, while
  ``--journal FILE`` + ``--resume-sweep`` make sweeps
  crash-recoverable, see ``docs/resilience.md``);
* ``characterize [workload ...]`` — Figure 6-style IPC table;
* ``dae <workload>`` — slice a kernel and simulate DAE pairs;
* ``trace <workload> -o FILE`` — generate and save dynamic traces;
* ``timeline FILE`` — render a saved cycle trace as an ASCII timeline
  (``--tile``/``--name-prefix``/``--limit`` filter large traces);
* ``analyze <workload> | --report FILE`` — per-tile CPI stacks, top-N
  bottlenecks and roofline from a cycle-attributed run or a saved
  report JSON (schema v2);
* ``diff A.json B.json`` — attribute the cycle delta between two
  reports to the categories that moved;
* ``inject <workload>`` — one supervised fault-injection run
  (``--seed``/per-site rate flags); ``campaign <workload>`` — N
  stratified fault trials classified against a golden-output oracle
  (masked/sdc/detected/hang, Wilson CIs, ``--sdc-threshold`` exits 2
  when the SDC upper bound exceeds it; see ``docs/resilience.md``);
* ``watch JOURNAL`` — live terminal dashboard for a running (or
  crashed) sweep: per-point progress, rolling ETA, straggler/stall
  diagnosis from streamed heartbeats;

``--quiet``/``--verbose`` (before the command) set the stderr status
level; stdout stays machine-readable report content. ``simulate
--heartbeat FILE`` streams live run heartbeats (see
``docs/observability.md``); ``--registry [DIR]`` records a provenance
manifest per run and stamps its ``run_id`` into every artifact the run
writes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .frontend import compile_kernel
from .harness import (
    DEFAULT_MAX_CYCLES, NORMAL, QUIET, STATUS, VERBOSE, build_system,
    dae_hierarchy, graceful_interrupts, inorder_core, ooo_core, prepare,
    prepare_dae_sliced, render_table, run_supervised, set_status_level,
    simulate, simulate_dae, watch_loop, xeon_core, xeon_hierarchy,
)
from .ir import format_function
from .resilience import FaultPlan
from .sim.config import ConfigError
from .sim.errors import DeadlockError, SimulationError, SimulationInterrupted
from .trace import save_traces
from .workloads import PARBOIL, build_parboil
from .workloads.graphproj import build as _build_graphproj
from .workloads.sinkhorn import build_combined as _build_combined
from .workloads.sinkhorn import build_ewsd as _build_ewsd

CORES = {"ino": inorder_core, "ooo": ooo_core, "xeon": xeon_core}
HIERARCHIES = {"dae": dae_hierarchy, "xeon": xeon_hierarchy, "none": None}


def _build_combined_accel(**kwargs):
    return _build_combined(accelerated=True, **kwargs)


_EXTRA_WORKLOADS = {
    "graph-projection": _build_graphproj,
    "ewsd": _build_ewsd,
    "sinkhorn-combined": _build_combined,
    # SGEMM offloaded to an accelerator tile + an SPMD barrier: exercises
    # core, cache/DRAM, fabric and accelerator subsystems in one trace
    "sinkhorn-accel": _build_combined_accel,
}


def _workloads() -> Dict[str, object]:
    table = dict(PARBOIL)
    table.update(_EXTRA_WORKLOADS)
    return table


def _build(name: str, size_args: Sequence[str]):
    table = _workloads()
    if name not in table:
        raise SystemExit(f"unknown workload {name!r}; try: "
                         f"{', '.join(sorted(table))}")
    kwargs = {}
    for item in size_args or ():
        key, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"--size arguments look like key=value, "
                             f"got {item!r}")
        kwargs[key] = int(value)
    return table[name](**kwargs)


def _core(name: str):
    try:
        return CORES[name]()
    except KeyError:
        raise SystemExit(f"unknown core {name!r}; options: "
                         f"{sorted(CORES)}") from None


def _hierarchy(name: str):
    try:
        factory = HIERARCHIES[name]
    except KeyError:
        raise SystemExit(f"unknown hierarchy {name!r}; options: "
                         f"{sorted(HIERARCHIES)}") from None
    return factory() if factory is not None else None


# -- observers and the checkpoint/resume path (--resume) ---------------------

def _observers(args, run_id=None, source=None) -> dict:
    """The :class:`Interleaver` observers the flags ask for, keyed by
    their keyword; a flag the command does not define counts as off.
    ``run_id`` stamps checkpoints and ``source`` heartbeats."""
    from .telemetry import (
        HeartbeatEmitter, MemStat, MetricsRegistry, SelfProfiler, Tracer,
    )

    def flag(name):
        return getattr(args, name, None)

    observers = {}
    if flag("trace"):
        observers["tracer"] = Tracer()
    if flag("metrics"):
        observers["metrics"] = MetricsRegistry()
    if flag("profile"):
        observers["profiler"] = SelfProfiler()
    if flag("memstat"):
        observers["memstat"] = MemStat()
    if flag("checkpoint"):
        from .checkpoint import CheckpointSink
        observers["checkpoint"] = CheckpointSink(
            args.checkpoint, args.checkpoint_every,
            keep=args.checkpoint_keep, run_id=run_id)
    if flag("heartbeat"):
        observers["emitter"] = HeartbeatEmitter(
            args.heartbeat, every_cycles=flag("heartbeat_every") or 100_000,
            source=source)
    return observers


def _write_trace(tracer, path, stats, run_id):
    """Export ``tracer`` to ``path`` and report what was written."""
    count = tracer.write(path, frequency_ghz=stats.frequency_ghz,
                         run_id=run_id)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    STATUS.info(f"trace: {count} event(s){dropped} -> {path}")


def _resume_run(args, run_id=None):
    """Shared ``--resume`` path: restore the snapshot, apply budget and
    sink overrides, and run it to completion (gracefully interruptible
    again). Returns (stats, interleaver, run_id) — the id the snapshot
    was stamped with, so the crash/resume lineage stays joinable (the
    explicit ``run_id`` argument wins when given)."""
    from .checkpoint import load_checkpoint
    restored = load_checkpoint(args.resume)
    run_id = run_id or restored.run_id
    interleaver = restored.interleaver
    # observers that record the run itself cannot join it mid-flight;
    # the checkpoint sink, heartbeat emitter and profiler attach on
    # resume, and the profiler samples the resumed part only
    for flag, name in (("trace", "tracer"), ("metrics", "metrics"),
                       ("memstat", "memstat")):
        if getattr(args, flag, None) and getattr(interleaver, name) is None:
            print(f"--{flag}: {args.resume} was checkpointed without a "
                  f"{name}; only --checkpoint and --heartbeat can be "
                  f"attached on --resume", file=sys.stderr)
            raise SystemExit(2)
    interleaver.max_cycles = args.max_cycles
    if getattr(args, "timeout", None) is not None:
        interleaver.wall_clock_limit = args.timeout
    observers = _observers(args, run_id=run_id,
                           source={"resumed": args.resume})
    for name in ("checkpoint", "emitter"):
        if name in observers:
            setattr(interleaver, name, observers[name])
    interleaver.profiler = observers.get("profiler")
    STATUS.info(f"resuming {args.resume} from cycle {restored.cycle}")
    with graceful_interrupts(interleaver):
        stats = interleaver.run()
    return stats, interleaver, run_id


# -- run registry path (simulate/inject --registry/--run-id) ------------------

def _registry_run_id(args):
    """Resolve the provenance id for this run: ``--run-id`` wins;
    ``--registry`` without one mints a fresh id. None (the default)
    means no stamping at all, so unregistered artifacts stay
    byte-identical to pre-registry builds."""
    if getattr(args, "run_id", None):
        return args.run_id
    if getattr(args, "registry", None):
        from .registry import new_run_id
        return new_run_id()
    return None


def _record_manifest(args, run_id, *, workload, status, stats=None,
                     wall_seconds=0.0, seed=None, config=None,
                     artifacts=None, extra=None):
    """Record a provenance manifest under ``--registry`` (no-op
    without). Returns the manifest path or None."""
    if not getattr(args, "registry", None) or run_id is None:
        return None
    from .checkpoint import CHECKPOINT_SCHEMA_VERSION
    from .registry import RunManifest, RunRegistry
    from .telemetry import (
        HEARTBEAT_SCHEMA_VERSION, METRICS_SCHEMA_VERSION,
        TRACE_SCHEMA_VERSION,
    )
    mips = None
    if stats is not None and wall_seconds > 0:
        mips = stats.instructions / wall_seconds / 1e6
    manifest = RunManifest.capture(
        run_id, workload=workload, status=status, config=config,
        seed=seed, stats=stats, wall_seconds=wall_seconds, mips=mips,
        schema_versions={
            "trace": TRACE_SCHEMA_VERSION,
            "metrics": METRICS_SCHEMA_VERSION,
            "checkpoint": CHECKPOINT_SCHEMA_VERSION,
            "heartbeat": HEARTBEAT_SCHEMA_VERSION,
        },
        artifacts={kind: path for kind, path in (artifacts or {}).items()
                   if path},
        extra=extra)
    path = RunRegistry(args.registry).record(manifest)
    STATUS.info(f"run {run_id}: manifest -> {path}")
    return path


# -- sweep path (simulate/inject/analyze --sweep) -----------------------------

def _parse_sweep_value(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text.strip()


def _sweep_grid(items: Sequence[str]) -> Dict[str, list]:
    grid: Dict[str, list] = {}
    for item in items:
        key, _, values = item.partition("=")
        if not values:
            raise SystemExit(f"--sweep arguments look like field=v1,v2, "
                             f"got {item!r}")
        grid[key.strip()] = [_parse_sweep_value(v) for v in values.split(",")]
    return grid


def _run_core_sweep(args, core, hierarchy, plan=None,
                    wall_clock_limit=None):
    """Shared ``--sweep`` path: run the cross product of the grid as a
    design-space sweep (on a worker pool when ``--jobs > 1``) and render
    the point table. ``plan`` (inject) runs every point under the fault
    plan; a ``seed=...`` sweep axis fans the plan out over seeds."""
    from .harness import sweep_core
    grid = _sweep_grid(args.sweep)
    if plan is not None:
        seeds = grid.pop("seed", None)
        grid["plan"] = ([replace(plan, seed=int(s)) for s in seeds]
                        if seeds else [plan])
    if args.resume_sweep and not args.journal:
        raise SystemExit("--resume-sweep needs --journal FILE to "
                         "resume from")
    workload = _build(args.workload, args.size)
    prepared = prepare(workload.kernel, workload.args,
                       num_tiles=args.tiles, memory=workload.memory)
    # journaled sweeps stream point heartbeats next to the journal by
    # default, so `repro watch JOURNAL` works without extra flags;
    # --heartbeat-every tunes the stride
    heartbeat_every = getattr(args, "heartbeat_every", None)
    if heartbeat_every is None and args.journal:
        heartbeat_every = 100_000
    try:
        result = sweep_core(
            prepared, core, grid, hierarchy=hierarchy,
            num_tiles=args.tiles, max_cycles=args.max_cycles,
            wall_clock_limit=wall_clock_limit, jobs=args.jobs,
            journal_path=args.journal, resume=args.resume_sweep,
            heartbeat_every=heartbeat_every)
    except TypeError as exc:
        raise SystemExit(f"bad --sweep grid: {exc}")
    if args.journal and heartbeat_every:
        STATUS.verbose(f"live sweep status streamed alongside "
                       f"{args.journal} (watch with: repro watch "
                       f"{args.journal})")
    for point in result.points:
        # FaultPlan reprs are unwieldy in the table; label by seed
        inner = point.parameters.get("plan")
        if inner is not None:
            point.parameters["plan"] = f"seed={inner.seed}"
        elif "plan" in point.parameters:
            point.parameters["plan"] = "-"
    print(result.table(title=f"{workload.name}: {len(result.points)} "
                             f"point(s), jobs={args.jobs}"))
    outcomes = result.outcomes()
    print("outcomes:", "  ".join(f"{name}:{count}" for name, count
                                 in sorted(outcomes.items())))
    return result


# -- commands ----------------------------------------------------------------

def cmd_list(args) -> int:
    print("workloads:")
    for name in sorted(_workloads()):
        print(f"  {name}")
    print("cores:", ", ".join(sorted(CORES)))
    print("hierarchies:", ", ".join(sorted(HIERARCHIES)))
    return 0


def cmd_ir(args) -> int:
    workload = _build(args.workload, args.size)
    print(format_function(compile_kernel(workload.kernel)))
    return 0


def _accel_kinds(func) -> List[str]:
    """Accelerator design kinds the compiled ``func`` invokes (pure data,
    so campaign workers can rebuild their own farms from it)."""
    from .sim.accelerator.library import DESIGN_FACTORIES
    return sorted({
        inst.callee[len("accel_"):] for inst in func.instructions()
        if getattr(inst, "callee", "").startswith("accel_")
        and inst.callee[len("accel_"):] in DESIGN_FACTORIES})


def _detect_accelerators(func):
    """Build a default AcceleratorFarm covering every ``accel_*``
    intrinsic the compiled ``func`` invokes, so accelerated workloads run
    (and trace) without explicit farm configuration."""
    from .sim.accelerator.tile import AcceleratorFarm
    farm = AcceleratorFarm()
    for kind in _accel_kinds(func):
        farm.add_default(kind)
    return farm if farm.tiles else None


def _prepare(args, workload):
    """Compile and trace ``workload`` once for ``--tiles`` tiles, and
    detect its accelerator farm from that same compiled function."""
    prepared = prepare(workload.kernel, workload.args, num_tiles=args.tiles,
                       memory=workload.memory)
    return prepared, _detect_accelerators(prepared.function)


def cmd_simulate(args) -> int:
    import time as _time
    from .sim.configfile import load_core_config, load_hierarchy_config
    from .telemetry import write_stats_json
    core = (load_core_config(args.core_config)
            if getattr(args, "core_config", None) else _core(args.core))
    hierarchy = (load_hierarchy_config(args.hierarchy_config)
                 if getattr(args, "hierarchy_config", None)
                 else _hierarchy(args.hierarchy))
    if args.sweep:
        if args.trace or args.metrics or args.stats_json or args.profile \
                or args.retries or args.resume or args.checkpoint \
                or args.heartbeat or args.registry or args.run_id \
                or args.memstat:
            print("--sweep is incompatible with --trace/--metrics/"
                  "--stats-json/--profile/--retries/--checkpoint/--resume/"
                  "--heartbeat/--registry/--run-id/--memstat",
                  file=sys.stderr)
            return 2
        if args.heartbeat_every is not None and not args.journal:
            print("--heartbeat-every with --sweep needs --journal FILE "
                  "(sweep heartbeats stream beside the journal)",
                  file=sys.stderr)
            return 2
        result = _run_core_sweep(args, core, hierarchy,
                                 wall_clock_limit=args.timeout)
        return 0 if any(p.ok for p in result.points) else 2
    if args.resume:
        if args.retries:
            print("--resume is incompatible with --retries",
                  file=sys.stderr)
            return 2
        # the workload already ran functionally before the original
        # run's snapshot, so verify() is deliberately skipped here
        began = _time.perf_counter()
        stats, interleaver, run_id = _resume_run(args, run_id=args.run_id)
        if run_id is None:
            run_id = _registry_run_id(args)
        wall = _time.perf_counter() - began
        print(f"workload: {args.workload} (resumed)")
        print(stats.summary())
        if args.trace:
            _write_trace(interleaver.tracer, args.trace, stats, run_id)
        if args.metrics:
            write_stats_json(stats, args.metrics, run_id=run_id)
            STATUS.info(f"metrics: -> {args.metrics}")
        if args.stats_json:
            write_stats_json(stats, args.stats_json, run_id=run_id)
            STATUS.info(f"stats: -> {args.stats_json}")
        if args.profile:
            print(interleaver.profiler.report.summary())
        _record_manifest(
            args, run_id, workload=args.workload, status="ok",
            stats=stats, wall_seconds=wall,
            artifacts={"trace": args.trace, "metrics": args.metrics,
                       "stats": args.stats_json,
                       "heartbeat": args.heartbeat,
                       "checkpoint": args.checkpoint,
                       "resumed_from": args.resume})
        return 0
    workload = _build(args.workload, args.size)
    run_id = _registry_run_id(args)
    began = _time.perf_counter()
    prepared, accelerators = _prepare(args, workload)
    observers = _observers(args, run_id=run_id,
                           source={"workload": args.workload})
    config = {"workload": args.workload, "size": args.size or [],
              "core": core, "tiles": args.tiles,
              "hierarchy": args.hierarchy_config or args.hierarchy,
              "max_cycles": args.max_cycles}
    if args.retries > 0:
        outcome = run_supervised(
            workload.kernel, workload.args, core=core,
            num_tiles=args.tiles, hierarchy=hierarchy,
            accelerators=accelerators,
            max_cycles=args.max_cycles, wall_clock_limit=args.timeout,
            retries=args.retries, prepared=prepared, **observers)
        if not outcome.ok:
            print(f"run failed: {outcome.status} after {outcome.attempts} "
                  f"attempt(s): {outcome.error}", file=sys.stderr)
            if outcome.checkpoint_path:
                print(f"resume with --resume {outcome.checkpoint_path}",
                      file=sys.stderr)
            # failed runs are registry-worthy too: the manifest records
            # the failure and the checkpoint to resume from
            _record_manifest(
                args, run_id, workload=args.workload,
                status=outcome.status, wall_seconds=outcome.wall_seconds,
                config=config,
                artifacts={"checkpoint": outcome.checkpoint_path,
                           "heartbeat": args.heartbeat})
            return 2
        stats = outcome.stats
        profile = outcome.profile
    else:
        interleaver = build_system(
            workload.kernel, workload.args, core=core,
            num_tiles=args.tiles, hierarchy=hierarchy,
            accelerators=accelerators, max_cycles=args.max_cycles,
            wall_clock_limit=args.timeout, prepared=prepared, **observers)
        with graceful_interrupts(interleaver):
            stats = interleaver.run()
        profile = observers["profiler"].report if args.profile else None
    wall = _time.perf_counter() - began
    workload.verify()
    print(f"workload: {workload.name}  system: {args.tiles}x {core.name} "
          f"/ {args.hierarchy_config or args.hierarchy}")
    print(stats.summary())
    if args.trace:
        _write_trace(observers["tracer"], args.trace, stats, run_id)
    if args.metrics:
        write_stats_json(stats, args.metrics, run_id=run_id)
        STATUS.info(f"metrics: -> {args.metrics}")
    if args.stats_json:
        write_stats_json(stats, args.stats_json, run_id=run_id)
        STATUS.info(f"stats: -> {args.stats_json}")
    emitter = observers.get("emitter")
    if emitter is not None:
        if emitter.errors:
            STATUS.warn(f"heartbeat: {emitter.errors} write error(s) on "
                        f"{args.heartbeat}")
        else:
            STATUS.info(f"heartbeat: {emitter.seq} snapshot(s) "
                        f"-> {args.heartbeat}")
    if profile is not None:
        print(profile.summary())
    _record_manifest(
        args, run_id, workload=workload.name, status="ok", stats=stats,
        wall_seconds=wall, config=config,
        artifacts={"trace": args.trace, "metrics": args.metrics,
                   "stats": args.stats_json, "heartbeat": args.heartbeat,
                   "checkpoint": args.checkpoint})
    return 0


def _filter_trace_events(document: dict, tile: Optional[str],
                         name_prefix: Optional[str],
                         limit: Optional[int]) -> dict:
    """Restrict a Chrome trace to one lane / an event-name prefix / the
    first N matching events; metadata events always survive so lane
    labels keep rendering."""
    events = document.get("traceEvents", [])
    lane_names = {
        e["tid"]: e.get("args", {}).get("name", "")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"}
    kept = []
    matched = 0
    for event in events:
        if event.get("ph") == "M":
            kept.append(event)
            continue
        if tile is not None and lane_names.get(event.get("tid")) != tile:
            continue
        if name_prefix is not None and \
                not str(event.get("name", "")).startswith(name_prefix):
            continue
        if limit is not None and matched >= limit:
            break
        kept.append(event)
        matched += 1
    return dict(document, traceEvents=kept)


def cmd_timeline(args) -> int:
    """Render a saved Chrome trace as a terminal timeline. Exit codes:
    0 rendered, 2 unreadable/invalid input."""
    import json
    from .harness import render_timeline
    from .telemetry import validate_chrome_trace
    try:
        with open(args.trace) as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"not a JSON trace: {exc}", file=sys.stderr)
        return 2
    try:
        count = validate_chrome_trace(document)
    except ValueError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 2
    title = f"{args.trace}: {count} event(s)"
    if args.tile or args.name_prefix or args.limit is not None:
        document = _filter_trace_events(
            document, args.tile, args.name_prefix, args.limit)
        shown = sum(1 for e in document["traceEvents"]
                    if e.get("ph") != "M")
        title += f", {shown} after filters"
    print(render_timeline(document, width=args.width, title=title))
    return 0


def _load_report(path: str, attribution: bool = True):
    """Load + validate a saved report JSON; returns (document, error).
    ``attribution=False`` also accepts a plain ``--stats-json`` report."""
    import json
    from .telemetry import validate_report
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        return None, f"cannot read report: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"not a JSON report: {exc}"
    try:
        validate_report(document, attribution=attribution)
    except ValueError as exc:
        return None, f"invalid report: {exc}"
    return document, None


def _attributed_report(args, core, hierarchy, memstat=None) -> dict:
    """The workload path of analyze and memstat: run ``--workload``
    (DAE-sliced under ``--dae``) with cycle attribution, ``memstat`` and
    the flags' observers, self-check the report and write ``--json``.

    Attribution always rides along so the report passes full
    :func:`validate_report` (which requires the attribution block) and
    stays diff-able across the two commands. Returns the report dict."""
    from .telemetry import (
        Attributor, stats_to_dict, validate_report, write_stats_json,
    )
    observers = _observers(args)
    observers["attribution"] = Attributor()
    if memstat is not None:
        observers["memstat"] = memstat
    workload = _build(args.workload, args.size)
    if args.dae:
        specs = prepare_dae_sliced(workload.kernel, workload.args,
                                   pairs=args.pairs)
        stats = simulate_dae(specs, access_core=inorder_core(),
                             execute_core=inorder_core(),
                             hierarchy=hierarchy,
                             max_cycles=args.max_cycles, **observers)
    else:
        prepared, accelerators = _prepare(args, workload)
        stats = simulate(
            workload.kernel, workload.args, core=core, num_tiles=args.tiles,
            hierarchy=hierarchy, accelerators=accelerators,
            prepared=prepared, max_cycles=args.max_cycles, **observers)
    document = stats_to_dict(stats)
    validate_report(document)  # self-check incl. memory conservation
    if args.json:
        write_stats_json(stats, args.json)
        STATUS.info(f"report: -> {args.json}")
    return document


def cmd_analyze(args) -> int:
    """Render per-tile CPI stacks + bottleneck diagnosis. Reads a saved
    report (``--report``) or runs the workload with cycle attribution
    enabled. Exit codes: 0 rendered, 2 invalid input."""
    from .harness import render_attribution_report, render_memstat_report
    from .telemetry import (
        MemStat, stats_to_dict, validate_report, write_stats_json,
    )
    if args.resume:
        if args.report:
            print("analyze takes --resume or --report, not both",
                  file=sys.stderr)
            return 2
        # attribution must have been attached to the original
        # (checkpointed) run; the restored ledgers finish seamlessly
        stats, _, _ = _resume_run(args)
        document = stats_to_dict(stats)
        try:
            validate_report(document)
        except ValueError as exc:
            print(f"resumed run has no analyzable report ({exc}); "
                  f"checkpoint a run started with attribution (e.g. "
                  f"analyze <workload> --checkpoint ...)", file=sys.stderr)
            return 2
        if args.json:
            write_stats_json(stats, args.json)
            STATUS.info(f"report: -> {args.json}")
        source = f"{args.resume} (resumed)"
    elif args.report:
        if args.workload:
            print("analyze takes a workload or --report FILE, not both",
                  file=sys.stderr)
            return 2
        document, error = _load_report(args.report)
        if error:
            print(error, file=sys.stderr)
            return 2
        source = args.report
    elif args.workload:
        if args.sweep and args.dae:
            print("analyze --sweep does not combine with --dae",
                  file=sys.stderr)
            return 2
        core = _core(args.core)
        if args.sweep:
            result = _run_core_sweep(args, core, _hierarchy(args.hierarchy))
            if not any(p.ok for p in result.points):
                print("no successful sweep point to analyze",
                      file=sys.stderr)
                return 2
            best = result.best("cycles")
            core = replace(core, **best.parameters)
            STATUS.info(f"analyzing best point: {best.parameters}")
        document = _attributed_report(
            args, core, _hierarchy(args.hierarchy),
            MemStat() if args.memory else None)
        source = args.workload
    else:
        print("analyze needs a workload or --report FILE", file=sys.stderr)
        return 2
    print(f"analyze {source}:")
    print(render_attribution_report(document, top=args.top))
    if args.memory:
        print()
        print(render_memstat_report(document))
    return 0


def cmd_diff(args) -> int:
    """Diff two saved report JSONs: attribute the cycle delta to the
    categories that moved. Plain ``simulate --stats-json`` reports have
    no attribution block, so only their cycle, instruction and energy
    deltas print. Exit codes: 0 rendered, 2 invalid input."""
    from .harness import (
        render_memory_diff, render_report_diff, render_totals_diff,
    )
    from .telemetry import diff_memory_blocks, diff_reports
    before, error = _load_report(args.before, attribution=False)
    if error:
        print(f"{args.before}: {error}", file=sys.stderr)
        return 2
    after, error = _load_report(args.after, attribution=False)
    if error:
        print(f"{args.after}: {error}", file=sys.stderr)
        return 2
    print(f"diff {args.before} -> {args.after}:")
    if "attribution" in before and "attribution" in after:
        result = diff_reports(before, after)
        print(render_report_diff(result, top=args.top))
        memory = result.get("memory")
    else:
        print(render_totals_diff(before, after))
        memory = diff_memory_blocks(before.get("memory"),
                                    after.get("memory"))
    if args.memory:
        print()
        print(render_memory_diff(memory or {}))
    return 0


def cmd_memstat(args) -> int:
    """Render the data-movement observatory (miss classification,
    reuse distance, DRAM bank locality, link utilization) from a run or
    a saved schema-v3 report. Exit codes: 0 rendered, 2 invalid input."""
    import json
    from .harness import render_memstat_report
    from .telemetry import (
        MemStat, SUPPORTED_REPORT_VERSIONS, validate_memory_block,
    )
    if args.report:
        if args.workload:
            print("memstat takes a workload or --report FILE, not both",
                  file=sys.stderr)
            return 2
        # lenient on purpose: the observatory view needs the memory
        # block, not the attribution block, so reports from
        # `simulate --memstat --stats-json` render too
        try:
            with open(args.report) as handle:
                document = json.load(handle)
        except OSError as exc:
            print(f"cannot read report: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"not a JSON report: {exc}", file=sys.stderr)
            return 2
        version = document.get("schema_version") \
            if isinstance(document, dict) else None
        if version not in SUPPORTED_REPORT_VERSIONS:
            print(f"invalid report: schema version {version!r} "
                  f"unsupported (supported: "
                  f"{', '.join(map(str, SUPPORTED_REPORT_VERSIONS))})",
                  file=sys.stderr)
            return 2
        try:
            validate_memory_block(document)
        except ValueError as exc:
            print(f"invalid report: {exc}", file=sys.stderr)
            return 2
        if not document.get("memory"):
            print(f"{args.report} carries no memory block (schema v3); "
                  f"produce one with `repro memstat <workload> --json "
                  f"FILE` or `simulate --memstat --stats-json FILE`",
                  file=sys.stderr)
            return 2
        source = args.report
    elif args.workload:
        from .sim.configfile import load_core_config, load_hierarchy_config
        core = (load_core_config(args.core_config)
                if args.core_config else _core(args.core))
        hierarchy = (load_hierarchy_config(args.hierarchy_config)
                     if args.hierarchy_config
                     else _hierarchy(args.hierarchy))
        document = _attributed_report(
            args, core, hierarchy,
            MemStat(sample_every=args.sample_every,
                    epoch_cycles=args.epoch_cycles))
        source = args.workload
    else:
        print("memstat needs a workload or --report FILE", file=sys.stderr)
        return 2
    print(f"memstat {source}:")
    print(render_memstat_report(document, width=args.width))
    return 0


def cmd_inject(args) -> int:
    """Fault-injection campaign: run a workload under a deterministic
    FaultPlan, under supervision, and report faults + outcome."""
    if args.resume:
        from .checkpoint import find_injector
        # the restored graph carries the fault injector (and its RNG
        # streams) mid-campaign; plan flags on the command line are
        # ignored on resume
        stats, interleaver, _ = _resume_run(args, run_id=args.run_id)
        injector = find_injector(interleaver)
        faults = len(injector.log) if injector is not None else 0
        print(f"workload: {args.workload} (resumed)  "
              f"faults injected: {faults}")
        print(stats.summary())
        return 0
    plan = FaultPlan(
        seed=args.seed,
        bitflip_load_rate=args.bitflip_rate,
        message_drop_rate=args.drop_rate,
        message_delay_rate=args.delay_rate,
        dram_stall_rate=args.dram_stall_rate,
        accel_fault_rate=args.accel_fault_rate,
    )
    plan.validate()
    if args.sweep:
        result = _run_core_sweep(args, _core(args.core),
                                 _hierarchy(args.hierarchy), plan=plan,
                                 wall_clock_limit=args.timeout)
        return 0 if any(p.ok for p in result.points) else 2

    def fresh():
        w = _build(args.workload, args.size)
        return w.kernel, w.args, w.memory

    workload = _build(args.workload, args.size)
    run_id = _registry_run_id(args)
    outcome = run_supervised(
        workload.kernel, workload.args, plan=plan,
        core=_core(args.core), num_tiles=args.tiles,
        hierarchy=_hierarchy(args.hierarchy),
        max_cycles=args.max_cycles, wall_clock_limit=args.timeout,
        retries=args.retries, fresh=fresh,
        **_observers(args, run_id=run_id))
    print(f"workload: {workload.name}  plan: seed={plan.seed} "
          f"bitflip={plan.bitflip_load_rate} drop={plan.message_drop_rate} "
          f"delay={plan.message_delay_rate} "
          f"dram-stall={plan.dram_stall_rate} "
          f"accel-fault={plan.accel_fault_rate}")
    print(f"outcome: {outcome.status}  attempts: {outcome.attempts}  "
          f"wall: {outcome.wall_seconds:.2f}s  "
          f"faults injected: {len(outcome.fault_log)}")
    if outcome.fault_log:
        by_kind = {}
        for record in outcome.fault_log:
            key = f"{record.site}.{record.kind}"
            by_kind[key] = by_kind.get(key, 0) + 1
        for key in sorted(by_kind):
            print(f"  {key}: {by_kind[key]}")
    _record_manifest(
        args, run_id, workload=workload.name, status=outcome.status,
        stats=outcome.stats if outcome.ok else None,
        wall_seconds=outcome.wall_seconds, seed=plan.seed,
        config={"workload": args.workload, "size": args.size or [],
                "core": args.core, "tiles": args.tiles,
                "hierarchy": args.hierarchy, "plan": plan},
        artifacts={"checkpoint": outcome.checkpoint_path})
    if outcome.ok:
        print(outcome.stats.summary())
        return 0
    print(f"error: {outcome.error}", file=sys.stderr)
    if outcome.checkpoint_path:
        print(f"resume with --resume {outcome.checkpoint_path}",
              file=sys.stderr)
    return 2


def _replay_command(args, plan, site: str, seed: int) -> str:
    """The exact ``repro inject`` invocation that reproduces one SDC
    trial's corruption (same stratified plan, same seed)."""
    parts = [f"repro inject {args.workload}"]
    for item in args.size or ():
        parts.append(f"--size {item}")
    parts.append(f"--core {args.core} --tiles {args.tiles} "
                 f"--hierarchy {args.hierarchy} --seed {seed}")
    flags = {"mem": [("--bitflip-rate", plan.bitflip_load_rate)],
             "msg": [("--drop-rate", plan.message_drop_rate),
                     ("--delay-rate", plan.message_delay_rate)],
             "dram": [("--dram-stall-rate", plan.dram_stall_rate)],
             "accel": [("--accel-fault-rate", plan.accel_fault_rate)]}
    for flag, rate in flags.get(site, ()):
        if rate > 0.0:
            parts.append(f"{flag} {rate}")
    return " ".join(parts)


def cmd_campaign(args) -> int:
    """SDC characterization: N stratified fault trials classified
    against a golden-output oracle (masked/sdc/detected/hang)."""
    import time as _time
    from .harness import render_campaign_report
    from .resilience import (
        CampaignError, run_campaign, validate_campaign_report,
    )
    from .resilience.campaign import site_rate
    plan = FaultPlan(
        seed=args.seed,
        bitflip_load_rate=args.bitflip_rate,
        message_drop_rate=args.drop_rate,
        message_delay_rate=args.delay_rate,
        dram_stall_rate=args.dram_stall_rate,
        accel_fault_rate=args.accel_fault_rate,
    )
    try:
        plan.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = _build(args.workload, args.size)
    func = compile_kernel(workload.kernel)
    kinds = _accel_kinds(func)
    if args.sites:
        sites = [s.strip() for s in args.sites.split(",") if s.strip()]
    else:
        # default stratification: the sites this workload can exercise —
        # fabric faults need >1 tile, accelerator faults need a farm
        sites = ["mem", "dram"]
        if args.tiles > 1:
            sites.insert(1, "msg")
        if kinds:
            sites.append("accel")
        sites = [s for s in sites if site_rate(plan, s) > 0.0]
    run_id = _registry_run_id(args)
    began = _time.perf_counter()
    try:
        result = run_campaign(
            func, workload.args, plan=plan,
            trials=args.trials, memory=workload.memory,
            sites=sites or None, core=_core(args.core),
            num_tiles=args.tiles, hierarchy=_hierarchy(args.hierarchy),
            accel_kinds=kinds, max_cycles=args.max_cycles,
            wall_clock_limit=args.timeout, jobs=args.jobs,
            journal_path=args.journal,
            resume=args.resume_campaign,
            sdc_ci_target=args.ci_target,
            workload_name=workload.name)
    except (CampaignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = _time.perf_counter() - began
    report = result.report()
    validate_campaign_report(report)
    print(render_campaign_report(report))
    for entry in report["sdc"]["trials"]:
        print(f"  replay: "
              f"{_replay_command(args, plan, entry['site'], entry['seed'])}")
    if args.json:
        from .ioutil import atomic_write_json
        atomic_write_json(args.json, report, indent=2)
        STATUS.info(f"campaign report: -> {args.json}")
    sdc_rate = report["sdc"]["rate"]
    sdc_upper = report["sdc"]["ci"][1]
    _record_manifest(
        args, run_id, workload=workload.name, status="ok",
        wall_seconds=wall, seed=plan.seed,
        config={"workload": args.workload, "size": args.size or [],
                "core": args.core, "tiles": args.tiles,
                "hierarchy": args.hierarchy, "plan": plan,
                "sites": report["sites"], "trials": args.trials},
        artifacts={"report": args.json, "journal": args.journal},
        extra={"campaign": {
            "schema_version": report["schema_version"],
            "trials": report["trials"],
            "outcomes": report["outcomes"],
            "sdc_rate": sdc_rate,
            "sdc_ci": report["sdc"]["ci"],
            "golden_digest": report["golden"]["digest"],
            "early_stopped": report["early_stopped"],
        }})
    if args.sdc_threshold is not None and sdc_upper > args.sdc_threshold:
        print(f"SDC gate: upper bound {sdc_upper:.3f} exceeds "
              f"threshold {args.sdc_threshold}", file=sys.stderr)
        return 2
    return 0


def cmd_dump_config(args) -> int:
    from .sim.configfile import save_core_config, save_hierarchy_config
    core_path = f"{args.prefix}.core.json"
    mem_path = f"{args.prefix}.mem.json"
    save_core_config(_core(args.core), core_path)
    save_hierarchy_config(_hierarchy(args.hierarchy), mem_path)
    print(f"wrote {core_path} and {mem_path}")
    return 0


def cmd_characterize(args) -> int:
    names = args.workloads or sorted(PARBOIL)
    rows = []
    for name in names:
        workload = _build(name, None)
        stats = simulate(workload.kernel, workload.args, core=xeon_core(),
                         hierarchy=xeon_hierarchy())
        workload.verify()
        rows.append([name, stats.cycles, stats.ipc])
    rows.sort(key=lambda r: r[2])
    print(render_table(["workload", "cycles", "IPC"], rows,
                       title="IPC characterization (low = memory-bound)"))
    return 0


def cmd_dae(args) -> int:
    workload = _build(args.workload, args.size)
    base = simulate(workload.kernel, workload.args, core=inorder_core(),
                    hierarchy=dae_hierarchy())
    fresh = _build(args.workload, args.size)
    specs = prepare_dae_sliced(fresh.kernel, fresh.args, pairs=args.pairs)
    stats = simulate_dae(specs, access_core=inorder_core(),
                         execute_core=inorder_core(),
                         hierarchy=dae_hierarchy())
    fresh.verify()
    print(f"{args.pairs} DAE pair(s) on {workload.name}: "
          f"{stats.cycles} cycles "
          f"(vs {base.cycles} on one InO core -> "
          f"{base.cycles / stats.cycles:.2f}x)")
    return 0


def cmd_trace(args) -> int:
    workload = _build(args.workload, args.size)
    prepared = prepare(workload.kernel, workload.args, num_tiles=args.tiles,
                       memory=workload.memory)
    workload.verify()
    size = save_traces(prepared.traces, args.output)
    accesses = sum(t.num_memory_accesses for t in prepared.traces)
    print(f"wrote {len(prepared.traces)} trace(s) "
          f"({accesses} memory accesses) to {args.output} "
          f"({size} bytes compressed)")
    return 0


def cmd_watch(args) -> int:
    """Live sweep dashboard: render journal + streamed heartbeats until
    every point is done (or forever, with --interval polling, until
    interrupted). Exit codes: 0 rendered/finished."""
    return watch_loop(args.journal, interval=args.interval,
                      stall_after=args.stall_after, once=args.once)


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MosaicSim reproduction command-line interface")
    level = parser.add_mutually_exclusive_group()
    level.add_argument("-q", "--quiet", action="store_true",
                       help="suppress informational stderr status lines "
                            "(warnings still print)")
    level.add_argument("-v", "--verbose", action="store_true",
                       help="print extra stderr status detail (sweep "
                            "point completions, watch hints)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list workloads and system presets") \
        .set_defaults(func=cmd_list)

    def with_workload(sub, sizes=True):
        sub.add_argument("workload")
        if sizes:
            sub.add_argument("--size", action="append", metavar="KEY=VAL",
                             help="dataset size override (repeatable)")
        return sub

    ir_cmd = with_workload(commands.add_parser(
        "ir", help="print a workload kernel's IR"))
    ir_cmd.set_defaults(func=cmd_ir)

    def with_supervision(sub):
        sub.add_argument("--max-cycles", type=int,
                         default=DEFAULT_MAX_CYCLES,
                         help="cycle budget before the run is abandoned")
        sub.add_argument("--retries", type=int, default=0,
                         help="retry transient failures up to N times")
        sub.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock watchdog limit")
        return sub

    def with_sweep(sub):
        sub.add_argument("--sweep", action="append", metavar="FIELD=V1,V2",
                         help="sweep a CoreConfig field over comma-"
                              "separated values (repeatable; the cross "
                              "product runs as a design-space sweep). "
                              "inject also accepts seed=S1,S2 to fan the "
                              "fault plan out over seeds")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for sweep points "
                              "(1 = serial; only used with --sweep)")
        sub.add_argument("--journal", metavar="FILE",
                         help="append completed sweep points to a JSONL "
                              "journal as they finish (crash-recoverable)")
        sub.add_argument("--resume-sweep", action="store_true",
                         dest="resume_sweep",
                         help="skip points already recorded in --journal "
                              "and restore their results bit-identically")
        return sub

    def with_registry(sub):
        sub.add_argument("--registry", nargs="?", const="runs",
                         metavar="DIR",
                         help="record a provenance manifest (run id, "
                              "config digest, host, headline stats, "
                              "artifact paths) in DIR (default: runs)")
        sub.add_argument("--run-id", dest="run_id", metavar="ID",
                         help="stamp artifacts with this run id instead "
                              "of a generated one")
        return sub

    def with_checkpoint(sub):
        sub.add_argument("--checkpoint", metavar="FILE",
                         help="autosave a resumable snapshot to FILE "
                              "(atomic; last --checkpoint-keep kept)")
        sub.add_argument("--checkpoint-every", type=int, default=500_000,
                         metavar="N", dest="checkpoint_every",
                         help="simulated cycles between autosaves "
                              "(default 500000; with --checkpoint)")
        sub.add_argument("--checkpoint-keep", type=int, default=2,
                         metavar="K", dest="checkpoint_keep",
                         help="rotated snapshots to keep (default 2)")
        sub.add_argument("--resume", metavar="FILE",
                         help="resume a checkpointed run instead of "
                              "starting fresh")
        return sub

    sim = with_registry(with_checkpoint(with_sweep(
        with_supervision(with_workload(commands.add_parser(
            "simulate", help="simulate a workload on a system "
                             "preset"))))))
    sim.add_argument("--core", default="ooo", choices=sorted(CORES))
    sim.add_argument("--tiles", type=int, default=1)
    sim.add_argument("--hierarchy", default="dae",
                     choices=sorted(HIERARCHIES))
    sim.add_argument("--core-config", metavar="FILE",
                     help="load the core from a JSON config file "
                          "(overrides --core)")
    sim.add_argument("--hierarchy-config", metavar="FILE",
                     help="load the memory hierarchy from a JSON config "
                          "file (overrides --hierarchy)")
    sim.add_argument("--trace", metavar="FILE",
                     help="record a cycle-level trace and write Chrome "
                          "trace_event JSON (open in Perfetto, or render "
                          "with the timeline command)")
    sim.add_argument("--metrics", metavar="FILE",
                     help="attach a metrics registry and write the "
                          "stats+metrics JSON snapshot")
    sim.add_argument("--stats-json", metavar="FILE", dest="stats_json",
                     help="write machine-readable SystemStats JSON")
    sim.add_argument("--memstat", action="store_true",
                     help="attach the data-movement observatory so "
                          "--stats-json/--metrics reports carry the "
                          "schema-v3 memory block (miss classification, "
                          "reuse distance, bank/link locality)")
    sim.add_argument("--profile", action="store_true",
                     help="print the simulator self-profile (sampled "
                          "wall-clock per phase, events/sec; uses SIGALRM)")
    sim.add_argument("--heartbeat", metavar="FILE",
                     help="stream live run heartbeats (cycle, IPC, "
                          "in-flight memory, attribution deltas) to a "
                          "JSONL file while the run is in flight")
    sim.add_argument("--heartbeat-every", type=int, default=None,
                     metavar="N", dest="heartbeat_every",
                     help="simulated cycles between heartbeats (default "
                          "100000; with --heartbeat, or with --sweep "
                          "--journal to tune the JOURNAL.heartbeats.jsonl "
                          "stride)")
    sim.set_defaults(func=cmd_simulate)

    inject = with_registry(with_checkpoint(with_sweep(
        with_supervision(with_workload(commands.add_parser(
            "inject",
            help="run a deterministic fault-injection campaign"))))))
    inject.add_argument("--core", default="ooo", choices=sorted(CORES))
    inject.add_argument("--tiles", type=int, default=1)
    inject.add_argument("--hierarchy", default="dae",
                        choices=sorted(HIERARCHIES))
    inject.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed = same faults)")
    inject.add_argument("--bitflip-rate", type=float, default=0.0,
                        help="probability a functional load is bit-flipped")
    inject.add_argument("--drop-rate", type=float, default=0.0,
                        help="probability a fabric message is dropped")
    inject.add_argument("--delay-rate", type=float, default=0.0,
                        help="probability a fabric message is delayed")
    inject.add_argument("--dram-stall-rate", type=float, default=0.0,
                        help="probability a DRAM response stalls")
    inject.add_argument("--accel-fault-rate", type=float, default=0.0,
                        help="probability an accelerator invocation faults")
    inject.set_defaults(func=cmd_inject)

    campaign = with_registry(with_workload(
        commands.add_parser(
            "campaign",
            help="SDC characterization: stratified fault trials "
                 "classified against a golden-output oracle")))
    campaign.add_argument("--core", default="ooo", choices=sorted(CORES))
    campaign.add_argument("--tiles", type=int, default=1)
    campaign.add_argument("--hierarchy", default="dae",
                          choices=sorted(HIERARCHIES))
    campaign.add_argument("--trials", type=int, default=24, metavar="N",
                          help="faulted trials to run (default 24); "
                               "trial i targets site sites[i %% len] "
                               "with its own deterministic seed")
    campaign.add_argument("--seed", type=int, default=0,
                          help="campaign base seed (same seed = same "
                               "per-trial plans = same outcomes)")
    campaign.add_argument("--sites", metavar="S1,S2",
                          help="fault sites to stratify over (subset of "
                               "mem,msg,dram,accel; default: the sites "
                               "this workload can exercise)")
    campaign.add_argument("--bitflip-rate", type=float, default=0.01,
                          help="mem site: probability a functional load "
                               "is bit-flipped (default 0.01)")
    campaign.add_argument("--drop-rate", type=float, default=0.01,
                          help="msg site: message drop probability")
    campaign.add_argument("--delay-rate", type=float, default=0.05,
                          help="msg site: message delay probability")
    campaign.add_argument("--dram-stall-rate", type=float, default=0.05,
                          help="dram site: response stall probability")
    campaign.add_argument("--accel-fault-rate", type=float, default=0.05,
                          help="accel site: invocation fault probability")
    campaign.add_argument("--max-cycles", type=int, default=None,
                          help="per-trial cycle budget (default: 64x "
                               "the golden run, so live-locked trials "
                               "classify as hang)")
    campaign.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-trial wall-clock watchdog limit")
    campaign.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for trials (1 = "
                               "serial; results are bit-identical)")
    campaign.add_argument("--journal", metavar="FILE",
                          help="journal completed trials to a JSONL "
                               "file (crash-recoverable)")
    campaign.add_argument("--resume-campaign", action="store_true",
                          dest="resume_campaign",
                          help="skip trials already recorded in "
                               "--journal and restore their outcomes "
                               "bit-identically")
    campaign.add_argument("--sdc-threshold", type=float, default=None,
                          metavar="P",
                          help="exit 2 when the SDC rate's Wilson upper "
                               "bound exceeds P")
    campaign.add_argument("--ci-target", type=float, default=None,
                          metavar="W",
                          help="stop early once the SDC-rate CI is "
                               "narrower than W")
    campaign.add_argument("--json", metavar="FILE",
                          help="write the campaign report block as JSON")
    campaign.set_defaults(func=cmd_campaign)

    dump = commands.add_parser(
        "dump-config", help="write a system preset as editable JSON files")
    dump.add_argument("--core", default="ooo", choices=sorted(CORES))
    dump.add_argument("--hierarchy", default="dae",
                      choices=[h for h in sorted(HIERARCHIES)
                               if h != "none"])
    dump.add_argument("--prefix", default="system",
                      help="writes PREFIX.core.json / PREFIX.mem.json")
    dump.set_defaults(func=cmd_dump_config)

    characterize = commands.add_parser(
        "characterize", help="Figure 6-style IPC characterization")
    characterize.add_argument("workloads", nargs="*")
    characterize.set_defaults(func=cmd_characterize)

    dae = with_workload(commands.add_parser(
        "dae", help="DAE-slice a workload and simulate pairs"))
    dae.add_argument("--pairs", type=int, default=1)
    dae.set_defaults(func=cmd_dae)

    trace = with_workload(commands.add_parser(
        "trace", help="generate and save dynamic traces"))
    trace.add_argument("--tiles", type=int, default=1)
    trace.add_argument("-o", "--output", required=True)
    trace.set_defaults(func=cmd_trace)

    timeline = commands.add_parser(
        "timeline", help="render a saved cycle trace as an ASCII timeline")
    timeline.add_argument("trace", help="Chrome trace_event JSON from "
                                        "simulate --trace")
    timeline.add_argument("--width", type=int, default=72,
                          help="timeline width in characters")
    timeline.add_argument("--tile", metavar="NAME",
                          help="show only the lane named NAME "
                               "(a tile/subsystem label)")
    timeline.add_argument("--name-prefix", metavar="PREFIX",
                          dest="name_prefix",
                          help="show only events whose name starts with "
                               "PREFIX (e.g. 'dbb', 'msg')")
    timeline.add_argument("--limit", type=int, metavar="N",
                          help="render at most the first N matching events")
    timeline.set_defaults(func=cmd_timeline)

    analyze = commands.add_parser(
        "analyze", help="render per-tile CPI stacks and bottleneck "
                        "diagnosis from a run or a saved report")
    analyze.add_argument("workload", nargs="?",
                         help="workload to run with cycle attribution "
                              "(omit when using --report)")
    analyze.add_argument("--size", action="append", metavar="KEY=VAL",
                         help="dataset size override (repeatable)")
    analyze.add_argument("--report", metavar="FILE",
                         help="analyze a saved report JSON (schema v2, "
                              "from simulate/analyze --json) instead of "
                              "running")
    analyze.add_argument("--core", default="ooo", choices=sorted(CORES))
    analyze.add_argument("--tiles", type=int, default=1)
    analyze.add_argument("--hierarchy", default="dae",
                         choices=sorted(HIERARCHIES))
    analyze.add_argument("--dae", action="store_true",
                         help="DAE-slice the workload and attribute the "
                              "access/execute pair cycles")
    analyze.add_argument("--pairs", type=int, default=1,
                         help="DAE pairs when --dae is given")
    analyze.add_argument("--max-cycles", type=int,
                         default=DEFAULT_MAX_CYCLES)
    analyze.add_argument("--json", metavar="FILE",
                         help="also write the report JSON (diff-able)")
    analyze.add_argument("--top", type=int, default=3,
                         help="bottleneck categories to rank")
    analyze.add_argument("--memory", action="store_true",
                         help="also render the data-movement observatory "
                              "(attaches a MemStat when running a "
                              "workload; saved reports need a schema-v3 "
                              "memory block)")
    with_sweep(analyze)
    with_checkpoint(analyze)
    analyze.set_defaults(func=cmd_analyze)

    diff = commands.add_parser(
        "diff", help="attribute the cycle delta between two report JSONs "
                     "to the categories that moved")
    diff.add_argument("before", help="baseline report JSON (A)")
    diff.add_argument("after", help="comparison report JSON (B)")
    diff.add_argument("--top", type=int, default=5,
                      help="regressed categories to rank")
    diff.add_argument("--memory", action="store_true",
                      help="also render miss-classification and DRAM "
                           "locality deltas (both reports need memory "
                           "blocks)")
    diff.set_defaults(func=cmd_diff)

    memstat = commands.add_parser(
        "memstat", help="render the data-movement observatory (miss "
                        "classes, reuse distance, bank/link locality) "
                        "from a run or a saved report")
    memstat.add_argument("workload", nargs="?",
                         help="workload to run with the observatory "
                              "attached (omit when using --report)")
    memstat.add_argument("--size", action="append", metavar="KEY=VAL",
                         help="dataset size override (repeatable)")
    memstat.add_argument("--report", metavar="FILE",
                         help="render a saved report JSON carrying a "
                              "schema-v3 memory block instead of running")
    memstat.add_argument("--core", default="ooo", choices=sorted(CORES))
    memstat.add_argument("--tiles", type=int, default=1)
    memstat.add_argument("--hierarchy", default="dae",
                         choices=sorted(HIERARCHIES))
    memstat.add_argument("--core-config", metavar="FILE",
                         dest="core_config",
                         help="load the core from a JSON config file "
                              "(overrides --core)")
    memstat.add_argument("--hierarchy-config", metavar="FILE",
                         dest="hierarchy_config",
                         help="load the memory hierarchy from a JSON "
                              "config file (overrides --hierarchy) — "
                              "e.g. a shrunk L1 for a conflict study")
    memstat.add_argument("--dae", action="store_true",
                         help="DAE-slice the workload and observe the "
                              "access/execute pair's data movement")
    memstat.add_argument("--pairs", type=int, default=1,
                         help="DAE pairs when --dae is given")
    memstat.add_argument("--max-cycles", type=int,
                         default=DEFAULT_MAX_CYCLES)
    memstat.add_argument("--sample-every", type=int, default=8,
                         metavar="N", dest="sample_every",
                         help="reuse-distance sampling stride (every Nth "
                              "access pays the stack scan; default 8)")
    memstat.add_argument("--epoch-cycles", type=int, default=1024,
                         metavar="N", dest="epoch_cycles",
                         help="link-utilization epoch width in cycles "
                              "(default 1024)")
    memstat.add_argument("--width", type=int, default=48,
                         help="heatmap/sparkline width in characters")
    memstat.add_argument("--json", metavar="FILE",
                         help="also write the report JSON (diff-able, "
                              "carries attribution + memory blocks)")
    memstat.set_defaults(func=cmd_memstat)

    watch = commands.add_parser(
        "watch", help="live terminal dashboard for a running sweep "
                      "(per-point progress, ETA, straggler diagnosis)")
    watch.add_argument("journal", help="the sweep's --journal FILE")
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="seconds between dashboard refreshes")
    watch.add_argument("--stall-after", type=float, default=10.0,
                       metavar="SECONDS", dest="stall_after",
                       help="flag a point as STALLED (and print its "
                            "per-tile stall diagnosis) after this many "
                            "seconds without a heartbeat")
    watch.add_argument("--once", action="store_true",
                       help="render one frame and exit (CI-friendly)")
    watch.set_defaults(func=cmd_watch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .sim.configfile import ConfigFileError
    args = build_parser().parse_args(argv)
    if args.quiet:
        set_status_level(QUIET)
    elif args.verbose:
        set_status_level(VERBOSE)
    else:
        # explicit reset: main() may be invoked repeatedly in-process
        # (tests, notebooks) and the level is a module-global
        set_status_level(NORMAL)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except SimulationInterrupted as exc:
        # graceful SIGINT/SIGTERM: a final checkpoint was flushed (when a
        # sink was armed) and the message carries the resume hint
        print(f"interrupted: {exc}", file=sys.stderr)
        return 128 + exc.signum
    except DeadlockError as exc:
        print(f"deadlock: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        if getattr(exc, "checkpoint_path", None):
            print(f"resume with --resume {exc.checkpoint_path}",
                  file=sys.stderr)
        return 2
    except (ConfigError, ConfigFileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface tool errors cleanly, not as
        raise SystemExit(f"error: {exc}")  # tracebacks


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
