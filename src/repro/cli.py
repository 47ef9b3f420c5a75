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
``docs/observability.md``); ``--run-id ID`` stamps every artifact the run
writes (trace, reports, checkpoints, heartbeats), and a ``--resume`` keeps
the snapshot's id.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence

from .frontend import compile_kernel
from .harness import (
    DEFAULT_MAX_CYCLES, NORMAL, QUIET, STATUS, VERBOSE, accel_kinds,
    build_dae, build_system, classify_failure, dae_hierarchy,
    default_farm, graceful_interrupts, inorder_core, ooo_core, prepare,
    prepare_dae_sliced, render_table, run_supervised, set_status_level,
    simulate, simulate_dae, watch_loop, xeon_core, xeon_hierarchy,
)
from .ir import format_function
from .resilience import FaultPlan, fault_summary
from .sim.config import ConfigError
from .sim.errors import DeadlockError, SimulationError, SimulationInterrupted
from .trace import save_traces
from .workloads import PARBOIL
from .workloads.graphproj import build as _build_graphproj
from .workloads.sinkhorn import build_combined as _build_combined
from .workloads.sinkhorn import build_ewsd as _build_ewsd

CORES = {"ino": inorder_core, "ooo": ooo_core, "xeon": xeon_core}
HIERARCHIES = {"dae": dae_hierarchy, "xeon": xeon_hierarchy,
               "none": lambda: None}

WORKLOADS = {
    **PARBOIL,
    "graph-projection": _build_graphproj,
    "ewsd": _build_ewsd,
    "sinkhorn-combined": _build_combined,
    # SGEMM offloaded to an accelerator tile + an SPMD barrier: exercises
    # core, cache/DRAM, fabric and accelerator subsystems in one trace
    "sinkhorn-accel": partial(_build_combined, accelerated=True),
}


def _build(name: str, size_args: Sequence[str]):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; try: "
                         f"{', '.join(sorted(WORKLOADS))}")
    kwargs = {}
    for item in size_args or ():
        key, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"--size arguments look like key=value, "
                             f"got {item!r}")
        kwargs[key] = int(value)
    return WORKLOADS[name](**kwargs)


def _fail(message: str, checkpoint_path: Optional[str] = None) -> int:
    """Report a usage error or a failed run on stderr, with the snapshot
    to resume from when there is one; returns exit code 2."""
    print(message, file=sys.stderr)
    if checkpoint_path:
        print(f"resume with --resume {checkpoint_path}", file=sys.stderr)
    return 2


# -- the run path (simulate/inject/analyze/memstat, fresh or --resume) --------

def _system(args):
    """The core and memory hierarchy the flags pick: a JSON config file
    (``--core-config``/``--hierarchy-config``, on the commands that take
    them) or a preset (argparse ``choices`` guard the preset names)."""
    from .sim.configfile import load_core_config, load_hierarchy_config
    core_config = getattr(args, "core_config", None)
    hierarchy_config = getattr(args, "hierarchy_config", None)
    return ((load_core_config(core_config) if core_config
             else CORES[args.core]()),
            (load_hierarchy_config(hierarchy_config) if hierarchy_config
             else HIERARCHIES[args.hierarchy]()))


def _observers(args, run_id=None, source=None) -> dict:
    """The :class:`Interleaver` observers the flags ask for, keyed by
    their keyword; a flag the command does not define counts as off.
    ``run_id`` stamps checkpoints and, beside ``source``, heartbeats."""
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
            source=dict(source, run_id=run_id) if run_id else source)
    return observers


def _restore(args):
    """Load the ``--resume`` snapshot and apply the budget overrides.
    Observers that record the run itself cannot join it mid-flight, so
    their flags are refused here, before anything is recorded."""
    from .checkpoint import load_checkpoint
    restored = load_checkpoint(args.resume)
    interleaver = restored.interleaver
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
    return restored


@dataclass
class _Run:
    """One workload run of the CLI: what the run path produced and the
    output tail writes and prints."""

    args: argparse.Namespace
    run_id: Optional[str] = None
    observers: dict = field(default_factory=dict)
    #: the Interleaver that ran: built here, or restored by --resume
    system: object = None
    stats: object = None
    status: str = "ok"
    #: the supervisor's record, for runs under run_supervised
    outcome: object = None


@contextlib.contextmanager
def _running(args, workload: str):
    """Open one run of ``workload``: restore ``--resume``, resolve the
    run id (``--run-id``, else the id the resumed snapshot was stamped
    with, so a crash/resume lineage stays joinable; None stamps nothing)
    and attach the flags' observers. Every exit, success or failure,
    then goes through :func:`_output_tail`."""
    run = _Run(args)
    restored = _restore(args) if getattr(args, "resume", None) else None
    run.run_id = getattr(args, "run_id", None) or \
        (restored and restored.run_id)
    run.observers = _observers(
        args, run_id=run.run_id,
        source={"resumed": args.resume} if restored else
        {"workload": workload})
    if restored is not None:
        # the checkpoint sink and heartbeat emitter attach on resume,
        # the profiler samples the resumed part only, and --trace
        # writes the tracer the snapshot carried
        run.system = restored.interleaver
        for name in ("checkpoint", "emitter"):
            if name in run.observers:
                setattr(run.system, name, run.observers[name])
        run.system.profiler = run.observers.get("profiler")
        run.observers["tracer"] = run.system.tracer
        STATUS.info(f"resuming {args.resume} from cycle {restored.cycle}")
    try:
        yield run
    except BaseException as exc:
        run.status = classify_failure(exc)
        raise
    finally:
        _output_tail(run)


def _run(run: _Run, workload=None, core=None, hierarchy=None, *,
         plan=None, fresh=None):
    """The one run path. Runs the restored ``--resume`` snapshot, or
    builds ``workload`` on ``core``/``hierarchy`` (:func:`build_dae`
    under ``--dae``, else :func:`build_system`), armed for graceful
    SIGINT/SIGTERM. ``--retries`` or a fault ``plan`` run under
    :func:`run_supervised`, which prepares the workload, builds its
    farms and arms the signals itself; ``fresh`` rebuilds the workload
    for its retries. Returns the stats, None when a supervised run
    failed (``run.status`` says how)."""
    args, system = run.args, run.system
    options = dict(hierarchy=hierarchy, max_cycles=args.max_cycles,
                   wall_clock_limit=getattr(args, "timeout", None),
                   **run.observers)
    retries = getattr(args, "retries", 0)
    if system is None and getattr(args, "dae", False):
        specs = prepare_dae_sliced(workload.kernel, workload.args,
                                   pairs=args.pairs)
        system = build_dae(specs, access_core=inorder_core(),
                           execute_core=inorder_core(), **options)
    elif system is None:
        options.update(core=core, num_tiles=args.tiles)
        if retries or plan is not None:
            run.outcome = run_supervised(
                workload.kernel, workload.args, memory=workload.memory,
                plan=plan, retries=retries, fresh=fresh, **options)
            run.status = run.outcome.status
            run.stats = run.outcome.stats if run.outcome.ok else None
            return run.stats
        # compile and trace once; the farm comes from that same function
        prepared = prepare(workload.kernel, workload.args,
                           num_tiles=args.tiles, memory=workload.memory)
        system = build_system(workload.kernel, workload.args,
                              prepared=prepared,
                              accelerators=default_farm(prepared.function),
                              **options)
    run.system = system
    with graceful_interrupts(system):
        run.stats = system.run()
    return run.stats


def _output_tail(run: _Run) -> None:
    """The end of every run, success or failure: write the report files
    of a successful run, then print the heartbeat status line and the
    profile."""
    from .telemetry import write_stats_json
    args, stats = run.args, run.stats
    if run.status == "ok" and stats is not None:
        if getattr(args, "trace", None):
            tracer = run.observers["tracer"]
            count = tracer.write(args.trace,
                                 frequency_ghz=stats.frequency_ghz,
                                 run_id=run.run_id)
            dropped = f" ({tracer.dropped} dropped)" if tracer.dropped \
                else ""
            STATUS.info(f"trace: {count} event(s){dropped} -> {args.trace}")
        for flag, kind in (("metrics", "metrics"), ("stats_json", "stats"),
                           ("json", "report")):
            path = getattr(args, flag, None)
            if path:
                write_stats_json(stats, path, run_id=run.run_id)
                STATUS.info(f"{kind}: -> {path}")
    emitter = run.observers.get("emitter")
    if emitter is not None:
        if emitter.errors:
            STATUS.warn(f"heartbeat: {emitter.errors} write error(s) on "
                        f"{args.heartbeat}")
        else:
            STATUS.info(f"heartbeat: {emitter.seq} snapshot(s) "
                        f"-> {args.heartbeat}")
    profiler = run.observers.get("profiler")
    if profiler is not None and profiler.report is not None:
        print(profiler.report.summary())


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


def _run_core_sweep(args, core, hierarchy, plan=None):
    """Shared ``--sweep`` path: run the cross product of the grid as a
    design-space sweep (on a worker pool when ``--jobs > 1``) and render
    the point table. ``plan`` (inject) runs every point under the fault
    plan; a ``seed=...`` sweep axis fans the plan out over seeds. The
    sweep raises ``ValueError`` for a plan that flips loads."""
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
            wall_clock_limit=getattr(args, "timeout", None), jobs=args.jobs,
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
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    print("cores:", ", ".join(sorted(CORES)))
    print("hierarchies:", ", ".join(sorted(HIERARCHIES)))
    return 0


def cmd_ir(args) -> int:
    workload = _build(args.workload, args.size)
    print(format_function(compile_kernel(workload.kernel)))
    return 0


def cmd_simulate(args) -> int:
    core, hierarchy = _system(args)
    if args.sweep:
        single = ("trace", "metrics", "stats_json", "profile", "retries",
                  "checkpoint", "resume", "heartbeat", "run_id",
                  "memstat")
        if any(getattr(args, name) for name in single):
            return _fail("--sweep is incompatible with " + "/".join(
                "--" + name.replace("_", "-") for name in single))
        if args.heartbeat_every is not None and not args.journal:
            return _fail("--heartbeat-every with --sweep needs --journal FILE "
                         "(sweep heartbeats stream beside the journal)")
        result = _run_core_sweep(args, core, hierarchy)
        return 0 if any(p.ok for p in result.points) else 2
    if args.resume and args.retries:
        return _fail("--resume is incompatible with --retries")
    # a resumed workload already ran functionally before the original
    # run's snapshot, so it is neither rebuilt nor verified
    workload = None if args.resume else _build(args.workload, args.size)
    with _running(args, workload.name if workload else args.workload) as run:
        stats = _run(run, workload, core, hierarchy)
        if stats is None:
            outcome = run.outcome
            return _fail(f"run failed: {outcome.status} after "
                         f"{outcome.attempts} attempt(s): {outcome.error}",
                         outcome.checkpoint_path)
        if workload is None:
            print(f"workload: {args.workload} (resumed)")
        else:
            workload.verify()
            print(f"workload: {workload.name}  system: {args.tiles}x "
                  f"{core.name} / {args.hierarchy_config or args.hierarchy}")
        print(stats.summary())
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
    from .harness import render_timeline
    from .telemetry import validate_chrome_trace
    document, error = _load_json(args.trace, "trace", validate_chrome_trace)
    if error:
        return _fail(error)

    def events(document):
        return sum(1 for e in document["traceEvents"] if e.get("ph") != "M")

    title = f"{args.trace}: {events(document)} event(s)"
    if args.tile or args.name_prefix or args.limit is not None:
        document = _filter_trace_events(
            document, args.tile, args.name_prefix, args.limit)
        title += f", {events(document)} after filters"
    print(render_timeline(document, width=args.width, title=title))
    return 0


def _load_json(path: str, kind: str, validate):
    """Load a saved ``kind`` JSON (a report or a trace) and check it with
    ``validate``; returns (document, error)."""
    import json
    try:
        with open(path) as handle:
            document = json.load(handle)
        validate(document)
    except OSError as exc:
        return None, f"cannot read {kind}: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"not a JSON {kind}: {exc}"
    except ValueError as exc:
        return None, f"invalid {kind}: {exc}"
    return document, None


def _load_report(path: str, attribution: bool = True):
    """Load + validate a saved report JSON; returns (document, error).
    ``attribution=False`` also accepts a plain ``--stats-json`` report."""
    from .telemetry import validate_report
    return _load_json(path, "report",
                      partial(validate_report, attribution=attribution))


def _saved_report(args, command: str, attribution: bool = True):
    """analyze and memstat run a workload (or finish a ``--resume``
    snapshot) or read a saved ``--report``: returns ``(document,
    error)``, both None when a run is due."""
    resume = getattr(args, "resume", None)
    if args.report and resume:
        return None, f"{command} takes --resume or --report, not both"
    if args.report and args.workload:
        return None, f"{command} takes a workload or --report FILE, not both"
    if args.report:
        return _load_report(args.report, attribution)
    if not (args.workload or resume):
        return None, f"{command} needs a workload or --report FILE"
    return None, None


def _attributed_report(args, core=None, hierarchy=None, memstat=None):
    """The run path of analyze and memstat: run ``--workload`` (DAE-
    sliced under ``--dae``) with cycle attribution, ``memstat`` and the
    flags' observers, or finish a ``--resume`` snapshot, and self-check
    the report. Returns the report dict, or None when a resumed run has
    no analyzable report.

    Attribution always rides along so the report passes full
    :func:`validate_report` (which requires the attribution block) and
    stays diff-able across the two commands."""
    from .telemetry import Attributor, stats_to_dict, validate_report
    resume = getattr(args, "resume", None)
    workload = None if resume else _build(args.workload, args.size)
    with _running(args, args.workload) as run:
        if workload is not None:
            run.observers["attribution"] = Attributor()
            if memstat is not None:
                run.observers["memstat"] = memstat
        document = stats_to_dict(_run(run, workload, core, hierarchy))
        try:
            validate_report(document)  # self-check incl. memory conservation
        except ValueError as exc:
            if workload is not None:
                raise
            # attribution must have been attached to the original
            # (checkpointed) run; the restored ledgers finish seamlessly
            print(f"resumed run has no analyzable report ({exc}); "
                  f"checkpoint a run started with attribution (e.g. "
                  f"analyze <workload> --checkpoint ...)", file=sys.stderr)
            run.status = "error"
            return None
    return document


def cmd_analyze(args) -> int:
    """Render per-tile CPI stacks + bottleneck diagnosis. Reads a saved
    report (``--report``) or runs the workload with cycle attribution
    enabled. Exit codes: 0 rendered, 2 invalid input."""
    from .harness import render_attribution_report, render_memstat_report
    from .telemetry import MemStat
    document, error = _saved_report(args, "analyze")
    if error:
        return _fail(error)
    core, hierarchy = _system(args)
    if document is None and args.sweep and not args.resume:
        if args.dae:
            return _fail("analyze --sweep does not combine with --dae")
        result = _run_core_sweep(args, core, hierarchy)
        if not any(p.ok for p in result.points):
            return _fail("no successful sweep point to analyze")
        best = result.best("cycles")
        core = replace(core, **best.parameters)
        STATUS.info(f"analyzing best point: {best.parameters}")
    if document is None:
        document = _attributed_report(args, core, hierarchy,
                                      MemStat() if args.memory else None)
        if document is None:
            return 2
    source = (f"{args.resume} (resumed)" if args.resume
              else args.report or args.workload)
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
        return _fail(f"{args.before}: {error}")
    after, error = _load_report(args.after, attribution=False)
    if error:
        return _fail(f"{args.after}: {error}")
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
    from .harness import render_memstat_report
    from .telemetry import MemStat
    # lenient on purpose: the observatory view needs the memory block,
    # not the attribution block, so reports from `simulate --memstat
    # --stats-json` render too
    document, error = _saved_report(args, "memstat", attribution=False)
    if error:
        return _fail(error)
    if document is None:
        document = _attributed_report(
            args, *_system(args),
            MemStat(sample_every=args.sample_every,
                    epoch_cycles=args.epoch_cycles))
    elif not document.get("memory"):
        return _fail(f"{args.report} carries no memory block (schema v3); "
                     f"produce one with `repro memstat <workload> --json "
                     f"FILE` or `simulate --memstat --stats-json FILE`")
    print(f"memstat {args.report or args.workload}:")
    print(render_memstat_report(document, width=args.width))
    return 0


#: the fault-rate flags of inject and campaign: flag, FaultPlan field,
#: the campaign site it faults, and what it is the probability of
FAULT_RATES = (
    ("--bitflip-rate", "bitflip_load_rate", "mem",
     "a functional load is bit-flipped"),
    ("--drop-rate", "message_drop_rate", "msg",
     "a fabric message is dropped"),
    ("--delay-rate", "message_delay_rate", "msg",
     "a fabric message is delayed"),
    ("--dram-stall-rate", "dram_stall_rate", "dram",
     "a DRAM response stalls"),
    ("--accel-fault-rate", "accel_fault_rate", "accel",
     "an accelerator invocation faults"),
)


def _fault_plan(args) -> FaultPlan:
    """The FaultPlan of inject's and campaign's ``--seed`` and rate
    flags (not yet validated)."""
    return FaultPlan(seed=args.seed, **{
        field_name: getattr(args, flag[2:].replace("-", "_"))
        for flag, field_name, _, _ in FAULT_RATES})


def cmd_inject(args) -> int:
    """Fault-injection campaign: run a workload under a deterministic
    FaultPlan, under supervision, and report faults + outcome."""
    if args.resume:
        from .checkpoint import find_injector
        # the restored graph carries the fault injector (and its RNG
        # streams) mid-campaign; plan flags on the command line are
        # ignored on resume
        with _running(args, args.workload) as run:
            stats = _run(run)
            injector = find_injector(run.system)
            faults = len(injector.log) if injector is not None else 0
            print(f"workload: {args.workload} (resumed)  "
                  f"faults injected: {faults}")
            print(stats.summary())
        return 0
    plan = _fault_plan(args)
    plan.validate()
    if args.sweep:
        try:
            result = _run_core_sweep(args, *_system(args), plan=plan)
        except ValueError as exc:  # a plan a sweep cannot run
            return _fail(f"error: {exc}")
        return 0 if any(p.ok for p in result.points) else 2

    def fresh():
        w = _build(args.workload, args.size)
        return w.kernel, w.args, w.memory

    workload = _build(args.workload, args.size)
    with _running(args, workload.name) as run:
        _run(run, workload, *_system(args), plan=plan, fresh=fresh)
        outcome = run.outcome
        print(f"workload: {workload.name}  plan: seed={plan.seed} "
              + " ".join(f"{flag[2:].removesuffix('-rate')}="
                         f"{getattr(plan, name)}"
                         for flag, name, _, _ in FAULT_RATES))
        print(f"outcome: {outcome.status}  attempts: {outcome.attempts}  "
              f"wall: {outcome.wall_seconds:.2f}s  "
              f"faults injected: {len(outcome.fault_log)}")
        for key, count in sorted(fault_summary(outcome.fault_log).items()):
            print(f"  {key}: {count}")
        if outcome.ok:
            print(outcome.stats.summary())
            return 0
        return _fail(f"error: {outcome.error}", outcome.checkpoint_path)


def _replay_command(args, plan, site: str, seed: int) -> str:
    """The exact ``repro inject`` invocation that reproduces one SDC
    trial's corruption (same stratified plan, same seed)."""
    parts = [f"repro inject {args.workload}"]
    for item in args.size or ():
        parts.append(f"--size {item}")
    parts.append(f"--core {args.core} --tiles {args.tiles} "
                 f"--hierarchy {args.hierarchy} --seed {seed}")
    for flag, field_name, flag_site, _ in FAULT_RATES:
        rate = getattr(plan, field_name)
        if flag_site == site and rate > 0.0:
            parts.append(f"{flag} {rate}")
    return " ".join(parts)


def cmd_campaign(args) -> int:
    """SDC characterization: N stratified fault trials classified
    against a golden-output oracle (masked/sdc/detected/hang)."""
    from .harness import render_campaign_report
    from .resilience import (
        CampaignError, run_campaign, validate_campaign_report,
    )
    from .resilience.campaign import site_rate
    plan = _fault_plan(args)
    try:
        plan.validate()
    except ValueError as exc:
        return _fail(f"error: {exc}")
    workload = _build(args.workload, args.size)
    func = compile_kernel(workload.kernel)
    if args.sites:
        sites = [s.strip() for s in args.sites.split(",") if s.strip()]
    else:
        # default stratification: the sites this workload can exercise —
        # fabric faults need >1 tile, accelerator faults need a farm
        sites = ["mem", "dram"]
        if args.tiles > 1:
            sites.insert(1, "msg")
        if accel_kinds(func):
            sites.append("accel")
        sites = [s for s in sites if site_rate(plan, s) > 0.0]
    core, hierarchy = _system(args)
    try:
        result = run_campaign(
            func, workload.args, plan=plan,
            trials=args.trials, memory=workload.memory,
            sites=sites or None, core=core, num_tiles=args.tiles,
            hierarchy=hierarchy, max_cycles=args.max_cycles,
            wall_clock_limit=args.timeout, jobs=args.jobs,
            journal_path=args.journal,
            resume=args.resume_campaign,
            sdc_ci_target=args.ci_target,
            workload_name=workload.name)
    except (CampaignError, ValueError) as exc:
        return _fail(f"error: {exc}")
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
    sdc_upper = report["sdc"]["ci"][1]
    if args.sdc_threshold is not None and sdc_upper > args.sdc_threshold:
        return _fail(f"SDC gate: upper bound {sdc_upper:.3f} exceeds "
                     f"threshold {args.sdc_threshold}")
    return 0


def cmd_dump_config(args) -> int:
    from .sim.configfile import save_core_config, save_hierarchy_config
    core_path = f"{args.prefix}.core.json"
    mem_path = f"{args.prefix}.mem.json"
    core, hierarchy = _system(args)
    save_core_config(core, core_path)
    save_hierarchy_config(hierarchy, mem_path)
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

    def with_workload(sub, **workload):
        sub.add_argument("workload", **workload)
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
                              "inject also accepts seed=S1,S2 to fan a "
                              "timing-only fault plan (no --bitflip-rate) "
                              "out over seeds")
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

    def with_run_id(sub):
        sub.add_argument("--run-id", dest="run_id", metavar="ID",
                         help="stamp this run id into every artifact the "
                              "run writes (trace, reports, checkpoints, "
                              "heartbeats)")
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

    def with_system(sub, configs=False):
        sub.add_argument("--core", default="ooo", choices=sorted(CORES))
        sub.add_argument("--tiles", type=int, default=1)
        sub.add_argument("--hierarchy", default="dae",
                         choices=sorted(HIERARCHIES))
        if configs:
            sub.add_argument("--core-config", metavar="FILE",
                             help="load the core from a JSON config file "
                                  "(overrides --core)")
            sub.add_argument("--hierarchy-config", metavar="FILE",
                             help="load the memory hierarchy from a JSON "
                                  "config file (overrides --hierarchy) — "
                                  "e.g. a shrunk L1 for a conflict study")
        return sub

    def with_fault_plan(sub, defaults):
        sub.add_argument("--seed", type=int, default=0,
                         help="fault-plan seed (same seed = same faults)")
        for (flag, _, site, what), default in zip(FAULT_RATES, defaults):
            sub.add_argument(flag, type=float, default=default,
                             help=f"{site} site: probability {what} "
                                  f"(default {default})")
        return sub

    sim = with_system(with_run_id(with_checkpoint(with_sweep(
        with_supervision(with_workload(commands.add_parser(
            "simulate", help="simulate a workload on a system "
                             "preset")))))), configs=True)
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

    inject = with_fault_plan(with_system(with_run_id(with_checkpoint(
        with_sweep(with_supervision(with_workload(commands.add_parser(
            "inject",
            help="run a deterministic fault-injection campaign"))))))),
        (0.0,) * len(FAULT_RATES))
    inject.set_defaults(func=cmd_inject)

    campaign = with_fault_plan(with_system(with_workload(
        commands.add_parser(
            "campaign",
            help="SDC characterization: stratified fault trials "
                 "classified against a golden-output oracle"))),
        (0.01, 0.01, 0.05, 0.05, 0.05))
    campaign.add_argument("--trials", type=int, default=24, metavar="N",
                          help="faulted trials to run (default 24); "
                               "trial i targets site sites[i %% len] "
                               "with its own deterministic seed")
    campaign.add_argument("--sites", metavar="S1,S2",
                          help="fault sites to stratify over (subset of "
                               "mem,msg,dram,accel; default: the sites "
                               "this workload can exercise)")
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

    def with_report(sub, runs_with, saved, configs=False):
        """The workload-or---report block of analyze and memstat."""
        with_workload(sub, nargs="?", help=f"workload to run with "
                      f"{runs_with} (omit when using --report)")
        sub.add_argument("--report", metavar="FILE",
                         help=f"render a saved report JSON ({saved}) "
                              f"instead of running")
        sub.add_argument("--dae", action="store_true",
                         help="DAE-slice the workload and observe the "
                              "access/execute pair")
        sub.add_argument("--pairs", type=int, default=1,
                         help="DAE pairs when --dae is given")
        sub.add_argument("--max-cycles", type=int,
                         default=DEFAULT_MAX_CYCLES)
        sub.add_argument("--json", metavar="FILE",
                         help="also write the report JSON (diff-able, "
                              "carries the attribution block)")
        return with_system(sub, configs)

    analyze = with_checkpoint(with_sweep(with_report(commands.add_parser(
        "analyze", help="render per-tile CPI stacks and bottleneck "
                        "diagnosis from a run or a saved report"),
        "cycle attribution", "schema v2, from simulate/analyze --json")))
    analyze.add_argument("--top", type=int, default=3,
                         help="bottleneck categories to rank")
    analyze.add_argument("--memory", action="store_true",
                         help="also render the data-movement observatory "
                              "(attaches a MemStat when running a "
                              "workload; saved reports need a schema-v3 "
                              "memory block)")
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

    memstat = with_report(commands.add_parser(
        "memstat", help="render the data-movement observatory (miss "
                        "classes, reuse distance, bank/link locality) "
                        "from a run or a saved report"),
        "the observatory attached", "carrying a schema-v3 memory block",
        configs=True)
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
    except SimulationInterrupted as exc:
        # graceful SIGINT/SIGTERM: a final checkpoint was flushed (when a
        # sink was armed) and the message carries the resume hint
        print(f"interrupted: {exc}", file=sys.stderr)
        return 128 + exc.signum
    except DeadlockError as exc:
        return _fail(f"deadlock: {exc}")
    except SimulationError as exc:
        return _fail(f"simulation error: {exc}",
                     getattr(exc, "checkpoint_path", None))
    except (ConfigError, ConfigFileError) as exc:
        return _fail(f"configuration error: {exc}")
    except OSError as exc:
        return _fail(f"error: {exc}")
    except Exception as exc:  # surface tool errors cleanly, not as
        raise SystemExit(f"error: {exc}")  # tracebacks


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
