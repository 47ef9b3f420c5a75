"""Design-space sweep utilities.

The paper's pitch is agile design-space exploration: "MosaicSim allows
the exploration of many combinations and configurations through its
lightweight plug-and-play interface" (§VII-B). These helpers run one
prepared workload across a grid of core/memory configurations and return
tidy result tables, reusing traces so each configuration costs only a
timing-simulation pass.

Sweeps degrade gracefully: a configuration that deadlocks, blows its
cycle budget, or fails validation is recorded as a non-``ok`` point and
the sweep continues, so one bad corner of the design space never costs
the whole exploration.

Sweeps are embarrassingly parallel — every point re-times the same
prepared traces under an independent system — so each sweep entry point
takes ``jobs``: with ``jobs > 1`` the points run on a process pool. The
:class:`Prepared` workload is shipped to each worker exactly once
(pickled + zlib, via the pool initializer), a point is a pure-data spec
the worker can rebuild the system from, and failures inside a worker
land in the same non-``ok`` SweepPoint records as serial sweeps. Point
order — and therefore every stat — is identical to a serial run (see
docs/performance.md).

Sweeps are also crash-recoverable (see ``docs/resilience.md``): with
``journal_path`` every completed point is appended to a JSONL journal
(its index, a parameter fingerprint, the outcome, a digest of the
canonical report, and the pickled stats), and ``resume=True`` skips
journaled points on a re-run, reconstructing them bit-identically. A
worker that dies *hard* — SIGKILL, OOM — no longer hangs the sweep: the
broken pool is detected, unfinished points are retried on a fresh pool
with backoff, and a point whose retries are exhausted is recorded as
``outcome="worker_died"``.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import pickle
import time
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.config import CoreConfig, MemoryHierarchyConfig
from ..sim.statistics import SystemStats
from ..telemetry.livestream import HeartbeatEmitter
from .reporting import render_table
from .runner import DEFAULT_MAX_CYCLES, Prepared, RunOutcome, run_plan
from .status import STATUS
from .watch import heartbeats_path_for


@dataclass
class SweepPoint:
    """One configuration's results (or its failure record)."""

    parameters: Dict[str, object]
    stats: Optional[SystemStats]
    outcome: str = "ok"
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def cycles(self) -> Optional[int]:
        return self.stats.cycles if self.stats is not None else None

    @property
    def ipc(self) -> Optional[float]:
        return self.stats.ipc if self.stats is not None else None

    @property
    def edp(self) -> Optional[float]:
        return self.stats.edp if self.stats is not None else None


@dataclass
class SweepResult:
    points: List[SweepPoint] = field(default_factory=list)

    def best(self, metric: str = "cycles") -> SweepPoint:
        successful = [p for p in self.points if p.ok]
        if not successful:
            raise ValueError("no successful points")
        return min(successful, key=lambda p: getattr(p, metric))

    def outcomes(self) -> Dict[str, int]:
        """Outcome label -> count, e.g. {"ok": 6, "deadlock": 1}."""
        return dict(Counter(point.outcome for point in self.points))

    def table(self, metrics: Sequence[str] = ("cycles", "ipc"),
              title: str = "") -> str:
        if not self.points:
            return title
        param_names = sorted(self.points[0].parameters)
        headers = param_names + list(metrics) + ["outcome"]
        rows = []
        for point in self.points:
            row = [point.parameters[name] for name in param_names]
            for metric in metrics:
                value = getattr(point, metric)
                row.append(value if value is not None else "-")
            row.append(point.outcome)
            rows.append(row)
        return render_table(headers, rows, title=title)


# -- crash-recoverable sweep journal ----------------------------------------

#: bump when the journal line layout changes incompatibly
SWEEP_JOURNAL_VERSION = 1


def _params_key(parameters: Dict[str, object]) -> str:
    """Stable fingerprint of a point's parameters; parameter values may
    be arbitrary objects (FaultPlans, config names), so the key is the
    repr of the sorted items, not JSON."""
    return repr(sorted(parameters.items(), key=lambda item: item[0]))


def _stats_digest(stats: Optional[SystemStats]) -> Optional[str]:
    if stats is None:
        return None
    from ..telemetry import stats_to_dict
    canonical = json.dumps(stats_to_dict(stats), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only JSONL record of completed sweep points.

    One line per completed point: journal version, point index, the
    parameter fingerprint, outcome, error, a digest of the canonical
    stats report, and the pickled stats themselves (zlib + base64) — so
    a resumed sweep reconstructs skipped points *bit-identically*, not
    just approximately. Lines are flushed and fsynced as each point
    completes; a torn final line from a crash is ignored on load.
    ``worker_died`` points are never journaled, so a resume retries
    them.
    """

    def __init__(self, path: str):
        self.path = path

    def append(self, index: int, parameters: Dict[str, object],
               point: SweepPoint) -> None:
        stats_blob = None
        if point.stats is not None:
            stats_blob = base64.b64encode(zlib.compress(
                pickle.dumps(point.stats, protocol=4), 6)).decode("ascii")
        line = json.dumps({
            "version": SWEEP_JOURNAL_VERSION,
            "index": index,
            "parameters": _params_key(parameters),
            "outcome": point.outcome,
            "error": point.error,
            "digest": _stats_digest(point.stats),
            "stats": stats_blob,
        })
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self) -> Dict[int, dict]:
        """Journaled entries by point index (last write wins); missing
        file means an empty journal, and a torn tail line ends the
        scan — everything after it simply re-runs."""
        entries: Dict[int, dict] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return entries
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError:
                break
            if (not isinstance(document, dict)
                    or document.get("version") != SWEEP_JOURNAL_VERSION
                    or not isinstance(document.get("index"), int)):
                continue
            entries[document["index"]] = document
        return entries

    @staticmethod
    def restore_point(parameters: Dict[str, object],
                      entry: dict) -> Optional[SweepPoint]:
        """Rebuild the SweepPoint a journal entry records, verifying the
        stats digest; None when the entry does not decode (the caller
        re-runs the point)."""
        stats = None
        if entry.get("stats") is not None:
            try:
                stats = pickle.loads(zlib.decompress(
                    base64.b64decode(entry["stats"])))
            except Exception as exc:
                STATUS.warn(f"sweep journal: point "
                            f"{entry.get('index')} stats blob does not "
                            f"decode ({exc}); re-running the point")
                return None
            if _stats_digest(stats) != entry.get("digest"):
                STATUS.warn(f"sweep journal: point "
                            f"{entry.get('index')} stats digest "
                            f"mismatch; re-running the point")
                return None
        return SweepPoint(parameters, stats,
                          outcome=entry.get("outcome", "ok"),
                          error=entry.get("error", ""))


# -- sweep execution: serial or worker pool --------------------------------
#
# A sweep point is (parameters, spec): ``parameters`` labels the point in
# the result table; ``spec`` is a pure-data dict of ``build_system``
# keyword arguments, plus two keys resolved at run time —
# ``hierarchy_factory`` (rebuilds a cold memory config per point) and
# ``plan`` (the FaultPlan run_plan runs the point under). Pure data is
# what makes the spec picklable, which is what lets a worker process
# execute it against its own copy of the Prepared workload.
#
# A spec may instead carry ``point_runner``: a picklable callable
# ``(parameters, spec, payload) -> SweepPoint`` that replaces the
# default simulate path entirely. The payload is whatever object the
# caller handed _execute_sweep as ``prepared`` — the fault-campaign
# engine ships a CampaignPayload (golden Prepared + pristine workload
# blob) this way and keeps the journal/resume/worker-death machinery
# for free.

#: per-worker-process Prepared workload, installed by _worker_init
_WORKER_PREPARED: Optional[Prepared] = None

#: a point task: (index, parameters, spec, stream), where ``stream`` is
#: None or (heartbeat path, cycle stride, point count)
Task = Tuple[int, Dict, Dict, Optional[Tuple[str, int, int]]]


def _worker_init(payload: bytes) -> None:
    global _WORKER_PREPARED
    _WORKER_PREPARED = pickle.loads(zlib.decompress(payload))


def _execute_spec(prepared: Prepared, spec: Dict,
                  emitter: Optional[HeartbeatEmitter] = None) -> RunOutcome:
    """Re-time ``prepared`` under one point's spec, on its own farm."""
    spec = dict(spec)
    factory = spec.pop("hierarchy_factory", None)
    if factory is not None:
        spec["hierarchy"] = factory()
    if emitter is not None:
        spec["emitter"] = emitter
    return run_plan(spec.pop("plan", None), prepared=prepared, **spec)[0]


def _point(prepared, task: Task) -> SweepPoint:
    """Run one point, serially or in a worker: the same code either way.
    With a ``stream``, the point's emitter appends its heartbeats to the
    sweep's shared JSONL stream itself."""
    index, parameters, spec, stream = task
    runner = spec.get("point_runner")
    if runner is not None:
        return runner(parameters, spec, prepared)
    # two-arg call without a stream, so tests can stub _execute_spec
    # without caring about heartbeats
    args = (prepared, spec)
    if stream is not None:
        path, every, total = stream
        args += (HeartbeatEmitter(path, every_cycles=every,
                                  source={"point": index,
                                          "points": total}),)
    outcome = _execute_spec(*args)
    return SweepPoint(parameters, outcome.stats if outcome.ok else None,
                      outcome=outcome.status, error=outcome.error)


def _worker_point(task: Task) -> SweepPoint:
    return _point(_WORKER_PREPARED, task)


def _execute_parallel(payload: bytes, todo: List[Task], jobs: int,
                      point_retries: int, retry_backoff: float,
                      collected) -> None:
    """Run point tasks on a process pool, surviving hard worker deaths.

    A SIGKILLed/OOMed worker breaks the whole executor: its unfinished
    futures all raise :class:`BrokenProcessPool`. Finished results are
    kept, the survivors are retried on a fresh pool (with exponential
    backoff), and a point still unfinished after ``point_retries``
    extra rounds is recorded as ``outcome="worker_died"`` — the sweep
    never hangs and never silently drops a point. ``collected(index,
    parameters, point)`` receives every result, in index order within
    each round.
    """
    pending = todo
    attempt = 0
    while pending:
        workers = min(jobs, len(pending))
        broken = False
        survivors: List[Task] = []
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_worker_init,
                                 initargs=(payload,)) as pool:
            futures = []
            try:
                for task in pending:
                    futures.append((task, pool.submit(_worker_point, task)))
            except BrokenProcessPool:
                broken = True
            for task, future in futures:
                try:
                    collected(task[0], task[1], future.result())
                except BrokenProcessPool:
                    broken = True
                    survivors.append(task)
            # tasks never submitted (pool broke first) must retry too
            survivors.extend(pending[len(futures):])
        if not broken:
            return
        attempt += 1
        if attempt > point_retries:
            for index, parameters, *_ in survivors:
                STATUS.warn(f"sweep point {index}: worker died hard and "
                            f"retries are exhausted; recording "
                            f"worker_died")
                collected(index, parameters, SweepPoint(
                    parameters, None, outcome="worker_died",
                    error=f"worker process died hard (SIGKILL/OOM) and "
                          f"{point_retries} retries were exhausted"))
            return
        STATUS.warn(f"sweep worker pool broke (attempt {attempt}/"
                    f"{point_retries}); retrying {len(survivors)} "
                    f"unfinished point(s) on a fresh pool")
        if retry_backoff > 0:
            time.sleep(retry_backoff * (2 ** (attempt - 1)))
        pending = survivors


def _execute_sweep(prepared: Prepared, tasks: List[Tuple[Dict, Dict]],
                   jobs: int,
                   journal_path: Optional[str] = None,
                   resume: bool = False,
                   point_retries: int = 2,
                   retry_backoff: float = 0.0,
                   heartbeat_every: Optional[int] = None) -> SweepResult:
    """Run every (parameters, spec) task; in order, serially or on a pool.

    Workers receive the Prepared workload once (compressed pickle via the
    pool initializer), then stream pure-data specs. Results are assembled
    in submission order, so the SweepResult is bit-identical to a serial
    sweep — each point's simulation is an isolated deterministic run
    either way.

    Points only re-time the prepared traces, so a ``plan`` that flips
    functional loads is refused (``ValueError``) before any point runs.

    With ``journal_path``, completed points are journaled as they finish,
    and a fresh sweep starts the journal empty. ``resume=True`` keeps it
    instead, skips points it already has (matched by index + parameter
    fingerprint) and restores their results bit-identically. Hard worker
    deaths are retried ``point_retries`` times with exponential
    ``retry_backoff`` before a point is recorded as ``worker_died``
    (parallel mode; a serial worker death kills the process itself,
    which is exactly what the journal recovers from).

    With ``heartbeat_every`` (a cycle stride; needs a ``journal_path``),
    every running point appends heartbeats labelled ``{"point": i,
    "points": n}`` to ``<journal>.heartbeats.jsonl``, which ``repro
    watch`` folds with the journal into a live dashboard. A fresh sweep
    starts the stream empty; a resumed one appends to it. Heartbeats
    are advisory: they never change point results (the emitter only
    reads simulation state at consistency points), so serial/parallel
    bit-identity is preserved.
    """
    if resume and journal_path is None:
        raise ValueError("resume=True needs a journal_path to resume from")
    if heartbeat_every is not None and journal_path is None:
        raise ValueError("heartbeat_every needs a journal_path to stream "
                         "heartbeats beside")
    for _, spec in tasks:
        plan = spec.get("plan")
        if plan is not None:
            plan.validate()
            if plan.bitflip_load_rate > 0.0:
                raise ValueError(
                    f"a sweep re-times traces made once, so it cannot "
                    f"flip functional loads (bitflip_load_rate="
                    f"{plan.bitflip_load_rate}; set it to 0 to sweep "
                    f"timing faults); `repro campaign --sites mem` "
                    f"re-interprets the workload for every trial")
    journal = SweepJournal(journal_path) if journal_path else None
    if journal is not None and not resume:
        # a fresh sweep over a stale journal must not report old points
        open(journal_path, "w").close()
    stream = None
    if heartbeat_every is not None:
        path = heartbeats_path_for(journal_path)
        if not resume:
            open(path, "w").close()
        stream = (path, heartbeat_every, len(tasks))
    points: List[Optional[SweepPoint]] = [None] * len(tasks)
    todo: List[Task] = []
    entries = journal.load() if (journal is not None and resume) else {}
    for index, (parameters, spec) in enumerate(tasks):
        entry = entries.get(index)
        if entry is not None and entry.get("parameters") == \
                _params_key(parameters):
            restored = SweepJournal.restore_point(parameters, entry)
            if restored is not None:
                points[index] = restored
                continue
        todo.append((index, parameters, spec, stream))

    def collected(index: int, parameters: Dict, point: SweepPoint) -> None:
        points[index] = point
        if journal is not None and point.outcome != "worker_died":
            journal.append(index, parameters, point)
        STATUS.verbose(f"sweep point {index}: {point.outcome}"
                       + (f" ({point.cycles} cycles)"
                          if point.cycles is not None else ""))

    jobs = min(jobs, len(todo))
    if jobs <= 1:
        for task in todo:
            collected(task[0], task[1], _point(prepared, task))
    else:
        payload = zlib.compress(pickle.dumps(prepared, protocol=4), 6)
        _execute_parallel(payload, todo, jobs, point_retries,
                          retry_backoff, collected)
    return SweepResult(points)


def sweep_core(prepared: Prepared, base: CoreConfig,
               grid: Dict[str, Iterable], *,
               hierarchy: Optional[MemoryHierarchyConfig] = None,
               hierarchy_factory: Optional[
                   Callable[[], MemoryHierarchyConfig]] = None,
               num_tiles: int = 1,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               wall_clock_limit: Optional[float] = None,
               jobs: int = 1,
               journal_path: Optional[str] = None,
               resume: bool = False,
               point_retries: int = 2,
               retry_backoff: float = 0.0,
               heartbeat_every: Optional[int] = None) -> SweepResult:
    """Simulate ``prepared`` under every combination of core-config
    overrides in ``grid`` (a dict of CoreConfig field -> values).

    The special grid key ``"plan"`` holds :class:`FaultPlan` values (or
    ``None``) instead of a core-config field: each point runs under a
    fresh :class:`FaultInjector` for its plan, so fault scenarios sweep
    like any other axis. Points re-time ``prepared``, so a plan that
    flips functional loads is refused before any point runs.

    ``hierarchy_factory`` rebuilds the memory system per point (cold
    caches for every configuration); passing ``hierarchy`` reuses one
    config object but still constructs a fresh MemorySystem per run.

    Failures become non-``ok`` points. ``jobs > 1`` distributes points
    over a worker pool (same results, same order). ``journal_path``/``resume``/``point_retries``/
    ``retry_backoff`` make the sweep crash-recoverable — see
    :func:`_execute_sweep` and ``docs/resilience.md``.
    ``heartbeat_every`` (needs a journal) streams live per-point
    progress for ``repro watch`` — see ``docs/observability.md``.
    """
    names = sorted(grid)
    tasks = []
    for combo in itertools.product(*(list(grid[name]) for name in names)):
        overrides = dict(zip(names, combo))
        core_overrides = dict(overrides)
        plan = core_overrides.pop("plan", None)
        spec = {
            "core": replace(base, **core_overrides),
            "num_tiles": num_tiles,
            "max_cycles": max_cycles,
            "wall_clock_limit": wall_clock_limit,
            "plan": plan,
        }
        if hierarchy_factory is not None:
            spec["hierarchy_factory"] = hierarchy_factory
        else:
            spec["hierarchy"] = hierarchy
        tasks.append((overrides, spec))
    return _execute_sweep(prepared, tasks, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)


def sweep_hierarchy(prepared: Prepared, core: CoreConfig,
                    configurations: Dict[str, MemoryHierarchyConfig], *,
                    num_tiles: int = 1,
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    wall_clock_limit: Optional[float] = None,
                    jobs: int = 1,
                    journal_path: Optional[str] = None,
                    resume: bool = False,
                    point_retries: int = 2,
                    retry_backoff: float = 0.0,
                    heartbeat_every: Optional[int] = None) -> SweepResult:
    """Simulate ``prepared`` under each named memory-hierarchy config."""
    tasks = [({"hierarchy": name},
              {"core": core, "num_tiles": num_tiles,
               "hierarchy": hierarchy, "max_cycles": max_cycles,
               "wall_clock_limit": wall_clock_limit})
             for name, hierarchy in configurations.items()]
    return _execute_sweep(prepared, tasks, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)


def sweep_runs(prepared: Prepared, runs: Dict[str, Dict], *,
               jobs: int = 1,
               journal_path: Optional[str] = None,
               resume: bool = False,
               point_retries: int = 2,
               retry_backoff: float = 0.0,
               heartbeat_every: Optional[int] = None) -> SweepResult:
    """Simulate ``prepared`` once per named run configuration.

    Each value of ``runs`` is a dict of :func:`simulate` keyword
    arguments (``core``, ``hierarchy``, ``max_cycles``, ...) plus an
    optional ``"plan"`` key holding a timing-only :class:`FaultPlan`
    for that run.
    Failing runs are recorded (deadlock/timeout/fault/...) and the sweep
    continues — the acceptance scenario for resilient exploration.
    """
    tasks = [({"run": name}, dict(kwargs)) for name, kwargs in runs.items()]
    return _execute_sweep(prepared, tasks, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)
