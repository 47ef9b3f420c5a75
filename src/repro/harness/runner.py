"""End-to-end simulation runner.

Ties the whole toolchain together (paper §VI: "The simulator relies on the
compiler to generate the DDG and the DTG to instrument the code and
generate memory and control flow path traces"):

1. compile the kernel (front-end);
2. build the static DDG;
3. run the Dynamic Trace Generator (functional interpretation) over a
   caller-prepared :class:`SimMemory`;
4. instantiate tiles + memory hierarchy + accelerators;
5. run the Interleaver and return :class:`SystemStats`.
"""

from __future__ import annotations

import contextlib
import signal as _signal
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..frontend.compiler import compile_kernel
from ..ir.function import Function, Module
from ..memory.hierarchy import MemorySystem
from ..passes.ddg import StaticDDG, build_ddg
from ..passes.dae_slicing import mark_decoupled, slice_dae
from ..resilience.faults import FaultInjector, FaultPlan, FaultRecord
from ..sim.accelerator.tile import AcceleratorFarm
from ..sim.comm.fabric import CommFabric
from ..sim.config import ConfigError, CoreConfig, MemoryHierarchyConfig
from ..sim.core.model import CoreTile
from ..sim.errors import (
    AcceleratorFaultError, CycleBudgetExceeded, DeadlockError,
    SimulationError, SimulationInterrupted, WatchdogTimeout,
)
from ..sim.events import Scheduler
from ..sim.interleaver import Interleaver
from ..sim.statistics import SystemStats
from ..telemetry.profiler import ProfileReport
from ..trace.interpreter import Interpreter
from ..trace.memory import SimMemory
from ..trace.tracefile import KernelTrace
from .status import STATUS
from .systems import DAE_QUEUE_ENTRIES

Kernel = Union[str, Callable, Function]

DEFAULT_MAX_CYCLES = 2_000_000_000


def _infer_memory(args: Sequence) -> SimMemory:
    """Use the SimMemory backing any ArrayRef argument; fresh otherwise."""
    from ..trace.memory import ArrayRef
    for arg in args:
        if isinstance(arg, ArrayRef) and arg.memory is not None:
            return arg.memory
    return SimMemory()


@dataclass
class Prepared:
    """Compiled kernel + traces, ready to simulate on any system config."""

    function: Function
    ddg: StaticDDG
    traces: List[KernelTrace]
    memory: SimMemory


def prepare(kernel: Kernel, args: Sequence, *, num_tiles: int = 1,
            memory: Optional[SimMemory] = None,
            injector: Optional[FaultInjector] = None) -> Prepared:
    """Compile ``kernel`` and generate SPMD traces for ``num_tiles``.

    With ``injector``, functional loads during trace generation may
    return bit-flipped values (deterministic under the injector's seed).
    """
    func = kernel if isinstance(kernel, Function) else compile_kernel(kernel)
    mem = memory if memory is not None else _infer_memory(args)
    module = Module(func.name)
    module.add_function(func)
    interp = Interpreter(module, mem)
    if injector is not None:
        mem.injector = injector
    try:
        traces = interp.run_spmd(func.name, args, num_tiles)
    finally:
        if injector is not None:
            mem.injector = None
    return Prepared(func, build_ddg(func), traces, mem)


def _check_trace_count(prepared: Prepared, num_tiles: int,
                       detail: str) -> None:
    """Symmetric trace-count validation: too few traces raise (tiles
    would have nothing to run); extra traces warn — they are silently
    dropped otherwise, usually a sign the caller prepared for a
    different tile count."""
    count = len(prepared.traces)
    if count < num_tiles:
        raise ValueError(
            f"prepared traces cover {count} tile(s) but {detail}")
    if count > num_tiles:
        STATUS.warn(f"prepared traces cover {count} tile(s) but {detail}; "
                    f"the extra {count - num_tiles} trace(s) are ignored")


def accel_kinds(function: Function) -> List[str]:
    """Accelerator design kinds the compiled ``function`` invokes: every
    ``accel_*`` intrinsic with a default design (pure data)."""
    from ..sim.accelerator.library import DESIGN_FACTORIES
    return sorted({
        inst.callee[len("accel_"):] for inst in function.instructions()
        if getattr(inst, "callee", "").startswith("accel_")
        and inst.callee[len("accel_"):] in DESIGN_FACTORIES})


def default_farm(function: Function) -> Optional[AcceleratorFarm]:
    """A fresh AcceleratorFarm with one default tile per design
    ``function`` invokes, None when it invokes none. A farm keeps
    runtime state (instance occupancy, invocation counts), so every run
    builds its own."""
    kinds = accel_kinds(function)
    if not kinds:
        return None
    farm = AcceleratorFarm()
    for kind in kinds:
        farm.add_default(kind)
    return farm


def _assemble(tiles: List[CoreTile], frequency_ghz: float, *,
              hierarchy: Optional[MemoryHierarchyConfig],
              accelerators: Optional[AcceleratorFarm],
              injector: Optional[FaultInjector], max_cycles: int,
              wall_clock_limit: Optional[float], observers: dict,
              queue_entries: int = DAE_QUEUE_ENTRIES) -> Interleaver:
    """Wire ``tiles`` to one scheduler, memory system and fabric, share
    ``injector`` with every subsystem it can fault, and hand the result
    (plus ``observers``, unchanged) to an :class:`Interleaver`."""
    scheduler = Scheduler()
    memsys = None
    if hierarchy is not None:
        memsys = MemorySystem(hierarchy, len(tiles), scheduler,
                              frequency_ghz, injector=injector)
    fabric = CommFabric(dae_queue_capacity=queue_entries, injector=injector)
    if accelerators is not None and injector is not None:
        accelerators.injector = injector
    return Interleaver(tiles, memory=memsys, fabric=fabric,
                       accelerators=accelerators,
                       frequency_ghz=frequency_ghz, max_cycles=max_cycles,
                       scheduler=scheduler,
                       wall_clock_limit=wall_clock_limit, **observers)


def build_system(kernel: Kernel, args: Sequence, *,
                 core: Optional[CoreConfig] = None, num_tiles: int = 1,
                 **options) -> Interleaver:
    """Build (without running) the homogeneous system :func:`simulate`
    would run: :func:`build_heterogeneous` over ``num_tiles`` copies of
    ``core``. Every other keyword in ``options`` (``hierarchy``,
    ``accelerators``, ``memory``, ``prepared``, ``max_cycles``,
    ``wall_clock_limit``, ``injector`` and the observers) is
    build_heterogeneous's.

    The build/run split is what checkpoint tests and the graceful-
    interrupt path hang off: the returned Interleaver can be armed for
    signals, run under a cycle budget, snapshotted, and resumed.
    """
    core = core if core is not None else CoreConfig()
    return build_heterogeneous(kernel, args, cores=[core] * num_tiles,
                               **options)


def simulate(kernel: Kernel, args: Sequence, **options) -> SystemStats:
    """One-stop homogeneous simulation: ``num_tiles`` copies of ``core``
    running the SPMD kernel over a shared memory hierarchy. Takes
    :func:`build_system`'s keywords.

    ``injector`` wires timing-level fault injection (fabric, DRAM,
    accelerators) into the run; ``wall_clock_limit`` arms the watchdog.
    Observer keywords (the telemetry layer, see
    ``docs/observability.md``, and the checkpoint autosave, see
    ``docs/resilience.md``) pass unchanged to :class:`Interleaver`. All
    default to off.
    """
    return build_system(kernel, args, **options).run()


def build_heterogeneous(kernel: Kernel, args: Sequence, *,
                        cores: Sequence[CoreConfig],
                        hierarchy: Optional[MemoryHierarchyConfig] = None,
                        accelerators: Optional[AcceleratorFarm] = None,
                        memory: Optional[SimMemory] = None,
                        prepared: Optional[Prepared] = None,
                        max_cycles: int = DEFAULT_MAX_CYCLES,
                        wall_clock_limit: Optional[float] = None,
                        injector: Optional[FaultInjector] = None,
                        **observers) -> Interleaver:
    """Build (without running) the system :func:`simulate_heterogeneous`
    would run: one tile per entry of ``cores``. ``observers`` pass
    unchanged to :class:`Interleaver`."""
    if not cores:
        raise ValueError("a system needs at least one core")
    for core in cores:
        core.validate()
    num_tiles = len(cores)
    if prepared is None:
        prepared = prepare(kernel, args, num_tiles=num_tiles, memory=memory,
                           injector=injector)
    if all(core == cores[0] for core in cores):
        detail = (f"num_tiles={num_tiles}; call prepare(..., "
                  f"num_tiles={num_tiles}) first")
    else:
        detail = f"{num_tiles} cores were given"
    _check_trace_count(prepared, num_tiles, detail)
    fastest = max(core.frequency_ghz for core in cores)
    tiles = []
    for index, core in enumerate(cores):
        period = max(1, round(fastest / core.frequency_ghz))
        tile = CoreTile(f"{core.name}{index}", index, core, prepared.ddg,
                        prepared.traces[index], period=period)
        tile.barrier_group_size = num_tiles
        tiles.append(tile)
    return _assemble(tiles, fastest, hierarchy=hierarchy,
                     accelerators=accelerators, injector=injector,
                     max_cycles=max_cycles,
                     wall_clock_limit=wall_clock_limit, observers=observers)


def simulate_heterogeneous(kernel: Kernel, args: Sequence,
                           **options) -> SystemStats:
    """Heterogeneous SPMD simulation: one tile per entry of ``cores``,
    each with its own microarchitecture and clock (paper §II: "MosaicSim
    can simulate more heterogeneous processors by providing, and hence
    interleaving, more diverse models"; "tiles may run at different clock
    speeds, so the Interleaver queries and coordinates their events
    accordingly"). Takes :func:`build_heterogeneous`'s keywords.

    The global clock is the fastest tile's; slower tiles get proportional
    periods (rounded to whole global cycles).
    """
    return build_heterogeneous(kernel, args, **options).run()


@dataclass
class DAEPairSpec:
    """Trace sources for one Decoupled Access/Execute pair (§VII-A)."""

    access_trace: KernelTrace
    execute_trace: KernelTrace
    access_ddg: StaticDDG
    execute_ddg: StaticDDG


def prepare_dae_sliced(kernel: Kernel, args: Sequence, *, pairs: int = 1,
                       memory: Optional[SimMemory] = None
                       ) -> List[DAEPairSpec]:
    """Run the DAE slicing pass (paper §VII-A) on ``kernel`` and prepare
    traces for ``pairs`` access/execute pairs."""
    func = kernel if isinstance(kernel, Function) else compile_kernel(kernel)
    access_fn, execute_fn = slice_dae(func)
    return prepare_dae(access_fn, execute_fn, args, pairs=pairs,
                       memory=memory)


def prepare_dae(access_kernel: Kernel, execute_kernel: Kernel,
                args: Sequence, *, pairs: int = 1,
                memory: Optional[SimMemory] = None) -> List[DAEPairSpec]:
    """Compile and trace a DAE-sliced kernel for ``pairs`` access/execute
    core pairs. Both slices receive the same arguments and partition work
    by ``tile_id()`` over ``num_tiles() = pairs``; pair ``p``'s access and
    execute instances share DAE queue ``p``."""
    access_fn = access_kernel if isinstance(access_kernel, Function) \
        else compile_kernel(access_kernel)
    execute_fn = execute_kernel if isinstance(execute_kernel, Function) \
        else compile_kernel(execute_kernel)
    module = Module("dae")
    module.add_function(access_fn)
    module.add_function(execute_fn)
    mem = memory if memory is not None else _infer_memory(args)
    interp = Interpreter(module, mem)
    access_ddg = build_ddg(access_fn)
    mark_decoupled(access_ddg)
    execute_ddg = build_ddg(execute_fn)
    specs = []
    # slices co-execute: each pair's access and execute exchange values
    # through the (functionally unbounded) DAE queues; the timing
    # simulator applies the real 512-entry back-pressure
    for p in range(pairs):
        access_trace, execute_trace = interp.run_dae_pair(
            access_fn.name, execute_fn.name, args, pair=p, pairs=pairs)
        specs.append(DAEPairSpec(access_trace, execute_trace,
                                 access_ddg, execute_ddg))
    return specs


def build_dae(specs: List[DAEPairSpec], *,
              access_core: CoreConfig,
              execute_core: CoreConfig,
              hierarchy: Optional[MemoryHierarchyConfig] = None,
              accelerators: Optional[AcceleratorFarm] = None,
              queue_entries: int = DAE_QUEUE_ENTRIES,
              max_cycles: int = DEFAULT_MAX_CYCLES,
              wall_clock_limit: Optional[float] = None,
              injector: Optional[FaultInjector] = None,
              **observers) -> Interleaver:
    """Build (without running) the DAE system :func:`simulate_dae`
    would run. ``observers`` pass unchanged to :class:`Interleaver`."""
    pairs = len(specs)
    access_core.validate()
    execute_core.validate()
    tiles = []
    for p, spec in enumerate(specs):
        access = CoreTile(f"access{p}", p, access_core, spec.access_ddg,
                          spec.access_trace)
        access.dae_queue_names = {"load": f"load{p}", "store": f"store{p}"}
        access.barrier_group = "dae-access"
        access.barrier_group_size = pairs
        tiles.append(access)
    for p, spec in enumerate(specs):
        execute = CoreTile(f"execute{p}", pairs + p, execute_core,
                           spec.execute_ddg, spec.execute_trace)
        execute.dae_queue_names = {"load": f"load{p}", "store": f"store{p}"}
        execute.barrier_group = "dae-execute"
        execute.barrier_group_size = pairs
        tiles.append(execute)
    return _assemble(tiles, access_core.frequency_ghz, hierarchy=hierarchy,
                     accelerators=accelerators, injector=injector,
                     max_cycles=max_cycles,
                     wall_clock_limit=wall_clock_limit, observers=observers,
                     queue_entries=queue_entries)


def simulate_dae(specs: List[DAEPairSpec], **options) -> SystemStats:
    """Simulate P DAE pairs: tiles 0..P-1 are access cores, P..2P-1 the
    matching execute cores, communicating through bounded DAE queues.
    Takes :func:`build_dae`'s keywords."""
    return build_dae(specs, **options).run()


# -- graceful interrupts (robustness layer) --------------------------------------

@contextlib.contextmanager
def graceful_interrupts(interleaver: Interleaver,
                        signals: Sequence[int] = (_signal.SIGINT,
                                                  _signal.SIGTERM)):
    """Convert SIGINT/SIGTERM during ``interleaver.run()`` into a clean
    :class:`SimulationInterrupted` carrying a final checkpoint (when a
    sink is attached) and partial stats, instead of an arbitrary-point
    KeyboardInterrupt that can tear the run mid-event.

    The handler itself only notes the signal number; the run loop acts
    on it at the next snapshot consistency point. A second signal of the
    same kind falls back to Python's default behavior only after the
    handlers are restored (on exit from the ``with`` block). No-op when
    not running in the main thread (signal handlers cannot be installed
    there).
    """
    interleaver.arm_interrupts()

    def _note(signum, frame):
        interleaver.request_interrupt(signum)

    previous = {}
    try:
        for signum in signals:
            previous[signum] = _signal.signal(signum, _note)
    except ValueError:  # not the main thread: run unprotected
        pass
    try:
        yield interleaver
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


# -- fault injection + supervised runs (robustness layer) ------------------------

@dataclass
class RunOutcome:
    """Per-run record kept by the supervisor (and by sweeps): what
    happened, how many attempts it took, and how long it ran."""

    status: str                      # ok | deadlock | timeout | fault |
                                     # error | config-error | interrupted
    stats: Optional[SystemStats] = None
    error: str = ""
    attempts: int = 1
    fault_log: Tuple[FaultRecord, ...] = ()
    wall_seconds: float = 0.0
    #: simulator self-profile (set when the run carried a SelfProfiler)
    profile: Optional[ProfileReport] = None
    #: checkpoint flushed before the failure, resumable via
    #: repro.checkpoint.resume_simulation (set when a sink was attached
    #: and the run died at a snapshottable point)
    checkpoint_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def classify_failure(exc: BaseException) -> str:
    """Map a simulation exception to a coarse outcome label."""
    if isinstance(exc, SimulationInterrupted):
        return "interrupted"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, (CycleBudgetExceeded, WatchdogTimeout)):
        return "timeout"
    if isinstance(exc, AcceleratorFaultError):
        return "fault"
    if isinstance(exc, ConfigError):
        return "config-error"
    if isinstance(exc, SimulationError):
        return "error"
    return "error"


def _is_transient(exc: BaseException) -> bool:
    """Only transient faults are worth retrying: deadlocks and cycle
    budget blowouts are deterministic under a fixed plan, but a reseeded
    plan changes the fault pattern, so fault-class failures may clear."""
    if isinstance(exc, AcceleratorFaultError):
        return exc.transient
    return isinstance(exc, (DeadlockError, CycleBudgetExceeded,
                            WatchdogTimeout))


def _functional_pass(state: tuple, num_tiles: int,
                     injector: Optional[FaultInjector]) -> Prepared:
    """Trace ``state``'s ``(kernel, args, memory)``, flipping loads under
    ``injector``. A flipped load (an index walking off a segment, a
    broken shape) can crash the interpreter with a workload-level error:
    the injected fault surfaced, so it becomes a :class:`SimulationError`
    reading ``"<ExceptionName>: <message>"``."""
    kernel, args, memory = state
    try:
        return prepare(kernel, args, num_tiles=num_tiles, memory=memory,
                       injector=injector)
    except (SimulationError, ConfigError):
        raise
    except Exception as exc:
        if injector is None:
            raise
        raise SimulationError(f"{type(exc).__name__}: {exc}") from exc


def run_plan(plan: Optional[FaultPlan], *,
             prepared: Optional[Prepared] = None,
             source: Optional[Callable[[], tuple]] = None,
             retries: int = 0, interrupts: bool = False,
             accelerators: Optional[AcceleratorFarm] = None,
             num_tiles: int = 1,
             **options) -> Tuple[RunOutcome, Optional[Prepared]]:
    """The one place a :class:`FaultPlan` (None: a clean run) becomes a
    run; :func:`run_supervised`, sweep points and campaign trials all
    call it. Never raises for simulation failures.

    Only a plan that flips functional loads needs a functional pass of
    its own: each attempt re-interprets ``source()``'s pristine
    ``(kernel, args, memory)`` under its injector. Every other plan
    re-times ``prepared``, traced here once without an injector (from
    ``source()``) when the caller has none. Attempt ``i`` runs
    ``plan.reseeded(i)`` under a fresh :class:`FaultInjector`, on
    ``accelerators`` or else its own :func:`default_farm`; transient
    failures are retried up to ``retries`` times. ``options`` are
    :func:`build_system`'s (``core``, ``hierarchy``, ``max_cycles``,
    ``wall_clock_limit`` and the observers). With ``interrupts`` every
    attempt runs under :func:`graceful_interrupts`.

    Returns the outcome and, when it is ``ok``, the :class:`Prepared`
    that ran, whose memory holds the run's functional output.
    """
    if plan is not None:
        plan.validate()
    flips = plan is not None and plan.bitflip_load_rate > 0.0
    profiler = options.get("profiler")
    start = time.monotonic()
    for attempt in range(retries + 1):
        injector = FaultInjector(plan.reseeded(attempt)) \
            if plan is not None and plan.enabled else None
        ran = prepared
        try:
            if flips or ran is None:
                ran = _functional_pass(source(), num_tiles,
                                       injector if flips else None)
                if not flips:
                    prepared = ran
            system = build_system(
                ran.function, [], prepared=ran, num_tiles=num_tiles,
                accelerators=accelerators if accelerators is not None
                else default_farm(ran.function),
                injector=injector, **options)
            with (graceful_interrupts(system) if interrupts
                  else contextlib.nullcontext()):
                stats = system.run()
        except SimulationInterrupted:
            raise  # the user stopped the run: no retry, no outcome
        except (SimulationError, ConfigError) as exc:
            failure = exc
            if not _is_transient(exc):
                break
        else:
            return RunOutcome(
                "ok", stats=stats, attempts=attempt + 1,
                fault_log=tuple(injector.log) if injector else (),
                wall_seconds=time.monotonic() - start,
                profile=profiler.report if profiler is not None else None
            ), ran
    # a failed run's profile was finished as its run() raised
    return RunOutcome(
        classify_failure(failure), error=str(failure), attempts=attempt + 1,
        stats=getattr(failure, "partial_stats", None),
        fault_log=tuple(injector.log) if injector else (),
        wall_seconds=time.monotonic() - start,
        profile=profiler.report if profiler is not None else None,
        checkpoint_path=getattr(failure, "checkpoint_path", None)), None


def run_supervised(kernel: Kernel, args: Sequence, *,
                   plan: Optional[FaultPlan] = None,
                   memory: Optional[SimMemory] = None,
                   retries: int = 0,
                   fresh: Optional[Callable[[], tuple]] = None,
                   prepared: Optional[Prepared] = None,
                   **options) -> RunOutcome:
    """Run a simulation under supervision: cycle budget, wall-clock
    watchdog, and retries for transient faults (:func:`run_plan` over
    ``kernel``/``args``/``memory``; ``options`` are its keywords).

    Never raises for simulation failures — returns a :class:`RunOutcome`
    whose ``status`` classifies what happened, so sweeps degrade
    gracefully instead of dying on the first bad configuration. A crash
    of the functional pass under bit flips is an ``error`` outcome.

    Retries re-run with ``plan.reseeded(attempt)`` so a different (but
    still deterministic) fault pattern is drawn each attempt. A plan
    that flips loads re-interprets the workload every attempt: the
    first from ``kernel``/``args``/``memory`` (unless ``prepared``
    already traced them), later ones from ``fresh``, a zero-argument
    callable returning a new ``(kernel, args, memory)`` triple, so they
    start from pristine state; without ``fresh`` such a plan takes
    neither ``prepared`` nor ``retries`` (``ValueError``). Every other
    run re-times ``prepared``, or traces made once from
    ``kernel``/``args``/``memory``.

    With a ``checkpoint`` observer, the run autosaves and — the
    supervisor integration — flushes a final snapshot *before* the cycle
    budget or watchdog failure propagates, so ``RunOutcome.
    checkpoint_path`` points at a resumable snapshot of the work already
    done instead of throwing those cycles away.

    Every attempt runs under :func:`graceful_interrupts`: SIGINT/SIGTERM
    raise :class:`SimulationInterrupted` (after that final snapshot)
    instead of being retried or classified.
    """
    if (plan is not None and plan.bitflip_load_rate > 0.0 and fresh is None
            and (prepared is not None or retries > 0)):
        # the caller's memory has already run: flipping its loads again
        # would compute on its own output
        raise ValueError("a plan that flips loads re-interprets the "
                         "workload on every attempt: pass fresh= to "
                         "rebuild its pristine state")
    pristine = prepared is None

    def source() -> tuple:
        nonlocal pristine
        if pristine:
            pristine = False
            return kernel, args, memory
        return fresh()

    return run_plan(plan, prepared=prepared, source=source,
                    retries=retries, interrupts=True, **options)[0]
