"""``repro.harness`` — system presets, experiment runners, reference
machine, reporting, and measurement utilities."""

from .reference import (
    accuracy_factor, fold_for_x86, reference_stats, x86_reference_core,
    x86_reference_hierarchy,
)
from .reporting import (
    geomean, render_attribution_report, render_bars,
    render_campaign_report, render_memory_diff, render_memstat_report,
    render_report_diff, render_table, render_timeline, render_totals_diff,
)
from .runner import (
    DAEPairSpec, DEFAULT_MAX_CYCLES, Prepared, RunOutcome, accel_kinds,
    build_dae, build_heterogeneous, build_system, classify_failure,
    default_farm, graceful_interrupts, prepare, prepare_dae,
    prepare_dae_sliced, run_supervised, simulate, simulate_dae,
    simulate_heterogeneous,
)
from .status import (
    NORMAL, QUIET, STATUS, StatusLogger, VERBOSE, set_status_level,
)
from .sweeps import (
    SweepJournal, SweepPoint, SweepResult, sweep_core, sweep_hierarchy,
    sweep_runs,
)
from .watch import (
    estimate_total_cycles, eta_seconds, heartbeats_path_for, render_watch,
    watch_loop,
)
from .simspeed import PAPER_MIPS
from ..trace.tracefile import trace_footprint_bytes
from .systems import (
    DAE_QUEUE_ENTRIES, DAE_QUEUE_LATENCY, INO_AREA_MM2, OOO_AREA_MM2,
    dae_hierarchy, inorder_core, ooo_core, xeon_core, xeon_hierarchy,
)
from .trends import microprocessor_trends, render_figure1, stagnation_year

__all__ = [
    "accuracy_factor", "fold_for_x86", "reference_stats",
    "x86_reference_core", "x86_reference_hierarchy",
    "geomean", "render_attribution_report", "render_bars",
    "render_campaign_report", "render_memory_diff",
    "render_memstat_report", "render_report_diff", "render_table",
    "render_timeline", "render_totals_diff",
    "DAEPairSpec", "DEFAULT_MAX_CYCLES", "Prepared", "RunOutcome",
    "accel_kinds", "build_dae", "build_heterogeneous", "build_system",
    "classify_failure", "default_farm", "graceful_interrupts", "prepare",
    "prepare_dae", "prepare_dae_sliced", "run_supervised", "simulate",
    "simulate_dae", "simulate_heterogeneous",
    "NORMAL", "QUIET", "STATUS", "StatusLogger", "VERBOSE",
    "set_status_level",
    "SweepJournal", "SweepPoint", "SweepResult", "sweep_core",
    "sweep_hierarchy", "sweep_runs",
    "estimate_total_cycles", "eta_seconds", "heartbeats_path_for",
    "render_watch", "watch_loop",
    "PAPER_MIPS", "trace_footprint_bytes",
    "DAE_QUEUE_ENTRIES", "DAE_QUEUE_LATENCY", "INO_AREA_MM2",
    "OOO_AREA_MM2", "dae_hierarchy", "inorder_core", "ooo_core",
    "xeon_core", "xeon_hierarchy",
    "microprocessor_trends", "render_figure1", "stagnation_year",
]
