"""``repro.telemetry`` — observability for the simulator itself.

Three cooperating pieces, all opt-in and zero-cost when disabled:

* :class:`Tracer` — ring-buffered cycle-level event tracer with Chrome
  ``trace_event`` export (Perfetto-loadable);
* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms that serialize alongside :class:`~repro.sim.statistics.
  SystemStats`;
* :class:`SelfProfiler` — a wall-clock stack sampler that tells where
  simulation time goes (event loop vs tile stepping vs memory vs
  fabric) plus events/sec throughput;
* :class:`Attributor` — per-tile cycle-accounting ledgers (CPI stacks
  summing exactly to total cycles), roofline capture, and the report
  validation/diffing behind ``repro analyze`` / ``repro diff``;
* :class:`HeartbeatEmitter` — live JSONL heartbeat streaming from an
  in-flight run (cycle, IPC, in-flight memory, attribution deltas),
  the feed behind ``repro watch`` (every sweep point appends to one
  stream beside the journal);
* :class:`MemStat` — the data-movement observatory: miss
  classification (compulsory/capacity/conflict), per-set conflict
  heatmaps, sampled reuse-distance histograms, DRAM bank/row-buffer
  locality, and NoC/fabric link-utilization ledgers, surfaced as the
  report's schema-v3 ``memory`` block and ``repro memstat``.

See ``docs/observability.md`` for usage and the trace JSON schema.
"""

from .attribution import (
    Attributor, CATEGORIES, MEMORY_PREFIX, TileAttribution,
    capture_roofline, diff_memory_blocks, diff_reports,
    is_memory_category, validate_memory_block, validate_report,
)
from .livestream import (
    HEARTBEAT_SCHEMA_VERSION, HeartbeatEmitter, heartbeat_digest,
    heartbeat_key, read_heartbeats, validate_heartbeat,
)
from .memstat import (
    CacheMemStat, DRAMMemStat, LinkLedger, MemStat,
    QUEUE_DEPTH_BUCKETS, REUSE_DISTANCE_BUCKETS, ReuseTracker,
)
from .metrics import (
    Counter, DEFAULT_LATENCY_BUCKETS, Gauge, Histogram,
    METRICS_SCHEMA_VERSION, MetricsRegistry,
    SUPPORTED_REPORT_VERSIONS, stats_to_dict, wilson_interval,
    write_stats_json,
)
from .profiler import PHASES, ProfileReport, SelfProfiler
from .tracer import (
    TRACE_SCHEMA_VERSION, TraceEvent, Tracer, subsystem_categories,
    validate_chrome_trace,
)

__all__ = [
    "Attributor", "CATEGORIES", "CacheMemStat", "Counter",
    "DEFAULT_LATENCY_BUCKETS", "DRAMMemStat", "Gauge",
    "HEARTBEAT_SCHEMA_VERSION", "HeartbeatEmitter", "Histogram",
    "LinkLedger", "MEMORY_PREFIX", "METRICS_SCHEMA_VERSION", "MemStat",
    "MetricsRegistry", "PHASES", "ProfileReport",
    "QUEUE_DEPTH_BUCKETS", "REUSE_DISTANCE_BUCKETS", "ReuseTracker",
    "SUPPORTED_REPORT_VERSIONS", "SelfProfiler", "TRACE_SCHEMA_VERSION",
    "TileAttribution", "TraceEvent", "Tracer", "capture_roofline",
    "diff_memory_blocks", "diff_reports", "heartbeat_digest",
    "heartbeat_key", "is_memory_category", "read_heartbeats",
    "stats_to_dict", "subsystem_categories",
    "validate_chrome_trace", "validate_heartbeat",
    "validate_memory_block", "validate_report", "wilson_interval",
    "write_stats_json",
]
