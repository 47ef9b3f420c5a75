"""Metrics registry: counters, gauges, and fixed-bucket histograms.

:meth:`MetricsRegistry.attach` registers the runtime instruments (the
memory request-latency histogram, fed through the event interface of
:mod:`repro.telemetry.observer`); :meth:`MetricsRegistry.collect` folds
end-of-run subsystem state in. The registry serializes to plain JSON-able dicts alongside :class:`SystemStats`, so
sweeps and CI can consume machine-readable results
(``repro simulate ... --stats-json``).

Histogram bucketing follows the Prometheus ``le`` convention: bucket
``i`` counts observations ``v`` with ``boundaries[i-1] < v <=
boundaries[i]``; one overflow bucket catches everything above the last
boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from .observer import Observer

#: power-of-two latency buckets (cycles) — covers L1 hits through badly
#: throttled DRAM responses
DEFAULT_LATENCY_BUCKETS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (peaks, occupancies, configuration facts)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram(Observer):
    """Fixed-boundary histogram of observed values. Attached to the
    memory system, it observes request latencies."""

    __slots__ = ("boundaries", "counts", "total", "count", "min", "max")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        boundaries = tuple(boundaries)
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ValueError(
                f"histogram boundaries must be strictly increasing, "
                f"got {boundaries}")
        self.boundaries = boundaries
        #: len(boundaries) + 1 buckets; the last catches the overflow
        self.counts = [0] * (len(boundaries) + 1)
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    mem_response = observe

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Deprecated spelling of :meth:`percentile` — use that instead.

        Historically this returned 0.0 on an empty histogram while
        ``percentile`` returned the documented ``None`` sentinel, so the
        two methods disagreed about whether anything had been observed.
        It now delegates, so both return ``None`` on empty input."""
        return self.percentile(q)

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-boundary upper bound for quantile ``q`` in [0, 1];
        ``None`` on an empty histogram.

        ``None`` is the documented sentinel for "no observations": a
        0.0 here would be the first bucket boundary's edge artifact,
        indistinguishable from a real all-zero distribution. Renderers
        print ``-`` for None."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            if running >= rank:
                if index < len(self.boundaries):
                    return float(self.boundaries[index])
                return float(self.max if self.max is not None else 0.0)
        return float(self.max if self.max is not None else 0.0)

    def as_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # bucket-boundary upper bounds: consumers get summary
            # quantiles without re-deriving them from le-buckets;
            # null (None) when the histogram saw no observations
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use and serialized together.

    Names are dotted paths (``dram.latency_cycles``); re-requesting a
    name returns the existing instrument, so subsystems can share one.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str,
                  boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._histograms[name] = Histogram(boundaries)
        return instrument

    def _check_fresh(self, name: str) -> None:
        for table, kind in ((self._counters, "counter"),
                            (self._gauges, "gauge"),
                            (self._histograms, "histogram")):
            if name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}")

    def attach(self, interleaver) -> None:
        if interleaver.memory is not None:
            interleaver.memory.observers += (self.histogram(
                "memory.request_latency_cycles"),)

    def collect(self, stats, interleaver) -> None:
        """Fold end-of-run subsystem state into the registry, alongside
        the runtime histograms, and store the snapshot on ``stats``."""
        self.gauge("sim.cycles").set(stats.cycles)
        self.counter("sim.instructions").inc(stats.instructions)
        for tile in stats.tiles:
            for field in ("instructions", "memory_accesses",
                          "mispredictions", "mao_stalls"):
                self.counter(f"tile.{tile.name}.{field}").inc(
                    getattr(tile, field))
        fabric = interleaver.fabric
        self.counter("fabric.messages_sent").inc(fabric.messages_sent)
        self.counter("fabric.messages_dropped").inc(fabric.dropped_messages)
        self.counter("fabric.messages_delayed").inc(fabric.delayed_messages)
        for name, peak in sorted(fabric.peak_occupancy.items()):
            self.gauge(f"fabric.queue.{name}.peak_occupancy").max(peak)
        for group, count in sorted(fabric.barriers_released.items()):
            self.counter(f"fabric.barrier.{group}.released").inc(count)
        for name, cache in sorted(stats.caches.items()):
            self.counter(f"cache.{name}.hits").inc(cache.hits)
            self.counter(f"cache.{name}.misses").inc(cache.misses)
        self.counter("dram.requests").inc(stats.dram.requests)
        self.counter("dram.throttled").inc(stats.dram.throttled)
        if interleaver.accelerators is not None:
            for name, tile in sorted(interleaver.accelerators.tiles.items()):
                self.counter(f"{name}.invocations").inc(tile.invocations)
                self.counter(f"{name}.busy_cycles").inc(tile.busy_cycles)
        stats.metrics = self.as_dict()

    def as_dict(self) -> dict:
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self._histograms.items())},
        }


# -- stats serialization -------------------------------------------------------

#: bump when the stats/metrics JSON layout changes incompatibly
#: v2: histogram p50/p90/p99 summaries; optional ``attribution`` (CPI
#: stacks) and ``roofline`` blocks (see docs/observability.md)
#: v3: optional ``memory`` block (miss classification, reuse distance,
#: DRAM bank locality, link utilization — repro.telemetry.memstat);
#: empty-histogram p50/p90/p99 serialize as null instead of 0.0
METRICS_SCHEMA_VERSION = 3

#: report versions validate_report accepts: v2 reports (pre-memstat)
#: remain readable — the v3 additions are all optional blocks
SUPPORTED_REPORT_VERSIONS = (2, 3)


def stats_to_dict(stats, run_id: Optional[str] = None) -> dict:
    """Machine-readable snapshot of a :class:`SystemStats`.

    Includes the registry snapshot under ``"metrics"`` when the run
    carried one (``SystemStats.metrics``); this is the single serializer
    behind ``--metrics``, ``--stats-json`` and sweep exports.
    ``run_id`` (opt-in: only runs given ``--run-id`` stamp it, so
    default reports stay byte-identical across resume-identity checks)
    makes the report joinable against the run's other artifacts.
    """
    document = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "cycles": stats.cycles,
        "frequency_ghz": stats.frequency_ghz,
        "runtime_seconds": stats.runtime_seconds,
        "instructions": stats.instructions,
        "ipc": stats.ipc,
        "energy": {
            "total_nj": stats.total_energy_nj,
            "cores_nj": sum(t.energy_nj for t in stats.tiles),
            "caches_nj": stats.cache_energy_nj,
            "dram_nj": stats.dram_energy_nj,
            "edp_js": stats.edp,
        },
        "tiles": [
            {
                "name": tile.name,
                "cycles": tile.cycles,
                "instructions": tile.instructions,
                "ipc": tile.ipc,
                "memory_accesses": tile.memory_accesses,
                "mispredictions": tile.mispredictions,
                "mao_stalls": tile.mao_stalls,
                "energy_nj": tile.energy_nj,
                "dbbs_launched": tile.dbbs_launched,
                "max_live_dbbs": tile.max_live_dbbs,
                "accel_invocations": tile.accel_invocations,
                "accel_cycles": tile.accel_cycles,
                "accel_bytes": tile.accel_bytes,
                "accel_faults": tile.accel_faults,
                "accel_fallbacks": tile.accel_fallbacks,
            }
            for tile in stats.tiles
        ],
        "caches": {
            name: {
                "hits": cache.hits,
                "misses": cache.misses,
                "miss_rate": cache.miss_rate,
                "writebacks": cache.writebacks,
                "prefetches": cache.prefetches,
                "mshr_merges": cache.mshr_merges,
            }
            for name, cache in sorted(stats.caches.items())
        },
        "dram": {
            "requests": stats.dram.requests,
            "throttled": stats.dram.throttled,
            "row_hits": stats.dram.row_hits,
            "row_misses": stats.dram.row_misses,
            "average_latency": stats.dram.average_latency,
        },
    }
    if run_id is not None:
        document["run_id"] = run_id
    if stats.metrics is not None:
        document["metrics"] = stats.metrics
    if stats.attribution is not None:
        document["attribution"] = stats.attribution
    if stats.roofline is not None:
        document["roofline"] = stats.roofline
    if stats.memstat is not None:
        document["memory"] = stats.memstat
    return document


def wilson_interval(count: int, total: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    The interval behind every campaign outcome rate (``repro
    campaign``): unlike the normal approximation it stays inside
    ``[0, 1]`` and behaves at the extremes (0 or ``total`` successes
    out of few trials), which is exactly where fault-injection rates
    live. ``z`` is the standard-normal quantile (1.96 ≈ 95%).
    """
    if count < 0 or total < 0 or count > total:
        raise ValueError(f"need 0 <= count <= total, got "
                         f"count={count} total={total}")
    if total == 0:
        return (0.0, 1.0)
    phat = count / total
    zz = z * z
    denom = 1.0 + zz / total
    centre = phat + zz / (2.0 * total)
    margin = z * math.sqrt(phat * (1.0 - phat) / total
                           + zz / (4.0 * total * total))
    return (max(0.0, (centre - margin) / denom),
            min(1.0, (centre + margin) / denom))


def write_stats_json(stats, path: str,
                     run_id: Optional[str] = None) -> None:
    """Serialize ``stats`` (with any registry snapshot) to ``path``.

    Atomic (temp + fsync + rename): a crash mid-write never leaves a
    truncated report."""
    from ..ioutil import atomic_write_json
    atomic_write_json(path, stats_to_dict(stats, run_id=run_id), indent=2)


__all__: List[str] = [
    "Counter", "DEFAULT_LATENCY_BUCKETS", "Gauge", "Histogram",
    "METRICS_SCHEMA_VERSION", "MetricsRegistry",
    "SUPPORTED_REPORT_VERSIONS", "stats_to_dict", "wilson_interval",
    "write_stats_json",
]
