"""ASCII rendering helpers for benchmark reports (tables and bar charts
mirroring the paper's figures)."""

from __future__ import annotations

import math
import warnings
from typing import Dict, Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; degenerate inputs (empty, zero or negative
    entries) return 0.0 with a warning instead of raising, so one bad
    sweep point cannot kill a whole report."""
    values = [v for v in values]
    if not values:
        warnings.warn("geomean of empty sequence; returning 0.0",
                      stacklevel=2)
        return 0.0
    if any(v <= 0 for v in values):
        warnings.warn(
            "geomean of non-positive values; returning 0.0", stacklevel=2)
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width table; floats rendered with 3 decimals."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(values: Dict[str, float], width: int = 40,
                title: str = "", unit: str = "") -> str:
    """Horizontal ASCII bar chart (the paper's bar figures)."""
    if not values:
        return title
    peak = max(values.values())
    label_width = max(len(k) for k in values)
    lines = [title] if title else []
    for key, value in values.items():
        if peak > 0 and value > 0:
            bar = "#" * max(1, int(round(width * value / peak)))
        else:
            # all-zero (or negative) inputs render without bars rather
            # than dividing by a zero peak
            bar = ""
        lines.append(f"{key.ljust(label_width)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def _stack_bars(categories: Dict[str, int], total: int,
                width: int) -> List[str]:
    ordered = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))
    if not ordered:
        # a tile that touched no memory (or an idle lane) reports an
        # empty category dict — render a placeholder instead of letting
        # max() blow up on the empty sequence
        return ["  (no attributed cycles)"]
    label_width = max(len(c) for c, _ in ordered)
    peak = max((v for _, v in ordered), default=0)
    lines = []
    for category, cycles in ordered:
        bar = "#" * max(1, int(round(width * cycles / peak))) \
            if peak and cycles else ""
        share = 100.0 * cycles / total if total else 0.0
        lines.append(f"  {category.ljust(label_width)} | "
                     f"{bar} {cycles} ({share:.1f}%)")
    return lines


def render_attribution_report(document: dict, top: int = 3,
                              width: int = 32) -> str:
    """Render an ``analyze`` report (schema v2): per-tile CPI stacks,
    a top-N bottleneck diagnosis, fabric stall counters, and the
    roofline capture when present. ``document`` is a ``stats_to_dict``
    result that passed ``validate_report``."""
    attribution = document["attribution"]
    lines = [f"cycle attribution: {attribution['total_cycles']} cycles"]
    aggregate: Dict[str, int] = {}
    aggregate_total = 0
    for name, entry in attribution["tiles"].items():
        total = entry["total_cycles"]
        header = f"{name} ({entry['kind']}, {total} cycles"
        if entry.get("instructions"):
            header += (f", {entry['instructions']} instructions"
                       f", CPI {entry['cpi']:.3f}")
        header += ")"
        lines.append("")
        lines.append(header)
        lines.extend(_stack_bars(entry["categories"], total, width))
        aggregate_total += total
        for category, cycles in entry["categories"].items():
            aggregate[category] = aggregate.get(category, 0) + cycles
    ranked = sorted(aggregate.items(), key=lambda kv: (-kv[1], kv[0]))
    lines.append("")
    lines.append(f"top {min(top, len(ranked))} categories "
                 f"(all tiles, {aggregate_total} tile-cycles):")
    for rank, (category, cycles) in enumerate(ranked[:top], 1):
        share = 100.0 * cycles / aggregate_total if aggregate_total else 0.0
        lines.append(f"  {rank}. {category}: {cycles} ({share:.1f}%)")
    fabric = attribution.get("fabric") or {}
    full = fabric.get("queue_full_stalls") or {}
    empty = fabric.get("queue_empty_stalls") or {}
    if full or empty or fabric.get("recv_waits"):
        lines.append("")
        lines.append("fabric stalls:")
        for queue, count in full.items():
            lines.append(f"  queue {queue} full: {count} producer stall(s)")
        for queue, count in empty.items():
            lines.append(f"  queue {queue} empty: {count} consumer stall(s)")
        if fabric.get("recv_waits"):
            lines.append(f"  recv waits: {fabric['recv_waits']}")
    roofline = document.get("roofline")
    if roofline:
        lines.append("")
        lines.append(
            f"roofline: {roofline['flops']} flops, "
            f"{roofline['dram_bytes']} DRAM bytes "
            f"(AI {roofline['arithmetic_intensity']:.3f} flops/byte, "
            f"peak BW {roofline['dram_peak_bytes_per_cycle']:.2f} B/cycle)")
        for name, tile in roofline.get("tiles", {}).items():
            lines.append(
                f"  {name}: {tile['bound']}-bound, achieved IPC "
                f"{tile['achieved_ipc']:.3f} / attainable "
                f"{tile['attainable_ipc']:.3f} (peak {tile['peak_ipc']:.1f},"
                f" AI {tile['arithmetic_intensity']:.3f})")
    return "\n".join(lines)


def _cycles_line(before: int, after: int) -> str:
    speedup = before / after if after else 0.0
    return (f"cycles: {before} -> {after} "
            f"({after - before:+d}, {speedup:.2f}x speedup)")


def render_totals_diff(before: dict, after: dict) -> str:
    """Render a ``repro diff`` of two reports that lack attribution
    blocks (plain ``simulate --stats-json`` output): the cycle,
    instruction and energy deltas, without the category table."""
    energy_a = before["energy"]["total_nj"]
    energy_b = after["energy"]["total_nj"]
    return "\n".join([
        _cycles_line(before["cycles"], after["cycles"]),
        f"instructions: {before['instructions']} -> "
        f"{after['instructions']} "
        f"({after['instructions'] - before['instructions']:+d})",
        f"energy: {energy_a:.1f} -> {energy_b:.1f} nJ "
        f"({energy_b - energy_a:+.1f} nJ)",
        "category deltas skipped: a report has no attribution block "
        "(write both with `repro analyze --json` for them)"])


def render_report_diff(diff: dict, top: int = 5) -> str:
    """Render a ``repro diff`` result (``diff_reports`` output):
    cycle delta, speedup, and the categories the delta is attributed
    to. Positive deltas are regressions (more cycles spent there)."""
    lines = [_cycles_line(diff["cycles_before"], diff["cycles_after"])]
    if diff.get("tiles_matched_by") == "position":
        lines.append("tiles matched by position (no shared names): "
                     + ", ".join(diff["tiles"]))
    categories = diff["categories"]
    if categories:
        rows = [
            [category, entry["before"], entry["after"],
             f"{entry['delta']:+d}"]
            for category, entry in sorted(
                categories.items(),
                key=lambda kv: (-abs(kv[1]["delta"]), kv[0]))]
        lines.append(render_table(
            ["category", "before", "after", "delta"], rows,
            title="category deltas (cycles, all shared tiles):"))
    lines.append(
        f"memory-stall delta: {diff['memory_stall_delta']:+d} cycle(s)")
    regressions = diff["top_regressions"][:top]
    if regressions:
        worst = ", ".join(f"{category} ({grown:+d})"
                          for category, grown in regressions)
        lines.append(f"top regressions: {worst}")
    for key, label in (("tiles_only_before", "only in A"),
                       ("tiles_only_after", "only in B")):
        if diff[key]:
            lines.append(f"tiles {label}: {', '.join(diff[key])}")
    return "\n".join(lines)


# -- data-movement observatory rendering (schema v3 ``memory`` block) --------

#: density ramp for terminal heatmaps; index 0 is "no events"
_SHADES = " .:-=+*#%@"


def _collapse(values: Sequence[int], width: int) -> List[int]:
    """Sum ``values`` into at most ``width`` columns (per-set arrays can
    be thousands of sets wide; a terminal row is not)."""
    if len(values) <= width:
        return list(values)
    columns = [0] * width
    for index, value in enumerate(values):
        columns[index * width // len(values)] += value
    return columns


def _heat_row(values: Sequence[int], width: int) -> str:
    """One heatmap row: each column shaded by its share of the peak."""
    columns = _collapse(values, width)
    peak = max(columns, default=0)
    if peak <= 0:
        return " " * len(columns)
    top = len(_SHADES) - 1
    return "".join(
        _SHADES[0] if value <= 0
        else _SHADES[max(1, min(top, round(top * value / peak)))]
        for value in columns)


def _fmt_pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def _fmt_percentile(value) -> str:
    # None is the documented empty-histogram sentinel
    return "-" if value is None else f"{value:g}"


def _reuse_summary(reuse: dict) -> str:
    sampled = reuse.get("sampled", reuse.get("count", 0))
    return (f"sampled {sampled}/{reuse.get('accesses', 0)} "
            f"(cold {reuse.get('cold_samples', 0)})  "
            f"p50 {_fmt_percentile(reuse.get('p50'))}  "
            f"p90 {_fmt_percentile(reuse.get('p90'))}  "
            f"p99 {_fmt_percentile(reuse.get('p99'))}")


def _link_rows(ledger: dict, width: int, top: int) -> List[str]:
    """Per-link utilization sparklines over the epoch axis, busiest
    links first."""
    links = ledger.get("links") or {}
    if not links:
        return ["  (no traversals)"]
    span = max(1, ledger.get("epoch_cycles", 1))
    last_epoch = max(
        (int(e) for entry in links.values()
         for e in (entry.get("epochs") or {})), default=0)
    ranked = sorted(links.items(),
                    key=lambda kv: (-kv[1].get("busy", 0), kv[0]))
    label_width = max(len(name) for name, _ in ranked[:top])
    lines = []
    for name, entry in ranked[:top]:
        series = [0] * (last_epoch + 1)
        for epoch, point in (entry.get("epochs") or {}).items():
            series[int(epoch)] = point.get("busy", 0)
        busy = entry.get("busy", 0)
        demand = entry.get("demand", 0)
        util = _fmt_pct(busy, span * len(series))
        note = f" (demand {demand})" if demand > busy else ""
        lines.append(f"  {name.ljust(label_width)} |"
                     f"{_heat_row(series, width)}| "
                     f"busy {busy} cyc, {util} util{note}")
    if len(ranked) > top:
        lines.append(f"  ... {len(ranked) - top} more link(s)")
    return lines


def render_memstat_report(document: dict, width: int = 48,
                          top_links: int = 8) -> str:
    """Render a report's ``memory`` block (``repro memstat``): miss
    classification table, per-set conflict heatmaps, reuse-distance
    summaries, DRAM bank locality, and link-utilization time series.
    ``document`` is a full ``stats_to_dict`` report carrying a
    ``memory`` block (schema v3)."""
    memory = document.get("memory")
    if not memory:
        return ("(report carries no memory block — rerun with "
                "`repro memstat` / --memstat)")
    lines = [f"data-movement observatory (sample every "
             f"{memory.get('sample_every', '?')}, epoch "
             f"{memory.get('epoch_cycles', '?')} cycles, line "
             f"{memory.get('line_bytes', '?')} B)"]

    caches = memory.get("caches") or {}
    if caches:
        rows = []
        for level, entry in sorted(caches.items()):
            misses = entry["misses"]
            rows.append([
                level, entry["instances"],
                f"{entry['num_sets']}x{entry['associativity']}",
                misses,
                f"{entry['compulsory']} ({_fmt_pct(entry['compulsory'], misses)})",
                f"{entry['capacity']} ({_fmt_pct(entry['capacity'], misses)})",
                f"{entry['conflict']} ({_fmt_pct(entry['conflict'], misses)})",
            ])
        lines.append("")
        lines.append(render_table(
            ["level", "inst", "geometry", "misses", "compulsory",
             "capacity", "conflict"],
            rows, title="miss classification (demand misses, all "
                        "instances per level):"))
        for level, entry in sorted(caches.items()):
            set_misses = entry.get("set_misses") or []
            if not any(set_misses):
                continue
            lines.append("")
            lines.append(
                f"{level} per-set heatmap ({entry['num_sets']} sets, "
                f"peak {max(set_misses)} misses/set):")
            lines.append(f"  misses    |{_heat_row(set_misses, width)}|")
            set_conflicts = entry.get("set_conflicts") or []
            if any(set_conflicts):
                lines.append(
                    f"  conflicts |{_heat_row(set_conflicts, width)}| "
                    f"peak {max(set_conflicts)}")

    reuse_lines = []
    for level, entry in sorted(caches.items()):
        reuse = entry.get("reuse_distance")
        if reuse and reuse.get("accesses"):
            reuse_lines.append(f"  {level}: {_reuse_summary(reuse)}")
    for core, reuse in sorted((memory.get("tiles") or {}).items(),
                              key=lambda kv: int(kv[0])):
        if reuse.get("accesses"):
            reuse_lines.append(f"  tile {core}: {_reuse_summary(reuse)}")
    if reuse_lines:
        lines.append("")
        lines.append("reuse distance (distinct lines between reuses):")
        lines.extend(reuse_lines)

    dram = memory.get("dram")
    if dram and dram.get("accesses"):
        accesses = dram["accesses"]
        lines.append("")
        lines.append(
            f"DRAM row-buffer locality ({dram['model']}, "
            f"{dram['banks']} banks, {dram['row_bytes']} B rows, "
            f"{accesses} accesses):")
        lines.append(
            f"  row hits {dram['row_hits']} "
            f"({_fmt_pct(dram['row_hits'], accesses)})  "
            f"misses {dram['row_misses']} "
            f"({_fmt_pct(dram['row_misses'], accesses)})  "
            f"conflicts {dram['row_conflicts']} "
            f"({_fmt_pct(dram['row_conflicts'], accesses)})")
        per_bank = dram.get("per_bank") or []
        for key, label in (("hits", "bank hits"),
                           ("conflicts", "bank conflicts")):
            series = [bank.get(key, 0) for bank in per_bank]
            if any(series):
                lines.append(f"  {label.ljust(14)}|"
                             f"{_heat_row(series, width)}| "
                             f"peak {max(series)}")

    for key, label in (("noc_links", "NoC link utilization"),
                       ("fabric_links", "fabric link traffic")):
        ledger = memory.get(key)
        if ledger and ledger.get("traversals"):
            lines.append("")
            lines.append(f"{label} ({ledger['traversals']} traversals, "
                         f"epoch {ledger['epoch_cycles']} cycles):")
            lines.extend(_link_rows(ledger, width, top_links))

    queues = memory.get("queues") or {}
    if queues:
        lines.append("")
        rows = [[name, entry.get("count", 0),
                 _fmt_percentile(entry.get("p50")),
                 _fmt_percentile(entry.get("p90")),
                 _fmt_percentile(entry.get("p99")),
                 entry.get("max") if entry.get("max") is not None else "-"]
                for name, entry in sorted(queues.items())]
        lines.append(render_table(
            ["queue", "samples", "p50", "p90", "p99", "max"], rows,
            title="DAE queue occupancy (entries):"))
    return "\n".join(lines)


def render_memory_diff(memory_diff: dict) -> str:
    """Render the ``memory`` section of a ``diff_reports`` result
    (``repro diff --memory``): per-level miss-class deltas plus the
    DRAM locality delta."""
    lines = []
    caches = memory_diff.get("caches") or {}
    if caches:
        rows = []
        for level, entry in sorted(caches.items()):
            for key in ("misses", "compulsory", "capacity", "conflict"):
                change = entry[key]
                rows.append([f"{level}.{key}", change["before"],
                             change["after"], f"{change['delta']:+d}"])
        lines.append(render_table(
            ["counter", "before", "after", "delta"], rows,
            title="memory deltas (miss classification):"))
    dram = memory_diff.get("dram")
    if dram:
        rows = [[key, change["before"], change["after"],
                 f"{change['delta']:+d}"]
                for key, change in sorted(dram.items())]
        lines.append(render_table(
            ["counter", "before", "after", "delta"], rows,
            title="DRAM locality deltas:"))
    if not lines:
        return "(no memory blocks to diff)"
    return "\n\n".join(lines)


def render_timeline(document: dict, width: int = 72,
                    title: str = "") -> str:
    """Plain-text rendering of a Chrome ``trace_event`` document: one
    row per lane (trace tid), spans drawn as ``#`` runs and instants as
    ``!`` over the simulated-time axis. Counter events are skipped.

    Complements the Perfetto flow for quick terminal inspection
    (``repro timeline trace.json``)."""
    events = [e for e in document.get("traceEvents", ())
              if e.get("ph") in ("X", "i")]
    lane_names = {
        e["tid"]: e.get("args", {}).get("name", "")
        for e in document.get("traceEvents", ())
        if e.get("ph") == "M" and e.get("name") == "thread_name"}
    lines = [title] if title else []
    if not events:
        lines.append("(no span or instant events)")
        return "\n".join(lines)
    start = min(e["ts"] for e in events)
    end = max(e["ts"] + e.get("dur", 0) for e in events)
    extent = max(1, end - start)
    lanes: Dict[int, List[str]] = {}
    for event in events:
        row = lanes.setdefault(event["tid"], [" "] * width)
        lo = (event["ts"] - start) * (width - 1) // extent
        if event["ph"] == "X":
            hi = (event["ts"] + event.get("dur", 0) - start) \
                * (width - 1) // extent
            for i in range(int(lo), int(hi) + 1):
                row[i] = "#"
        else:
            row[int(lo)] = "!"
    label_width = max(
        (len(lane_names.get(tid, f"tid {tid}")) for tid in lanes),
        default=0)
    lines.append(f"{'':{label_width}}  ts {start} .. {end} "
                 f"({len(events)} events)")
    for tid in sorted(lanes):
        label = lane_names.get(tid, f"tid {tid}")
        lines.append(f"{label:>{label_width}} |{''.join(lanes[tid])}|")
    return "\n".join(lines)


def render_campaign_report(document: Dict, width: int = 36) -> str:
    """Terminal rendering of a fault-campaign report block (see
    ``repro.resilience.campaign``): headline, a per-site outcome table
    with SDC confidence intervals, stacked outcome bars per site, and
    the SDC trials with their replay seeds."""
    golden = document.get("golden", {})
    lines = [
        f"fault campaign: {document.get('workload', '?')} — "
        f"{document.get('trials', 0)}/"
        f"{document.get('requested_trials', document.get('trials', 0))} "
        f"trial(s), seed {document.get('seed', 0)}"
        + ("  [early stop]" if document.get("early_stopped") else ""),
        f"golden: {golden.get('cycles', '?')} cycles, "
        f"{golden.get('segments', '?')} segment(s), "
        f"digest {str(golden.get('digest', ''))[:12]}",
    ]
    outcome_order = ["masked", "sdc", "detected", "hang", "config-error",
                     "worker_died"]
    per_site = document.get("per_site", {})
    rows = []
    for site in document.get("sites", sorted(per_site)):
        block = per_site.get(site)
        if block is None:
            continue
        sdc = block.get("sdc", {})
        low, high = sdc.get("ci", (0.0, 1.0))
        rows.append([site, block.get("trials", 0)]
                    + [block.get("outcomes", {}).get(o, 0)
                       for o in outcome_order]
                    + [f"{sdc.get('rate', 0.0):.3f}",
                       f"[{low:.3f}, {high:.3f}]"])
    if rows:
        lines.append(render_table(
            ["site", "trials"] + outcome_order + ["sdc-rate", "CI"],
            rows))
    for site in document.get("sites", sorted(per_site)):
        block = per_site.get(site)
        if block is None or not block.get("trials"):
            continue
        total = block["trials"]
        bar = []
        marks = {"masked": ".", "sdc": "X", "detected": "d", "hang": "h",
                 "config-error": "c", "worker_died": "w"}
        for outcome in outcome_order:
            count = block.get("outcomes", {}).get(outcome, 0)
            if count:
                span = max(1, round(width * count / total))
                bar.append(marks[outcome] * span)
        lines.append(f"  {site:<6} |{''.join(bar)[:width]:<{width}}| "
                     f"(. masked, X sdc, d detected, h hang)")
    sdc = document.get("sdc", {})
    low, high = sdc.get("ci", (0.0, 1.0))
    lines.append(f"aggregate SDC rate {sdc.get('rate', 0.0):.3f} "
                 f"(CI [{low:.3f}, {high:.3f}], "
                 f"{sdc.get('count', 0)}/{document.get('trials', 0)})")
    trials = sdc.get("trials", ())
    if trials:
        lines.append("SDC trials (seed replays the corruption under "
                     "`repro inject`):")
        for entry in trials:
            corrupted = ", ".join(entry.get("corrupted", ())) or "?"
            lines.append(f"  trial {entry.get('trial')}  "
                         f"site {entry.get('site')}  "
                         f"seed {entry.get('seed')}  "
                         f"{entry.get('faults', 0)} fault(s)  "
                         f"corrupted: {corrupted}")
    return "\n".join(lines)
