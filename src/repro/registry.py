"""Run registry: provenance manifests and cross-run regression history.

Every registered run writes a **manifest** — run id, config digest,
seed, schema versions, workload, host, wall time, headline stats, and
the paths of the artifacts it produced — into a ``runs/`` registry
directory, and appends a one-line summary to an append-only **history**
JSONL. The manifest makes a run's artifacts joinable (the same
``run_id`` is stamped into the Chrome trace, the stats report, and
checkpoints); the history makes runs comparable across time:
``repro history check`` exits 2 when the latest run regressed beyond a
threshold against a named baseline, ``repro history diff`` renders the
comparison.

Regression checks gate on **cycles** by default — simulated cycles are
deterministic, so any drift is a real behavior change. MIPS (host
simulation speed) varies across machines and is only gated behind
``check_mips=True`` (CI gates speed with ``bench/run.py`` instead,
parent and change on the same host).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .ioutil import atomic_write_json

__all__ = [
    "HISTORY_SCHEMA_VERSION", "MANIFEST_SCHEMA_VERSION", "RunManifest",
    "RunRegistry", "append_history", "config_digest", "find_baseline",
    "history_check", "history_entry", "load_history", "new_run_id",
    "render_history_diff", "seed_history_from_bench", "validate_manifest",
]

#: bump when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1
#: bump when the history line layout changes incompatibly
HISTORY_SCHEMA_VERSION = 1


def new_run_id(clock=time.time) -> str:
    """A sortable, collision-resistant run id:
    ``r<UTC timestamp>-<6 hex>`` (e.g. ``r20260807-153000-ab12cd``)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(clock()))
    return f"r{stamp}-{uuid.uuid4().hex[:6]}"


def config_digest(document: dict) -> str:
    """Stable digest of a configuration document: the first 16 hex of
    SHA-256 over its canonical JSON. Two runs with equal digests ran
    the same configuration (same workload inputs aside)."""
    canonical = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunManifest:
    """Provenance record of one simulation run."""

    run_id: str
    workload: str = ""
    status: str = "ok"
    config_digest: str = ""
    seed: Optional[int] = None
    created_unix: float = 0.0
    wall_seconds: float = 0.0
    host: str = ""
    platform: str = ""
    python: str = ""
    #: headline stats (deterministic)
    cycles: Optional[int] = None
    instructions: Optional[int] = None
    ipc: Optional[float] = None
    #: headline host speed (NOT deterministic; informational)
    mips: Optional[float] = None
    #: schema versions of every format this run may have written
    schema_versions: Dict[str, int] = field(default_factory=dict)
    #: artifact kind -> path (trace, report, checkpoint, heartbeats, ...)
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: free-form labels (sweep grid, CLI flags, CI job name)
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "workload": self.workload,
            "status": self.status,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "created_unix": self.created_unix,
            "wall_seconds": self.wall_seconds,
            "host": self.host,
            "platform": self.platform,
            "python": self.python,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "mips": self.mips,
            "schema_versions": dict(self.schema_versions),
            "artifacts": dict(self.artifacts),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "RunManifest":
        validate_manifest(document)
        fields = {name: document.get(name) for name in (
            "run_id", "workload", "status", "config_digest", "seed",
            "created_unix", "wall_seconds", "host", "platform", "python",
            "cycles", "instructions", "ipc", "mips")}
        fields = {k: v for k, v in fields.items() if v is not None}
        return cls(schema_versions=dict(document.get("schema_versions", {})),
                   artifacts=dict(document.get("artifacts", {})),
                   extra=dict(document.get("extra", {})), **fields)

    @classmethod
    def capture(cls, run_id: str, *, workload: str = "",
                status: str = "ok", config: Optional[dict] = None,
                seed: Optional[int] = None, stats=None,
                wall_seconds: float = 0.0,
                mips: Optional[float] = None,
                schema_versions: Optional[Dict[str, int]] = None,
                artifacts: Optional[Dict[str, str]] = None,
                extra: Optional[Dict[str, object]] = None) -> "RunManifest":
        """Build a manifest from live run objects: environment fields
        are captured here, headline stats lifted off ``stats``."""
        manifest = cls(
            run_id=run_id, workload=workload, status=status,
            config_digest=config_digest(config) if config else "",
            seed=seed, created_unix=time.time(),
            wall_seconds=wall_seconds,
            host=socket.gethostname(), platform=platform.platform(),
            python=platform.python_version(), mips=mips,
            schema_versions=dict(schema_versions or {}),
            artifacts=dict(artifacts or {}), extra=dict(extra or {}))
        if stats is not None:
            manifest.cycles = stats.cycles
            manifest.instructions = stats.instructions
            manifest.ipc = stats.ipc
        return manifest


def validate_manifest(document: dict) -> str:
    """Validate a manifest document; returns its ``run_id``. Raises
    :class:`ValueError` on the first violation."""
    if not isinstance(document, dict):
        raise ValueError("manifest must be a JSON object")
    version = document.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"manifest schema version {version!r} unsupported "
                         f"(expected {MANIFEST_SCHEMA_VERSION})")
    run_id = document.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        raise ValueError("manifest needs a non-empty string run_id")
    if not isinstance(document.get("status"), str):
        raise ValueError("manifest needs a string status")
    for name in ("cycles", "instructions"):
        value = document.get(name)
        if value is not None and (not isinstance(value, int) or value < 0):
            raise ValueError(f"manifest field {name!r} must be a "
                             f"non-negative integer, got {value!r}")
    for name in ("schema_versions", "artifacts", "extra"):
        value = document.get(name, {})
        if not isinstance(value, dict):
            raise ValueError(f"manifest field {name!r} must be an object")
    return run_id


class RunRegistry:
    """A directory of run manifests: ``<root>/<run_id>.json``.

    ``record()`` atomically writes a manifest and (by default) appends
    its summary to ``<root>/history.jsonl`` — one registry is both the
    provenance store and the regression-history feed.
    """

    def __init__(self, root: str):
        self.root = root

    @property
    def history_path(self) -> str:
        return os.path.join(self.root, "history.jsonl")

    def _manifest_path(self, run_id: str) -> str:
        return os.path.join(self.root, f"{run_id}.json")

    def record(self, manifest: RunManifest, *, history: bool = True,
               label: str = "") -> str:
        """Write ``manifest``; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._manifest_path(manifest.run_id)
        atomic_write_json(path, manifest.as_dict())
        if history:
            append_history(self.history_path,
                           history_entry(manifest, label=label))
        return path

    def load(self, run_id: str) -> RunManifest:
        path = self._manifest_path(run_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValueError(
                f"cannot read manifest for run {run_id!r}: {exc}") from exc
        return RunManifest.from_dict(document)

    def run_ids(self) -> List[str]:
        """Registered run ids, oldest first (ids sort by timestamp)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name[:-5] for name in names
                      if name.endswith(".json") and name != "history.jsonl")

    def latest(self) -> Optional[RunManifest]:
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None


# -- append-only history + regression gates ---------------------------------

def history_entry(manifest: RunManifest, label: str = "") -> dict:
    """One history line summarizing a run. ``label`` names the entry so
    later runs can baseline against it (e.g. ``"baseline"``, a release
    tag, a CI job name)."""
    return {
        "v": HISTORY_SCHEMA_VERSION,
        "run_id": manifest.run_id,
        "label": label,
        "workload": manifest.workload,
        "status": manifest.status,
        "config_digest": manifest.config_digest,
        "created_unix": manifest.created_unix,
        "cycles": manifest.cycles,
        "instructions": manifest.instructions,
        "ipc": manifest.ipc,
        "mips": manifest.mips,
        "wall_seconds": manifest.wall_seconds,
    }


def append_history(path: str, entry: dict) -> None:
    """Append one entry to the history JSONL (fsynced: history is the
    durable record the regression gate trusts)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_history(path: str) -> List[dict]:
    """History entries, oldest first; a torn tail line ends the scan."""
    entries: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
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
        if isinstance(document, dict) and \
                document.get("v") == HISTORY_SCHEMA_VERSION:
            entries.append(document)
    return entries


def find_baseline(entries: List[dict], baseline: str,
                  workload: str = "") -> Optional[dict]:
    """The newest entry whose label or run_id matches ``baseline``
    (optionally restricted to one workload). Latest wins so a re-pinned
    label supersedes older pins."""
    for entry in reversed(entries):
        if workload and entry.get("workload") != workload:
            continue
        if entry.get("label") == baseline or entry.get("run_id") == baseline:
            return entry
    return None


def history_check(entries: List[dict], baseline: str, *,
                  threshold: float = 0.05,
                  check_mips: bool = False) -> List[dict]:
    """Compare the latest run of each workload against ``baseline``.

    Returns regression records (empty = gate passes). A regression is:

    * ``cycles`` grew by more than ``threshold`` (relative) — always
      checked; cycles are deterministic, so growth is a real slowdown
      of the simulated system;
    * ``mips`` dropped by more than ``threshold`` — only with
      ``check_mips=True`` (host-speed comparisons only mean something
      on the same machine);
    * the latest run's ``status`` is not ``ok`` while the baseline's
      was.
    """
    regressions: List[dict] = []
    workloads = {entry.get("workload") for entry in entries
                 if entry.get("label") != baseline
                 and entry.get("run_id") != baseline}
    for workload in sorted(w for w in workloads if w is not None):
        base = find_baseline(entries, baseline, workload=workload)
        if base is None:
            continue
        latest = next((entry for entry in reversed(entries)
                       if entry.get("workload") == workload
                       and entry is not base), None)
        if latest is None:
            continue
        if base.get("status") == "ok" and latest.get("status") != "ok":
            regressions.append({
                "workload": workload, "metric": "status",
                "baseline": base.get("status"),
                "latest": latest.get("status"),
                "run_id": latest.get("run_id"),
                "baseline_run_id": base.get("run_id")})
            continue
        base_cycles, new_cycles = base.get("cycles"), latest.get("cycles")
        if base_cycles and new_cycles and \
                new_cycles > base_cycles * (1.0 + threshold):
            regressions.append({
                "workload": workload, "metric": "cycles",
                "baseline": base_cycles, "latest": new_cycles,
                "ratio": new_cycles / base_cycles,
                "run_id": latest.get("run_id"),
                "baseline_run_id": base.get("run_id")})
        if check_mips:
            base_mips, new_mips = base.get("mips"), latest.get("mips")
            if base_mips and new_mips and \
                    new_mips < base_mips * (1.0 - threshold):
                regressions.append({
                    "workload": workload, "metric": "mips",
                    "baseline": base_mips, "latest": new_mips,
                    "ratio": new_mips / base_mips,
                    "run_id": latest.get("run_id"),
                    "baseline_run_id": base.get("run_id")})
    return regressions


def render_history_diff(entries: List[dict], baseline: str,
                        threshold: float = 0.05,
                        check_mips: bool = False) -> str:
    """Human-readable latest-vs-baseline comparison per workload."""
    lines = [f"history diff vs baseline {baseline!r} "
             f"(threshold {threshold:.0%})"]
    workloads = sorted({entry.get("workload") for entry in entries
                        if entry.get("workload") is not None})
    regressions = history_check(entries, baseline, threshold=threshold,
                                check_mips=check_mips)
    regressed = {(r["workload"], r["metric"]) for r in regressions}
    for workload in workloads:
        base = find_baseline(entries, baseline, workload=workload)
        latest = next((entry for entry in reversed(entries)
                       if entry.get("workload") == workload
                       and entry is not base), None)
        if base is None or latest is None:
            lines.append(f"  {workload}: no comparable pair")
            continue
        for metric in ("cycles", "ipc", "mips"):
            before, after = base.get(metric), latest.get(metric)
            if before is None or after is None or not before:
                continue
            delta = (after - before) / before
            flag = ""
            if (workload, metric) in regressed:
                flag = "  <-- REGRESSION"
            lines.append(f"  {workload} {metric}: {before:g} -> {after:g} "
                         f"({delta:+.2%}){flag}")
        if latest.get("status") != "ok":
            flag = "  <-- REGRESSION" if (workload, "status") in regressed \
                else ""
            lines.append(f"  {workload} status: {base.get('status')} -> "
                         f"{latest.get('status')}{flag}")
    if not regressions:
        lines.append("  no regressions beyond threshold")
    return "\n".join(lines)


def seed_history_from_bench(results_dir: str, history_path: str,
                            label: str = "baseline") -> int:
    """Bootstrap a history file from the committed BENCH artifacts.

    ``BENCH_cycle_identity.json`` contributes one deterministic entry
    per kernel (cycles + instructions). Returns the number of entries
    appended — existing history lines are kept (the file is
    append-only).
    """
    appended = 0
    identity_path = os.path.join(results_dir, "BENCH_cycle_identity.json")
    try:
        with open(identity_path, "r", encoding="utf-8") as handle:
            identity = json.load(handle)
    except (OSError, ValueError):
        identity = None
    if isinstance(identity, dict):
        for kernel, record in sorted(
                (identity.get("kernels") or {}).items()):
            if not isinstance(record, dict):
                continue
            append_history(history_path, {
                "v": HISTORY_SCHEMA_VERSION,
                "run_id": f"bench-cycle-identity-{kernel}",
                "label": label,
                "workload": kernel,
                "status": "ok",
                "config_digest": "",
                "created_unix": 0.0,
                "cycles": record.get("cycles"),
                "instructions": record.get("instructions"),
                "ipc": None, "mips": None, "wall_seconds": 0.0,
            })
            appended += 1
    return appended
