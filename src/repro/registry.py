"""Run registry: provenance manifests.

Every registered run writes a **manifest** — run id, config digest,
seed, schema versions, workload, host, wall time, headline stats, and
the paths of the artifacts it produced — into a ``runs/`` registry
directory. The manifest makes a run's artifacts joinable: the same
``run_id`` is stamped into the Chrome trace, the stats report, and
checkpoints. To compare two runs, diff their ``--stats-json`` reports
with ``repro diff``.
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
    "MANIFEST_SCHEMA_VERSION", "RunManifest", "RunRegistry",
    "config_digest", "new_run_id", "validate_manifest",
]

#: bump when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1
#: file name suffix that marks a manifest in a registry directory
MANIFEST_SUFFIX = ".manifest.json"


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
    """A directory of run manifests: ``<root>/<run_id>.manifest.json``.
    Other files may share the directory (a run's ``--stats-json``
    report, say); only the manifest suffix marks a manifest."""

    def __init__(self, root: str):
        self.root = root

    def _manifest_path(self, run_id: str) -> str:
        return os.path.join(self.root, run_id + MANIFEST_SUFFIX)

    def record(self, manifest: RunManifest) -> str:
        """Write ``manifest``; returns its path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._manifest_path(manifest.run_id)
        atomic_write_json(path, manifest.as_dict())
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
        """Registered run ids, oldest first by ``created_unix`` (an id
        given with ``--run-id`` need not sort by time)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        manifests = [self.load(name[:-len(MANIFEST_SUFFIX)])
                     for name in names if name.endswith(MANIFEST_SUFFIX)]
        manifests.sort(key=lambda manifest: (manifest.created_unix,
                                             manifest.run_id))
        return [manifest.run_id for manifest in manifests]

    def latest(self) -> Optional[RunManifest]:
        """The most recently recorded manifest, or None."""
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None
