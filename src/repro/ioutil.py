"""Crash-safe file output.

Every artifact writer in the repo (stats/trace/bench JSON, checkpoints,
sweep journals) goes through the same protocol: write to a temporary
file in the destination directory, fsync it, then atomically rename it
over the destination. A crash — power loss, SIGKILL, OOM — therefore
leaves either the previous complete artifact or the new complete
artifact on disk, never a truncated one for CI (or a resume) to choke
on.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Union

__all__ = ["atomic_write_bytes", "atomic_write_chunks", "atomic_write_json",
           "atomic_write_text"]


def atomic_write_chunks(path: str, chunks: Iterable[bytes]) -> None:
    """Write the concatenation of ``chunks`` to ``path`` atomically
    (temp + fsync + rename), one chunk at a time, so a large artifact
    never has to exist in memory whole. If ``chunks`` raises, the
    temporary file is removed and ``path`` keeps its previous content."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    except OSError as exc:
        # name the destination, not the temporary file nobody asked for
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename)."""
    atomic_write_chunks(path, (data,))


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, document: Union[dict, list], *,
                      indent=None, sort_keys: bool = False) -> None:
    """Serialize ``document`` and write it atomically, newline-terminated."""
    text = json.dumps(document, indent=indent, sort_keys=sort_keys)
    atomic_write_text(path, text + "\n")
