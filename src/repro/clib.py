"""Building the C libraries: the compiled core (``sim/core/step.c``) and
the trace interpreter (``trace/interp.c``).

Each library is compiled with ``gcc -shared -fPIC`` on first use into the
user cache directory (``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``,
else the temp directory), named by the hash of its source and its flags,
so an edited source or a changed flag builds anew and every later process
loads the cached ``.so``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def build(source: Path, flags: Sequence[str], error: type,
          libs: Sequence[str] = ()) -> Optional[Path]:
    """The ``.so`` built from ``source``, or None when ``gcc`` is not on
    PATH. A source that fails to compile raises ``error``."""
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    digest = hashlib.sha256(source.read_bytes())
    digest.update("\0".join([*flags, *libs]).encode())
    name = f"{source.stem}-{digest.hexdigest()[:16]}.so"
    for directory in (cache_dir(), Path(tempfile.gettempdir()) / "repro"):
        path = directory / name
        if path.exists():
            return path
        try:
            directory.mkdir(parents=True, exist_ok=True)
            scratch = directory / f".{name}.{os.getpid()}.tmp"
            result = subprocess.run(
                [gcc, *flags, "-shared", "-fPIC", "-o", str(scratch),
                 str(source), *libs], capture_output=True, text=True)
        except OSError:
            continue  # unwritable cache directory: try the next one
        if result.returncode != 0:
            raise error(f"{source.name} failed to build:\n"
                        f"{result.stderr.strip()}")
        os.replace(scratch, path)  # atomic: readers never see a partial .so
        return path
    raise error(f"no writable directory to build {source.name} in")
