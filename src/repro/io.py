"""Crash-safe JSON persistence shared by the on-disk caches.

The engine's result cache (which also holds the profile store's
profiles) persists artefacts as JSON files in directories that
parallel workers and concurrent campaigns may share.  Two rules keep that safe:

* writes go to a unique temporary file first and are renamed into
  place (`os.replace` is atomic on POSIX), so readers never observe a
  partial file, and
* a file that fails to parse (e.g. a write interrupted by a crash) is
  treated as a cache miss rather than an error, and will simply be
  overwritten by the next write.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional


def atomic_write_json(path: Path, data: Any) -> None:
    """Serialise ``data`` to ``path`` via a unique tmp file + rename."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_json_tolerant(path: Path) -> Optional[Any]:
    """The parsed contents of ``path``, or ``None`` if absent/corrupt."""
    if not path.exists():
        return None
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, OSError):
        return None
