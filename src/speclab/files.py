"""Atomic artifact writes.

An artifact is written to a temporary file in its own directory and
then renamed over the destination, so a reader sees either the old
file or the complete new one, never a truncated write.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is encoded as UTF-8).

    If the write fails, ``path`` is left as it was and the temporary
    file is removed.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded
