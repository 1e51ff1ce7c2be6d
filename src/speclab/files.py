"""Atomic artifact writes, and line reads that refuse a truncated file.

An artifact is written to a temporary file in its own directory and
then renamed over the destination, so a reader sees either the old
file or the complete new one, never a truncated write. Text artifacts
end every line with a newline, so a reader can tell a file cut short.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from .errors import DomainError


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


def read_lines(path):
    """``(lineno, line)`` for each non-blank line of a text artifact, stripped.

    A non-blank last line without a newline is a truncated file: it raises
    :class:`DomainError` naming the path and line.
    """
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not raw.endswith("\n"):
                raise DomainError(f"{path} line {lineno}: no newline at the end of the file, "
                                  "which may be truncated")
            yield lineno, line


def line_fields(line: str, keys, where: str) -> dict[str, str]:
    """The ``key=value`` fields of one line, whose keys must be ``keys``, each once.

    A field without '=', a repeated field or another set of keys raises
    :class:`DomainError` starting with ``where``, which names the line.
    """
    parts = [part.split("=", 1) for part in line.split()]
    if any(len(part) != 2 for part in parts):
        raise DomainError(f"{where}: a field without '='")
    fields = dict(parts)
    if len(fields) < len(parts):
        names = [key for key, _ in parts]
        repeated = next(key for i, key in enumerate(names) if key in names[:i])
        raise DomainError(f"{where}: repeated field '{repeated}'")
    if set(fields) != set(keys):
        raise DomainError(f"{where}: unexpected fields")
    return fields
