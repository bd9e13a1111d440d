"""How bytes become durable: atomic publish, fsync'd append, torn-tail read.

Every file that crash recovery reads back goes through one of three
primitives, so the durability discipline is decided (and crash-tested)
in one place — see the "Durability" section of ``docs/resilience.md``:

* :func:`atomic_write` publishes a whole file: a temp file
  ``.<name>.<random>.tmp`` in the same directory is written and
  fsync'd, renamed over the target (or hard-linked to it, first writer
  wins), and then the directory itself is fsync'd so the rename
  survives power loss, not only ``kill -9``.
* :class:`Appender` appends NDJSON records, one flush + fsync per
  :meth:`~Appender.append` call.  Opening it terminates a torn final
  line (a crash mid-append) so the next record starts on a fresh
  line, and creating the file fsyncs its directory.
* :func:`read_records` reads such a file back, skipping blank,
  unparsable (torn, garbage) and non-object lines.

Interrupted publishes leave only ``*.tmp`` files, which ``repro journal
gc``, ``repro cache gc`` and :meth:`~repro.resilience.lease.LeaseDir.
sweep_stale` remove.  Directories created on first use are not fsync'd
into their parents.

``os.fsync``, ``os.replace`` and ``os.link`` are called through the
``os`` module so instrumentation that replaces them sees every call.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

__all__ = ["atomic_write", "Appender", "read_records"]


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path: str | Path, data: bytes | str, *, exclusive: bool = False
) -> bool:
    """Publish ``data`` as the complete contents of ``path``.

    Readers see the old file (or none) until the rename, then the new
    one — never a torn file.  With ``exclusive`` the publish is a hard
    link, so the first writer wins: returns False, leaving the existing
    file untouched, when ``path`` already exists.  Any failure removes
    the temp file and re-raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        if not exclusive:
            os.replace(tmp, path)
        else:
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    _fsync_dir(path.parent)
    return True


class Appender:
    """An fsync'd NDJSON append stream (one writer per file)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._fh = self.path.open("a+b")
        if created:
            _fsync_dir(self.path.parent)
            return
        size = os.fstat(self._fh.fileno()).st_size
        if size and os.pread(self._fh.fileno(), 1, size - 1) != b"\n":
            # a crash mid-append left a torn line: terminate it so the
            # next record is not glued onto the unparsable remnant
            self._fh.write(b"\n")

    def append(self, *records: dict[str, Any]) -> None:
        """Write each record as one compact JSON line, then flush + fsync."""
        self._fh.write(b"".join(
            (json.dumps(r, separators=(",", ":")) + "\n").encode()
            for r in records
        ))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def read_records(path: str | Path) -> list[dict[str, Any]]:
    """The JSON objects of an NDJSON file, in order; ``[]`` if missing.

    Blank lines, unparsable lines (a torn tail, garbage) and lines that
    are not JSON objects are skipped, so a crashed writer's file still
    yields every record it completed.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return []
    records: list[dict[str, Any]] = []
    with fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                records.append(obj)
    return records
