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
  unparsable (torn, garbage) and non-object lines;
  :func:`read_appended` reads on from where an earlier read stopped.

* :func:`make_dirs` creates a directory and its missing parents,
  fsyncing each new level into its parent, so a directory created on
  first use survives a power cut along with what is published into it.

Interrupted publishes leave only ``*.tmp`` files, which ``repro journal
gc``, ``repro cache gc`` and :meth:`~repro.resilience.lease.LeaseDir.
sweep_stale` remove.

``os.fsync``, ``os.replace``, ``os.link`` and ``os.mkdir`` are called
through the ``os`` module so instrumentation that replaces them sees
every call.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write", "Appender", "make_dirs", "read_appended", "read_records",
]


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def make_dirs(path: str | Path) -> Path:
    """Create ``path`` and any missing parents, each new level fsync'd
    into its parent; returns ``path``.  An existing directory costs no
    fsync."""
    path = Path(path)
    missing = []
    level = path
    while not level.is_dir() and level.parent != level:
        missing.append(level)
        level = level.parent
    for level in reversed(missing):
        try:
            os.mkdir(level)
        except FileExistsError:
            if not level.is_dir():
                raise
        _fsync_dir(level.parent)
    return path


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
    make_dirs(path.parent)
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
        make_dirs(self.path.parent)
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

    def append(self, record: dict[str, Any]) -> None:
        """Write the record as one compact JSON line, then flush + fsync."""
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._fh.write(line.encode())
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def _record(line: bytes) -> dict[str, Any] | None:
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def read_appended(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """The JSON objects of an NDJSON file from byte ``offset`` on (as
    :func:`read_records` skips lines), and the offset to read on from.
    A final line without its newline is taken only as a whole JSON
    object; anything else there (an append in flight, a torn tail) is
    read again next time.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return [], offset
    with fh:
        fh.seek(offset)
        data = fh.read()
    *lines, tail = data.split(b"\n")
    records = [obj for obj in map(_record, lines) if obj is not None]
    end = offset + len(data) - len(tail)
    last = _record(tail) if tail else None
    if last is not None:
        records.append(last)
        end += len(tail)
    return records, end


def read_records(path: str | Path) -> list[dict[str, Any]]:
    """The JSON objects of an NDJSON file, in order; ``[]`` if missing.

    Blank lines, unparsable lines (a torn tail, garbage) and lines that
    are not JSON objects are skipped, so a crashed writer's file still
    yields every record it completed.
    """
    return read_appended(path)[0]
