"""Crash tests of ``repro.common.durable`` and of every writer built on it.

Appends are cut at every byte offset of their last record.  Publishes
run under :class:`PowerCut`, a recording file layer that models losing
the page cache: a directory entry survives only as of its directory's
last fsync, and a file's bytes only as of the file's last fsync.
"""

from __future__ import annotations

import ast
import errno
import json
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.durable import (
    Appender,
    atomic_write,
    make_dirs,
    read_appended,
    read_records,
)
from repro.obs.flight import FlightRecorder
from repro.obs.stitch import ActivitySink
from repro.prof.activity import ActivityRecord
from repro.resilience.fleet import _quarantine_job, ensure_manifest
from repro.resilience.journal import RunJournal
from repro.resilience.lease import LeaseDir
from repro.sched import JobSpec
from repro.sched.cache import ResultCache
from repro.serve.queue import DurableQueue
from repro.serve.request import parse_request


class PowerCut:
    """Watch fsyncs, renames and links under ``root``; :meth:`cut`
    returns the regular files a power cut would leave.

    fds are matched to files by ``os.fstat`` inode.  Whatever exists
    when the layer is installed counts as durable.  A directory, like a
    file, survives only as an entry of its parent's last fsync, so a
    file in a directory whose creation was never fsync'd is lost.
    ``fail_at = (op, n)`` makes the n-th call of ``op`` raise ``EIO``.
    """

    OPS = ("fsync", "replace", "link")

    def __init__(self, root: Path, monkeypatch) -> None:
        self.root = root
        self.entries: dict[Path, dict[str, int]] = {}  # dir -> name -> ino
        self.subdirs: dict[Path, set[str]] = {}        # dir -> dir names
        self.data: dict[int, bytes] = {}               # ino -> bytes
        self.calls = dict.fromkeys(self.OPS, 0)
        self.fail_at: tuple[str, int] | None = None
        for dirpath, _, files in os.walk(root):
            self._sync_dir(Path(dirpath))
            for name in files:
                path = Path(dirpath) / name
                self.data[path.stat().st_ino] = path.read_bytes()
        for op in self.OPS:
            monkeypatch.setattr(os, op, self._wrap(op, getattr(os, op)))

    def _wrap(self, op, real):
        def call(*args, **kwargs):
            self.calls[op] += 1
            if self.fail_at == (op, self.calls[op]):
                raise OSError(errno.EIO, f"injected {op} failure")
            result = real(*args, **kwargs)
            if op == "fsync":
                self._synced(args[0])
            return result
        return call

    def _sync_dir(self, path: Path) -> None:
        listing = list(os.scandir(path))
        self.entries[path] = {
            e.name: e.inode() for e in listing
            if e.is_file(follow_symlinks=False)
        }
        self.subdirs[path] = {
            e.name for e in listing if e.is_dir(follow_symlinks=False)
        }

    def survives(self, path: Path) -> bool:
        """Is directory ``path`` still reachable from the root after a cut?"""
        while path != self.root:
            if path.name not in self.subdirs.get(path.parent, ()):
                return False
            path = path.parent
        return True

    def _synced(self, fd: int) -> None:
        synced = os.fstat(fd)
        for dirpath, _, files in os.walk(self.root):
            base = Path(dirpath)
            if stat.S_ISDIR(synced.st_mode):
                if base.stat().st_ino == synced.st_ino:
                    self._sync_dir(base)
                    return
                continue
            for name in files:
                if (base / name).stat().st_ino == synced.st_ino:
                    self.data[synced.st_ino] = (base / name).read_bytes()
                    return

    def cut(self) -> dict[str, bytes]:
        """relative path -> bytes of every file that survives."""
        return {
            str((d / name).relative_to(self.root)): self.data.get(ino, b"")
            for d, names in self.entries.items() if self.survives(d)
            for name, ino in names.items()
        }

    def visible(self) -> dict[str, bytes]:
        """relative path -> bytes of every file on disk right now."""
        return {
            str(p.relative_to(self.root)): p.read_bytes()
            for p in self.root.rglob("*") if p.is_file()
        }


def no_temps(files: dict[str, bytes]) -> bool:
    return not any(name.endswith(".tmp") for name in files)


# ----------------------------------------------------------------------
# appends

def _line(record) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def _check_every_cut(path: Path, records: list[dict], extra: dict) -> None:
    """Truncate inside the last record at every offset, then reopen."""
    with_appender = Appender(path)
    for record in records:
        with_appender.append(record)
    with_appender.close()
    full = path.read_bytes()
    last = _line(records[-1])
    start = len(full) - len(last)
    for offset in range(len(last)):
        path.write_bytes(full[: start + offset])
        # a proper prefix of a JSON object never parses; the whole
        # object without its newline does
        kept = records if offset == len(last) - 1 else records[:-1]
        assert read_records(path) == kept
        # a reader that read up to the cut reads on from where it
        # stopped, whether the append in flight lands or a reopening
        # appender heals its torn tail
        seen, end = read_appended(path)
        assert seen == kept
        path.write_bytes(full)
        assert read_appended(path, end) == (records[len(kept):], len(full))
        path.write_bytes(full[: start + offset])
        app = Appender(path)
        app.append(extra)
        app.close()
        assert read_records(path) == kept + [extra]
        assert read_appended(path, end) == ([extra], path.stat().st_size)


class TestAppends:
    def test_every_cut_inside_the_last_record(self, tmp_path):
        records = [{"schema": "s/1"}, {"job": "a", "v": 1.5}, {"job": "b"}]
        _check_every_cut(tmp_path / "log.ndjson", records, {"job": "c"})

    def test_encoding_is_compact_json_lines(self, tmp_path):
        path = tmp_path / "log.ndjson"
        app = Appender(path)
        app.append({"a": 1, "b": [1, 2]})
        app.append({"é": "ü"})
        app.close()
        assert path.read_bytes() == (
            b'{"a":1,"b":[1,2]}\n{"\\u00e9":"\\u00fc"}\n'
        )

    def test_reader_skips_blank_garbage_and_non_objects(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"a":1}\n\n   \n[1,2]\n7\n\xff\xfe\n{"b":\n{"c":2}\n')
        assert read_records(path) == [{"a": 1}, {"c": 2}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.ndjson") == []

    def test_reopening_a_clean_file_adds_nothing(self, tmp_path):
        path = tmp_path / "log.ndjson"
        for value in (1, 2):
            app = Appender(path)
            app.append({"v": value})
            app.close()
        assert path.read_bytes() == b'{"v":1}\n{"v":2}\n'

    def test_creating_the_file_fsyncs_its_directory(self, tmp_path, monkeypatch):
        layer = PowerCut(tmp_path, monkeypatch)
        app = Appender(tmp_path / "log.ndjson")
        app.append({"v": 1})
        app.close()
        assert layer.cut() == {"log.ndjson": b'{"v":1}\n'}


class TestMakeDirs:
    def test_new_levels_survive_a_power_cut(self, tmp_path, monkeypatch):
        layer = PowerCut(tmp_path, monkeypatch)
        make_dirs(tmp_path / "a" / "b" / "c")
        assert layer.survives(tmp_path / "a" / "b" / "c")

    def test_a_plain_mkdir_does_not(self, tmp_path, monkeypatch):
        layer = PowerCut(tmp_path, monkeypatch)
        (tmp_path / "a").mkdir()
        assert not layer.survives(tmp_path / "a")

    def test_an_existing_directory_costs_no_fsync(self, tmp_path, monkeypatch):
        layer = PowerCut(tmp_path, monkeypatch)
        assert make_dirs(tmp_path) == tmp_path
        assert layer.calls["fsync"] == 0

    def test_a_file_in_the_way_raises(self, tmp_path):
        (tmp_path / "a").write_text("")
        with pytest.raises(OSError):
            make_dirs(tmp_path / "a" / "b")


_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text()
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_records = st.lists(
    st.dictionaries(st.text(max_size=8), _values, max_size=4),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(records=_records, extra=st.dictionaries(st.text(), _values, max_size=2))
def test_every_cut_property(records, extra):
    with tempfile.TemporaryDirectory() as root:
        _check_every_cut(Path(root) / "log.ndjson", records, extra)


# ----------------------------------------------------------------------
# publishes

#: (exclusive, bytes already at the path) for publishes that go ahead
PUBLISHES = [(False, None), (False, b"old bytes"), (True, None)]


class TestPublishes:
    @pytest.mark.parametrize("exclusive,old", PUBLISHES)
    def test_cut_after_return_keeps_new_bytes(
        self, tmp_path, monkeypatch, exclusive, old
    ):
        if old is not None:
            (tmp_path / "doc.json").write_bytes(old)
        layer = PowerCut(tmp_path, monkeypatch)
        assert atomic_write(tmp_path / "doc.json", b"new", exclusive=exclusive)
        assert layer.visible() == layer.cut() == {"doc.json": b"new"}

    @pytest.mark.parametrize("exclusive,old", PUBLISHES)
    @pytest.mark.parametrize("step", ["temp fsync", "publish", "dir fsync"])
    def test_failure_at_each_step_leaves_old_bytes(
        self, tmp_path, monkeypatch, exclusive, old, step
    ):
        path = tmp_path / "doc.json"
        if old is not None:
            path.write_bytes(old)
        before = {"doc.json": old} if old is not None else {}
        layer = PowerCut(tmp_path, monkeypatch)
        layer.fail_at = {
            "temp fsync": ("fsync", 1),
            "publish": ("link" if exclusive else "replace", 1),
            "dir fsync": ("fsync", 2),
        }[step]
        with pytest.raises(OSError, match="injected"):
            atomic_write(path, b"new", exclusive=exclusive)
        visible = layer.visible()
        assert no_temps(visible)
        assert layer.cut() == before
        # a failed directory fsync comes after the rename: the new bytes
        # show, but a power cut still leaves the old ones
        assert visible == (
            {"doc.json": b"new"} if step == "dir fsync" else before
        )

    def test_exclusive_first_writer_wins(self, tmp_path, monkeypatch):
        layer = PowerCut(tmp_path, monkeypatch)
        assert atomic_write(tmp_path / "m.json", "first", exclusive=True)
        assert not atomic_write(tmp_path / "m.json", "second", exclusive=True)
        assert layer.visible() == layer.cut() == {"m.json": b"first"}

    def test_creates_parent_and_names_temp_after_target(
        self, tmp_path, monkeypatch
    ):
        seen: list[str] = []
        real = os.replace

        def spy(src, dst):
            seen.append(Path(src).name)
            real(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        atomic_write(tmp_path / "a" / "b" / "doc.json", "x")
        assert (tmp_path / "a" / "b" / "doc.json").read_text() == "x"
        (name,) = seen
        assert name.startswith(".doc.json.") and name.endswith(".tmp")


# ----------------------------------------------------------------------
# every writer built on the module

def _cache_put(root):
    cache = ResultCache(root / "cache")
    key = "ab" + "0" * 62
    cache.put(key, {"result": 1.5})
    return [cache._path(key)]


def _queue(root):
    queue = DurableQueue(root / "serve")
    entry, _ = queue.submit(parse_request(
        {"kind": "sweep", "benchmark": "MemAlign", "values": [4096]}
    ))
    return queue, entry


def _queue_submit(root):
    queue, entry = _queue(root)
    queue.close()
    return [queue._state_path(entry.id)]


def _queue_intake(root):
    queue, _ = _queue(root)
    queue.close()
    return [queue._intake_path]


def _queue_put_result(root):
    queue, entry = _queue(root)
    queue.close()
    return [queue.put_result(entry.request.fingerprint, '{"doc": 1}\n')]


def _queue_complete(root):
    queue, entry = _queue(root)
    claimed = queue.claim(timeout=0)
    queue.complete(claimed, entry.request.fingerprint)
    queue.close()
    return [queue._state_path(entry.id)]


def _flight_dump(root):
    return [FlightRecorder(worker="w0").dump(root / "flight", reason="crash")]


def _lease_heartbeat(root):
    leases = LeaseDir(root / "leases")
    lease = leases.acquire("fp0", "w0")
    assert leases.heartbeat(lease)
    return [leases.path("fp0")]


def _fleet_manifest(root):
    run_dir = root / "r1.fleet"
    ensure_manifest(
        run_dir, [JobSpec(benchmark="MemAlign", params={"n": 8192})],
        run_id="r1", command="test", lease_ttl_s=5.0,
    )
    return [run_dir / "manifest.json"]


def _quarantine_marker(root):
    _quarantine_job(root, "fp0", {"job": 0})
    return [root / "quarantine" / "fp0.json"]


def _journal(root):
    with RunJournal.attach(root / "journals", run_id="w0") as journal:
        journal.record("fp0", {"x": 1})
    return [journal.path]


def _activity_sink(root):
    # an attempt's activity lands on its completion line in the
    # worker's one log
    sink = ActivitySink()
    sink.begin()
    sink(ActivityRecord(kind="kernel", name="k", start=0.0, end=1e-3))
    with RunJournal.attach(root / "journals", run_id="w0") as journal:
        journal.record("fp0", {"x": 1}, activity=sink.take())
    return [journal.path]


def _event_log(root):
    # health events are appended to the worker's one log
    with RunJournal.attach(root / "journals", run_id="w0") as journal:
        journal.emit("heartbeat", job=0)
    return [journal.path]


def _made_dirs(root):
    leaf = make_dirs(root / "a" / "b" / "c")
    path = leaf / "f"
    atomic_write(path, b"x")
    return [path]


WRITERS = {
    "cache-put": _cache_put,
    "make-dirs": _made_dirs,
    "queue-submit": _queue_submit,
    "queue-put-result": _queue_put_result,
    "queue-complete": _queue_complete,
    "flight-dump": _flight_dump,
    "lease-heartbeat": _lease_heartbeat,
    "fleet-manifest": _fleet_manifest,
    "quarantine-marker": _quarantine_marker,
    "journal": _journal,
    "intake": _queue_intake,
    "activity-sink": _activity_sink,
    "event-log": _event_log,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_acknowledged_writes_survive_a_power_cut(
    tmp_path, monkeypatch, writer
):
    layer = PowerCut(tmp_path, monkeypatch)
    paths = WRITERS[writer](tmp_path)
    survived = layer.cut()
    assert no_temps(layer.visible()) and no_temps(survived)
    for path in paths:
        rel = str(path.relative_to(tmp_path))
        assert survived.get(rel) == path.read_bytes(), rel


# ----------------------------------------------------------------------
# the decision lives in one module

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (file, function) pairs allowed to touch the disk directly:
#: quarantine is a move
ALLOWED = {
    ("sched/cache.py", "ResultCache._quarantine"),
}


def _is_append_open(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None
    )
    if name not in ("open", "fdopen"):
        return False
    args = call.args + [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        isinstance(a, ast.Constant) and isinstance(a.value, str)
        and "a" in a.value and set(a.value) <= set("rwxabt+")
        for a in args
    )


def durability_calls(tree: ast.AST) -> list[tuple[str, str]]:
    """``(enclosing qualname, what)`` of every direct disk-durability
    operation: ``os.fsync/replace/link``, ``os.O_APPEND``, append-mode
    opens, and directory creation (``mkdir``/``makedirs``)."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope)
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
                and child.attr in ("fsync", "replace", "link", "O_APPEND")
            ):
                found.append((where, f"os.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                for alias in child.names:
                    if alias.name in ("fsync", "replace", "link"):
                        found.append((where, f"from os import {alias.name}"))
            elif isinstance(child, ast.Call) and _is_append_open(child):
                found.append((where, "append-mode open"))
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("mkdir", "makedirs")
            ):
                found.append((where, "mkdir"))
            visit(child, scope)

    visit(tree, ())
    return found


def test_durability_lives_in_one_module():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "common/durable.py":
            continue
        for where, what in durability_calls(ast.parse(path.read_text())):
            if (rel, where) not in ALLOWED:
                stray.append(f"{rel}:{where}: {what}")
    assert stray == [], "use repro.common.durable instead:\n" + "\n".join(stray)


def test_scanner_sees_the_module_itself():
    found = {
        what for _, what in
        durability_calls(ast.parse((SRC / "common/durable.py").read_text()))
    }
    assert found == {
        "os.fsync", "os.replace", "os.link", "append-mode open", "mkdir",
    }
