"""The four workloads, each driven from this one process.

Load comes from this one process: it runs one program process at a
time and, for the daemon, keeps at most one HTTP connection open.  All
state lives in a fresh temporary root inside the checkout; every
program process runs with that root as its working directory, so
result caches, JIT artifacts and serve data land there and nowhere
else.

``table1-*``
    ``repro table1`` at the benchmark's problem sizes (``spec.json``),
    one fresh process per regeneration, on the reference backend
    (``oracle``), on the JIT backend over an empty artifact store
    (``cold``), and on the JIT backend over a store filled by an
    untimed regeneration first (``warm``).
``serve-hits``
    ``repro serve`` with one worker, driven in a closed loop by one
    client.  Every request is a new durable entry (its own
    ``Idempotency-Key``) whose job is a result-cache hit, so the
    durable request path does all the work and no simulation runs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from benchmarks.perf.hostspeed import SpeedSampler
from benchmarks.perf.layers import layer_metrics, total_self_s, wrapper_overhead_s
from benchmarks.perf.stats import percentile

ROOT = Path(__file__).resolve().parents[2]
LAUNCHER = Path(__file__).resolve().with_name("launcher.py")

#: backend and JIT-store state of each Table I workload
TABLE1 = {
    "table1-oracle": ("reference", "n/a"),
    "table1-cold": ("jit", "empty"),
    "table1-warm": ("jit", "primed"),
}
WORKLOADS = (*TABLE1, "serve-hits")

TABLE1_SETUPS = 5        #: parse-only spawns per run (median reported)
SERVE_WARMUP = 100       #: requests per daemon before measuring
SERVE_MEASURED = 500     #: measured requests per daemon
SERVE_BATCH = 100        #: requests per wall_s sample on serve-hits
SERVE_MIN_ROUNDS = 3     #: daemons per run, at least
CHILD_TIMEOUT_S = 60.0   #: a program process past this is killed
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


@dataclass
class Context:
    """Everything a workload needs: where to work, and what to expect."""

    tmp: Path
    seed: int
    seconds: float
    spec: dict[str, Any]
    env: dict[str, str]
    #: the CPU's speed while the workload runs; None leaves times as
    #: measured (traced runs, which report no end-to-end times)
    speed: SpeedSampler | None = None

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured from ``t0`` to ``t1``, on the benchmark's
        scale (see :mod:`hostspeed`)."""
        return self.speed.scale(seconds, t0, t1) if self.speed else seconds


@dataclass
class Outcome:
    """What one run measured; ``run.py`` turns it into the result line."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    claims_checked: int = 0
    claims_failed: int = 0
    #: exit codes of the drained daemons; anything but 0 is incorrect
    exit_codes: list[int] = field(default_factory=list)
    env: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)


def row_digest(row: dict[str, Any]) -> str:
    """SHA-256 of one ``results`` row in canonical sorted-key JSON."""
    canon = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def child_env(tmp: Path) -> dict[str, str]:
    """The parent environment without ``REPRO_*`` selections, with the
    JIT store inside the temporary root."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JIT_CACHE_DIR"] = str(tmp / "jit")
    return env


def launcher_argv(*repro_args: str, spans: Path | None = None,
                  sizes: Path | None = None,
                  parse_only: bool = False) -> list[str]:
    argv = [sys.executable, str(LAUNCHER)]
    if parse_only:
        argv.append("--parse-only")
    if sizes is not None:
        argv += ["--sizes", str(sizes)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return [*argv, "--", *repro_args]


class Spawned(NamedTuple):
    """One program process run to exit."""

    code: int
    #: ``perf_counter`` just before the spawn
    start: float
    #: from just before the spawn to the reaped exit, as measured
    wall_s: float
    #: the child's ``ru_maxrss`` from ``os.wait4``
    rss_mb: float

    def scaled_wall_s(self, ctx: Context) -> float:
        return ctx.scale(self.wall_s, self.start, self.start + self.wall_s)


def run_child(
    argv: list[str], *, ctx: Context, log: Path,
    env: dict[str, str] | None = None,
) -> Spawned:
    """Run one program process to exit."""
    with log.open("wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ctx.tmp, env=env or ctx.env,
            stdout=out, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, t0, wall, usage.ru_maxrss / 1024.0)


def _another(last_s: float, end: float) -> bool:
    """Start another operation of about ``last_s`` before ``end``?

    Yes while it would finish less than half its length late, so a time
    box of whole operations ends within half an operation of ``end``.
    """
    return time.perf_counter() + last_s / 2 < end


def _overhead_frac(cost_s: float, traced_s: float) -> float:
    """Wrapper cost as a share of the time the traced work would have
    taken without it."""
    return cost_s / (traced_s - cost_s)


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
@dataclass
class Table1Pass:
    wall_s: float
    #: ``wall_s`` on the benchmark's scale
    scaled_s: float
    rss_mb: float
    failed_rows: int
    doc: Path
    events: list[dict[str, Any]]
    #: per-span wrapper cost its process measured; None unless traced
    wrapper_ns: dict[str, float] | None


def table1_pass(
    ctx: Context, tag: str, backend: str, *, traced: bool,
    jit_dir: Path | None = None,
) -> Table1Pass:
    doc = ctx.tmp / f"{tag}.json"
    spans = ctx.tmp / f"{tag}.spans.json"
    argv = launcher_argv(
        "table1", "--out", str(doc), "--backend", backend,
        sizes=ctx.tmp / "sizes.json", spans=spans if traced else None,
    )
    env = ctx.env if jit_dir is None else {
        **ctx.env, "REPRO_JIT_CACHE_DIR": str(jit_dir)
    }
    child = run_child(argv, ctx=ctx, log=ctx.tmp / f"{tag}.log", env=env)
    golden = ctx.spec["golden"]["table1_rows"]
    body = _read_json(doc) if child.code == 0 else None
    rows = {r.get("benchmark"): r for r in (body or {}).get("results", [])}
    failed = sum(
        1 for name, digest in golden.items()
        if name not in rows
        or rows[name].get("verified") is not True
        or row_digest(rows[name]) != digest
    )
    trace = (_read_json(spans) or {}) if traced else {}
    return Table1Pass(
        child.wall_s, child.scaled_wall_s(ctx), child.rss_mb, failed, doc,
        trace.get("traceEvents", []), trace.get("otherData", {}).get("wrapper_ns"),
    )


def _claims(ctx: Context, doc: Path, out: Outcome) -> None:
    """``repro check --doc`` over one regenerated table."""
    report = ctx.tmp / "claims.json"
    run_child(
        launcher_argv(
            "check", "--doc", str(doc), "--json", str(report),
            "--claims-dir", str(ROOT / "benchmarks" / "claims"),
        ),
        ctx=ctx, log=ctx.tmp / "claims.log",
    )
    body = _read_json(report)
    if body is None:
        out.claims_failed += 1
        return
    out.claims_checked += int(body["total"])
    out.claims_failed += int(body["failed"])


def run_table1(ctx: Context, workload: str, *, trace: bool) -> Outcome:
    backend, store = TABLE1[workload]
    out = Outcome(env={"backend": backend, "jit_store": store})
    (ctx.tmp / "sizes.json").write_text(json.dumps(ctx.spec["table1_sizes"]))
    rows_per_pass = len(ctx.spec["golden"]["table1_rows"])

    def account(p: Table1Pass) -> Table1Pass:
        out.attempted += rows_per_pass
        out.failed += p.failed_rows
        return p

    if not trace:
        probe = launcher_argv(
            "table1", "--out", "doc.json", "--backend", backend,
            parse_only=True,
        )
        log = ctx.tmp / "setup.log"
        run_child(probe, ctx=ctx, log=log)     # compiles bytecode; untimed
        out.samples["setup_s"] = [
            run_child(probe, ctx=ctx, log=log).scaled_wall_s(ctx)
            for _ in range(TABLE1_SETUPS)
        ]
    # one untimed regeneration first: on table1-warm it fills the store
    # the measured ones read; elsewhere it absorbs the first regeneration
    # of a run, which was often the run's slowest by 10-25%
    account(table1_pass(
        ctx, "warm-up", backend, traced=False,
        jit_dir=ctx.tmp / "jit-warm-up" if store == "empty" else None,
    ))

    passes: list[Table1Pass] = []
    end = time.perf_counter() + ctx.seconds
    while not passes or _another(passes[-1].wall_s, end):
        i = len(passes)
        jit_dir = ctx.tmp / f"jit-cold-{i}" if store == "empty" else None
        passes.append(account(table1_pass(
            ctx, f"pass-{i}", backend, traced=trace, jit_dir=jit_dir
        )))
        if jit_dir is not None:
            shutil.rmtree(jit_dir, ignore_errors=True)
    _claims(ctx, passes[-1].doc, out)

    walls = [p.wall_s for p in passes]
    out.samples["wall_s"] = walls
    if not trace:
        scaled = [p.scaled_s for p in passes]
        out.samples["speed_factor"] = [p.scaled_s / p.wall_s for p in passes]
        out.metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(out.samples["setup_s"]),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        }
        return out
    out.events = [e for p in passes for e in p.events]
    out.metrics = layer_metrics(
        out.events, len(passes), ctx.spec["golden"]["table1_rows"]
    )
    out.metrics["unattributed_s"] = statistics.mean(
        p.wall_s - total_self_s(p.events) for p in passes
    )
    out.metrics["trace_overhead_frac"] = _overhead_frac(
        sum(wrapper_overhead_s(p.events, p.wrapper_ns) for p in passes),
        sum(walls),
    )
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process on a fresh data dir."""

    def __init__(self, ctx: Context, tag: str, *, spans: Path | None) -> None:
        self.log = ctx.tmp / f"{tag}.log"
        argv = launcher_argv(
            "serve", "--port", "0", "--workers", "1", "--jobs", "1",
            "--data-dir", str(ctx.tmp / f"{tag}-data"),
            "--cache-dir", str(ctx.tmp / "cache"),
            spans=spans,
        )
        t0 = time.perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ctx.tmp, env=ctx.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._wait_port(t0 + CHILD_TIMEOUT_S)
            while self._http("GET", "/readyz")[0] != 200:
                if time.perf_counter() > t0 + CHILD_TIMEOUT_S:
                    raise RuntimeError(f"{tag}: /readyz never returned 200")
                time.sleep(0.002)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        booted = time.perf_counter()
        #: spawn until ``/readyz`` returned 200, on the benchmark's scale
        self.setup_s = ctx.scale(booted - t0, t0, booted)

    def _wait_port(self, deadline: float) -> int:
        while True:
            found = _LISTENING.search(self.log.read_text(errors="replace"))
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not start; see {self.log}")
            time.sleep(0.002)

    def _http(self, method: str, path: str, body: bytes | None = None,
              headers: dict[str, str] | None = None) -> tuple[int, bytes]:
        """One request on its own connection (the daemon speaks HTTP/1.0)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def request(self, body: bytes, key: str, golden: str) -> tuple[bool, float]:
        """Submit, watch to a terminal state, fetch the result bytes.

        Returns (ok, latency s); ok needs 2xx answers, state ``done``
        and result bytes whose SHA-256 is ``golden``.
        """
        t0 = time.perf_counter()
        try:
            status, data = self._http("POST", "/v1/jobs", body, {
                "Content-Type": "application/json",
                "Idempotency-Key": key,
                "X-Client-Id": "perf",
            })
            if status not in (200, 202):
                return False, time.perf_counter() - t0
            sub = json.loads(data)
            status, data = self._http("GET", f"/v1/jobs/{sub['id']}?watch=1")
            final = json.loads(data.splitlines()[-1])
            status2, result = self._http("GET", f"/v1/results/{sub['fingerprint']}")
        except (OSError, ValueError, KeyError, IndexError, http.client.HTTPException):
            return False, time.perf_counter() - t0
        latency = time.perf_counter() - t0
        ok = (
            status == 200 and status2 == 200 and final.get("state") == "done"
            and hashlib.sha256(result).hexdigest() == golden
        )
        return ok, latency

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the daemon so far (``VmHWM``), MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and reap; the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


class ServeLoad:
    """The closed-loop client: requests drawn by seed from primed points."""

    def __init__(self, ctx: Context, out: Outcome) -> None:
        self.points = [tuple(p) for p in ctx.spec["serve_points"]]
        self.golden = ctx.spec["golden"]["serve_results"]
        self.rng = random.Random(ctx.seed)
        self.seed = ctx.seed
        self.out = out
        self.n = 0
        self.phases: dict[str, dict[str, int]] = {}

    def one(
        self, daemon: Daemon, phase: str, point: tuple | None = None
    ) -> float | None:
        """One request; its latency, or None when it failed."""
        bench, value = point or self.rng.choice(self.points)
        body = json.dumps(
            {"kind": "sweep", "benchmark": bench, "values": [value]}
        ).encode()
        ok, latency = daemon.request(
            body, f"{self.seed}-{self.n}", self.golden[f"{bench}:{value}"]
        )
        self.n += 1
        counts = self.phases.setdefault(
            phase, {"sent": 0, "succeeded": 0, "failed": 0}
        )
        counts["sent"] += 1
        counts["succeeded" if ok else "failed"] += 1
        self.out.attempted += 1
        self.out.failed += 0 if ok else 1
        return latency if ok else None


@dataclass
class ServeRound:
    """One daemon's measured stretch."""

    #: on the benchmark's scale
    setup_s: float
    #: each measured request's latency, on the benchmark's scale
    latencies: list[float]
    #: time of each batch of SERVE_BATCH requests, as measured
    batches: list[float]
    #: the same on the benchmark's scale
    scaled_batches: list[float]
    rss_mb: float
    events: list[dict[str, Any]]
    window_s: float
    wrapper_ns: dict[str, float] | None


def _serve_round(ctx: Context, load: ServeLoad, tag: str, *, traced: bool,
                 out: Outcome) -> ServeRound:
    """Boot a daemon on a fresh data dir, warm it up, measure it, drain it.

    Every round serves the same number of requests, because the
    daemon keeps each accepted request in memory and on disk: a
    time-boxed daemon would serve later requests with more history
    behind them the faster the code is.
    """
    spans = ctx.tmp / f"{tag}.spans.json" if traced else None
    daemon = Daemon(ctx, tag, spans=spans)
    try:
        for _ in range(SERVE_WARMUP):
            load.one(daemon, "warm-up")
        timed: list[tuple[float, float]] = []     # (start, latency)
        batches: list[tuple[float, float]] = []   # (start, seconds)
        t_begin = time.perf_counter_ns()
        for _ in range(SERVE_MEASURED // SERVE_BATCH):
            t0 = time.perf_counter()
            for _ in range(SERVE_BATCH):
                start = time.perf_counter()
                latency = load.one(daemon, "measured")
                if latency is not None:
                    timed.append((start, latency))
            batches.append((t0, time.perf_counter() - t0))
        t_end = time.perf_counter_ns()
        rss = daemon.vm_hwm_mb()
    finally:
        _stopped(daemon, out)
    trace = (_read_json(spans) or {}) if spans else {}
    events = [
        e for e in trace.get("traceEvents", [])
        if t_begin / 1e3 <= e["ts"] <= t_end / 1e3
    ]
    return ServeRound(
        daemon.setup_s,
        # each request is scaled by the probes around it, because the
        # CPU's speed changes within a second
        [ctx.scale(x, t, t + x) for t, x in timed],
        [b for _, b in batches],
        [ctx.scale(b, t, t + b) for t, b in batches],
        rss, events, (t_end - t_begin) / 1e9,
        trace.get("otherData", {}).get("wrapper_ns"),
    )


def run_serve(ctx: Context, *, trace: bool) -> Outcome:
    out = Outcome(env={"backend": "reference", "jit_store": "n/a"})
    load = ServeLoad(ctx, out)
    # the six points are computed once, by a daemon that is not
    # measured, so every measured request is a result-cache hit
    primer = Daemon(ctx, "prime", spans=None)
    try:
        for point in load.points:
            load.one(primer, "priming", point)
    finally:
        _stopped(primer, out)

    rounds: list[ServeRound] = []
    end = time.perf_counter() + ctx.seconds
    last_s = 0.0
    while len(rounds) < SERVE_MIN_ROUNDS or _another(last_s, end):
        t0 = time.perf_counter()
        rounds.append(_serve_round(
            ctx, load, f"round-{len(rounds)}", traced=trace, out=out
        ))
        last_s = time.perf_counter() - t0
    out.env["requests"] = load.phases

    batches = [b for r in rounds for b in r.batches]
    out.samples["wall_s"] = batches
    out.samples["setup_s"] = [primer.setup_s, *(r.setup_s for r in rounds)]
    if not trace:
        scaled = [b for r in rounds for b in r.scaled_batches]
        out.samples["speed_factor"] = [s / b for s, b in zip(scaled, batches)]
        req_ms = [x * 1e3 for r in rounds for x in r.latencies]
        out.samples["req_ms"] = req_ms
        out.samples["rss_mb"] = [r.rss_mb for r in rounds]
        out.metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(out.samples["setup_s"]),
            "peak_rss_mb": statistics.median(out.samples["rss_mb"]),
            "req_p50_ms": percentile(req_ms, 50),
            "req_p99_ms": percentile(req_ms, 99),
        }
        return out
    out.events = [e for r in rounds for e in r.events]
    ops = len(rounds) * SERVE_MEASURED
    window_s = sum(r.window_s for r in rounds)
    out.metrics = layer_metrics(
        out.events, ops, ctx.spec["golden"]["table1_rows"]
    )
    out.metrics["unattributed_s"] = (window_s - total_self_s(out.events)) / ops
    out.metrics["trace_overhead_frac"] = _overhead_frac(
        sum(wrapper_overhead_s(r.events, r.wrapper_ns) for r in rounds),
        window_s,
    )
    return out


def _stopped(daemon: Daemon, out: Outcome) -> None:
    """Drain a daemon and keep its exit code (0 = drained clean)."""
    out.exit_codes.append(daemon.stop())
