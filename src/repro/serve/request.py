"""The serve API's unit of work: one validated benchmark request.

A ``POST /v1/jobs`` body is a small JSON document naming what to run::

    {"kind": "sweep", "benchmark": "MemAlign",
     "values": [262144, 524288], "params": {}, "backend": "reference",
     "deadline_ms": 30000}

``kind`` is one of ``run`` (one naive-vs-optimized comparison),
``sweep`` (a figure sweep over ``values``), ``profile`` (one run under
the profiler, returning the ``repro-prof-metrics/1`` document), or
``check`` (the paper-claims conformance pass over ``benchmarks``).
:func:`parse_request` validates the document against the benchmark
registry and returns a :class:`ServeRequest`; validation failures
raise :class:`BadRequest`, which the server maps to a 400 with the
message in the body — a misbehaving client can never enqueue work the
executor would choke on.

Every request has a deterministic **fingerprint** — the idempotency
key.  For ``run``/``sweep``/``profile`` it is derived from the same
:func:`~repro.resilience.journal.job_fingerprint` material the run
journal and result cache key on (benchmark sources × resolved system ×
params × backend, per job), so a retried submission after a client
timeout maps onto the original request instead of re-running, and a
code or configuration change mints a fresh key.  A client may override
it with an ``Idempotency-Key`` header.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ReproError
from repro.exec.dispatch import BACKENDS

__all__ = [
    "REQUEST_SCHEMA",
    "KINDS",
    "STATES",
    "BadRequest",
    "ServeRequest",
    "parse_request",
    "request_fingerprint",
]

REQUEST_SCHEMA = "repro-serve-request/1"

KINDS = ("run", "sweep", "profile", "check")

#: request lifecycle; ``queued`` → ``running`` → one terminal state
STATES = ("queued", "running", "done", "failed", "expired")

_CHECK_BACKENDS = BACKENDS + ("both",)
_IDEM_KEY_RE = re.compile(r"^[A-Za-z0-9_.:-]{1,128}$")
_CLIENT_RE = re.compile(r"^[A-Za-z0-9_.:-]{1,64}$")


class BadRequest(ReproError):
    """A request document failed validation; maps to HTTP 400."""


@dataclass
class ServeRequest:
    """One validated, executable serve request."""

    kind: str
    benchmark: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    values: list[Any] | None = None
    system: str | None = None
    backend: str | None = None
    benchmarks: list[str] | None = None      #: check only
    quick: bool = False                      #: check only
    deadline_ms: int | None = None
    client: str = "anon"
    fingerprint: str = ""

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind}
        if self.benchmark is not None:
            doc["benchmark"] = self.benchmark
        if self.params:
            doc["params"] = self.params
        if self.values is not None:
            doc["values"] = self.values
        if self.system is not None:
            doc["system"] = self.system
        if self.backend is not None:
            doc["backend"] = self.backend
        if self.benchmarks is not None:
            doc["benchmarks"] = self.benchmarks
        if self.quick:
            doc["quick"] = True
        if self.deadline_ms is not None:
            doc["deadline_ms"] = self.deadline_ms
        return doc

    def job_specs(self) -> list:
        """The :class:`~repro.sched.runner.JobSpec` decomposition.

        Only meaningful for ``run``/``sweep``/``profile``; a sweep is
        the CLI's decomposition (:func:`~repro.sched.runner.sweep_specs`,
        one ``run`` job per point), so the executed work — and therefore
        the result document — is byte-identical to the command line.
        """
        from repro.exec.dispatch import current_backend_name
        from repro.sched.runner import JobSpec, sweep_specs

        backend = current_backend_name(self.backend)
        if self.kind == "sweep":
            return sweep_specs(
                self.benchmark, self.values, params=self.params,
                system=self.system, backend=backend,
            )
        return [
            JobSpec(
                benchmark=self.benchmark,
                kind="run",
                params=dict(self.params),
                system=self.system,
                backend=backend,
            )
        ]


def _require_benchmark(name: Any) -> str:
    from repro.core.registry import list_benchmarks

    known = list_benchmarks()
    if not isinstance(name, str) or name not in known:
        raise BadRequest(
            f"unknown benchmark {name!r}; one of {', '.join(known)}"
        )
    return name


def _check_params(params: Any) -> dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise BadRequest("'params' must be an object of key=value pairs")
    for key, value in params.items():
        if not isinstance(key, str):
            raise BadRequest(f"parameter name {key!r} is not a string")
        if not isinstance(value, (int, float, str, bool)):
            raise BadRequest(
                f"parameter {key}={value!r} is not a scalar"
            )
    return dict(params)


def parse_request(
    doc: Any,
    *,
    client: str | None = None,
    idempotency_key: str | None = None,
) -> ServeRequest:
    """Validate a request document into a :class:`ServeRequest`.

    ``client`` is the caller's self-declared identity (the
    ``X-Client-Id`` header) used for per-client admission caps;
    ``idempotency_key`` overrides the derived fingerprint.
    """
    if not isinstance(doc, dict):
        raise BadRequest("request body must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise BadRequest(
            f"unknown kind {kind!r}; one of {', '.join(KINDS)}"
        )
    unknown = set(doc) - {
        "kind", "benchmark", "params", "values", "system", "backend",
        "benchmarks", "quick", "deadline_ms", "schema",
    }
    if unknown:
        raise BadRequest(f"unknown request field(s): {sorted(unknown)}")

    req = ServeRequest(kind=kind)
    req.params = _check_params(doc.get("params"))

    backend = doc.get("backend")
    allowed = _CHECK_BACKENDS if kind == "check" else BACKENDS
    if backend is not None and backend not in allowed:
        raise BadRequest(
            f"unknown backend {backend!r}; one of {', '.join(allowed)}"
        )
    req.backend = backend

    system = doc.get("system")
    if system is not None:
        from repro.arch.presets import get_system

        try:
            get_system(system)
        except ReproError as exc:
            raise BadRequest(str(exc)) from None
        req.system = system

    if kind in ("run", "sweep", "profile"):
        req.benchmark = _require_benchmark(doc.get("benchmark"))
    if kind == "sweep":
        values = doc.get("values")
        if not isinstance(values, list) or not values:
            raise BadRequest("sweep requests need a non-empty 'values' list")
        for v in values:
            # as the CLI's --values parse: every figure's x-value is an int
            if not isinstance(v, int) or isinstance(v, bool):
                raise BadRequest(f"sweep value {v!r} is not an integer")
        req.values = list(values)
    elif doc.get("values") is not None:
        raise BadRequest("'values' only applies to sweep requests")
    if kind == "check":
        benchmarks = doc.get("benchmarks")
        if benchmarks is not None:
            if not isinstance(benchmarks, list) or not benchmarks:
                raise BadRequest("'benchmarks' must be a non-empty list")
            req.benchmarks = [_require_benchmark(b) for b in benchmarks]
        req.quick = bool(doc.get("quick", False))
    elif doc.get("benchmarks") is not None:
        raise BadRequest("'benchmarks' only applies to check requests")

    deadline = doc.get("deadline_ms")
    if deadline is not None:
        if not isinstance(deadline, int) or isinstance(deadline, bool) \
                or deadline <= 0:
            raise BadRequest("'deadline_ms' must be a positive integer")
        req.deadline_ms = deadline

    if client is not None:
        if not _CLIENT_RE.match(client):
            raise BadRequest(
                "X-Client-Id must be 1-64 chars of [A-Za-z0-9_.:-]"
            )
        req.client = client

    if idempotency_key is not None:
        if not _IDEM_KEY_RE.match(idempotency_key):
            raise BadRequest(
                "Idempotency-Key must be 1-128 chars of [A-Za-z0-9_.:-]"
            )
        req.fingerprint = f"user-{idempotency_key}"
    else:
        req.fingerprint = request_fingerprint(req)
    return req


def request_fingerprint(req: ServeRequest) -> str:
    """The derived idempotency key of a request.

    ``run``/``sweep``/``profile`` hash the
    :func:`~repro.resilience.journal.job_fingerprint` of every job the
    request decomposes into — the same sources × system × params ×
    backend closure the journal and cache key on — prefixed
    with the request kind, so a ``profile`` of the same work is a
    distinct key from its ``run``.  ``check`` requests hash their
    canonical request document (claims are re-evaluated per
    submission of a changed configuration).
    """
    from repro.sched.cache import _canonical

    digest = hashlib.sha256()
    digest.update(b"repro-serve:")
    digest.update(req.kind.encode())
    if req.kind == "check":
        digest.update(
            _canonical(
                {
                    "benchmarks": req.benchmarks,
                    "backend": req.backend,
                    "quick": req.quick,
                    "system": req.system,
                }
            ).encode()
        )
    else:
        from repro.resilience.journal import job_fingerprint

        for spec in req.job_specs():
            digest.update(job_fingerprint(spec).encode())
    return digest.hexdigest()
