"""The repair service's HTTP/JSON + SSE wire protocol.

One module owns every byte that crosses the wire, so the server, the
client, the load generator and the tests agree by construction:

* :class:`RepairRequest` -- the ``POST /repair`` body, parsed and
  type-checked into a typed object, with :meth:`RepairRequest.apply`
  mapping the request's knobs onto the server's template
  :class:`~repro.core.config.RTLFixerConfig`;
* response builders (:func:`fixed_response`, :func:`shed_response`,
  :func:`deadline_response`, :func:`error_response`) -- every terminal
  answer is a JSON object with a machine-readable ``status``; overload
  rejections are **typed** (``status="overloaded"`` plus a
  :class:`ShedReason`), never bare 500s, so clients can distinguish
  "back off and retry" from "your request is broken";
* :func:`result_digest` -- the canonical content digest of a repair
  result, used to prove that a drained-and-resumed server answers
  byte-identically to an uninterrupted one;
* :func:`sse_event` -- Server-Sent-Events framing for streaming
  per-ReAct-iteration progress.

HTTP status mapping: 200 terminal results, 429 ``overloaded`` (with
``Retry-After``), 504 ``deadline_exceeded``, 502 ``backend_error``,
500 ``error`` (unexpected crash -- counted, never silent), 400 bad
requests, 404 unknown paths.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from ..core.config import RTLFixerConfig

#: Protocol version, echoed in /healthz (bump on breaking changes).
PROTOCOL_VERSION = 1

#: Maximum accepted request body (bytes) -- oversized sources are a
#: resource-exhaustion vector, shed them at the front door.
MAX_BODY_BYTES = 1 << 20


class ShedReason:
    """Machine-readable load-shedding reasons (the ``reason`` field of
    an ``overloaded`` response).  Constants, not an enum, so they JSON-
    serialize as plain strings."""

    #: This tenant's bounded queue is full.
    TENANT_QUEUE_FULL = "tenant_queue_full"
    #: The server-wide queued-job bound is reached.
    SERVER_QUEUE_FULL = "server_queue_full"
    #: The tenant's token-bucket admission quota is exhausted.
    TENANT_QUOTA = "tenant_quota"
    #: The circuit breaker is open: the repair backend is down, so new
    #: work is shed early instead of queued into a dead backend.
    BREAKER_OPEN = "breaker_open"
    #: The server is draining (SIGTERM): no new admissions.
    DRAINING = "draining"

    ALL = (
        TENANT_QUEUE_FULL,
        SERVER_QUEUE_FULL,
        TENANT_QUOTA,
        BREAKER_OPEN,
        DRAINING,
    )


#: Request fields accepted by ``POST /repair`` (anything else is a 400:
#: typos like ``"tennant"`` must fail loudly, not silently default).
_REQUEST_FIELDS = frozenset(
    {
        "tenant",
        "code",
        "seed",
        "deadline_s",
        "stream",
        "prompting",
        "compiler",
        "use_rag",
        "tier",
        "max_iterations",
    }
)


@dataclass(frozen=True)
class RepairRequest:
    """One parsed, validated repair job submission."""

    tenant: str
    code: str
    seed: int = 0
    #: Client-requested deadline in seconds (None = use the server's
    #: default deadline).
    deadline_s: Optional[float] = None
    #: Stream per-iteration SSE progress events instead of a single
    #: JSON response.
    stream: bool = False
    prompting: str = "react"
    compiler: str = "quartus"
    use_rag: bool = True
    tier: str = "gpt-3.5-sim"
    max_iterations: int = 10

    @staticmethod
    def from_json(body: bytes) -> "RepairRequest":
        """Parse and validate a request body; raises ValueError with a
        client-presentable message on any malformed input."""
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(data) - _REQUEST_FIELDS
        if unknown:
            raise ValueError(f"unknown request field(s): {sorted(unknown)}")
        code = data.get("code")
        if not isinstance(code, str) or not code.strip():
            raise ValueError("'code' must be a non-empty string")
        tenant = data.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("'tenant' must be a non-empty string")
        deadline_s = data.get("deadline_s")
        if deadline_s is not None:
            # JSON booleans are Python ints, and json.loads accepts NaN
            # and Infinity: a NaN deadline would never expire.
            if (
                not isinstance(deadline_s, (int, float))
                or isinstance(deadline_s, bool)
                or not math.isfinite(deadline_s)
                or deadline_s <= 0
            ):
                raise ValueError("'deadline_s' must be a finite positive number")
            deadline_s = float(deadline_s)
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("'seed' must be an integer")
        max_iterations = data.get("max_iterations", 10)
        if not isinstance(max_iterations, int) or isinstance(max_iterations, bool):
            raise ValueError("'max_iterations' must be an integer")
        for name in ("stream", "use_rag"):
            if name in data and not isinstance(data[name], bool):
                raise ValueError(f"'{name}' must be a JSON boolean")
        for name in ("prompting", "compiler", "tier"):
            if name in data and not isinstance(data[name], str):
                raise ValueError(f"'{name}' must be a string")
        # The knobs' values are RTLFixerConfig's to check, when the
        # server applies the request to its template (see apply).
        return RepairRequest(
            tenant=tenant,
            code=code,
            seed=seed,
            deadline_s=deadline_s,
            stream=data.get("stream", False),
            prompting=data.get("prompting", "react"),
            compiler=data.get("compiler", "quartus"),
            use_rag=data.get("use_rag", True),
            tier=data.get("tier", "gpt-3.5-sim"),
            max_iterations=max_iterations,
        )

    def apply(self, template: RTLFixerConfig) -> RTLFixerConfig:
        """``template`` with this request's knobs; raises ValueError on
        a value the config rejects.

        The request's deadline is deliberately **not** part of the
        config: the server scopes it ambiently per job, so journal keys
        (which hash the config digest) stay deadline-free and a
        resubmitted job replays regardless of its new budget.  The
        template carries the server's own execution knobs (retry
        budget, pool spec), which the client does not control.
        """
        return replace(
            template,
            prompting=self.prompting,
            compiler=self.compiler,
            use_rag=self.use_rag and self.compiler != "simple",
            tier=self.tier,
            seed=self.seed,
            max_iterations=self.max_iterations,
        )

    def to_config(self, **overrides: Any) -> RTLFixerConfig:
        """The fixer configuration this request asks for, over a
        default config with ``overrides`` applied."""
        return self.apply(RTLFixerConfig(**overrides))


def result_digest(result: dict) -> str:
    """Canonical digest of a repair result's *content* fields.

    Covers exactly the fields that must be reproducible across a drain
    and resume (success, iterations, final code); excludes execution
    telemetry (queue wait, execution time, replay provenance) which
    legitimately differs between a fresh run and a journal replay.
    """
    content = {
        "status": result.get("status"),
        "iterations": result.get("iterations"),
        "final_code": result.get("final_code"),
    }
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def fixed_response(
    job_id: str,
    tenant: str,
    success: bool,
    iterations: int,
    final_code: str,
    replayed: bool = False,
    queue_wait_s: float = 0.0,
    exec_s: float = 0.0,
) -> dict:
    """A terminal repair result (``status`` fixed / not_fixed)."""
    result = {
        "status": "fixed" if success else "not_fixed",
        "job_id": job_id,
        "tenant": tenant,
        "iterations": iterations,
        "final_code": final_code,
        "replayed": replayed,
        "queue_wait_s": round(queue_wait_s, 6),
        "exec_s": round(exec_s, 6),
    }
    result["result_digest"] = result_digest(result)
    return result


def shed_response(tenant: str, reason: str, retry_after_s: float = 1.0) -> dict:
    """A typed overload rejection (HTTP 429)."""
    return {
        "status": "overloaded",
        "tenant": tenant,
        "reason": reason,
        "retry_after_s": retry_after_s,
    }


def deadline_response(job_id: str, tenant: str, stage: str) -> dict:
    """A typed deadline expiry (HTTP 504); ``stage`` says where the
    budget ran out (``queued``, ``react-iteration``, ...)."""
    return {
        "status": "deadline_exceeded",
        "job_id": job_id,
        "tenant": tenant,
        "stage": stage,
    }


def error_response(
    job_id: str, tenant: str, error_type: str, message: str, crashed: bool = False
) -> dict:
    """A typed failure: ``backend_error`` for exhausted retries against
    a broken backend (HTTP 502), ``error`` with ``crashed=True`` for
    anything unexpected (HTTP 500) -- crashes are counted, never
    silently swallowed."""
    return {
        "status": "error" if crashed else "backend_error",
        "job_id": job_id,
        "tenant": tenant,
        "error_type": error_type,
        "message": message,
        "crashed": crashed,
    }


def http_status(result: dict) -> int:
    """The HTTP status code a protocol result dict travels under."""
    return {
        "fixed": 200,
        "not_fixed": 200,
        "overloaded": 429,
        "deadline_exceeded": 504,
        "backend_error": 502,
        "error": 500,
    }.get(result.get("status", ""), 200)


def sse_event(event: str, data: dict) -> bytes:
    """One Server-Sent-Events frame (``event:`` + ``data:`` lines)."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {payload}\n\n".encode()


def turn_event(turn) -> dict:
    """The SSE payload for one ReAct transcript turn (progress event)."""
    return {
        "index": turn.index,
        "thought": turn.thought,
        "action": turn.action,
        "observation_head": turn.observation.split("\n")[0][:200],
    }
