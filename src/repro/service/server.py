"""The asyncio repair server (``rtlfixer serve``).

A small, dependency-free HTTP/1.1 front-end over
:class:`asyncio.start_server` that turns the RTLFixer core into a
long-running, overload-safe service:

* ``POST /repair`` -- submit one repair job (JSON body, see
  :class:`~.protocol.RepairRequest`).  With ``"stream": true`` the
  response is a Server-Sent-Events stream with one ``iteration`` event
  per ReAct turn, then a ``result`` event;
* ``GET /healthz`` -- liveness + drain state;
* ``GET /stats`` -- the full service ledger (admission counters,
  per-tenant quotas, breaker state).

Degradation story, end to end: requests pass the
:class:`~.scheduler.AdmissionController` (bounded queues, per-tenant
quotas, weighted fairness, breaker gate) and are either queued or shed
with a typed 429.  Admitted jobs execute on a bounded worker pool; each
runs under its request :class:`~.deadline.Deadline`, scoped ambiently
*inside the worker thread* (contextvars do not cross
``run_in_executor``, so the deadline travels explicitly with the job
and is re-established in the thread).  A backend outage exhausts
retries, trips the :class:`~repro.runtime.breaker.CircuitBreaker`, and
subsequent submissions shed fast (``breaker_open``) until a half-open
probe heals it -- the probe is claimed atomically at admission and
settled by exactly one ``record_*`` call here, on every path a job can
take (success, backend error, crash, even expiry while queued).

Durability: with a run directory, every terminal ``fixed``/``not_fixed``
result is journaled under a content-addressed key (code digest + config
digest + seed -- deliberately deadline-free) the moment it completes.
A SIGTERM drains in two stages (stop admitting, finish and journal the
backlog, exit 0); a killed-and-restarted server replays resubmitted
jobs from the journal with digest-identical results.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.config import RTLFixerConfig
from ..errors import (
    DeadlineExceededError,
    RetryExhaustedError,
    SimulationError,
    TransientError,
)
from ..llm.pool import routing_from_config
from ..runtime.accounting import render_line
from ..runtime.breaker import CircuitBreaker
from ..runtime.checkpoint import RunState, config_digest, content_digest, unit_key
from ..runtime.shutdown import GracefulShutdown
from .deadline import Deadline, use_deadline
from .protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    RepairRequest,
    deadline_response,
    error_response,
    fixed_response,
    http_status,
    sse_event,
    shed_response,
    turn_event,
)
from .scheduler import AdmissionController, Job, SchedulerConfig, ServiceStats


@dataclass(frozen=True)
class ServerConfig:
    """Everything one ``rtlfixer serve`` instance needs."""

    host: str = "127.0.0.1"
    port: int = 8357
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Consecutive backend failures that trip the breaker (0 disables).
    breaker_threshold: int = 5
    #: Every Nth breaker denial converts into a half-open heal probe.
    probe_interval: int = 3
    #: Durable-run directory for journaled results (None = stateless).
    run_dir: Optional[str] = None
    #: Continue an existing run directory (replay its journal).
    resume: bool = False
    #: Every job's config is this template with the request's knobs
    #: applied: it carries the retry budget, step timeout and LLM pool.
    fixer: RTLFixerConfig = field(default_factory=RTLFixerConfig)
    #: Artificial per-job work (seconds) -- makes overload and drain
    #: drills deterministic when real repairs are too fast to queue.
    work_delay: float = 0.0
    #: Deterministic backend-outage window ``(first_job, job_count)``:
    #: dispatched jobs in the window fail as exhausted retries, which
    #: trips the breaker; the chaos drill asserts the service sheds and
    #: then heals.  None disables.
    chaos_outage: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        # NaN compares False both ways: a NaN delay would be skipped.
        if not math.isfinite(self.work_delay) or self.work_delay < 0:
            raise ValueError("work_delay must be a finite number >= 0")
        # Every job's fixer parses the template's pool spec, so a ladder
        # it rejects is rejected here, at startup.
        routing_from_config(self.fixer)
        if self.chaos_outage is not None:
            start, count = self.chaos_outage
            if start < 0 or count < 1:
                raise ValueError(
                    "chaos_outage must be (first_job >= 0, job_count >= 1)"
                )


class RepairServer:
    """The repair-as-a-service front-end.

    Construct, then either :meth:`run` (blocking; installs signal
    handlers, serves until drained) or ``await`` :meth:`serve` inside an
    existing event loop (tests drive drain via :meth:`request_drain`).
    """

    def __init__(self, config: ServerConfig):
        """Build the admission plane; no sockets are opened yet."""
        self.config = config
        self.stats = ServiceStats()
        self.breaker: Optional[CircuitBreaker] = None
        if config.breaker_threshold:  # 0 disables; CircuitBreaker checks it
            self.breaker = CircuitBreaker(
                failure_threshold=config.breaker_threshold,
                probe_interval=config.probe_interval,
            )
        self.admission = AdmissionController(
            config.scheduler, breaker=self.breaker, stats=self.stats
        )
        self.run_state: Optional[RunState] = None
        if config.run_dir is not None:
            self.run_state = RunState(config.run_dir)
            self.run_state.ensure_manifest(
                {"kind": "service", "protocol": PROTOCOL_VERSION},
                resume=config.resume,
            )
        # One guidance database shared by every job's fixer: it is
        # immutable after construction and by far the most expensive
        # part of building an RTLFixer.
        from ..rag.guidance_data import build_default_database

        self._database = build_default_database()
        #: The bound port (updates to the real one when port 0 is used).
        self.port = config.port
        self._job_counter = 0
        self._dispatched = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: list[asyncio.Task] = []
        self._handlers: set[asyncio.Task] = set()
        self._drain_requested: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> int:
        """Serve until drained (SIGTERM/SIGINT); returns the exit code.

        First signal: two-stage drain -- stop admitting (new work sheds
        with reason ``draining``), finish and journal every admitted
        job, answer every open connection, exit 0.  Second signal:
        :class:`~repro.runtime.shutdown.GracefulShutdown` hard-exits.
        """
        return asyncio.run(self._run_with_signals())

    async def _run_with_signals(self) -> int:
        """Install the drain handlers around :meth:`serve`."""
        loop = asyncio.get_running_loop()
        shutdown = GracefulShutdown(
            on_request=lambda signum: loop.call_soon_threadsafe(
                self.request_drain
            )
        )
        with shutdown:
            await self.serve()
        return 0

    async def serve(self) -> None:
        """Open the listener, run workers, and block until drained."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        self._workers = [
            asyncio.create_task(self._worker())
            for _ in range(self.config.scheduler.capacity)
        ]
        # The readiness line scripts and tests wait for before loading.
        print(f"SERVING http://{host}:{port}", flush=True)
        await self._drain_requested.wait()
        await self._drain()

    def request_drain(self) -> None:
        """Begin the graceful drain (idempotent; loop-thread only)."""
        self.admission.start_drain()
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def _drain(self) -> None:
        """Finish the backlog, answer open connections, release ports."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Workers hand out the whole backlog before observing the drain,
        # so every admitted job resolves its future (and is journaled).
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self.run_state is not None:
            self.run_state.close()
        print(render_line("service", self.stats.as_dict()), file=sys.stderr,
              flush=True)

    # -- job execution -----------------------------------------------------

    def _job_key(self, request: RepairRequest, config) -> str:
        """Content-addressed journal key for one submission.

        Deliberately excludes the deadline (ambient, not config) so a
        resubmitted job replays from the journal regardless of the new
        request's budget.
        """
        return unit_key(
            "service",
            code=content_digest(request.code),
            config=config_digest(config),
            seed=request.seed,
        )

    def _execute(self, job: Job, in_outage: bool) -> dict:
        """Run one repair in a worker thread; returns the raw outcome.

        The job's deadline is scoped ambiently *here*, inside the
        thread, because contextvars set on the event loop do not
        propagate through ``run_in_executor``.
        """
        from ..core.fixer import RTLFixer

        scope = (
            use_deadline(job.deadline)
            if job.deadline is not None
            else contextlib.nullcontext()
        )
        with scope:
            if self.config.work_delay > 0:
                self._simulated_work(job)
            if in_outage:
                raise RetryExhaustedError(
                    "chaos drill: repair backend unreachable "
                    "(retries exhausted)",
                    attempts=self.config.fixer.max_retries + 1,
                )
            fixer = RTLFixer(config=job.config, database=self._database)
            if job.events is not None:
                loop, events = self._loop, job.events
                fixer.agent.on_turn = lambda turn: loop.call_soon_threadsafe(
                    events.put_nowait, ("iteration", turn_event(turn))
                )
            result = fixer.fix(job.request.code)
        return {
            "success": result.success,
            "iterations": result.iterations,
            "final_code": result.final_code,
        }

    def _simulated_work(self, job: Job) -> None:
        """Burn ``work_delay`` seconds in deadline-aware slices."""
        remaining = self.config.work_delay
        while remaining > 0:
            if job.deadline is not None:
                job.deadline.check(stage="simulated-work")
            step = min(remaining, 0.01)
            time.sleep(step)
            remaining -= step

    async def _worker(self) -> None:
        """One worker slot: claim jobs in fair order until drained."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self.admission.next_job()
            if job is None:
                return
            tenant = job.request.tenant
            if job.deadline is not None and job.deadline.expired():
                # The budget died in the queue.  A probe job never
                # touched the backend, so settle it as an *uncounted*
                # transient: the breaker re-opens without tallying.
                if job.probe and self.breaker is not None:
                    self.breaker.record_failure(
                        TransientError("probe expired while queued"),
                        probe=True,
                    )
                self._finish(job, deadline_response(job.job_id, tenant, "queued"))
                continue
            in_outage = False
            if self.config.chaos_outage is not None:
                start, count = self.config.chaos_outage
                in_outage = start <= self._dispatched < start + count
            self._dispatched += 1
            started = time.monotonic()
            try:
                outcome = await loop.run_in_executor(
                    None, self._execute, job, in_outage
                )
            except DeadlineExceededError as exc:
                if job.probe and self.breaker is not None:
                    self.breaker.record_failure(
                        TransientError("probe deadline expired"), probe=True
                    )
                self._finish(
                    job, deadline_response(job.job_id, tenant, exc.stage)
                )
                continue
            except Exception as exc:  # crash boundary: counted, never silent
                # Exhausted retries and sandbox outcomes that escape the
                # repair flow (budget overflow, settle divergence) are
                # *typed* errors, not crashes: the client gets the
                # classification.  The breaker counts every failure.
                if self.breaker is not None:
                    self.breaker.record_failure(exc, probe=job.probe)
                typed = isinstance(exc, (RetryExhaustedError, SimulationError))
                self._finish(
                    job,
                    error_response(
                        job.job_id, tenant, type(exc).__name__, str(exc),
                        crashed=not typed,
                    ),
                )
                continue
            if self.breaker is not None:
                self.breaker.record_success(probe=job.probe)
            response = fixed_response(
                job.job_id,
                tenant,
                success=outcome["success"],
                iterations=outcome["iterations"],
                final_code=outcome["final_code"],
                queue_wait_s=job.dequeued_at - job.enqueued_at,
                exec_s=time.monotonic() - started,
            )
            if self.run_state is not None:
                self.run_state.record(job.key, outcome, stage="service")
            self._finish(job, response)

    def _finish(self, job: Job, response: dict) -> None:
        """Deliver one terminal response to the waiting handler."""
        self.stats.record_outcome(
            job.request.tenant,
            response["status"],
            replayed=bool(response.get("replayed")),
        )
        if job.events is not None:
            job.events.put_nowait(("result", response))
        if job.future is not None and not job.future.done():
            job.future.set_result(response)

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: parse, route, answer, close."""
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            await self._serve_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Parse one HTTP/1.1 request and dispatch it to a route."""
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, path, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._send_json(writer, 400, {"status": "bad_request",
                                                "message": "malformed request line"})
            return
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self._health())
            return
        if method == "GET" and path == "/stats":
            await self._send_json(writer, 200, self._stats_payload())
            return
        if method == "POST" and path == "/repair":
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if length <= 0:
                await self._send_json(
                    writer, 400,
                    {"status": "bad_request",
                     "message": "a JSON body with Content-Length is required"},
                )
                return
            if length > MAX_BODY_BYTES:
                await self._send_json(
                    writer, 413,
                    {"status": "bad_request",
                     "message": f"body exceeds {MAX_BODY_BYTES} bytes"},
                )
                return
            body = await reader.readexactly(length)
            await self._handle_repair(writer, body)
            return
        await self._send_json(
            writer, 404, {"status": "not_found", "path": path}
        )

    def _health(self) -> dict:
        """The /healthz payload."""
        return {
            "status": "draining" if self.admission.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "queued": self.admission.queued,
            "breaker": self.breaker.state if self.breaker else None,
        }

    def _stats_payload(self) -> dict:
        """The /stats payload: ledger + quotas + breaker + caches."""
        from ..runtime.cache import get_active_cache

        cache = get_active_cache()
        return {
            "service": self.stats.as_dict(),
            "quotas": self.admission.quotas(),
            "breaker": self.breaker.snapshot() if self.breaker else None,
            "draining": self.admission.draining,
            # Jobs share the process-wide compile cache: repeated error
            # patterns across tenants hit it, and clients can watch the
            # rate here.
            "compile_cache": cache.stats.as_dict() if cache else None,
        }

    async def _handle_repair(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        """Admit (or shed, or replay) one ``POST /repair`` submission."""
        try:
            request = RepairRequest.from_json(body)
            config = request.apply(self.config.fixer)
        except ValueError as exc:
            await self._send_json(
                writer, 400, {"status": "bad_request", "message": str(exc)}
            )
            return
        self._job_counter += 1
        job_id = f"job-{self._job_counter:06d}"
        key = self._job_key(request, config)
        if self.run_state is not None and self.run_state.completed(key):
            # Journal replay: a previously-completed submission answers
            # from the journal -- digest-identical, no queue slot spent.
            cached = self.run_state.result(key)
            self.stats.record_submitted(request.tenant)
            response = fixed_response(
                job_id,
                request.tenant,
                success=cached["success"],
                iterations=cached["iterations"],
                final_code=cached["final_code"],
                replayed=True,
            )
            self.stats.record_outcome(request.tenant, response["status"],
                                      replayed=True)
            if request.stream:
                replay_events: asyncio.Queue = asyncio.Queue()
                replay_events.put_nowait(("result", response))
                await self._stream(writer, job_id, request, replay_events)
            else:
                await self._send_json(writer, http_status(response), response)
            return
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.scheduler.default_deadline_s
        loop = asyncio.get_running_loop()
        job = Job(
            job_id=job_id,
            request=request,
            config=config,
            key=key,
            deadline=Deadline(deadline_s) if deadline_s is not None else None,
            future=loop.create_future(),
            events=asyncio.Queue() if request.stream else None,
        )
        reason = self.admission.admit(job)
        if reason is not None:
            await self._send_json(
                writer, 429, shed_response(request.tenant, reason)
            )
            return
        if job.events is not None:
            await self._stream(writer, job.job_id, request, job.events)
        else:
            response = await job.future
            await self._send_json(writer, http_status(response), response)

    async def _stream(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        request: RepairRequest,
        events: asyncio.Queue,
    ) -> None:
        """Answer one streaming submission with SSE frames: ``accepted``,
        one ``iteration`` per ReAct turn, then the terminal ``result``."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(
            sse_event("accepted", {"job_id": job_id, "tenant": request.tenant})
        )
        await writer.drain()
        while True:
            kind, payload = await events.get()
            writer.write(sse_event(kind, payload))
            await writer.drain()
            if kind == "result":
                return

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        """Write one complete JSON response and flush it."""
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  500: "Internal Server Error", 502: "Bad Gateway",
                  504: "Gateway Timeout"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if status == 429:
            retry_after = payload.get("retry_after_s", 1.0)
            head += f"Retry-After: {max(1, int(retry_after))}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode() + body)
        await writer.drain()
