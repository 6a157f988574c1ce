"""Admission control and weighted fair scheduling for the repair server.

The server's overload posture is decided here, in one place:

* **bounded queues** -- each tenant owns a bounded FIFO; a server-wide
  bound caps total queued work.  Nothing in the service ever queues
  unboundedly, so memory under overload is a constant, not a function
  of offered load;
* **explicit load shedding** -- a job that cannot be admitted is
  *refused immediately* with a typed :class:`~.protocol.ShedReason`
  (queue full, quota, breaker open, draining).  Shedding at the front
  door keeps p99 latency of *admitted* jobs bounded: the alternative --
  admit everything and let queues grow -- turns overload into unbounded
  latency for everyone;
* **per-tenant quotas** -- a :class:`~repro.runtime.limiter.TokenBucket`
  per tenant (non-blocking :meth:`~repro.runtime.limiter.TokenBucket.try_acquire`)
  caps each tenant's admission rate, so one chatty tenant cannot starve
  the rest even before fairness kicks in;
* **weighted fair scheduling** -- dispatch order across tenants uses
  stride scheduling over a virtual clock: each tenant carries a *pass*
  value advanced by ``1/weight`` per dispatched job, and the scheduler
  always picks the backlogged tenant with the smallest pass (ties by
  name, so the order is deterministic).  A tenant with weight 2 drains
  twice as fast as a tenant with weight 1; an idle tenant re-enters at
  the current virtual time instead of hoarding credit;
* **circuit-breaker integration** -- when the breaker is open the
  controller sheds *before* queueing (``breaker_open``), so a dead
  backend fails fast instead of filling queues with doomed work; the
  breaker's half-open probe is claimed atomically at admission
  (:meth:`~repro.runtime.breaker.CircuitBreaker.admit`) and settled by
  the worker that runs the probe job.

Everything here runs on the asyncio event loop (admission from request
handlers, dispatch from worker tasks), so the state machine itself
needs no locks -- the breaker and the token buckets carry their own,
because job *execution* happens in worker threads.

:class:`ServiceStats` is the service's telemetry ledger, owned by the
server and served on ``GET /stats``.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..runtime.breaker import CircuitBreaker
from ..runtime.limiter import TokenBucket
from .deadline import Deadline
from .protocol import RepairRequest, ShedReason


@dataclass(frozen=True)
class SchedulerConfig:
    """Admission/fairness knobs for one server instance."""

    #: Concurrent executing jobs (worker slots).
    capacity: int = 2
    #: Bounded per-tenant queue depth.
    max_queue_per_tenant: int = 8
    #: Server-wide bound on total queued jobs.
    max_queued: int = 64
    #: Per-tenant admission quota in jobs/second (0 = unlimited).
    tenant_rate: float = 0.0
    #: Per-tenant quota burst (bucket capacity).
    tenant_burst: int = 8
    #: Tenant name -> scheduling weight (default 1.0; higher = more
    #: dispatch share under contention).
    weights: dict = field(default_factory=dict)
    #: Default deadline (seconds) for requests that do not set one
    #: (None = no deadline unless the client asks for one).
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.max_queue_per_tenant < 1:
            raise ValueError("max_queue_per_tenant must be >= 1")
        if self.max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        # NaN compares False both ways: a NaN rate would read as an
        # unlimited quota, a NaN weight would poison the stride clock.
        if not math.isfinite(self.tenant_rate) or self.tenant_rate < 0:
            raise ValueError("tenant_rate must be a finite number >= 0 (0 = unlimited)")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be >= 1")
        for tenant, weight in self.weights.items():
            if not math.isfinite(weight) or weight <= 0:
                raise ValueError(
                    f"weight for tenant {tenant!r} must be a finite number "
                    f"> 0, got {weight}"
                )
        if self.default_deadline_s is not None:
            # Fail at startup, not on every request that takes the default.
            Deadline(self.default_deadline_s)


@dataclass
class Job:
    """One admitted repair job travelling through the scheduler."""

    job_id: str
    request: RepairRequest
    config: Any  # RTLFixerConfig (kept untyped here: avoids a core import)
    key: str  # content-addressed journal key
    deadline: Optional[Deadline] = None
    #: Resolved with the protocol result dict.
    future: Optional[asyncio.Future] = None
    #: SSE progress queue (None for non-streaming requests).
    events: Optional[asyncio.Queue] = None
    enqueued_at: float = 0.0
    dequeued_at: float = 0.0
    #: This job carries the circuit breaker's half-open probe: exactly
    #: one ``record_*(probe=True)`` call must settle it.
    probe: bool = False


class ServiceStats:
    """The service telemetry ledger (admission, shedding, outcomes).

    Mutated only from the event loop; snapshotted via :meth:`as_dict`
    for ``GET /stats`` and the ``# service:`` stderr drain line.
    """

    def __init__(self) -> None:
        """Start an all-zero ledger."""
        self.submitted = 0
        self.admitted = 0
        self.shed: dict[str, int] = {}
        self.deadline_expired = 0
        self.completed = 0
        self.fixed = 0
        self.not_fixed = 0
        self.backend_errors = 0
        self.crashed = 0
        self.replayed = 0
        self.tenants: dict[str, dict[str, int]] = {}

    def _tenant(self, tenant: str) -> dict[str, int]:
        """The per-tenant counter row, created on first use."""
        return self.tenants.setdefault(
            tenant, {"admitted": 0, "shed": 0, "completed": 0}
        )

    def record_submitted(self, tenant: str) -> None:
        """A request reached admission."""
        self.submitted += 1
        self._tenant(tenant)

    def record_admitted(self, tenant: str) -> None:
        """A job was admitted into a queue."""
        self.admitted += 1
        self._tenant(tenant)["admitted"] += 1

    def record_shed(self, tenant: str, reason: str) -> None:
        """A request was refused with a typed reason."""
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self._tenant(tenant)["shed"] += 1

    def record_outcome(self, tenant: str, status: str, replayed: bool = False) -> None:
        """A terminal response was produced for an admitted job."""
        self.completed += 1
        self._tenant(tenant)["completed"] += 1
        if status == "fixed":
            self.fixed += 1
        elif status == "not_fixed":
            self.not_fixed += 1
        elif status == "deadline_exceeded":
            self.deadline_expired += 1
        elif status == "backend_error":
            self.backend_errors += 1
        elif status == "error":
            self.crashed += 1
        if replayed:
            self.replayed += 1

    @property
    def total_shed(self) -> int:
        """Requests refused across all reasons."""
        return sum(self.shed.values())

    def as_dict(self) -> dict:
        """JSON-friendly snapshot for ``GET /stats``."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed.items())),
            "total_shed": self.total_shed,
            "deadline_expired": self.deadline_expired,
            "completed": self.completed,
            "fixed": self.fixed,
            "not_fixed": self.not_fixed,
            "backend_errors": self.backend_errors,
            "crashed": self.crashed,
            "replayed": self.replayed,
            "tenants": {name: dict(row) for name, row in sorted(self.tenants.items())},
        }


class _TenantState:
    """Scheduler-internal per-tenant bookkeeping."""

    def __init__(self, name: str, weight: float, quota: TokenBucket):
        """A tenant's queue, quota bucket and fair-share pass value."""
        self.name = name
        self.weight = weight
        self.quota = quota
        self.queue: deque[Job] = deque()
        #: Stride-scheduling pass value: the tenant's position on the
        #: virtual clock; smallest backlogged pass dispatches next.
        self.vpass = 0.0


class AdmissionController:
    """Bounded, fair, breaker-aware admission for the repair server.

    The server calls :meth:`admit` from request handlers and
    :meth:`next_job` from its worker tasks; :meth:`start_drain` flips
    the controller into drain mode (shed all new work, hand out the
    backlog, then release the workers with ``None``).
    """

    def __init__(
        self,
        config: SchedulerConfig,
        breaker: Optional[CircuitBreaker] = None,
        stats: Optional[ServiceStats] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        """``breaker`` enables shed-on-outage; ``clock`` is injectable
        for deterministic quota tests."""
        self.config = config
        self.breaker = breaker
        self.stats = stats if stats is not None else ServiceStats()
        self._clock = clock
        self._tenants: dict[str, _TenantState] = {}
        self._queued = 0
        self._vtime = 0.0
        self._draining = False
        self._wakeup = asyncio.Event()

    # -- tenant bookkeeping ------------------------------------------------

    def _tenant(self, name: str) -> _TenantState:
        """Fetch or create a tenant's scheduling state."""
        state = self._tenants.get(name)
        if state is None:
            weight = float(self.config.weights.get(name, 1.0))
            quota = TokenBucket(
                self.config.tenant_rate,
                burst=self.config.tenant_burst,
                clock=self._clock,
            )
            state = _TenantState(name, weight, quota)
            self._tenants[name] = state
        return state

    @property
    def queued(self) -> int:
        """Jobs admitted but not yet dispatched."""
        return self._queued

    @property
    def draining(self) -> bool:
        """Whether the controller has stopped admitting."""
        return self._draining

    def quotas(self) -> dict:
        """Per-tenant quota telemetry (tokens available, refusals)."""
        return {
            name: {
                "weight": state.weight,
                "rate": state.quota.rate,
                "available": round(state.quota.available, 3),
                "refusals": state.quota.refusals,
                "queued": len(state.queue),
            }
            for name, state in sorted(self._tenants.items())
        }

    # -- admission ---------------------------------------------------------

    def admit(self, job: Job) -> Optional[str]:
        """Try to admit ``job``; returns a :class:`~.protocol.ShedReason`
        string when shed, None when queued.

        Check order matters: every *refusable* condition (draining,
        quota, queue bounds) is evaluated before the breaker is
        consulted, because a granted half-open probe cannot be handed
        back -- the breaker check is last, so an admitted probe is
        always actually queued.
        """
        tenant = self._tenant(job.request.tenant)
        self.stats.record_submitted(job.request.tenant)
        reason = self._shed_reason(tenant)
        if reason is None and self.breaker is not None:
            allowed, is_probe = self.breaker.admit()
            if not allowed:
                reason = ShedReason.BREAKER_OPEN
            else:
                job.probe = is_probe
        if reason is not None:
            self.stats.record_shed(job.request.tenant, reason)
            return reason
        job.enqueued_at = self._clock()
        was_empty = not tenant.queue
        tenant.queue.append(job)
        self._queued += 1
        if was_empty:
            # An idle tenant re-enters at the current virtual time: it
            # competes fairly from now on instead of cashing in credit
            # accumulated while it had nothing to run.
            tenant.vpass = max(tenant.vpass, self._vtime)
        self.stats.record_admitted(job.request.tenant)
        self._wakeup.set()
        return None

    def _shed_reason(self, tenant: _TenantState) -> Optional[str]:
        """The pre-breaker shed decision for one submission."""
        if self._draining:
            return ShedReason.DRAINING
        if len(tenant.queue) >= self.config.max_queue_per_tenant:
            return ShedReason.TENANT_QUEUE_FULL
        if self._queued >= self.config.max_queued:
            return ShedReason.SERVER_QUEUE_FULL
        if not tenant.quota.try_acquire():
            return ShedReason.TENANT_QUOTA
        return None

    # -- dispatch ----------------------------------------------------------

    def _pick(self) -> Optional[Job]:
        """Dequeue the next job by stride scheduling (None = no backlog)."""
        best: Optional[_TenantState] = None
        for state in self._tenants.values():
            if not state.queue:
                continue
            if best is None or (state.vpass, state.name) < (best.vpass, best.name):
                best = state
        if best is None:
            return None
        job = best.queue.popleft()
        self._queued -= 1
        self._vtime = best.vpass
        best.vpass += 1.0 / best.weight
        job.dequeued_at = self._clock()
        return job

    async def next_job(self) -> Optional[Job]:
        """Wait for (and claim) the next job in fair order.

        Returns ``None`` exactly when the controller is draining *and*
        the backlog is empty -- the worker's signal to exit.  Admitted
        jobs are always handed out, drain or not: shutdown must finish
        what it accepted.
        """
        while True:
            job = self._pick()
            if job is not None:
                return job
            if self._draining:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def start_drain(self) -> None:
        """Stop admitting; wake every waiting worker so idle ones can
        observe the drain and exit once the backlog is gone."""
        self._draining = True
        self._wakeup.set()
