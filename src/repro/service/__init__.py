"""Repair-as-a-service: the overload-safe async front-end.

The batch layers (:mod:`repro.eval`) reproduce the paper's tables; this
package serves the same repair capability interactively, the way MEIC /
VeriPilot frame LLM-driven RTL repair.  Its defining property is that
it **degrades gracefully instead of falling over**:

* :mod:`repro.service.deadline` -- per-request :class:`Deadline`
  budgets propagated ambiently into the ReAct loop and the retry layer;
* :mod:`repro.service.protocol` -- the HTTP/JSON + SSE wire protocol
  (typed ``overloaded`` / ``deadline_exceeded`` responses included);
* :mod:`repro.service.scheduler` -- admission control: bounded
  per-tenant queues, explicit load shedding, weighted fair scheduling,
  per-tenant token-bucket quotas, circuit-breaker integration;
* :mod:`repro.service.server` -- the asyncio server (``rtlfixer
  serve``) with streaming per-iteration progress, durable-run
  journaling, and two-stage graceful drain on SIGTERM;
* :mod:`repro.service.client` -- the minimal asyncio client used by
  the load generator, the CI smoke stage and the tests.

The package itself exports only the deadline primitives, the one piece
the *runtime* layers depend on (``repro.runtime.retry`` checks the
ambient deadline).  The server, scheduler, protocol and client import
the runtime and core layers, which themselves import
``repro.service.deadline``; so this module stays import-light and
callers import those submodules directly.
"""

from __future__ import annotations

from .deadline import Deadline, current_deadline, use_deadline

__all__ = ["Deadline", "current_deadline", "use_deadline"]
