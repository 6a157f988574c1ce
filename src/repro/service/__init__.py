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

Only the deadline primitives are imported eagerly: they are the one
piece the *runtime* layers depend on (``repro.runtime.retry`` checks
the ambient deadline), so this module must stay import-light to avoid
cycles.  Everything else loads on first attribute access.
"""

from __future__ import annotations

from .deadline import Deadline, current_deadline, use_deadline

#: Lazily-resolved public names -> defining submodule.  The server and
#: scheduler import the runtime/core layers, which themselves import
#: ``repro.service.deadline``; deferring them keeps this package
#: importable from anywhere in the stack.
_LAZY = {
    "RepairServer": "server",
    "ServerConfig": "server",
    "AdmissionController": "scheduler",
    "SchedulerConfig": "scheduler",
    "ServiceStats": "scheduler",
    "RepairRequest": "protocol",
    "ShedReason": "protocol",
    "ServiceClient": "client",
}

__all__ = [
    "Deadline",
    "current_deadline",
    "use_deadline",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """Resolve the lazily-exported server/scheduler/protocol names."""
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
