"""Exception hierarchy shared across the :mod:`repro` library.

Every exception raised deliberately by the library derives from
:class:`ReproError`, so callers can catch a single base type.  Compiler
*diagnostics* (syntax/semantic errors in user Verilog) are **not**
exceptions -- they are data, collected in a
:class:`repro.diagnostics.CompileResult`.  Exceptions are reserved for
misuse of the library itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class VerilogInternalError(ReproError):
    """The Verilog front-end reached an inconsistent internal state.

    This indicates a bug in the front-end, never in user code: user-code
    problems are reported as diagnostics instead.
    """


class ResourceLimitExceeded(ReproError):
    """A cooperative resource budget of the compiler front-end ran out.

    Raised *inside* pipeline stages (see
    :class:`repro.verilog.limits.LimitTracker`) when unwinding via an
    exception is simpler than threading a flag; always caught at the
    :func:`repro.diagnostics.compiler.compile_source` boundary and
    converted into an ordinary ``RESOURCE_LIMIT`` diagnostic.  It never
    escapes the front-end.
    """

    def __init__(self, kind: str, limit: int):
        super().__init__(f"{kind} limit ({limit}) exceeded")
        self.kind = kind
        self.limit = limit


class SimulationError(ReproError):
    """The simulator could not run an elaborated design.

    Raised e.g. for designs with unsupported constructs, combinational
    loops that do not converge, or stimulus that does not match the
    design's ports.  ``phase`` says where in the run it was raised
    (``construct``, ``cycle``, ``trace``; empty when the simulator had
    no budget tracker to read it from).
    """

    def __init__(self, message: str = "", phase: str = ""):
        super().__init__(message)
        self.phase = phase


class SimLimitExceeded(SimulationError):
    """A cooperative simulation budget ran out
    (:class:`repro.sim.limits.SimLimits`).

    The simulator-side analogue of :class:`ResourceLimitExceeded`: it
    derives :class:`SimulationError` so every existing handler still
    degrades it into an ordinary failed verdict, while the sandbox
    boundary (:mod:`repro.sim.sandbox`) distinguishes it from genuine
    simulation failures and classifies the outcome as a typed ``limit``
    verdict (vs. ``crashed`` for internal errors).

    ``kind`` names the exhausted budget (``"simulated cycles"``,
    ``"sim events"``, ``"stmt executions"``, ``"trace entries"``,
    ``"trace bytes"``, ``"display lines"``, ``"wall clock"``, ``"settle
    passes"``); ``phase`` says where in the run it fired (``construct``,
    ``cycle``, ``trace``).
    """

    def __init__(
        self,
        kind: str,
        limit: float,
        message: str | None = None,
        phase: str = "",
    ):
        super().__init__(
            message
            if message is not None
            else f"simulation {kind} limit ({limit}) exceeded",
            phase=phase,
        )
        self.kind = kind
        self.limit = limit


class DatasetError(ReproError):
    """A dataset could not be built or loaded (bad problem id, corpus
    inconsistency, failed error injection)."""


class AgentError(ReproError):
    """An agent was driven incorrectly (e.g. action emitted after Finish)."""


class RetrievalError(ReproError):
    """A RAG database or retriever was misconfigured."""


class LLMError(ReproError):
    """An LLM client failed (bad configuration, missing backend)."""


class TransientError(ReproError):
    """A fault that may clear on retry (network hiccup, rate limit,
    injected chaos).  :mod:`repro.runtime.retry` retries exactly this
    family; everything else propagates immediately."""


class LLMTimeoutError(TransientError, LLMError):
    """A model call exceeded its per-call timeout budget.

    Retryable: timeouts are the canonical transient fault of API-backed
    backends (see :class:`repro.runtime.retry.RetryPolicy`).
    """


class InjectedFault(TransientError):
    """A fault raised deliberately by the chaos harness
    (:mod:`repro.runtime.faults`), never by production code paths."""


class DeadlineExceededError(ReproError):
    """A per-request deadline ran out before the work finished.

    Distinct from :class:`LLMTimeoutError` on purpose: a *per-call*
    budget overrun is a transient backend fault worth retrying, while an
    expired *deadline* means the caller's overall budget is gone -- no
    retry can help, so this is **not** a :class:`TransientError` and the
    retry layer never re-dispatches after it (see
    :func:`repro.runtime.retry.call_with_retry`).  The repair service
    (:mod:`repro.service`) raises it from inside the ReAct loop so an
    over-deadline job stops mid-iteration instead of discovering the
    overrun after completing, and reports it as a typed
    ``deadline_exceeded`` response rather than a backend error.

    ``stage`` names where the deadline fired (e.g. ``"queued"``,
    ``"react-iteration"``, ``"retry-backoff"``).
    """

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


class OverloadedError(ReproError):
    """The repair service refused to admit a job (load shedding).

    Raised by the admission controller (:mod:`repro.service.scheduler`)
    and converted by the server into a typed ``overloaded`` HTTP
    response; ``reason`` is the machine-readable shed reason
    (``tenant_queue_full``, ``server_queue_full``, ``tenant_quota``,
    ``breaker_open``, ``draining``).
    """

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class CheckpointError(ReproError):
    """A durable run directory could not be used (manifest mismatch,
    journal clobber without ``--resume``, undecodable journal payload).

    Raised before any trial executes: checkpoint misuse must fail fast,
    never silently discard or overwrite a previous run's journal.
    """


class CircuitOpenError(TransientError):
    """A work unit was skipped because the circuit breaker is open.

    Recorded (never raised through the executor) as the ``error_type``
    of the SKIPPED :class:`repro.runtime.WorkFailure` slots a tripped
    breaker produces.  It derives :class:`TransientError` because the
    condition is expected to clear: a resumed run re-executes skipped
    trials instead of replaying them from the journal.
    """


class RunInterrupted(ReproError):
    """A graceful shutdown stopped an experiment run mid-way.

    Raised by :meth:`repro.runtime.ParallelRunner.map` after the first
    SIGINT/SIGTERM: dispatch stops, in-flight work units drain (and are
    journaled), then this propagates so the caller can exit with a
    resumable checkpoint.  Carries how far the interrupted stage got and
    the signal number (for a faithful ``128 + signum`` exit code).
    """

    def __init__(self, message: str, done: int = 0, total: int = 0,
                 signum: int | None = None):
        super().__init__(message)
        self.done = done
        self.total = total
        self.signum = signum


class RetryExhaustedError(ReproError):
    """A retried call kept failing past its retry budget.

    Carries the attempt count and the last underlying error, so failure
    collectors (``ParallelRunner.map(on_error="collect")``) can report
    the root cause per work unit.
    """

    def __init__(self, message: str, attempts: int, last_error: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
