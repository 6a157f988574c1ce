"""Exception hierarchy shared across the :mod:`repro` library.

Every exception raised deliberately by the library derives from
:class:`ReproError`, so callers can catch a single base type.  Compiler
*diagnostics* (syntax/semantic errors in user Verilog) are **not**
exceptions -- they are data, collected in a
:class:`repro.diagnostics.CompileResult`.  Exceptions are reserved for
misuse of the library itself.
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every one pickles with its attributes (process workers send their
    failures home): unpickling rebuilds it from ``args`` without calling
    ``__init__``, whose extra required arguments the default exception
    pickle cannot supply, then restores the instance dict.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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

    Unlike the compiler front end, whose budgets report a
    ``RESOURCE_LIMIT`` diagnostic and stop the stage without raising
    (:class:`repro.verilog.limits.LimitTracker`), the simulator unwinds
    with this exception.  It derives :class:`SimulationError` so every
    existing handler still degrades it into an ordinary failed verdict,
    while the sandbox boundary (:mod:`repro.sim.sandbox`) distinguishes
    it from genuine simulation failures and classifies the outcome as a
    typed ``limit`` verdict (vs. ``crashed`` for internal errors).

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
