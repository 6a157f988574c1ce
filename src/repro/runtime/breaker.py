"""Circuit breaker for persistent LLM / compiler outages.

The retry layer (:mod:`repro.runtime.retry`) absorbs *transient* faults:
a timeout or rate-limit clears after a bounded backoff.  A *persistent*
outage -- an API key revoked mid-run, a backend hard-down, a compiler
service returning garbage for every request -- looks different: every
trial burns its full retry budget and still fails.  On a
hundreds-of-trials report run that turns a 5-minute outage into hours of
futile backoff.

:class:`CircuitBreaker` is the complementary mechanism, one state
machine per run:

* **closed** (normal): trials flow; consecutive *counted* failures are
  tallied, any success resets the tally;
* **open** (tripped, after ``failure_threshold`` consecutive counted
  failures): :meth:`admit` denies trials, which the executor records as
  journaled SKIPPED :class:`~repro.runtime.WorkFailure` slots -- the run
  finishes fast instead of grinding through the outage;
* **half-open** (probing): after ``probe_interval`` denials one probe
  trial is let through; success closes the breaker (the outage cleared,
  the run recovers), failure re-opens it.  *Any* probe failure settles
  the state -- even an uncounted bare transient re-opens the breaker,
  because a probe that leaves the breaker half-open forever would
  starve dispatch.  Parallel executors tell the breaker which recorded
  outcome is the probe's (``probe=``): outcomes from other units that
  were already in flight when the probe dispatched only adjust the
  failure tally, never transition the state.

Composition with retries: by the time a failure reaches the executor it
is either a :class:`~repro.errors.RetryExhaustedError` (the retry layer
gave up -- counted) or a non-transient bug (counted).  A *bare*
:class:`~repro.errors.TransientError` is not counted -- with retries
disabled a lone hiccup must not march the breaker toward a trip; enable
the retry layer so persistent transients surface as exhaustion.

Skipped trials are journaled with a ``skipped`` marker, never replayed:
a resumed run re-executes them (like journaled real failures), because
the outage that caused the skip is expected to have cleared.

Concurrency: the repair service (:mod:`repro.service`) drives the
breaker from many concurrent handlers, so every state transition holds
a reentrant lock, and dispatchers (the service and
:mod:`repro.runtime.executor`) call :meth:`admit`, which decides
whether a trial may dispatch *and* whether it is the half-open probe
in one step, so two handlers can never both believe they hold the
probe (double-dispatch) or lose a trip.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import TransientError

#: The three breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Trip after N consecutive counted failures; fail the rest fast.

    >>> breaker = CircuitBreaker(failure_threshold=3)
    >>> allowed, probe = breaker.admit()  # closed: (True, False)
    >>> breaker.record_failure(exc, probe=probe)  # tally it (or not)
    >>> breaker.state
    """

    def __init__(
        self, failure_threshold: int = 5, probe_interval: Optional[int] = 25
    ):
        """``failure_threshold`` consecutive counted failures trip the
        breaker; while open, every ``probe_interval``-th denied trial is
        let through as a half-open probe (``None`` disables probing --
        once open, open for the rest of the run)."""
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if probe_interval is not None and probe_interval < 1:
            raise ValueError(
                f"probe_interval must be >= 1 (or None), got {probe_interval}"
            )
        self.failure_threshold = failure_threshold
        self.probe_interval = probe_interval
        self.state = CLOSED
        self.consecutive_failures = 0
        #: How many times the breaker tripped (closed/half-open -> open).
        self.trips = 0
        #: Trials denied (skipped) while open.
        self.skipped = 0
        self._denied_since_open = 0
        self._probe_outstanding = False
        # Reentrant so record_failure may call _trip while holding it;
        # guards every state transition against concurrent handlers.
        self._lock = threading.RLock()

    @staticmethod
    def counts(exc: BaseException) -> bool:
        """Whether a failure participates in the consecutive tally.

        Everything counts except a *bare* transient fault
        (:class:`~repro.errors.TransientError` and subclasses):
        transients are the retry layer's job, and exhausted retries
        surface as :class:`~repro.errors.RetryExhaustedError`, which is
        not transient and does count.
        """
        return not isinstance(exc, TransientError)

    def admit(self) -> tuple[bool, bool]:
        """Atomic dispatch decision: ``(allowed, is_probe)``.

        ``allowed`` is False when the next trial must be skipped.  While
        open, denials are tallied; every ``probe_interval``-th denial
        converts into a half-open probe instead.  While a probe is in
        flight (half-open) all other trials are denied.  One locked
        transition, so two concurrent handlers can never both conclude
        they hold the half-open probe.  Callers that
        receive ``is_probe=True`` **must** settle the probe by passing
        ``probe=True`` to exactly one ``record_*`` call, or the breaker
        stays half-open and starves dispatch.
        """
        with self._lock:
            if self.state == CLOSED:
                return True, False
            if self.state == OPEN and self.probe_interval is not None:
                self._denied_since_open += 1
                if self._denied_since_open >= self.probe_interval:
                    self.state = HALF_OPEN
                    self._probe_outstanding = True
                    return True, True
            self.skipped += 1
            return False, False

    @property
    def probing(self) -> bool:
        """True while a half-open probe is dispatched but not yet
        recorded (the executor holds dispatch until it settles)."""
        with self._lock:
            return self.state == HALF_OPEN and self._probe_outstanding

    def record_success(self, probe: Optional[bool] = None) -> None:
        """A trial succeeded: reset the tally; close the breaker.

        ``probe`` marks whether this outcome belongs to the half-open
        probe (``None`` infers it from the state -- correct for serial
        callers, where at most one unit is ever in flight).  While
        half-open, only the probe's success closes the breaker; a
        straggler success from a unit dispatched before the trip resets
        the failure tally but leaves the probe to settle the state.
        """
        with self._lock:
            if probe is None:
                probe = self.state == HALF_OPEN
            self.consecutive_failures = 0
            if self.state == HALF_OPEN and not probe:
                return
            self.state = CLOSED
            self._probe_outstanding = False
            self._denied_since_open = 0

    def record_failure(
        self, exc: Optional[BaseException] = None,
        probe: Optional[bool] = None,
    ) -> None:
        """A trial failed; tally it unless it is an uncounted transient.

        While half-open, *only the probe's* failure settles the state,
        and it always does: any probe failure -- even an uncounted bare
        transient -- re-opens the breaker (a probe must never leave the
        breaker stuck half-open, which would starve dispatch forever).
        Failures from other in-flight units merely adjust the tally.
        In the closed state the ``failure_threshold``-th consecutive
        counted failure trips the breaker.
        """
        with self._lock:
            if probe is None:
                probe = self.state == HALF_OPEN
            counted = exc is None or self.counts(exc)
            if self.state == HALF_OPEN and probe:
                if counted:
                    self.consecutive_failures += 1
                self._trip()
                return
            if not counted:
                return
            self.consecutive_failures += 1
            if (
                self.state == CLOSED
                and self.consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        """Transition to open and start a fresh denial tally (callers
        hold the lock)."""
        self.state = OPEN
        self.trips += 1
        self._denied_since_open = 0
        self._probe_outstanding = False

    def snapshot(self) -> dict:
        """JSON-friendly telemetry (surfaced by ``run_full_report``)."""
        with self._lock:
            return {
                "state": self.state,
                "trips": self.trips,
                "skipped": self.skipped,
                "consecutive_failures": self.consecutive_failures,
                "failure_threshold": self.failure_threshold,
            }
