"""Per-request deadlines, propagated ambiently into the agent loop.

A repair *service* cannot afford the batch runner's "let every trial run
to completion" stance: a client that asked for an answer within 30
seconds gains nothing from a repair that arrives at second 90, and the
worker slot it occupies is stolen from jobs that could still make their
deadlines.  :class:`Deadline` is the one object that carries a
request's remaining time budget through every layer:

* the **admission queue** checks it at dequeue, so a job whose budget
  evaporated while queued is answered ``deadline_exceeded`` without
  burning a worker slot;
* the **ReAct loop** (:class:`repro.agents.react.ReActAgent`) checks it
  at the top of every Thought-Action-Observation iteration, so work
  stops *mid-repair* instead of discovering the overrun post-hoc;
* the **retry layer** (:func:`repro.runtime.retry.call_with_retry`)
  checks it before every attempt and before every backoff sleep, and
  never retries an already-expired deadline -- an expired budget
  surfaces as :class:`~repro.errors.DeadlineExceededError`, which is
  deliberately *not* transient.

Propagation is ambient via a :class:`contextvars.ContextVar`
(:func:`use_deadline` / :func:`current_deadline`), mirroring the
runtime's cache-injection idiom: the deep call stack between the server
handler and an individual model call never threads a deadline parameter
through its signatures.  Worker threads entering a job re-establish the
scope explicitly (context variables do not cross
``run_in_executor``).

The clock is injectable (monotonic by default) so tests can drive
expiry deterministically.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

from ..errors import DeadlineExceededError

ClockFn = Callable[[], float]

#: The ambient deadline of the request being served (None = no deadline,
#: the batch default).
_CURRENT_DEADLINE: ContextVar[Optional["Deadline"]] = ContextVar(
    "repro_deadline", default=None
)


class Deadline:
    """A wall-clock budget that starts ticking the moment it is created.

    >>> deadline = Deadline(30.0)     # 30 seconds from now
    >>> deadline.remaining()          # seconds left (may be negative)
    >>> deadline.expired()            # True once the budget is gone
    >>> deadline.check("react-iteration")  # raises DeadlineExceededError
    """

    def __init__(self, budget_s: float, clock: ClockFn = time.monotonic):
        """``budget_s`` seconds from *now* on ``clock`` (monotonic by
        default; injectable for deterministic tests)."""
        # NaN compares False both ways: a NaN budget would never expire.
        if not math.isfinite(budget_s) or budget_s <= 0:
            raise ValueError(
                f"deadline budget must be a finite number > 0 seconds, got {budget_s}"
            )
        self.budget_s = float(budget_s)
        self._clock = clock
        self._expires_at = clock() + self.budget_s

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0.0

    def check(self, stage: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired.

        ``stage`` names the checkpoint for the error message (and the
        service's typed response), e.g. ``"queued"`` or
        ``"react-iteration"``.
        """
        overdue = -self.remaining()
        if overdue >= 0.0:
            where = f" at {stage}" if stage else ""
            raise DeadlineExceededError(
                f"deadline exceeded{where}: {self.budget_s:.3f}s budget, "
                f"{overdue:.3f}s overdue",
                stage=stage,
            )

    def allows(self, duration_s: float) -> bool:
        """Whether ``duration_s`` more seconds fit inside the budget
        (used by the retry layer to refuse a backoff sleep that would
        end past the deadline)."""
        return self.remaining() > duration_s

    def __repr__(self) -> str:
        """Debug rendering with the live remaining budget."""
        return f"Deadline(budget={self.budget_s:.3f}s, remaining={self.remaining():.3f}s)"


def current_deadline() -> Optional[Deadline]:
    """The ambient deadline of the request being served (None outside a
    :func:`use_deadline` scope -- the batch default)."""
    return _CURRENT_DEADLINE.get()


@contextmanager
def use_deadline(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Scope ``deadline`` as the ambient request deadline.

    ``None`` is accepted and simply scopes "no deadline", so callers can
    write ``with use_deadline(maybe_deadline):`` unconditionally.
    """
    token = _CURRENT_DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT_DEADLINE.reset(token)
