"""Bounded retries with deterministic exponential backoff.

Every future API-backed backend shares the same failure profile: calls
that time out, rate-limit, or hiccup transiently.  This module gives the
agent stack one uniform answer:

* :class:`RetryPolicy` -- how often to retry, how long to back off
  (exponential with *seeded* jitter, so a retry schedule is reproducible
  at a fixed seed), and an optional per-call timeout budget;
* :func:`call_with_retry` -- run a callable under a policy, retrying
  only :class:`repro.errors.TransientError` faults;
* :class:`Guard` -- one transparent wrapper that applies a policy and/or
  a :class:`~repro.runtime.faults.FaultInjector` around
  ``RepairModel.start``/``step`` and ``Compiler.compile``, each keyed by
  call content.

Determinism: backoff delays derive from ``random.Random(seed | key)``,
never from wall-clock entropy, so tests can assert the exact schedule.
The timeout budget is *cooperative* -- the wrapped call runs to
completion and its elapsed time is checked against the budget (callers
with genuinely preemptible transports should also pass the budget down
to the transport).  An over-budget call counts as a retryable
:class:`repro.errors.LLMTimeoutError`.

Deadlines: when an ambient request deadline is in scope
(:func:`repro.service.deadline.use_deadline`), the retry loop becomes
deadline-aware.  The two budgets are deliberately distinct outcomes: a
*per-call* overrun is a transient backend fault (retry it), an expired
*deadline* means the caller's overall budget is gone -- the loop raises
:class:`repro.errors.DeadlineExceededError` (not transient, never
retried) before dispatching an attempt, instead of a backoff sleep
that would end past the deadline, and after a call that ran the
deadline out.  A deadline-free scope behaves exactly as before.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, TypeVar

from ..errors import (
    DeadlineExceededError,
    LLMTimeoutError,
    RetryExhaustedError,
    TransientError,
)
from ..service.deadline import current_deadline
from .checkpoint import content_digest
from .faults import GARBAGE_CODE

if TYPE_CHECKING:  # typing only: keep the runtime layer import-light
    from ..diagnostics.compiler import CompileResult
    from ..llm.base import RepairStep
    from .faults import FaultInjector

T = TypeVar("T")

#: Injectable sleep/clock hooks (tests pass fakes for instant runs).
SleepFn = Callable[[float], None]
ClockFn = Callable[[], float]


def _update_length_prefixed(hasher, text: str) -> None:
    """Feed one field into ``hasher`` with an 8-byte length prefix, so
    adjacent fields can never alias across their boundary."""
    data = text.encode()
    hasher.update(len(data).to_bytes(8, "big"))
    hasher.update(data)


def guidance_key(guidance: list) -> str:
    """Content key over retrieved guidance entries.

    Two repair turns that differ only in what the retriever surfaced
    are different model calls and must draw independent backoff and
    fault decisions; every identifying field of each entry participates,
    length-prefixed, so adjacent fields never alias.
    """
    hasher = hashlib.sha256()
    hasher.update(len(guidance).to_bytes(8, "big"))
    for entry in guidance:
        category = getattr(entry, "category", None)
        _update_length_prefixed(hasher, getattr(category, "value", "") or "")
        for attribute in ("compiler", "log_pattern", "guidance", "demonstration"):
            _update_length_prefixed(hasher, getattr(entry, attribute, "") or "")
    return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + deterministic backoff schedule.

    ``max_retries`` counts *re*-tries: a call gets ``max_retries + 1``
    attempts total.  ``timeout`` is the per-call budget in seconds
    (``None`` = unlimited).  The delay before retry ``i`` is
    ``base_delay * 2**i`` capped at ``max_delay``, scaled by a seeded
    jitter factor in ``[1 - jitter/2, 1 + jitter/2]``.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    timeout: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def with_seed(self, seed: int) -> "RetryPolicy":
        """The same policy with a different jitter seed."""
        from dataclasses import replace

        return replace(self, seed=seed)

    def delays(self, key: str = "") -> Iterator[float]:
        """The exact backoff schedule for ``key`` -- ``max_retries``
        delays, deterministic at a fixed ``(seed, key)``."""
        rng = random.Random(f"backoff|{self.seed}|{key}")
        for attempt in range(self.max_retries):
            delay = min(self.max_delay, self.base_delay * (2.0 ** attempt))
            yield delay * (1.0 - self.jitter / 2.0 + self.jitter * rng.random())


def call_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    key: "str | Callable[[], str]" = "",
    sleep: SleepFn = time.sleep,
    clock: ClockFn = time.monotonic,
) -> T:
    """Run ``fn`` under ``policy``; retry transient faults, bounded.

    Only :class:`~repro.errors.TransientError` (and subclasses, e.g.
    timeouts and injected chaos) trigger a retry -- anything else is a
    real bug and propagates unchanged.  When the budget runs out the
    last transient fault is wrapped in
    :class:`~repro.errors.RetryExhaustedError`.

    ``key`` seeds the backoff schedule (:meth:`RetryPolicy.delays`).  It
    may be a callable returning the key, which is then called only when
    the first retry needs the schedule, so a call that succeeds at once
    never builds it.

    Under an ambient request deadline
    (:func:`repro.service.deadline.current_deadline`) the loop
    additionally refuses to dispatch an attempt, or to sleep a backoff,
    once the deadline is (or would be) expired: it raises
    :class:`~repro.errors.DeadlineExceededError` instead, carrying the
    stage the deadline fired at.  An expired deadline is never retried.
    """
    schedule = None if callable(key) else policy.delays(key)
    attempts = 0
    last: Optional[Exception] = None
    while True:
        deadline = current_deadline()
        if deadline is not None:
            deadline.check(stage="retry-dispatch")
        attempts += 1
        started = clock()
        try:
            result = fn()
        except TransientError as exc:
            last = exc
        else:
            elapsed = clock() - started
            if policy.timeout is None or elapsed <= policy.timeout:
                return result
            if deadline is not None and deadline.expired():
                # The call both blew its per-call budget and ran the
                # request's deadline out: the caller's budget is gone,
                # so surface the typed deadline outcome -- a retry
                # could never be observed.
                deadline.check(stage="retry-call")
            last = LLMTimeoutError(
                f"call took {elapsed:.3f}s, budget is {policy.timeout:.3f}s"
            )
        if attempts > policy.max_retries:
            raise RetryExhaustedError(
                f"gave up after {attempts} attempt(s): {last}",
                attempts=attempts,
                last_error=last,
            ) from last
        if schedule is None:
            schedule = policy.delays(key())
        delay = next(schedule, policy.max_delay)
        if deadline is not None and not deadline.allows(delay):
            raise DeadlineExceededError(
                f"deadline expires during retry backoff "
                f"({delay:.3f}s sleep, {max(0.0, deadline.remaining()):.3f}s "
                f"left) after {attempts} attempt(s): {last}",
                stage="retry-backoff",
            ) from last
        sleep(delay)


@dataclass(frozen=True)
class _Seam:
    """How :class:`Guard` keys and garbles one guarded method."""

    #: The :class:`~repro.runtime.faults.FaultInjector` site.
    site: str
    #: The call's content key from its arguments; the backoff key is
    #: ``"<method>|<content key>"``.
    content: Callable[..., str]
    #: The fault key from ``(guard, content key)``; by default the bare
    #: content key.
    fault_key: Callable[["Guard", str], str] = lambda guard, key: key
    #: The reply a ``garbage`` fault substitutes, from ``(inner, *args)``;
    #: ``None`` lets the call proceed as if unfaulted.
    garbage: Optional[Callable[..., object]] = None


def _garbled_step(inner, code: str, feedback: str, guidance: list) -> "RepairStep":
    # Imported here, not at module top: repro.llm imports the runtime
    # package, so a top-level llm import would be circular.
    from ..llm.base import RepairStep

    return RepairStep(
        thought="(chaos) the reply came back garbled", code=GARBAGE_CODE
    )


#: The guarded seams.  A session's turns draw faults under its start's
#: fault key (``seed|digest(code)``), so the same trial faults the same
#: turns at any job count; ``compile`` garbage compiles a corrupted
#: source, so the agent gets real-but-wrong diagnostics.
_SEAMS = {
    "start": _Seam(
        "llm.start",
        lambda code, flavor, use_rag: content_digest(code),
        fault_key=lambda guard, key: f"{getattr(guard.inner, 'seed', 0)}|{key}",
    ),
    "step": _Seam(
        "llm.step",
        lambda code, feedback, guidance: (
            f"{content_digest(code)}|{content_digest(feedback)}|"
            f"{guidance_key(guidance)}"
        ),
        fault_key=lambda guard, key: f"{guard.session_key}|{key}",
        garbage=_garbled_step,
    ),
    "compile": _Seam(
        "compiler.compile",
        content_digest,
        garbage=lambda inner, code: inner.compile(f"{code}\n{GARBAGE_CODE}\n"),
    ),
}


class Guard:
    """Retry and/or fault injection around one component's calls.

    Guards a :class:`~repro.llm.base.RepairModel` (``start``, whose
    session comes back guarded for ``step``) or a compiler facade
    (``compile``).  ``policy`` retries transient faults under
    :func:`call_with_retry`; ``injector`` draws a deterministic fault
    for every attempt *inside* that retry loop, so a transient injected
    fault is retried away.  Either may be ``None``.

    Transparent on the happy path: a component that never faults behaves
    bit-identically guarded or not (no sleeps, no extra calls).
    """

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        injector: Optional["FaultInjector"] = None,
        *,
        sleep: SleepFn = time.sleep,
        clock: ClockFn = time.monotonic,
        session_key: str = "",
    ):
        self.inner = inner
        self.policy = policy
        self.injector = injector
        self.session_key = session_key
        self._sleep = sleep
        self._clock = clock

    @property
    def flavor(self) -> str:
        """The guarded compiler's feedback flavour."""
        return self.inner.flavor

    def with_seed(self, seed: int) -> "Guard":
        """Re-seed the inner model (when it supports it) and the backoff
        jitter; the injector keeps its seed, so faults stay pinned to
        the chaos seed rather than the sampling seed."""
        inner = self.inner
        reseed = getattr(inner, "with_seed", None)
        if callable(reseed):
            inner = reseed(seed)
        policy = self.policy.with_seed(seed) if self.policy is not None else None
        return Guard(
            inner, policy, self.injector, sleep=self._sleep, clock=self._clock
        )

    def _call(self, method: str, *args):
        call = getattr(self.inner, method)
        injector = self.injector
        if self.policy is None and injector is None:
            return call(*args)
        seam = _SEAMS[method]
        if injector is None:
            # Retry only: the content key seeds the backoff schedule and
            # nothing else, so it is hashed only once a retry needs it.
            return call_with_retry(
                lambda: call(*args), self.policy,
                key=lambda: f"{method}|{seam.content(*args)}",
                sleep=self._sleep, clock=self._clock,
            )
        key = seam.content(*args)
        fault_key = seam.fault_key(self, key)

        def attempt():
            kind = injector.fire(seam.site, fault_key)
            if kind == "garbage" and seam.garbage is not None:
                return seam.garbage(self.inner, *args)
            return call(*args)

        if self.policy is None:
            return attempt()
        return call_with_retry(
            attempt, self.policy, key=f"{method}|{key}",
            sleep=self._sleep, clock=self._clock,
        )

    def start(self, code: str, flavor: str, use_rag: bool) -> "Guard":
        """Open a session on the inner model; the session is guarded by
        the same policy and injector (the session's fault key, read only
        by the injector, is computed only under one)."""
        session = self._call("start", code, flavor, use_rag)
        session_key = (
            "" if self.injector is None
            else _SEAMS["start"].fault_key(self, content_digest(code))
        )
        return Guard(
            session, self.policy, self.injector,
            sleep=self._sleep, clock=self._clock, session_key=session_key,
        )

    def step(self, code: str, feedback: str, guidance: list) -> "RepairStep":
        """One guarded model turn.  Guidance participates in the key, so
        turns differing only in retrieved guidance draw independent
        backoff schedules and faults."""
        return self._call("step", code, feedback, guidance)

    def compile(self, code: str) -> "CompileResult":
        """One guarded compiler invocation."""
        return self._call("compile", code)

    def observe(self, success: bool) -> None:
        """Forward the agent's per-iteration outcome signal to sessions
        that route on it (the pool's tier escalation); a no-op for
        sessions that do not."""
        notice = getattr(self.inner, "observe", None)
        if callable(notice):
            notice(success)
