"""Deterministic token-bucket admission control.

The repair service (:mod:`repro.service.scheduler`) gives every tenant
a :class:`TokenBucket` quota and sheds a request beyond it instead of
delaying it.  The bucket's balance is pure arithmetic over
``(tokens, rate, clock())`` -- never retry loops or wall-clock polling
-- so at a fixed injected clock every admission decision is
reproducible.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

ClockFn = Callable[[], float]


class TokenBucket:
    """Token bucket with a deterministic, non-blocking admission test.

    ``rate`` is the refill in tokens per second (0 = unlimited, every
    request is admitted); ``burst`` is the bucket capacity (how many
    requests may go out back-to-back after an idle period).
    """

    def __init__(
        self,
        rate: float,
        burst: int = 1,
        clock: ClockFn = time.monotonic,
    ):
        if rate < 0:
            raise ValueError(f"rate must be >= 0 (0 = unlimited), got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()
        #: observability: tokens granted and requests refused (shed).
        self.acquires = 0
        self.refusals = 0

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._updated) * self.rate
            )
        self._updated = now

    def try_acquire(self) -> bool:
        """Take one token only if it is available *right now*.

        Never sleeps and never goes into token debt: a request beyond
        the quota is refused (shed) instead of delayed.  Returns True
        when a token was taken.
        """
        if self.rate <= 0:
            with self._lock:
                self.acquires += 1
            return True
        with self._lock:
            self._refill(self._clock())
            if self._tokens < 1.0:
                self.refusals += 1
                return False
            self.acquires += 1
            self._tokens -= 1.0
            return True

    @property
    def available(self) -> float:
        """Tokens available right now (refilled to the current clock);
        service telemetry only -- unlimited buckets report their burst."""
        with self._lock:
            if self.rate > 0:
                self._refill(self._clock())
            return self._tokens
