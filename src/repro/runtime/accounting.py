"""Per-backend LLM token and cost accounting.

The paper reports its results along a cost axis (gpt-3.5 vs gpt-4);
a production deployment needs the same axis live: how many tokens each
backend consumed, what they cost, and how often the pool failed over
or escalated.  This module is the ledger:

* :class:`BackendUsage` -- one backend's counters;
* :class:`TokenCounter` -- thread-safe roll-up across backends, with a
  process-wide *active* instance (the ``token_counter`` field of the
  runtime scope, :mod:`repro.scope`, like the compile cache's) so every
  pool built anywhere in a run reports into one ledger that lands in ``report.llm`` and the ``# llm:`` CLI line.

Token counts are a deterministic estimate (``ceil(len/4)``, the usual
chars-per-token rule of thumb) so offline simulated backends produce
stable, comparable numbers; an API-backed adapter that learns exact
usage from the provider response can record those instead.

The ledger lives in one process.  A process-pool worker books each
work unit into a :class:`BookingLog` and sends its bookings back with
the unit's outcome; the parent replays them into its active ledger in
submission order (:class:`~repro.runtime.ParallelRunner`), so a run
books the same ledger at any job count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..scope import current


def tier_family(tier: str) -> str:
    """The paper's capability/cost axis a model tier belongs to:
    ``gpt-4`` for every ``gpt-4*`` tier, else ``gpt-3.5``."""
    return "gpt-4" if tier.startswith("gpt-4") else "gpt-3.5"


def estimate_tokens(text: str) -> int:
    """Deterministic token estimate for accounting (~4 chars/token)."""
    if not text:
        return 0
    return (len(text) + 3) // 4


@dataclass
class BackendUsage:
    """Counters for one pool backend."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    #: calls answered by this backend after a weaker one failed.
    failovers: int = 0
    #: calls routed here by the tier-escalation policy.
    escalations: int = 0
    #: calls this backend failed (its retry budget exhausted).
    failures: int = 0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total_tokens,
            "cost_usd": round(self.cost_usd, 6),
            "failovers": self.failovers,
            "escalations": self.escalations,
            "failures": self.failures,
        }


@dataclass
class TokenCounter:
    """Thread-safe per-backend usage ledger for one run."""

    backends: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def usage(self, backend: str) -> BackendUsage:
        with self._lock:
            if backend not in self.backends:
                self.backends[backend] = BackendUsage()
            return self.backends[backend]

    def record_call(
        self,
        backend: str,
        prompt_tokens: int,
        completion_tokens: int,
        cost_usd: float,
        *,
        failover: bool = False,
        escalated: bool = False,
    ) -> None:
        """Account one completed call against ``backend``."""
        usage = self.usage(backend)
        with self._lock:
            usage.calls += 1
            usage.prompt_tokens += prompt_tokens
            usage.completion_tokens += completion_tokens
            usage.cost_usd += cost_usd
            usage.failovers += int(failover)
            usage.escalations += int(escalated)

    def record_failure(self, backend: str) -> None:
        usage = self.usage(backend)
        with self._lock:
            usage.failures += 1

    # -- roll-up -----------------------------------------------------------

    @property
    def calls(self) -> int:
        return sum(u.calls for u in self.backends.values())

    @property
    def total_tokens(self) -> int:
        return sum(u.total_tokens for u in self.backends.values())

    @property
    def cost_usd(self) -> float:
        return sum(u.cost_usd for u in self.backends.values())

    def total(self, counter: str) -> int:
        """Sum one named counter (``escalations``, ``failovers``, ...)."""
        return sum(getattr(u, counter) for u in self.backends.values())

    def as_dict(self) -> dict:
        """Report payload: per-backend counters plus run totals."""
        return {
            "backends": {
                name: usage.as_dict()
                for name, usage in sorted(self.backends.items())
            },
            "calls": self.calls,
            "prompt_tokens": sum(u.prompt_tokens for u in self.backends.values()),
            "completion_tokens": sum(
                u.completion_tokens for u in self.backends.values()
            ),
            "total_tokens": self.total_tokens,
            "cost_usd": round(self.cost_usd, 6),
            "escalations": self.total("escalations"),
            "failovers": self.total("failovers"),
            "failures": self.total("failures"),
        }


@dataclass
class BookingLog:
    """A process worker's record of one work unit's LLM bookings, in
    order, as plain tuples.  It stands in for the active ledger in the
    worker; the parent books it into its own with :meth:`replay`."""

    bookings: list = field(default_factory=list)

    def record_call(self, backend: str, prompt_tokens: int,
                    completion_tokens: int, cost_usd: float, *,
                    failover: bool = False, escalated: bool = False) -> None:
        self.bookings.append((backend, prompt_tokens, completion_tokens,
                              cost_usd, failover, escalated))

    def record_failure(self, backend: str) -> None:
        self.bookings.append((backend,))

    def replay(self, counter: TokenCounter) -> None:
        """Book every call into ``counter`` as the original calls would
        have: same calls, same order."""
        for booking in self.bookings:
            if len(booking) == 1:
                counter.record_failure(booking[0])
            else:
                backend, prompt, completion, cost, failover, escalated = booking
                counter.record_call(backend, prompt, completion, cost,
                                    failover=failover, escalated=escalated)


#: The always-on process default (mirrors the compile cache's
#: DEFAULT_CACHE): pools report here unless a run scopes its own ledger.
DEFAULT_TOKEN_COUNTER = TokenCounter()


def get_active_token_counter() -> TokenCounter:
    """The ledger LLM pools currently report into."""
    return current().get("token_counter", DEFAULT_TOKEN_COUNTER)
