"""Run telemetry: the LLM ledger, a work unit's counters, one line format.

The paper reports its results along a cost axis (gpt-3.5 vs gpt-4);
a production deployment needs the same axis live: how many tokens each
backend consumed, what they cost, and how often the pool failed over
or escalated.  A run also counts compile-cache and verdict-cache
lookups and sandbox interventions.  This module holds what ties them
together:

* :class:`BackendUsage` -- one backend's LLM counters;
* :class:`TokenCounter` -- the LLM ledger, with a process-wide *active*
  instance (the ``token_counter`` field of the runtime scope,
  :mod:`repro.scope`, like the compile cache's) so every pool built
  anywhere in a run reports into one ledger;
* :class:`UnitCounters` -- what one work unit counted in a process
  worker, brought home with its outcome;
* :func:`render_line` -- the one rendering of a telemetry section,
  ``# <section>: key=value ...``, used by every such line the CLI and
  the repair service print and by the markdown report.

Token counts are a deterministic estimate (``ceil(len/4)``, the usual
chars-per-token rule of thumb) so offline simulated backends produce
stable, comparable numbers; an API-backed adapter that learns exact
usage from the provider response can record those instead.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from ..scope import current, scoped
from .cache import CacheStats

if TYPE_CHECKING:  # the sim package imports the runtime
    from ..sim.sandbox import SandboxStats


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


#: A ledger folds its bookings into one subtotal per backend once this
#: many accumulate, so a long-lived ledger (the repair service's) stays
#: small.
FOLD_AT = 1024


class TokenCounter:
    """Thread-safe per-backend LLM usage ledger for one run.

    Every call is booked as one tuple, ``(backend, *BackendUsage
    fields)``, appended in call order; reading folds the bookings per
    backend in that order.  So costs sum in call order, and
    :meth:`merge` (another ledger's calls, booked after this one's) is
    a list ``extend``: a run books the same ledger whether its calls
    ran here or came home from process workers.  Folding replaces the
    bookings with one subtotal booking per backend, which a later fold
    continues exactly; only a merged ledger that had itself folded
    (more than :data:`FOLD_AT` calls) adds its early calls as subtotals.
    """

    def __init__(self) -> None:
        self.bookings: list[tuple] = []
        self._lock = threading.Lock()

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
        self._book((backend, 1, prompt_tokens, completion_tokens, cost_usd,
                    int(failover), int(escalated), 0))

    def record_failure(self, backend: str) -> None:
        """Account one call ``backend`` failed."""
        self._book((backend, 0, 0, 0, 0.0, 0, 0, 1))

    def _book(self, booking: tuple) -> None:
        with self._lock:
            self.bookings.append(booking)
            if len(self.bookings) >= FOLD_AT:
                self._fold()

    def merge(self, bookings: list[tuple]) -> None:
        """Book another ledger's :attr:`bookings` after this one's own."""
        with self._lock:
            self.bookings.extend(bookings)

    def _fold(self) -> dict[str, BackendUsage]:
        # Caller holds the lock.
        totals: dict[str, list] = {}
        for backend, *counts in self.bookings:
            total = totals.get(backend)
            totals[backend] = (
                counts if total is None
                else [a + b for a, b in zip(total, counts)]
            )
        self.bookings = [(backend, *total) for backend, total in totals.items()]
        return {backend: BackendUsage(*total) for backend, total in totals.items()}

    @property
    def backends(self) -> dict[str, BackendUsage]:
        """backend -> its counters so far."""
        with self._lock:
            return self._fold()

    def usage(self, backend: str) -> BackendUsage:
        """``backend``'s counters so far."""
        return self.backends.get(backend, BackendUsage())

    def total(self, counter: str) -> int:
        """Sum one named counter (``escalations``, ``failovers``, ...)."""
        return sum(getattr(u, counter) for u in self.backends.values())

    def as_dict(self) -> dict:
        """Report payload: per-backend counters plus run totals."""
        backends = self.backends
        run = BackendUsage()
        for usage in backends.values():
            _combine(run, usage)
        return {
            "backends": {
                name: usage.as_dict() for name, usage in sorted(backends.items())
            },
            **run.as_dict(),
        }


#: The always-on process default (mirrors the compile cache's
#: DEFAULT_CACHE): pools report here unless a run scopes its own ledger.
DEFAULT_TOKEN_COUNTER = TokenCounter()


def get_active_token_counter() -> TokenCounter:
    """The ledger LLM pools currently report into."""
    return current().get("token_counter", DEFAULT_TOKEN_COUNTER)


def _active_caches() -> tuple:
    """The active compile and verdict caches (either may be ``None``)."""
    from ..sim.verdict import get_active_verdict_cache
    from .cache import get_active_cache

    return get_active_cache(), get_active_verdict_cache()


def _combine(into, counts, sign: int = 1) -> None:
    """Add (``sign=-1``: subtract) every counter of ``counts`` to
    ``into``, a dataclass of the same type."""
    for f in dataclasses.fields(counts):
        setattr(into, f.name,
                getattr(into, f.name) + sign * getattr(counts, f.name))


def _since(cache, start: Optional[CacheStats]) -> Optional[CacheStats]:
    """``cache``'s counters since they read ``start`` (``None`` for no
    cache)."""
    if cache is None:
        return None
    delta = dataclasses.replace(cache.stats)
    _combine(delta, start, sign=-1)
    return delta


@dataclass
class UnitCounters:
    """What one work unit counted in a process worker.

    A process worker counts into its own forked copies of the run's
    caches and ledgers.  :class:`~repro.runtime.ParallelRunner` runs each
    process unit under :meth:`counting` and sends this back with the
    unit's outcome; the parent :meth:`book` s it into its own, unit by
    unit in submission order, so a run counts the same at any job count.
    Serial units count into the run's ledgers directly.
    """

    #: The unit's compile-cache and verdict-cache lookups (``None`` when
    #: that cache was disabled).  The hit/miss split is the worker's:
    #: each worker holds its own copy of the caches.
    compile_cache: Optional[CacheStats] = None
    verdict_cache: Optional[CacheStats] = None
    sandbox: Optional["SandboxStats"] = None
    #: The unit's LLM calls: its ledger's :attr:`TokenCounter.bookings`.
    llm: list = field(default_factory=list)

    @contextmanager
    def counting(self) -> Iterator[None]:
        """Count what the block does into this record."""
        from ..sim.sandbox import SandboxStats

        caches = _active_caches()
        starts = [_since(cache, CacheStats()) for cache in caches]  # copies
        self.sandbox = SandboxStats()
        ledger = TokenCounter()
        try:
            with scoped(sandbox_stats=self.sandbox, token_counter=ledger):
                yield
        finally:
            self.compile_cache, self.verdict_cache = map(_since, caches, starts)
            self.llm = ledger.bookings

    def book(self) -> None:
        """Add these counts to this process's active caches and ledgers."""
        from ..sim.sandbox import get_active_sandbox_stats

        for cache, counts in zip(
            _active_caches(), (self.compile_cache, self.verdict_cache)
        ):
            if cache is not None and counts is not None:
                _combine(cache.stats, counts)
        sandbox = get_active_sandbox_stats()
        if sandbox is not None and self.sandbox is not None:
            _combine(sandbox, self.sandbox)
        get_active_token_counter().merge(self.llm)


def render_line(section: str, data: dict) -> str:
    """One telemetry section as ``# <section>: key=value ...``.

    Nested dicts flatten to dotted keys (``backends.cheap.calls=3``).
    """
    return " ".join([f"# {section}:", *_pairs(data, "")])


def _pairs(data: dict, prefix: str) -> Iterator[str]:
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _pairs(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}={value}"
