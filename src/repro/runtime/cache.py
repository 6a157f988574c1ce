"""Content-addressed memoization: one bounded store for every memo.

Every experiment in ``repro.eval`` is dominated by repeated
compile/simulate cycles over a small working set of sources: the golden
reference of each problem is recompiled for every one of thousands of
``evaluate_sample`` calls, repeated trials re-feed the same broken entry
to the compiler, and the simulated sampler emits byte-identical
completions across runs.  ``compile_source`` is a pure function of
``(code, name, flavor, include_files, limits)``, so its results can be
memoized behind a content address.  The flavor only picks how the one
analysis is rendered, so it stays out of the address: every flavor of a
source is served from one entry.

:class:`Memo` is the one store behind every memo in the codebase: an
LRU-bounded, thread-safe map with single-flight coalescing of
concurrent misses and one :class:`CacheStats` type.  Its users add only
their key:

* :class:`CompileCache` keys ``compile_source`` results by a SHA-256
  digest of every input but the flavor (:func:`compile_key`) and hands
  out a per-flavor view of the entry
  (:meth:`~repro.diagnostics.compiler.CompileResult.with_flavor`);
* :class:`~repro.sim.verdict.VerdictCache` keys simulation verdicts by
  design digests and holds the reference tapes in a second memo.

Injection point
---------------

The runtime scope's ``compile_cache`` field (:mod:`repro.scope`) is
consulted by :func:`cached_compile`, which is what the hot paths
(``repro.eval.runner``, the agents' ``Compiler`` facade, the dataset
curation pipeline, ...) call instead of ``compile_source``.  Unscoped,
it is :data:`DEFAULT_CACHE`, enabled at import time; ``scoped`` swaps
in a fresh cache (or ``None``, no caching) for a ``with`` block:

>>> cache = CompileCache()
>>> with scoped(compile_cache=cache):
...     run_table2(problems)
>>> print(cache.stats.hits, cache.stats.misses)

Caching changes no observable behaviour: compilation is deterministic,
and results are treated as immutable by every consumer (the codebase
already re-uses one elaborated design across many simulator instances,
and the flavor views of one entry share its ``diagnostics`` list).
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..scope import current

if TYPE_CHECKING:  # runtime import is deferred to avoid a cycle with
    # repro.diagnostics, whose Compiler facade routes through this cache.
    from ..diagnostics.compiler import CompileResult
    from ..verilog.limits import ResourceLimits

#: Default LRU bound of a :class:`Memo`.  Full-scale experiment runs
#: touch a few thousand distinct sources; elaborated designs for the
#: corpus are small (a few KB each) and verdicts smaller still, so this
#: keeps the whole working set resident without unbounded growth on
#: adversarial workloads.
DEFAULT_MAXSIZE = 4096


def compile_key(
    code: str,
    name: str = "main.v",
    include_files: Optional[dict[str, str]] = None,
    limits: "Optional[ResourceLimits]" = None,
) -> str:
    """Content address of one compiler analysis.

    A SHA-256 digest over every input ``compile_source`` consumes except
    the flavor.  No pipeline stage reads the flavor: it only labels the
    result and picks the log renderer, so every flavor of a source shares
    one analysis.  The resource limits participate because the same
    source may compile cleanly under the defaults yet hit a
    ``RESOURCE_LIMIT`` diagnostic under tighter budgets (``None``
    normalizes to the defaults, so explicit-default and omitted limits
    share entries).
    """
    hasher = _key_prefix(name, limits).copy()
    for inc_name in sorted(include_files or {}):
        hasher.update(inc_name.encode())
        hasher.update(b"\x00")
        hasher.update(include_files[inc_name].encode())  # type: ignore[index]
        hasher.update(b"\x00")
    hasher.update(code.encode())
    return hasher.hexdigest()


@functools.lru_cache(maxsize=64)
def _key_prefix(name: str, limits: "Optional[ResourceLimits]"):
    """The hasher state after ``name`` and ``repr(limits)``: a key's
    prefix, which a run repeats for every compile.  Callers ``copy()``
    it, so the digest is the one hashed from scratch."""
    from ..verilog.limits import DEFAULT_LIMITS

    hasher = hashlib.sha256()
    effective = limits if limits is not None else DEFAULT_LIMITS
    for part in (name, repr(effective)):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher


@dataclass
class CacheStats:
    """Counters of one :class:`Memo`.

    Every ``get`` or ``get_or_compute`` call counts exactly once: as a
    hit, a miss, a coalesced wait (it waited for another thread's
    in-flight miss of the same key) or, for a ``None`` key, as
    uncacheable.  The one exception is a waiter that finds no value
    after its wait (the leader raised, or the value was already
    evicted): it becomes the next leader and counts a miss as well.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        """Lookups answered by the store itself (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``run_full_report``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced_waits": self.coalesced,
            "uncacheable": self.uncacheable,
            "hit_rate": round(self.hit_rate, 4),
        }


class Memo:
    """LRU-bounded, thread-safe memo with single-flight misses.

    A ``None`` key is uncacheable and a ``None`` value is never stored.
    Values are treated as immutable by every consumer.

    >>> memo = Memo(maxsize=2)
    >>> memo.get_or_compute("k", len, "abc")
    3
    >>> memo.get("k"), memo.stats.hits, memo.stats.misses
    (3, 1, 1)
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        #: key -> event set when that key's in-flight compute finishes.
        self._inflight: dict[str, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Whether ``key`` is resident (counts nothing, keeps recency)."""
        with self._lock:
            return key in self._entries

    def get(self, key):
        """The value stored under ``key``, or ``None`` (counts stats)."""
        if key is None:
            with self._lock:
                self.stats.uncacheable += 1
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value) -> None:
        """Store ``value`` under ``key`` (no-op for a ``None`` either)."""
        if key is None or value is None:
            return
        with self._lock:
            self._store(key, value)

    def _store(self, key, value) -> None:
        # Caller holds the lock.
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key, compute: Callable, *args):
        """The value under ``key``, computing ``compute(*args)`` on a miss.

        Computation happens outside the lock, but concurrent misses on
        the same key are *coalesced*: the first thread becomes the
        leader (it registers an in-flight event), every other thread
        waits on that event and then takes the leader's value -- one
        ``compute`` per key, not one per thread.
        """
        waited = False
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    if not waited:
                        self.stats.hits += 1
                    return value
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    self.stats.misses += 1
                    break
                if not waited:
                    self.stats.coalesced += 1
                    waited = True
            event.wait()
        try:
            value = compute(*args)
        except BaseException:
            # Release the waiters: one that finds no entry simply
            # becomes the next leader.
            with self._lock:
                self._inflight.pop(key).set()
            raise
        with self._lock:
            self._store(key, value)
            self._inflight.pop(key).set()
        return value

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


def _compile_cold(code, name, flavor, include_files, limits) -> "CompileResult":
    from ..diagnostics.compiler import compile_source

    return compile_source(
        code, name=name, flavor=flavor, include_files=include_files,
        limits=limits,
    )


class CompileCache(Memo):
    """:class:`Memo` of ``compile_source`` results keyed by
    :func:`compile_key`, one entry per analysis whatever its flavor.

    >>> cache = CompileCache(maxsize=512)
    >>> result = cache.compile("module m; endmodule", flavor="quartus")
    >>> view = cache.compile("module m; endmodule", flavor="iverilog")
    >>> cache.stats.misses, cache.stats.hits, view.diagnostics is result.diagnostics
    (1, 1, True)
    """

    def compile(
        self,
        code: str,
        name: str = "main.v",
        flavor: str = "iverilog",
        include_files: Optional[dict[str, str]] = None,
        limits: "Optional[ResourceLimits]" = None,
    ) -> "CompileResult":
        """Return the (possibly cached) result of compiling ``code``,
        as the ``flavor`` compiler reports it.

        The entry holds whichever flavor compiled it first; any other
        flavor gets that entry's view for ``flavor``, built once.
        """
        key = compile_key(
            code, name=name, include_files=include_files, limits=limits
        )
        entry = self.get_or_compute(
            key, _compile_cold, code, name, flavor, include_files, limits
        )
        return entry.with_flavor(flavor)


#: The process-wide default cache, active from import time so every
#: caller of :func:`cached_compile` benefits without opting in.
DEFAULT_CACHE = CompileCache()


def get_active_cache() -> Optional[CompileCache]:
    """The cache :func:`cached_compile` currently consults (or None)."""
    return current().get("compile_cache", DEFAULT_CACHE)


def cached_compile(
    code: str,
    name: str = "main.v",
    flavor: str = "iverilog",
    include_files: Optional[dict[str, str]] = None,
    limits: "Optional[ResourceLimits]" = None,
) -> "CompileResult":
    """Drop-in replacement for ``compile_source`` that consults the
    active :class:`CompileCache` (and falls through when none is set)."""
    cache = current().get("compile_cache", DEFAULT_CACHE)
    if cache is None:
        return _compile_cold(code, name, flavor, include_files, limits)
    return cache.compile(
        code, name=name, flavor=flavor, include_files=include_files,
        limits=limits,
    )
