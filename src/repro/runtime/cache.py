"""Content-addressed compile cache.

Every experiment in ``repro.eval`` is dominated by repeated
compile/simulate cycles over a small working set of sources: the golden
reference of each problem is recompiled for every one of thousands of
``evaluate_sample`` calls, repeated trials re-feed the same broken entry
to the compiler, and the simulated sampler emits byte-identical
completions across runs.  ``compile_source`` is a pure function of
``(code, name, flavor, include_files, limits)``, so its results can be
memoized behind a content address.

:class:`CompileCache` keys results by a SHA-256 digest of exactly those
inputs (the compiler *flavor* is part of the key: an iverilog-rendered
and a Quartus-rendered result of the same source must never collide),
holds them in an LRU-bounded map, and tracks hit/miss/eviction
statistics so observability ships with the optimization.

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
already re-uses one elaborated design across many simulator instances).
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..scope import current

if TYPE_CHECKING:  # runtime import is deferred to avoid a cycle with
    # repro.diagnostics, whose Compiler facade routes through this cache.
    from ..diagnostics.compiler import CompileResult
    from ..verilog.limits import ResourceLimits

#: Default LRU bound of a :class:`CompileCache`.  Full-scale experiment
#: runs touch a few thousand distinct sources; elaborated designs for
#: the corpus are small (a few KB each), so this keeps the whole working
#: set resident without unbounded growth on adversarial workloads.
DEFAULT_MAXSIZE = 4096


def compile_key(
    code: str,
    name: str = "main.v",
    flavor: str = "iverilog",
    include_files: Optional[dict[str, str]] = None,
    limits: "Optional[ResourceLimits]" = None,
) -> str:
    """Content address of one compiler invocation.

    A SHA-256 digest over every input ``compile_source`` consumes.  The
    flavor participates in the key because the rendered feedback (and
    the ``CompileResult.flavor`` attribute the agents read) differs per
    flavor even when the diagnostics are identical; the resource limits
    participate because the same source may compile cleanly under the
    defaults yet hit a ``RESOURCE_LIMIT`` diagnostic under tighter
    budgets (``None`` normalizes to the defaults, so explicit-default
    and omitted limits share entries).
    """
    from ..verilog.limits import DEFAULT_LIMITS

    hasher = hashlib.sha256()
    effective = limits if limits is not None else DEFAULT_LIMITS
    for part in (flavor, name, repr(effective)):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    for inc_name in sorted(include_files or {}):
        hasher.update(inc_name.encode())
        hasher.update(b"\x00")
        hasher.update(include_files[inc_name].encode())  # type: ignore[index]
        hasher.update(b"\x00")
    hasher.update(code.encode())
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Concurrent lookups that waited for an in-flight compile of the
    #: same key instead of duplicating it (single-flight coalescing).
    coalesced: int = 0
    #: Per-content-address miss counts; a key with more than one miss
    #: was recompiled after an eviction (or raced in a thread pool).
    misses_by_key: Counter = field(default_factory=Counter)

    @property
    def lookups(self) -> int:
        """Total cache consultations."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def compiles_avoided(self) -> int:
        """Number of full front-end runs the cache saved (== hits)."""
        return self.hits

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``run_full_report``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced_waits": self.coalesced,
            "compiles_avoided": self.compiles_avoided,
            "hit_rate": round(self.hit_rate, 4),
        }


class CompileCache:
    """LRU-bounded, thread-safe memo of ``compile_source`` results.

    >>> cache = CompileCache(maxsize=512)
    >>> result = cache.compile("module m; endmodule", flavor="quartus")
    >>> cache.stats.misses, cache.stats.hits
    (1, 0)
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CompileResult]" = OrderedDict()
        self._lock = threading.Lock()
        #: key -> event set when that key's in-flight compile finishes
        #: (single-flight coalescing of concurrent misses).
        self._inflight: dict[str, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def compile(
        self,
        code: str,
        name: str = "main.v",
        flavor: str = "iverilog",
        include_files: Optional[dict[str, str]] = None,
        limits: "Optional[ResourceLimits]" = None,
        compute: Optional[Callable[[], "CompileResult"]] = None,
    ) -> "CompileResult":
        """Return the (possibly cached) result of compiling ``code``.

        ``compute`` overrides how a *miss* is materialized (e.g. the
        ``Compiler`` facade supplies its incremental
        :class:`~repro.verilog.pipeline.CompileSession`); it must be
        bit-identical to ``compile_source`` on the same inputs -- the
        cache key stays a pure content address either way.
        """
        key = compile_key(
            code, name=name, flavor=flavor, include_files=include_files,
            limits=limits,
        )
        # Compilation happens outside the lock, but concurrent misses on
        # the same key are *coalesced*: the first thread becomes the
        # compiling leader (it registers an in-flight event), every
        # other thread waits on that event and then re-reads the entry
        # -- one full front-end run per key, not one per thread.
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return cached
                leader = key not in self._inflight
                if leader:
                    self._inflight[key] = threading.Event()
                    self.stats.misses += 1
                    self.stats.misses_by_key[key] += 1
                    break
                event = self._inflight[key]
                self.stats.coalesced += 1
            event.wait()

        from ..diagnostics.compiler import compile_source

        try:
            if compute is not None:
                result = compute()
            else:
                result = compile_source(
                    code, name=name, flavor=flavor, include_files=include_files,
                    limits=limits,
                )
            with self._lock:
                self._entries[key] = result
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            return result
        finally:
            # Always release the waiters -- even if compile_source raised
            # (it should not, post never-crash boundary): a waiter that
            # finds no entry simply becomes the next leader.
            with self._lock:
                self._inflight.pop(key).set()

    def contains(
        self,
        code: str,
        name: str = "main.v",
        flavor: str = "iverilog",
        include_files: Optional[dict[str, str]] = None,
        limits: "Optional[ResourceLimits]" = None,
    ) -> bool:
        """Whether a result for this exact invocation is resident."""
        key = compile_key(
            code, name=name, flavor=flavor, include_files=include_files,
            limits=limits,
        )
        with self._lock:
            return key in self._entries

    def misses_for(
        self,
        code: str,
        name: str = "main.v",
        flavor: str = "iverilog",
        include_files: Optional[dict[str, str]] = None,
        limits: "Optional[ResourceLimits]" = None,
    ) -> int:
        """How many times this exact invocation missed (compiled)."""
        key = compile_key(
            code, name=name, flavor=flavor, include_files=include_files,
            limits=limits,
        )
        with self._lock:
            return self.stats.misses_by_key.get(key, 0)

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


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
    compute: Optional[Callable[[], "CompileResult"]] = None,
) -> "CompileResult":
    """Drop-in replacement for ``compile_source`` that consults the
    active :class:`CompileCache` (and falls through when none is set).

    ``compute``, when given, materializes misses (and the no-cache
    fallback) instead of ``compile_source`` -- the hook the ``Compiler``
    facade uses to route through its incremental pipeline session.
    """
    cache = current().get("compile_cache", DEFAULT_CACHE)
    if cache is None:
        if compute is not None:
            return compute()
        from ..diagnostics.compiler import compile_source

        return compile_source(
            code, name=name, flavor=flavor, include_files=include_files,
            limits=limits,
        )
    return cache.compile(
        code, name=name, flavor=flavor, include_files=include_files,
        limits=limits, compute=compute,
    )
