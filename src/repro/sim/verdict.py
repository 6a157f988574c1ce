"""Content-addressed memoization of whole testbench verdicts.

The experiment drivers run the same differential testbench over and over:
every trial of a repair loop re-simulates the unchanged golden reference,
resampled candidates frequently repeat earlier attempts byte-for-byte,
and multi-seed experiment grids re-evaluate identical (candidate,
reference) pairs.  Simulation is deterministic -- the stimulus is fully
derived from ``(samples, seed)``, ``$random`` is a pure hash of the call
site, and the engine has no other entropy source -- so the *entire
verdict* (pass/fail, mismatch list, captured traces) is a pure function
of the design contents and the stimulus parameters.

:class:`VerdictCache` memoizes those verdicts the way
:func:`repro.runtime.cache.cached_compile` memoizes compiles: keyed by
the **design digests** stamped at elaboration (see
:meth:`repro.diagnostics.engine.DiagnosticEngine.result`) plus every
stimulus parameter, LRU-bounded, thread-safe, with hit/miss/eviction
stats.  Designs without a digest (error-bearing or hand-built) are never
cached -- lookups simply miss and the caller runs the simulation.

The cache also holds **reference tapes**
(:class:`~repro.sim.testbench.ReferenceTape`): the recorded outputs and
budget charges of one completed golden-reference run, replayed by later
runs of either harness with the same key instead of simulating the
reference again.
Tapes are not verdicts: they are kept apart from the verdict entries,
are not counted in :attr:`VerdictCache.stats` or ``len()``, are dropped
by :meth:`VerdictCache.clear` and are bounded by the same ``maxsize``.

Chaos engineering stays transparent by construction: fault injection
perturbs the *source text* before compilation
(a chaos :class:`~repro.runtime.retry.Guard` appends garbage), which
changes the preprocessed text, hence the digest, hence the verdict key
-- a chaos-garbled design can never alias a clean design's verdict.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..scope import current
from ..verilog.limits import DEFAULT_LIMITS, ResourceLimits

#: Default LRU bound; verdicts are small (a few mismatch tuples + trace
#: lists) so the full working set of an experiment run stays resident.
DEFAULT_MAXSIZE = 4096


def verdict_key(
    kind: str,
    digests: tuple,
    engine: str,
    limits: Optional[ResourceLimits],
    *params,
) -> Optional[str]:
    """Content address of one simulation verdict, or ``None`` when any
    participating design lacks a digest (uncacheable).

    ``kind`` namespaces the entry ("diff" for
    :func:`~repro.sim.testbench.run_differential`, "feedback" for
    :func:`~repro.sim.feedback.make_sim_feedback`, "tape" for the
    reference tape both share); ``digests`` are
    the content digests of every design involved; ``engine`` and the
    effective resource limits participate because both can change the
    verdict (a compiled-only bug would otherwise poison interp results,
    and tighter settle budgets turn passes into failures); ``params``
    captures the stimulus (sample count, seed, recording caps, ...).
    """
    if any(d is None for d in digests):
        return None
    effective = limits if limits is not None else DEFAULT_LIMITS
    hasher = hashlib.sha256()
    for part in (kind, engine, repr(effective), *digests, *params):
        hasher.update(str(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass
class VerdictStats:
    """Hit/miss/eviction counters for one :class:`VerdictCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups skipped because a design had no digest.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def simulations_avoided(self) -> int:
        return self.hits

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``run_full_report``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "uncacheable": self.uncacheable,
            "simulations_avoided": self.simulations_avoided,
            "hit_rate": round(self.hit_rate, 4),
        }


class VerdictCache:
    """LRU-bounded, thread-safe memo of simulation verdicts.

    Values are treated as immutable by every consumer
    (:class:`~repro.sim.testbench.TestbenchResult` and the feedback
    trace tuples are never mutated after construction).
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = VerdictStats()
        self._entries: OrderedDict = OrderedDict()
        self._tapes: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def tape_count(self) -> int:
        """Reference tapes held (not counted in ``len()``)."""
        return len(self._tapes)

    def get(self, key: Optional[str]):
        """The cached verdict for ``key``, or ``None`` (counts stats)."""
        if key is None:
            self.stats.uncacheable += 1
            return None
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            return None

    def put(self, key: Optional[str], verdict) -> None:
        """Store ``verdict`` under ``key`` (no-op for uncacheable keys)."""
        if key is None or verdict is None:
            return
        with self._lock:
            self._entries[key] = verdict
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_tape(self, key: Optional[str]):
        """The reference tape stored under ``key``, or ``None``."""
        if key is None:
            return None
        with self._lock:
            tape = self._tapes.get(key)
            if tape is not None:
                self._tapes.move_to_end(key)
            return tape

    def put_tape(self, key: Optional[str], tape) -> None:
        """Store ``tape`` under ``key`` (no-op for uncacheable keys)."""
        if key is None:
            return
        with self._lock:
            self._tapes[key] = tape
            self._tapes.move_to_end(key)
            while len(self._tapes) > self.maxsize:
                self._tapes.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and tapes and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._tapes.clear()
            self.stats = VerdictStats()


#: The process-wide default cache, active from import time.
DEFAULT_VERDICT_CACHE = VerdictCache()


def get_active_verdict_cache() -> Optional[VerdictCache]:
    """The cache the simulation harnesses currently consult (or None)."""
    return current().get("verdict_cache", DEFAULT_VERDICT_CACHE)
