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

:class:`VerdictCache` memoizes those verdicts in the same bounded
store as the compile cache (:class:`repro.runtime.cache.Memo`, with its
:class:`~repro.runtime.cache.CacheStats`), keyed by the **design
digests** stamped at elaboration (see
:func:`repro.diagnostics.engine.assemble_result`) plus every
stimulus parameter.  Designs without a digest (error-bearing or
hand-built) have no key: the lookup counts as ``uncacheable`` and the
caller runs the simulation.

The cache also holds **reference tapes**
(:class:`~repro.sim.testbench.ReferenceTape`): the recorded outputs and
budget charges of one completed golden-reference run, replayed by later
runs of either harness with the same key instead of simulating the
reference again.
Tapes are not verdicts: they live in a second memo,
:attr:`VerdictCache.tapes`, with its own stats and ``len()`` and the
same ``maxsize``, and :meth:`VerdictCache.clear` drops them too.

Chaos engineering stays transparent by construction: fault injection
perturbs the *source text* before compilation
(a chaos :class:`~repro.runtime.retry.Guard` appends garbage), which
changes the preprocessed text, hence the digest, hence the verdict key
-- a chaos-garbled design can never alias a clean design's verdict.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..runtime.cache import DEFAULT_MAXSIZE, Memo
from ..scope import current


def verdict_key(kind: str, digests: tuple, engine: str, *params) -> Optional[str]:
    """Content address of one simulation verdict, or ``None`` when any
    participating design lacks a digest (uncacheable).

    ``kind`` namespaces the entry ("diff" for
    :func:`~repro.sim.testbench.run_differential`, "feedback" for
    :func:`~repro.sim.feedback.make_sim_feedback`, "tape" for the
    reference tape both share); ``digests`` are
    the content digests of every design involved; ``engine`` participates
    because a compiled-only bug would otherwise poison interp results;
    ``params`` captures the stimulus and the sandbox budgets (sample
    count, seed, recording caps, ``repr(sim_limits)``, ...).
    """
    if any(d is None for d in digests):
        return None
    hasher = hashlib.sha256()
    for part in (kind, engine, *digests, *params):
        hasher.update(str(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class VerdictCache(Memo):
    """:class:`~repro.runtime.cache.Memo` of simulation verdicts keyed
    by :func:`verdict_key`, plus the reference tapes in
    :attr:`tapes`.

    Verdicts go through plain ``get``/``put``, not single-flight: the
    harness stores only cacheable results, so two threads racing on one
    key both simulate and store the same verdict.  Values are treated as
    immutable by every consumer
    (:class:`~repro.sim.testbench.TestbenchResult` and the feedback
    trace tuples are never mutated after construction).
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        super().__init__(maxsize)
        #: Reference tapes, outside ``stats`` and ``len()``.
        self.tapes = Memo(maxsize)

    def clear(self) -> None:
        """Drop all verdicts and tapes and reset the statistics."""
        super().clear()
        self.tapes.clear()


#: The process-wide default cache, active from import time.
DEFAULT_VERDICT_CACHE = VerdictCache()


def get_active_verdict_cache() -> Optional[VerdictCache]:
    """The cache the simulation harnesses currently consult (or None)."""
    return current().get("verdict_cache", DEFAULT_VERDICT_CACHE)
