"""Deterministic fault injection (chaos harness).

The retry/isolation machinery in this package is only trustworthy if
its failure paths are *testable*, and failure paths are only testable if
faults are reproducible.  This module injects configurable faults into
the LLM, compiler and simulation-sandbox seams, keyed by an explicit
seed plus the call's content -- never by wall-clock or global call
order -- so:

* the same seed always faults the same work units, regardless of job
  count or backend (serial, thread, process);
* a "5% of trials hard-fail" experiment names *exactly* which trials
  failed, run after run.

Pieces:

* :class:`FaultSpec` -- what to inject at one seam: a fault ``rate``,
  a ``kind`` (``exception`` / ``timeout`` / ``garbage``), and whether
  the fault is transient (clears after N raises, so retries succeed)
  or permanent (every attempt fails, so retries exhaust);
* :class:`FaultInjector` -- draws fault decisions deterministically
  from ``(seed, site, key)``;
* :class:`~repro.runtime.retry.Guard` (``injector=``) -- applies an
  injector to a real model or compiler;
* ``scoped(sim_injector=...)`` (:mod:`repro.scope`) -- the ambient
  injector the simulation harnesses consult: they are plain functions
  called from deep inside agents, so a scope reaches them without
  threading an injector through every signature.

``exception`` and ``timeout`` faults raise
:class:`~repro.errors.InjectedFault` /
:class:`~repro.errors.LLMTimeoutError` (both retryable);
``garbage`` faults *return* plausible junk instead of raising -- the
"model replied with nonsense" failure mode, which must be survived by
the agent loop rather than the retry layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Literal, Optional

from ..errors import InjectedFault, LLMTimeoutError

FaultKind = Literal["exception", "timeout", "garbage"]

#: The junk a garbage-faulted model emits (never valid Verilog, so the
#: compiler keeps the loop honest).
GARBAGE_CODE = "@@@ chaos: garbled model reply @@@"


def stable_unit(key: str) -> float:
    """Deterministic uniform(0,1) draw from a string key."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of one fault seam.

    ``rate`` is the probability that a given call key draws a fault.
    ``transient_failures = 0`` makes drawn faults permanent (every
    attempt at that key fails); ``N > 0`` makes them transient (the
    first ``N`` attempts fail, then the call succeeds -- the
    retry-then-succeed shape).
    """

    rate: float
    kind: FaultKind = "exception"
    transient_failures: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind not in ("exception", "timeout", "garbage"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.transient_failures < 0:
            raise ValueError("transient_failures must be >= 0")


@dataclass
class FaultInjector:
    """Draws deterministic fault decisions for named seams.

    Seams: ``llm`` (``RepairModel.start`` / ``step``), ``compiler``
    (``Compiler.compile``) and ``sim`` (the simulation-sandbox harnesses
    ``run_differential`` / ``make_sim_feedback``, sites ``sim.diff`` and
    ``sim.feedback``).
    The decision for a call is a pure function of ``(seed, site, key)``;
    only transient-recovery counting is stateful (per injector instance,
    which is exactly the retry loop's scope).  Simulation fault keys
    deliberately exclude the engine name so both engines draw the same
    fault for the same work -- the fuzz sandbox-differential invariant
    depends on that.
    """

    seed: int = 0
    llm: Optional[FaultSpec] = None
    compiler: Optional[FaultSpec] = None
    sim: Optional[FaultSpec] = None
    #: (site, key) -> number of faults already raised (transient bookkeeping).
    _raised: dict = field(default_factory=dict, repr=False, compare=False)

    def _spec_for(self, site: str) -> Optional[FaultSpec]:
        return getattr(self, site.split(".", 1)[0], None)

    def decide(self, site: str, key: str) -> Optional[FaultKind]:
        """The fault (if any) for this call: ``None`` or a kind.

        Deterministic per ``(seed, site, key)``; a transient spec stops
        faulting a key after ``transient_failures`` decisions, so a
        retry of the same call recovers.
        """
        spec = self._spec_for(site)
        if spec is None or spec.rate <= 0.0:
            return None
        if stable_unit(f"fault|{self.seed}|{site}|{key}") >= spec.rate:
            return None
        if spec.transient_failures:
            count = self._raised.get((site, key), 0)
            if count >= spec.transient_failures:
                return None
            self._raised[(site, key)] = count + 1
        return spec.kind

    def fire(self, site: str, key: str) -> Optional[FaultKind]:
        """Decide and, for raising kinds, raise the fault.

        Returns ``None`` (no fault) or ``"garbage"`` (the caller must
        fabricate a junk reply); ``exception``/``timeout`` raise.
        """
        kind = self.decide(site, key)
        if kind == "exception":
            raise InjectedFault(f"injected fault at {site} (key {key})")
        if kind == "timeout":
            raise LLMTimeoutError(f"injected timeout at {site} (key {key})")
        return kind
