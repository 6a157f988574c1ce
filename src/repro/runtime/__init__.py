"""Runtime substrate: compile memoization, parallel fan-out, robustness.

The pillars every experiment driver in :mod:`repro.eval` is built on:

* :class:`CompileCache` / :func:`cached_compile` -- a content-addressed
  (SHA-256 of source + flavor + includes), LRU-bounded, statistics-
  tracking memo of ``compile_source`` results, swapped per run through
  the runtime scope (:mod:`repro.scope`) so hot paths stop
  re-elaborating identical sources; it is one use of :class:`Memo`, the
  bounded single-flight store every memo in the codebase shares;
* :class:`ParallelRunner` -- an ordered, deterministic ``map`` over
  independent work units, in process or on a worker-process pool fed
  chunks of units, selected by the drivers' ``jobs=`` or the CLI
  ``--jobs`` flag, with failure isolation (``on_error="collect"`` ->
  :class:`WorkFailure` records) or prompt aborts (``on_error="raise"``
  cancels pending work);
* :class:`RetryPolicy` + :class:`FaultInjector`, applied by one
  :class:`Guard` around the LLM and compiler seams -- bounded retries
  with deterministic, seeded exponential backoff, and deterministic
  fault injection so every failure path above is testable at a fixed
  seed;
* :func:`run_fuzz` -- the seeded corpus fuzzer that continuously
  prosecutes the compiler front-end's never-crash/never-hang contract
  (``rtlfixer fuzz``);
* :class:`Journal` / :class:`RunState` / :class:`RunContext` -- the
  durable-run subsystem: a crash-safe CRC32 JSONL trial journal with
  torn-tail recovery, content-addressed trial checkpoints
  (:func:`unit_key` / :func:`config_digest`), and the resume-aware
  durable map every experiment driver routes through;
* :class:`CircuitBreaker` -- trips after N consecutive non-transient
  failures and fails the rest of a run fast as journaled SKIPPED
  trials (retry handles transients, the breaker handles persistent
  outages);
* :class:`GracefulShutdown` -- two-stage SIGINT/SIGTERM handling:
  first signal drains and checkpoints, second hard-exits;
* :func:`atomic_write_text` / :func:`atomic_write_json` -- torn-write-
  proof persistence for every run-directory artifact.
"""

from .breaker import CircuitBreaker
from .checkpoint import (
    RunContext,
    RunState,
    config_digest,
    content_digest,
    decode_payload,
    encode_payload,
    unit_key,
)
from .journal import Journal, JournalRecovery
from .persist import atomic_write_json, atomic_write_text
from .shutdown import GracefulShutdown

from .cache import (
    DEFAULT_CACHE,
    DEFAULT_MAXSIZE,
    CacheStats,
    CompileCache,
    Memo,
    cached_compile,
    compile_key,
)

from .executor import (
    ParallelRunner,
    WorkFailure,
    isolable,
    resolve_jobs,
)
from .fuzz import (
    MUTATORS,
    SEED_CORPUS,
    SIM_MUTATORS,
    FuzzConfig,
    FuzzFailure,
    FuzzReport,
    StimulusPlan,
    run_fuzz,
)
from .faults import (
    GARBAGE_CODE,
    FaultInjector,
    FaultSpec,
)
from .retry import (
    Guard,
    RetryPolicy,
    call_with_retry,
    guidance_key,
)
from .accounting import (
    DEFAULT_TOKEN_COUNTER,
    BackendUsage,
    TokenCounter,
    estimate_tokens,
)
from .limiter import TokenBucket

__all__ = [
    "BackendUsage",
    "CacheStats",
    "DEFAULT_TOKEN_COUNTER",
    "TokenBucket",
    "TokenCounter",
    "estimate_tokens",
    "guidance_key",
    "CircuitBreaker",
    "GracefulShutdown",
    "Journal",
    "JournalRecovery",
    "RunContext",
    "RunState",
    "atomic_write_json",
    "atomic_write_text",
    "config_digest",
    "content_digest",
    "decode_payload",
    "encode_payload",
    "unit_key",
    "CompileCache",
    "DEFAULT_CACHE",
    "DEFAULT_MAXSIZE",
    "FaultInjector",
    "FaultSpec",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "Memo",
    "GARBAGE_CODE",
    "MUTATORS",
    "ParallelRunner",
    "SEED_CORPUS",
    "RetryPolicy",
    "Guard",
    "SIM_MUTATORS",
    "StimulusPlan",
    "WorkFailure",
    "cached_compile",
    "call_with_retry",
    "compile_key",
    "isolable",
    "resolve_jobs",
    "run_fuzz",
]
