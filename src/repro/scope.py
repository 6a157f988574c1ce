"""The runtime scope: one process-wide record of the ambient settings.

Deep call sites -- the compile and simulation harnesses, the LLM pools,
the agents -- read shared caches, ledgers and simulation settings that
no call signature threads through.  All of them live in one record::

    with scoped(compile_cache=CompileCache(), verdict_cache=None):
        run_table2(problems)          # fresh compile cache, no verdicts

    current().get("sim_engine", DEFAULT_SIM_ENGINE)

The fields (:data:`FIELDS`) and their home modules:

* ``compile_cache`` (:mod:`repro.runtime.cache`) and ``verdict_cache``
  (:mod:`repro.sim.verdict`) -- ``None`` disables that cache;
* ``sandbox_stats`` (:mod:`repro.sim.sandbox`) and ``token_counter``
  (:mod:`repro.runtime.accounting`) -- telemetry ledgers;
* ``sim_limits`` (:mod:`repro.sim.limits`) and ``sim_engine``
  (:mod:`repro.sim.engine`) -- simulation defaults;
* ``sim_injector`` (:mod:`repro.runtime.faults`) -- simulation chaos;
* ``llm_routing`` (:mod:`repro.llm.pool`) -- the ambient pool spec.

Design decisions:

* **Process-wide state.**  The record is one module global swapped
  under one lock, deliberately *not* a ContextVar: thread-backend
  :class:`~repro.runtime.ParallelRunner` workers and the repair
  service's executor threads must count into the caller's scoped caches
  and ledgers, and fork-started process workers inherit the record
  with the rest of the address space.
* **The deadline stays separate.**  :mod:`repro.service.deadline` keeps
  its own ContextVar: a deadline belongs to one request, and concurrent
  requests run on different threads.
* **Per-field restore.**  Leaving a scope restores only the fields that
  scope set, to the values they had when it was entered; fields set
  meanwhile by an overlapping scope are left alone.
* **Same defaults from import time.**  The record stores only
  overrides.  Each reader supplies its home module's default
  (``current().get("verdict_cache", DEFAULT_VERDICT_CACHE)``), so an
  unscoped read sees the always-on default even when a scope was
  entered before the home module was imported.
* **Same input checks.**  A home module registers a check for a field
  whose values it constrains (:func:`check`); ``scoped`` runs it on
  entry, so an unknown engine name or a non-``SimLimits`` budget raises
  ``ValueError`` before anything is swapped.  (A check exists once its
  home module is imported; ``make_simulator`` re-checks the engine it
  reads.)

This module is a leaf: it imports nothing from ``repro``, so every
layer can read the scope without an import cycle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

#: The names a scope may set.
FIELDS = frozenset({
    "compile_cache",
    "verdict_cache",
    "sandbox_stats",
    "token_counter",
    "sim_injector",
    "sim_limits",
    "sim_engine",
    "llm_routing",
})

_MISSING = object()
_lock = threading.Lock()
_current: Mapping[str, Any] = MappingProxyType({})
_checks: dict[str, Callable[[Any], None]] = {}


def current() -> Mapping[str, Any]:
    """The fields scoped right now (read-only; absent = default)."""
    return _current


def check(field: str) -> Callable[[Callable[[Any], None]], Callable[[Any], None]]:
    """Decorator registering ``fn(value)`` as ``field``'s entry check."""
    def register(fn: Callable[[Any], None]) -> Callable[[Any], None]:
        _checks[field] = fn
        return fn

    return register


def _swap(fields: dict[str, Any]) -> dict[str, Any]:
    """Install ``fields`` (``_MISSING`` = unset); returns what they replaced."""
    global _current
    with _lock:
        record = dict(_current)
        previous = {name: record.get(name, _MISSING) for name in fields}
        for name, value in fields.items():
            if value is _MISSING:
                record.pop(name, None)
            else:
                record[name] = value
        _current = MappingProxyType(record)
    return previous


@contextmanager
def scoped(**fields: Any) -> Iterator[None]:
    """Set ``fields`` for a ``with`` block, restoring each on exit."""
    unknown = sorted(set(fields) - FIELDS)
    if unknown:
        raise TypeError(f"unknown scope field(s): {', '.join(unknown)}")
    for name, value in fields.items():
        if name in _checks:
            _checks[name](value)
    previous = _swap(fields)
    try:
        yield
    finally:
        _swap(previous)
