"""Parallel experiment executor.

The paper's protocol multiplies every measurement: Table 1 is 212
dataset entries x 10 repeated trials per cell, Table 2 evaluates n=20
samples for each of 76 problems twice, and every unit of that work is
*independent* -- each trial derives its randomness from an explicit
``(seed, trial)`` key, never from shared mutable state.  That makes the
fan-out embarrassingly parallel and, crucially, *order-free*:
:class:`ParallelRunner` reassembles results by submission index, so a
parallel run is bit-identical to a serial run at the same seed.

``jobs`` alone picks how a map runs (``jobs=0`` means "all CPUs"): in
process at ``jobs <= 1``, else on a ``ProcessPoolExecutor`` (the work
is CPU-bound pure Python; units must be picklable).  The pool opens at
the runner's first parallel map and lasts until
:meth:`ParallelRunner.close`, so workers keep their caches from map to
map; a run's :class:`~repro.runtime.RunContext` owns one runner.
Workers keep the runtime scope they forked under, and exit once the
process that opened the pool is gone.  Units travel in chunks
(:func:`chunk_size`), so what a chunk's units share, such as a
configured fixer, is pickled once per chunk.

Failure handling (``on_error``):

* ``"raise"``  (default) -- the first worker exception aborts the run:
  pending work units are cancelled so the failure surfaces promptly,
  and the exception propagates to the caller;
* ``"collect"`` -- failure isolation: a failing unit becomes a
  :class:`WorkFailure` record in its result slot and the remaining
  units keep running.  One poisoned trial must not sink a 2120-trial
  Table 1 run; callers test each slot with ``isinstance(result,
  WorkFailure)``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Optional, TypeVar, Union

from ..errors import RunInterrupted
from .accounting import UnitCounters

if TYPE_CHECKING:  # typing only
    from .breaker import CircuitBreaker

T = TypeVar("T")
R = TypeVar("R")

OnError = Literal["raise", "collect"]

#: ``progress(done, total, item)`` -- invoked after every completed work
#: unit with the just-finished input item (per-trial liveness for long
#: runs; completion order is nondeterministic in a process pool, result
#: order is not).
ProgressFn = Callable[[int, int, object], None]

#: ``on_result(index, item, result)`` -- invoked in the *parent* process
#: the moment a work unit's result (or collected :class:`WorkFailure`)
#: is known, with its submission index.  The durable-run journal hangs
#: off this hook: a journaled trial is exactly one whose ``on_result``
#: returned.
ResultFn = Callable[[int, object, object], None]

#: ``should_stop()`` -- polled between dispatches; returning True stops
#: new submissions, drains in-flight units (their results still reach
#: ``on_result``), then raises :class:`~repro.errors.RunInterrupted`.
StopFn = Callable[[], bool]

_REPR_LIMIT = 200

#: Most work units one future carries (see :func:`chunk_size`).
MAX_CHUNK = 32

#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.5


def _short_repr(item: object) -> str:
    text = repr(item)
    return text if len(text) <= _REPR_LIMIT else text[: _REPR_LIMIT - 3] + "..."


@dataclass(frozen=True)
class WorkFailure:
    """One failed work unit, recorded instead of raised.

    Equality ignores the traceback and item repr (they differ in
    formatting between serial and process runs); ``(index, error_type,
    message)`` is the deterministic identity a fixed seed must reproduce.
    """

    #: Submission index of the failed unit (its slot in the result list).
    index: int
    #: Exception class name, e.g. ``"RetryExhaustedError"``.
    error_type: str
    #: ``str(exception)`` of the failure.
    message: str
    #: Truncated ``repr`` of the work unit (diagnostics only).
    item_repr: str = field(default="", compare=False)
    #: Formatted traceback when available (diagnostics only).
    traceback: str = field(default="", compare=False)
    #: True when the unit never ran: the circuit breaker was open and
    #: the trial was failed fast (journaled as SKIPPED, re-executed on
    #: resume).  Participates in equality -- a skip is a different
    #: outcome than a real failure.
    skipped: bool = False

    @classmethod
    def from_exception(cls, index: int, item: object, exc: BaseException) -> "WorkFailure":
        """Build a failure record from a caught worker exception."""
        return cls(
            index=index,
            error_type=type(exc).__name__,
            message=str(exc),
            item_repr=_short_repr(item),
            traceback="".join(_traceback.format_exception(exc)),
        )

    @classmethod
    def skipped_unit(cls, index: int, item: object) -> "WorkFailure":
        """A SKIPPED slot for a unit the open circuit breaker denied."""
        return cls(
            index=index,
            error_type="CircuitOpenError",
            message="circuit breaker open: trial skipped (fail-fast)",
            item_repr=_short_repr(item),
            skipped=True,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        verb = "skipped" if self.skipped else "failed"
        return f"unit {self.index} {verb}: {self.error_type}: {self.message}"


def isolable(exc: BaseException) -> bool:
    """Whether ``on_error="collect"`` may swallow ``exc`` as a
    :class:`WorkFailure`.

    Only ordinary :class:`Exception` s are isolable.  Control-flow
    exceptions (:class:`KeyboardInterrupt`, :class:`SystemExit`,
    :class:`GeneratorExit`, anything else deriving from
    :class:`BaseException` directly) always propagate: a Ctrl-C turned
    into a failure record would silently degrade the experiment.
    """
    return isinstance(exc, Exception) and not isinstance(
        exc, (KeyboardInterrupt, SystemExit, GeneratorExit)
    )


class _RemoteTraceback(Exception):
    """A process worker's formatted traceback, chained as the cause of
    the exception it came home with."""

    def __str__(self) -> str:
        return self.args[0]


def _run_chunk(fn: Callable[[T], R], chunk: list[T], stop_on_failure: bool) -> list:
    """Run a chunk of work units in a process worker: one ``(ok, result
    or (exception, traceback), UnitCounters)`` per unit that ran.  The
    chunk stops after a failure the parent will raise
    (``stop_on_failure``, or a non-isolable exception)."""
    outcomes = []
    for item in chunk:
        counters = UnitCounters()
        try:
            with counters.counting():
                result = fn(item)
        except BaseException as exc:
            text = "".join(_traceback.format_exception(exc))
            outcomes.append((False, (exc, text), counters))
            if stop_on_failure or not isolable(exc):
                break
        else:
            outcomes.append((True, result, counters))
    return outcomes


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once ``parent`` is gone (a killed
    parent cannot shut its pool down, and idle workers would wait on the
    call queue forever)."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def chunk_size(total: int, jobs: int) -> int:
    """Units per future for a map of ``total`` units over ``jobs``
    workers: about eight chunks per worker, so the work still spreads
    evenly, and at most :data:`MAX_CHUNK`, so a long map pays the
    per-future pickling and IPC once per chunk rather than per unit."""
    return max(1, min(MAX_CHUNK, total // (8 * jobs)))


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: ``None`` -> 1 (serial), ``0`` ->
    all CPUs, otherwise the requested worker count."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


class ParallelRunner:
    """Fans independent work units across processes, deterministically.

    >>> with ParallelRunner(jobs=4) as runner:
    ...     runner.map(evaluate, units)   # results in submission order
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None

    def close(self) -> None:
        """Shut the worker pool down once its running chunks finish; a
        later parallel map opens a new one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        progress: Optional[ProgressFn] = None,
        on_error: OnError = "raise",
        on_result: Optional[ResultFn] = None,
        should_stop: Optional[StopFn] = None,
        breaker: Optional["CircuitBreaker"] = None,
    ) -> list[Union[R, WorkFailure]]:
        """Apply ``fn`` to every item; results keep submission order.

        Units are collected as they complete (so ``progress`` reports
        real liveness), but the returned list is indexed by submission
        order, whatever the completion order.  A process map keeps a
        bounded window (``2 x jobs`` chunks) in flight, so stopping
        really stops.  ``on_error="raise"`` propagates the first worker
        exception after cancelling every pending chunk;
        ``on_error="collect"`` puts a :class:`WorkFailure` in the failing
        unit's slot and runs every other unit.

        ``on_result`` fires in the parent as each unit's outcome is
        known (the durable journal's commit point).  ``should_stop`` is
        polled before every dispatch: once true, no further unit starts,
        in-flight units drain (reaching ``on_result``), then
        :class:`~repro.errors.RunInterrupted` is raised.  ``breaker``
        gates dispatch: a denied unit never runs and gets a SKIPPED
        :class:`WorkFailure`, and every real outcome is recorded with
        it.  The breaker requires ``on_error="collect"``.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be raise|collect, got {on_error!r}")
        if breaker is not None and on_error != "collect":
            raise ValueError(
                'a circuit breaker requires on_error="collect" (skipped '
                "trials are recorded as WorkFailure slots, not raised)"
            )
        items = list(items)
        total = len(items)
        slots: list[Union[R, WorkFailure, None]] = [None] * total
        #: Submission indices of dispatched half-open probes: only the
        #: probe's own outcome may settle the breaker out of half-open.
        probes: set[int] = set()
        done = 0
        stopping = False

        def stopped() -> bool:
            """Poll the stop flag (once true, it stays true)."""
            nonlocal stopping
            stopping = stopping or (should_stop is not None and should_stop())
            return stopping

        def publish(index: int, result: Union[R, WorkFailure]) -> None:
            """Fill one slot and tell the hooks."""
            nonlocal done
            slots[index] = result
            done += 1
            if on_result is not None:
                on_result(index, items[index], result)
            if progress is not None:
                progress(done, total, items[index])

        def admit(index: int) -> bool:
            """Gate one unit through the breaker; a denied unit's
            SKIPPED slot is published here."""
            if breaker is None:
                return True
            allowed, probe = breaker.admit()
            if not allowed:
                publish(index, WorkFailure.skipped_unit(index, items[index]))
            elif probe:
                probes.add(index)
            return allowed

        def settle(index: int, ok: bool, value: object) -> None:
            """Record one unit's outcome with the breaker and publish it
            (or raise it)."""
            probe = index in probes
            probes.discard(index)
            if ok:
                if breaker is not None:
                    breaker.record_success(probe=probe)
                publish(index, value)  # type: ignore[arg-type]
                return
            exc: BaseException = value  # type: ignore[assignment]
            if breaker is not None:
                breaker.record_failure(exc, probe=probe)
            if on_error == "raise" or not isolable(exc):
                raise exc
            publish(index, WorkFailure.from_exception(index, items[index], exc))

        if self.jobs <= 1 or total <= 1:
            for index, item in enumerate(items):
                if stopped():
                    break
                if admit(index):
                    try:
                        result = fn(item)
                    except BaseException as exc:
                        settle(index, False, exc)
                    else:
                        settle(index, True, result)
        else:
            self._run_pool(fn, items, on_error, stopped, admit, settle, breaker)
        if stopping:
            raise RunInterrupted(
                f"shutdown requested after {done}/{total} unit(s)",
                done=done, total=total,
            )
        if done != total:
            # Defense in depth: a normally-completed loop must have
            # filled every slot.  Starvation here (e.g. a breaker wedged
            # half-open with nothing in flight) would otherwise surface
            # as silent None results that corrupt downstream reports.
            raise RuntimeError(
                f"executor invariant violated: {done}/{total} result "
                "slots filled after dispatch loop exit"
            )
        return slots  # type: ignore[return-value]

    def _run_pool(
        self,
        fn: Callable[[T], R],
        items: list[T],
        on_error: OnError,
        stopped: Callable[[], bool],
        admit: Callable[[int], bool],
        settle: Callable[[int, bool, object], None],
        breaker: Optional["CircuitBreaker"],
    ) -> None:
        """Run the units on the pool in chunks, each unit still
        admitted, settled and published on its own.  Workers count into
        their own copies of the run's caches and ledgers, so each unit's
        counters come home with its outcome and are booked in submission
        order: what a serial run counts."""
        if self._pool is None:
            # Fork, whatever the platform default: workers must inherit
            # the caller's runtime scope (caches, ledgers, routing).
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=multiprocessing.get_context("fork"),
                initializer=_exit_with_parent, initargs=(os.getpid(),),
            )
        pool = self._pool
        total = len(items)
        size = chunk_size(total, self.jobs)
        #: Units' counters, by submission index.
        unit_counters: dict[int, UnitCounters] = {}
        #: Each in-flight chunk's submission indices.
        pending: dict[Future, list[int]] = {}
        next_index = 0

        def submit_more() -> None:
            """Keep the dispatch window full, honouring the gates."""
            nonlocal next_index
            while next_index < total and len(pending) < 2 * self.jobs:
                if stopped():
                    # Drop what never started; in-flight chunks drain
                    # through the loop below and reach on_result.
                    for future in list(pending):
                        if future.cancel():
                            pending.pop(future)
                    return
                chunk: list[int] = []
                # While a half-open probe is in flight, hold further
                # dispatch (and further skipping) until its outcome
                # settles the breaker.  A probe is always a chunk of
                # one: a closed breaker admits without probing, so only
                # denials come before it.
                while (next_index < total and len(chunk) < size
                       and not (breaker is not None and breaker.probing)):
                    if admit(next_index):
                        chunk.append(next_index)
                    next_index += 1
                if not chunk:
                    return
                future = pool.submit(
                    _run_chunk, fn, [items[i] for i in chunk], on_error == "raise"
                )
                pending[future] = chunk

        try:
            submit_more()
            while pending:
                completed, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in completed:
                    chunk = pending.pop(future)
                    try:
                        outcomes = future.result()
                    except BaseException as exc:
                        # The chunk as a whole failed (a worker died, a
                        # result would not pickle): so did each unit.
                        outcomes = [(False, (exc, ""), None)] * len(chunk)
                    for index, (ok, value, counters) in zip(chunk, outcomes):
                        if counters is not None:
                            unit_counters[index] = counters
                        if not ok:
                            value, text = value
                            if text:
                                value.__cause__ = _RemoteTraceback(text)
                        settle(index, ok, value)
                submit_more()
        except BaseException:
            # Abort promptly: drop every not-yet-started chunk and wait
            # only for the (few) running ones; a later map opens a new
            # pool.  Then let the failure propagate.
            self.close()
            raise
        finally:
            # Whatever ended the loop (an error, a stop), every unit
            # that ran has its counters here: book them as a serial
            # run would have.
            for index in sorted(unit_counters):
                unit_counters[index].book()
