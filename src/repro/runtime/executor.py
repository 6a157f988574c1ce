"""Parallel experiment executor.

The paper's protocol multiplies every measurement: Table 1 is 212
dataset entries x 10 repeated trials per cell, Table 2 evaluates n=20
samples for each of 76 problems twice, and every unit of that work is
*independent* -- each trial derives its randomness from an explicit
``(seed, trial)`` key, never from shared mutable state.  That makes the
fan-out embarrassingly parallel and, crucially, *order-free*:
:class:`ParallelRunner` reassembles results by submission index, so a
parallel run is bit-identical to a serial run at the same seed.

Backends:

* ``serial``  -- in-process loop (the default for ``jobs <= 1``);
* ``process`` -- ``ProcessPoolExecutor`` (the default for ``jobs > 1``:
  the work is CPU-bound pure Python, so real speedup needs processes;
  work units must be picklable and are reconstructed from configuration
  in the worker);
* ``thread``  -- ``ThreadPoolExecutor`` (no pickling; useful when the
  work releases the GIL or when sharing the in-process compile cache
  matters more than core scaling).

The worker count comes from the experiment drivers' ``jobs=`` argument
/ the CLI ``--jobs`` flag; ``jobs=0`` means "all CPUs".

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

import os
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal, Optional, TypeVar, Union

from ..errors import RunInterrupted
from .accounting import UnitCounters

if TYPE_CHECKING:  # typing only
    from .breaker import CircuitBreaker

T = TypeVar("T")
R = TypeVar("R")

Backend = Literal["auto", "serial", "thread", "process"]
OnError = Literal["raise", "collect"]

#: ``progress(done, total, item)`` -- invoked after every completed work
#: unit with the just-finished input item (per-trial liveness for long
#: runs; completion order is nondeterministic under parallel backends,
#: result order is not).
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


@dataclass(frozen=True)
class WorkFailure:
    """One failed work unit, recorded instead of raised.

    Equality ignores the traceback and item repr (they differ in
    formatting between backends); ``(index, error_type, message)`` is
    the deterministic identity a fixed seed must reproduce.
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
        item_repr = repr(item)
        if len(item_repr) > _REPR_LIMIT:
            item_repr = item_repr[: _REPR_LIMIT - 3] + "..."
        return cls(
            index=index,
            error_type=type(exc).__name__,
            message=str(exc),
            item_repr=item_repr,
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    @classmethod
    def skipped_unit(cls, index: int, item: object) -> "WorkFailure":
        """A SKIPPED slot for a unit the open circuit breaker denied."""
        item_repr = repr(item)
        if len(item_repr) > _REPR_LIMIT:
            item_repr = item_repr[: _REPR_LIMIT - 3] + "..."
        return cls(
            index=index,
            error_type="CircuitOpenError",
            message="circuit breaker open: trial skipped (fail-fast)",
            item_repr=item_repr,
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
    exceptions -- :class:`KeyboardInterrupt`, :class:`SystemExit`,
    :class:`GeneratorExit`, anything else deriving from
    :class:`BaseException` directly -- must always propagate: converting
    a Ctrl-C into a per-unit failure record would turn a user abort into
    a silently-degraded experiment.  (The check is explicit rather than
    relying on ``except Exception`` so the intent survives refactoring
    and multiply-inheriting exception types.)
    """
    return isinstance(exc, Exception) and not isinstance(
        exc, (KeyboardInterrupt, SystemExit, GeneratorExit)
    )


def _run_counted(fn: Callable[[T], R], item: T) -> tuple[R, UnitCounters]:
    """Run one work unit in a process worker: returns the result with
    the unit's :class:`~repro.runtime.accounting.UnitCounters`.  A
    raising unit's counters ride on its exception as ``unit_counters``."""
    counters = UnitCounters()
    try:
        with counters.counting():
            return fn(item), counters
    except BaseException as exc:
        exc.unit_counters = counters
        raise


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
    """Fans independent work units across an executor, deterministically.

    >>> runner = ParallelRunner(jobs=4)
    >>> runner.map(evaluate, units)   # results in submission order
    """

    def __init__(self, jobs: Optional[int] = None, backend: Backend = "auto"):
        self.jobs = resolve_jobs(jobs)
        if backend == "auto":
            backend = "serial" if self.jobs <= 1 else "process"
        if backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend: Backend = backend

    @property
    def is_serial(self) -> bool:
        """True when work will run inline in the calling process."""
        return self.backend == "serial" or self.jobs <= 1

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

        Work units are scheduled eagerly and collected as they complete
        (so ``progress`` reports real liveness), but the returned list
        is indexed by submission order -- identical to the serial path
        regardless of completion interleaving.  Parallel backends keep a
        bounded dispatch window (``2 x jobs``) in flight rather than
        enqueueing everything up front, so stopping really stops.

        ``on_error="raise"`` propagates the first worker exception after
        cancelling all still-pending units (a failed run aborts promptly
        instead of draining the queue).  ``on_error="collect"`` isolates
        failures: the failing unit's slot holds a :class:`WorkFailure`
        and every other unit still runs.

        ``on_result`` fires in the parent as each unit's outcome is
        known (the durable journal's commit point).  ``should_stop`` is
        polled before every dispatch: once true, no further unit starts,
        in-flight units drain (reaching ``on_result``), then
        :class:`~repro.errors.RunInterrupted` is raised.  ``breaker``
        gates dispatch: a unit denied by an open breaker never runs --
        its slot gets a SKIPPED :class:`WorkFailure` -- and every real
        outcome is reported back via ``record_success`` /
        ``record_failure``.  The breaker requires ``on_error="collect"``
        (fail-fast slots are collected records, not exceptions).
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

        def finish(index: int, done: int, result: Union[R, WorkFailure]) -> None:
            """Publish one completed/skipped unit to the hooks."""
            if on_result is not None:
                on_result(index, items[index], result)
            if progress is not None:
                progress(done, total, items[index])

        if self.is_serial or total <= 1:
            return self._map_serial(
                fn, items, on_error, finish, should_stop, breaker
            )
        return self._map_pool(fn, items, on_error, finish, should_stop, breaker)

    def _map_serial(
        self,
        fn: Callable[[T], R],
        items: list[T],
        on_error: OnError,
        finish: Callable[[int, int, Union[R, WorkFailure]], None],
        should_stop: Optional[StopFn],
        breaker: Optional["CircuitBreaker"],
    ) -> list[Union[R, WorkFailure]]:
        """In-process map with dispatch gating (the reference semantics)."""
        results: list[Union[R, WorkFailure]] = []
        for index, item in enumerate(items):
            if should_stop is not None and should_stop():
                raise RunInterrupted(
                    f"shutdown requested after {index}/{len(items)} unit(s)",
                    done=index, total=len(items),
                )
            if breaker is not None and not breaker.allow():
                skipped = WorkFailure.skipped_unit(index, item)
                results.append(skipped)
                finish(index, index + 1, skipped)
                continue
            # Sample probe-ness at dispatch: allow() just transitioned to
            # half-open iff this unit is the probe.
            probe = breaker is not None and breaker.probing
            try:
                result: Union[R, WorkFailure] = fn(item)
            except BaseException as exc:
                if breaker is not None:
                    breaker.record_failure(exc, probe=probe)
                if on_error == "raise" or not isolable(exc):
                    raise
                result = WorkFailure.from_exception(index, item, exc)
            else:
                if breaker is not None:
                    breaker.record_success(probe=probe)
            results.append(result)
            finish(index, index + 1, result)
        return results

    def _map_pool(
        self,
        fn: Callable[[T], R],
        items: list[T],
        on_error: OnError,
        finish: Callable[[int, int, Union[R, WorkFailure]], None],
        should_stop: Optional[StopFn],
        breaker: Optional["CircuitBreaker"],
    ) -> list[Union[R, WorkFailure]]:
        """Pool-backed map: bounded dispatch window, drain-on-stop.

        Thread workers count into the run's caches and ledgers
        themselves.  Process workers count into their own copies, so
        each unit's counters come back with its outcome and are booked
        into the run's in submission order: what a serial run counts.
        """
        total = len(items)
        counted = self.backend == "process"
        executor_cls = ProcessPoolExecutor if counted else ThreadPoolExecutor
        #: Process-run units' counters, by submission index.
        unit_counters: dict[int, UnitCounters] = {}
        slots: list[Union[R, WorkFailure, None]] = [None] * total
        workers = min(self.jobs, total)
        window = workers * 2
        pending: dict[Future, int] = {}
        #: Submission indices of dispatched half-open probes: only the
        #: probe's own outcome may settle the breaker out of half-open.
        probe_indices: set[int] = set()
        next_index = 0
        done = 0
        stopping = False

        with executor_cls(max_workers=workers) as pool:

            def submit_more() -> None:
                """Keep the dispatch window full, honouring the gates."""
                nonlocal next_index, done, stopping
                while next_index < total and len(pending) < window:
                    if stopping or (should_stop is not None and should_stop()):
                        stopping = True
                        return
                    if breaker is not None and breaker.probing:
                        # A probe is in flight: hold further dispatch (and
                        # further skipping) until its outcome settles the
                        # breaker one way or the other.
                        return
                    index = next_index
                    next_index += 1
                    if breaker is not None and not breaker.allow():
                        skipped = WorkFailure.skipped_unit(index, items[index])
                        slots[index] = skipped
                        done += 1
                        finish(index, done, skipped)
                        continue
                    if breaker is not None and breaker.probing:
                        # allow() just converted this unit into the probe.
                        probe_indices.add(index)
                    if counted:
                        future = pool.submit(_run_counted, fn, items[index])
                    else:
                        future = pool.submit(fn, items[index])
                    pending[future] = index

            submit_more()
            try:
                while pending:
                    completed, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in completed:
                        index = pending.pop(future)
                        is_probe = index in probe_indices
                        probe_indices.discard(index)
                        if future.cancelled():
                            continue  # un-run unit dropped during a stop
                        try:
                            result: Union[R, WorkFailure] = future.result()
                        except BaseException as exc:
                            if counted and hasattr(exc, "unit_counters"):
                                unit_counters[index] = exc.unit_counters
                            if breaker is not None:
                                breaker.record_failure(exc, probe=is_probe)
                            if on_error == "raise" or not isolable(exc):
                                raise
                            result = WorkFailure.from_exception(
                                index, items[index], exc
                            )
                        else:
                            if counted:
                                result, unit_counters[index] = result
                            if breaker is not None:
                                breaker.record_success(probe=is_probe)
                        slots[index] = result
                        done += 1
                        finish(index, done, result)
                    submit_more()
                    if stopping:
                        # Drop what never started; in-flight units drain
                        # through the loop above and reach on_result.
                        for future in list(pending):
                            if future.cancel():
                                pending.pop(future)
            except BaseException:
                # Abort promptly: drop every not-yet-started unit so the
                # pool shutdown only waits on the (few) in-flight ones,
                # then let the failure propagate (cancel_futures
                # semantics -- see the PR 2 executor bugfix).
                for future in pending:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            finally:
                # Whatever ended the loop (an error, a stop), every unit
                # that ran has its counters here: book them as a serial
                # run would have.
                for index in sorted(unit_counters):
                    unit_counters[index].book()
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
