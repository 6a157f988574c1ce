"""Shared experiment plumbing.

* :func:`run_stage` -- one durable experiment stage: fan work units
  out through :meth:`~repro.runtime.RunContext.map` under
  content-addressed journal keys and split off the failed units.  Every
  driver (this module's and :mod:`repro.eval.experiments`') routes
  through it.
* :func:`run_fix_experiment` -- run a fixer configuration over the
  VerilogEval-syntax dataset with n repeated trials (the paper repeats
  each experiment 10 times and reports the average fix rate).  Trials
  are independent, explicitly seeded work units, so they fan out across
  a :class:`repro.runtime.ParallelRunner` (``jobs=``) with bit-identical
  results to the serial path.
* :func:`evaluate_sample` -- classify one raw LLM sample as pass /
  syntax-error / simulation-error using the rule-fixer, the compiler and
  the differential testbench (the paper's evaluation flow).  Both
  evaluators route compilation through the content-addressed compile
  cache, so a problem's golden reference is elaborated once -- not once
  per sample.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Literal, Optional

from ..core.fixer import RTLFixer
from ..core.rulefix import rule_fix
from ..dataset.curate import SyntaxDataset
from ..dataset.problem import Problem
from ..runtime import (
    RunContext,
    WorkFailure,
    cached_compile,
    config_digest,
    content_digest,
    unit_key,
)
from ..sim import run_differential
from .metrics import fix_rate

Verdict = Literal["pass", "syntax", "sim"]


@dataclass
class FixExperimentResult:
    """Per-entry fix counts for one configuration, and the iterations
    and trial of each success (so Fig. 7 can read the first trials)."""

    label: str
    trials: int
    #: entry index -> number of trials that fixed it
    fixed_counts: list[int] = field(default_factory=list)
    #: iterations used in each *successful* trial, entry-major
    iterations: list[int] = field(default_factory=list)
    #: the trial index of each of those successes
    success_trials: list[int] = field(default_factory=list)
    #: failed work units under ``on_error="collect"``, ordered by unit
    #: index (``entry * trials + trial``).  A failed trial counts as
    #: not-fixed in ``rate`` -- failure isolation must not inflate it.
    failures: list[WorkFailure] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return fix_rate((c, self.trials) for c in self.fixed_counts)


@dataclass(frozen=True)
class _FixTrial:
    """One (entry, trial) work unit: the configured fixer (picklable, so
    a process worker gets its own copy, once per chunk), the entry, and
    the trial."""

    fixer: RTLFixer
    code: str
    description: str
    entry: int
    trial: int


def _run_fix_trial(unit: _FixTrial) -> tuple[bool, int]:
    """Execute one trial: re-seed the fixer with the trial's seed and
    attempt the repair.  Top-level so process-pool workers can unpickle
    and run it."""
    fixer = unit.fixer
    outcome = fixer.with_seed(fixer.config.seed + unit.trial).fix(
        unit.code, description=unit.description
    )
    return outcome.success, outcome.iterations


def driver_context(ctx: Optional[RunContext]) -> ContextManager[RunContext]:
    """``ctx`` itself, or -- for a driver called without one -- a fresh
    :class:`~repro.runtime.RunContext` whose worker pool closes when the
    ``with`` block ends."""
    return RunContext() if ctx is None else nullcontext(ctx)


def run_stage(
    stage: str,
    fn: Callable[[Any], Any],
    units: list,
    key_parts: Callable[[Any], dict],
    ctx: Optional[RunContext] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    unit_progress: Optional[Callable[[int, int, Any], None]] = None,
    on_error: str = "raise",
) -> tuple[list[tuple[Any, Any]], list[WorkFailure]]:
    """Run ``fn`` over ``units`` as the durable stage ``stage``.

    Each unit is journaled under ``unit_key(stage, **key_parts(unit))``
    (computed only when ``ctx`` has run state), so a resumed run replays
    it instead of re-executing.  The units run on ``ctx``'s runner over
    ``jobs`` workers (without ``ctx``, on a pool of the call's own).
    ``progress(done, total)`` fires per completed unit;
    ``unit_progress(done, total, unit)`` replaces it for drivers that
    report per unit.  Returns the ``(unit, outcome)`` pairs that
    completed, in submission order, and the failures collected under
    ``on_error="collect"``.
    """
    tick = unit_progress
    if tick is None and progress is not None:
        tick = lambda done, total, unit: progress(done, total)  # noqa: E731
    with driver_context(ctx) as ctx:
        keys = None
        if ctx.state is not None:
            keys = [unit_key(stage, **key_parts(unit)) for unit in units]
        outcomes = ctx.map(
            fn, units, keys=keys, stage=stage, progress=tick,
            on_error=on_error, jobs=jobs,
        )
    completed, failures = [], []
    for unit, outcome in zip(units, outcomes):
        if isinstance(outcome, WorkFailure):
            failures.append(outcome)
        else:
            completed.append((unit, outcome))
    return completed, failures


def run_fix_experiment(
    dataset: SyntaxDataset,
    fixer: RTLFixer,
    repeats: int = 10,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: Optional[int] = None,
    on_error: str = "raise",
    ctx: Optional[RunContext] = None,
    stage: str = "fix",
) -> FixExperimentResult:
    """Run ``fixer`` over every dataset entry ``repeats`` times.

    ``progress`` fires per *trial* as ``progress(done, total)`` (long
    runs surface liveness at the finest granularity).  ``jobs`` (default:
    serial) fans trials across worker processes.  Every trial derives
    its randomness from the explicit ``(seed + trial)`` key and runs
    :meth:`RTLFixer.with_seed` of it -- same config, re-seeded injected
    model, same database -- in or out of process, so parallel results
    are bit-identical to serial ones.

    ``on_error`` selects failure handling: ``"raise"`` aborts on the
    first failed trial, ``"collect"`` records failed trials as
    :class:`~repro.runtime.WorkFailure` entries in ``result.failures``
    (counted as not-fixed) and keeps going.

    ``ctx`` (a :class:`~repro.runtime.RunContext`) adds durability and
    circuit breaking: each trial is keyed content-addressed (``stage`` x
    config digest x problem x seed), journaled as it completes, and
    replayed instead of re-executed on resume -- the final result is
    bit-identical to an uninterrupted run.  Under resume, ``progress``
    totals cover only the trials that still execute.
    """
    result = FixExperimentResult(label=fixer.config.label(), trials=repeats)
    entries = list(dataset)
    units = [
        _FixTrial(
            fixer=fixer, code=entry.code, description=entry.description,
            entry=index, trial=trial,
        )
        for index, entry in enumerate(entries)
        for trial in range(repeats)
    ]
    digest = config_digest(fixer.config)

    def key_parts(unit: _FixTrial) -> dict:
        # Stage x config digest (result-relevant fields only) x problem
        # id x code content address x the trial's derived seed.
        return dict(
            config=digest, problem=entries[unit.entry].problem_id,
            code=content_digest(unit.code), trial=unit.trial,
            seed=fixer.config.seed + unit.trial,
        )

    completed, result.failures = run_stage(
        stage, _run_fix_trial, units, key_parts, ctx=ctx, jobs=jobs,
        progress=progress, on_error=on_error,
    )
    counts = [0] * len(entries)
    for unit, (success, iterations) in completed:
        if success:
            counts[unit.entry] += 1
            result.iterations.append(iterations)
            result.success_trials.append(unit.trial)
    result.fixed_counts = counts
    return result


def evaluate_sample(raw: str, problem: Problem, samples: int = 32) -> Verdict:
    """Judge one raw LLM sample: does it compile, and does it match the
    golden model in differential simulation?"""
    return evaluate_code(rule_fix(raw).code, problem, samples=samples)


def evaluate_code(code: str, problem: Problem, samples: int = 32) -> Verdict:
    """Like :func:`evaluate_sample` but for already-rule-fixed code.

    Simulation runs inside the sandbox under the ambient budgets
    (``scoped(sim_limits=...)``): a candidate that exhausts them or crashes
    the simulator is classified ``"sim"`` -- a typed not-equivalent
    verdict, never an exception out of the evaluator."""
    result = cached_compile(code)
    if not result.ok or result.elaborated is None:
        return "syntax"
    reference = cached_compile(problem.reference).elaborated
    diff = run_differential(result.elaborated, reference, samples=samples)
    return "pass" if diff.passed else "sim"
