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

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Literal, Optional

from ..core.config import RTLFixerConfig
from ..core.fixer import RTLFixer
from ..core.rulefix import rule_fix
from ..dataset.curate import SyntaxDataset
from ..dataset.problem import Problem
from ..llm.base import RepairModel
from ..runtime import (
    ParallelRunner,
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
    """Per-entry fix counts for one configuration."""

    label: str
    trials: int
    #: entry index -> number of trials that fixed it
    fixed_counts: list[int] = field(default_factory=list)
    #: iterations used in each *successful* trial (feeds Fig. 7)
    iterations: list[int] = field(default_factory=list)
    #: failed work units under ``on_error="collect"``, ordered by unit
    #: index (``entry * trials + trial``).  A failed trial counts as
    #: not-fixed in ``rate`` -- failure isolation must not inflate it.
    failures: list[WorkFailure] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return fix_rate((c, self.trials) for c in self.fixed_counts)


@dataclass(frozen=True)
class _FixTrial:
    """One (entry, trial) work unit, reconstructible in a worker.

    ``model`` carries a caller-injected repair model (chaos wrappers,
    custom backends) into the worker; ``None`` means the worker builds
    the config-default model itself.
    """

    config: RTLFixerConfig
    code: str
    description: str
    entry: int
    trial: int
    model: Optional[RepairModel] = None


def _run_fix_trial(unit: _FixTrial) -> tuple[bool, int]:
    """Execute one trial: build the configured fixer with the trial's
    seed and attempt the repair.  Top-level (and config-addressed) so
    process-pool workers can unpickle and run it."""
    seed = unit.config.seed + unit.trial
    model = unit.model
    if model is not None:
        reseed = getattr(model, "with_seed", None)
        if callable(reseed):
            model = reseed(seed)
    fixer = RTLFixer(config=replace(unit.config, seed=seed), model=model)
    outcome = fixer.fix(unit.code, description=unit.description)
    return outcome.success, outcome.iterations


def run_stage(
    stage: str,
    fn: Callable[[Any], Any],
    units: list,
    key_parts: Callable[[Any], dict],
    ctx: Optional[RunContext] = None,
    runner: Optional[ParallelRunner] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    unit_progress: Optional[Callable[[int, int, Any], None]] = None,
    on_error: str = "raise",
) -> tuple[list[tuple[Any, Any]], list[WorkFailure]]:
    """Run ``fn`` over ``units`` as the durable stage ``stage``.

    Each unit is journaled under ``unit_key(stage, **key_parts(unit))``
    (computed only when ``ctx`` has run state), so a resumed run replays
    it instead of re-executing.  ``runner`` defaults to a
    :class:`~repro.runtime.ParallelRunner` over ``jobs`` workers.
    ``progress(done, total)`` fires per completed unit;
    ``unit_progress(done, total, unit)`` replaces it for drivers that
    report per unit.  Returns the ``(unit, outcome)`` pairs that
    completed, in submission order, and the failures collected under
    ``on_error="collect"``.
    """
    if ctx is None:
        ctx = RunContext()
    if runner is None:
        runner = ParallelRunner(jobs=jobs)
    keys = None
    if ctx.state is not None:
        keys = [unit_key(stage, **key_parts(unit)) for unit in units]
    tick = unit_progress
    if tick is None and progress is not None:
        tick = lambda done, total, unit: progress(done, total)  # noqa: E731
    outcomes = ctx.map(
        runner, fn, units, keys=keys, stage=stage, progress=tick,
        on_error=on_error,
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
    runner: Optional[ParallelRunner] = None,
    on_error: Optional[str] = None,
    ctx: Optional[RunContext] = None,
    stage: str = "fix",
) -> FixExperimentResult:
    """Run ``fixer`` over every dataset entry ``repeats`` times.

    ``progress`` fires per *trial* as ``progress(done, total)`` (long
    runs surface liveness at the finest granularity).  ``jobs`` (default:
    ``fixer.config.jobs``) fans trials across a
    :class:`~repro.runtime.ParallelRunner`; pass ``runner`` to control
    the backend.  Every trial derives its randomness from the explicit
    ``(seed + trial)`` key, so parallel results are bit-identical to
    serial ones.  A caller-injected ``model`` is carried into parallel
    workers (and re-seeded per trial); a custom ``database`` still only
    takes effect on the serial path.

    ``on_error`` (default: ``fixer.config.on_error``) selects failure
    handling: ``"raise"`` aborts on the first failed trial, ``"collect"``
    records failed trials as :class:`~repro.runtime.WorkFailure` entries
    in ``result.failures`` (counted as not-fixed) and keeps going.

    ``ctx`` (a :class:`~repro.runtime.RunContext`) adds durability: each
    trial is keyed content-addressed (``stage`` x config digest x
    problem x seed), journaled as it completes, and replayed instead of
    re-executed on resume -- the final result is bit-identical to an
    uninterrupted run.  With no ``ctx``, ``fixer.config.run_dir`` /
    ``breaker_threshold`` stand up a local one (durable standalone
    runs): the run directory is pinned by a manifest (stage + config
    digest), so re-running with the same config resumes implicitly and
    a changed config raises :class:`~repro.errors.CheckpointError`
    instead of mixing journals.  Under resume, ``progress`` totals
    cover only the trials that still execute.
    """
    if on_error is None:
        on_error = fixer.config.on_error
    local_state = None
    if ctx is None:
        breaker = None
        if fixer.config.breaker_threshold > 0:
            from ..runtime import CircuitBreaker

            breaker = CircuitBreaker(fixer.config.breaker_threshold)
        if fixer.config.run_dir is not None:
            from ..runtime import RunState

            local_state = RunState(fixer.config.run_dir)
            try:
                # Pin the run's identity just like the CLI path does:
                # reusing the directory with a changed result-relevant
                # config fails fast instead of silently appending
                # mismatched trials to the same journal.  A matching
                # config resumes implicitly (trial keys are content-
                # addressed, so replay is bit-identical by construction).
                local_state.ensure_manifest(
                    {
                        "kind": "fix_experiment",
                        "stage": stage,
                        "config": config_digest(fixer.config),
                    },
                    resume=True,
                )
            except BaseException:
                local_state.close()
                raise
        ctx = RunContext(state=local_state, breaker=breaker)
    result = FixExperimentResult(label=fixer.config.label(), trials=repeats)
    entries = list(dataset)
    if runner is None:
        runner = ParallelRunner(jobs=fixer.config.jobs if jobs is None else jobs)

    # getattr: duck-typed fixer stands-ins (tests) may lack the property,
    # and the serial path below never needs it.
    injected = getattr(fixer, "injected_model", None)
    units = [
        _FixTrial(
            config=fixer.config, code=entry.code, description=entry.description,
            entry=index, trial=trial, model=injected,
        )
        for index, entry in enumerate(entries)
        for trial in range(repeats)
    ]
    digest = config_digest(fixer.config) if ctx.state is not None else None

    def key_parts(unit: _FixTrial) -> dict:
        # Stage x config digest (result-relevant fields only) x problem
        # id x code content address x the trial's derived seed.
        return dict(
            config=digest, problem=entries[unit.entry].problem_id,
            code=content_digest(unit.code), trial=unit.trial,
            seed=fixer.config.seed + unit.trial,
        )

    if runner.is_serial:
        # The in-process path runs through the *same* fixer object (a
        # caller-injected model or database is honoured directly).
        def run_unit(unit: _FixTrial) -> tuple[bool, int]:
            outcome = fixer.with_seed(fixer.config.seed + unit.trial).fix(
                unit.code, description=unit.description
            )
            return outcome.success, outcome.iterations

        fn = run_unit
    else:
        fn = _run_fix_trial
    try:
        completed, result.failures = run_stage(
            stage, fn, units, key_parts, ctx=ctx, runner=runner,
            progress=progress, on_error=on_error,
        )
    finally:
        if local_state is not None:
            local_state.close()

    counts = [0] * len(entries)
    for unit, (success, iterations) in completed:
        if success:
            counts[unit.entry] += 1
            result.iterations.append(iterations)
    result.fixed_counts = counts
    return result


def evaluate_sample(
    raw: str, problem: Problem, samples: int = 32, sim_limits=None
) -> Verdict:
    """Judge one raw LLM sample: does it compile, and does it match the
    golden model in differential simulation?"""
    return evaluate_code(
        rule_fix(raw).code, problem, samples=samples, sim_limits=sim_limits
    )


def evaluate_code(
    code: str, problem: Problem, samples: int = 32, sim_limits=None
) -> Verdict:
    """Like :func:`evaluate_sample` but for already-rule-fixed code.

    Simulation runs inside the sandbox (``sim_limits``, default the
    ambient budgets): a candidate that exhausts its budgets or crashes
    the simulator is classified ``"sim"`` -- a typed not-equivalent
    verdict, never an exception out of the evaluator."""
    result = cached_compile(code)
    if not result.ok or result.elaborated is None:
        return "syntax"
    reference = cached_compile(problem.reference).elaborated
    diff = run_differential(
        result.elaborated, reference, samples=samples, sim_limits=sim_limits
    )
    return "pass" if diff.passed else "sim"
