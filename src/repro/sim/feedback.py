"""Simulation-error feedback generation (paper §5).

Runs the differential testbench while tracing outputs, then formats the
result the way the paper describes: a summary of the output error count
plus a text-formatted waveform-like comparison of the erroneous module's
outputs against the golden solution's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..scope import current
from ..verilog.elaborate import ElabDesign
from ..verilog.limits import ResourceLimits
from .engine import DEFAULT_SIM_ENGINE, make_simulator
from .limits import DEFAULT_SIM_LIMITS, UNTRACKED, SimLimits, SimLimitTracker
from .sandbox import SimVerdict, run_sandboxed
from .testbench import (
    CLOCK_NAMES,
    RESET_NAMES,
    _chaos_verdict,
    _random_vector,
    reference_run,
)
from .trace import Trace, render_comparison
from .values import Logic
from .verdict import DEFAULT_VERDICT_CACHE, verdict_key


@dataclass
class SimFeedback:
    """Structured simulation feedback for the debugging agent."""

    mismatch_count: int
    samples: int
    text: str
    #: Sandbox classification of the underlying run; ``limit``/``crashed``
    #: feedback is still feedback (the agent sees the reason as text) but
    #: is never memoized.
    verdict: Optional[SimVerdict] = None
    #: One ``(signal, mismatching samples, first mismatching sample)``
    #: per traced output (the first index is the trace length when none
    #: mismatch); ``None`` when the run did not complete.
    signal_diffs: Optional[tuple[tuple[str, int, int], ...]] = None

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0


def simulate_with_traces(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
    sim_tracker: Optional[SimLimitTracker] = None,
) -> tuple[Trace, Trace]:
    """Run both designs on identical stimulus, tracing every output.

    Both simulators and both traces share one
    :class:`~repro.sim.limits.SimLimitTracker` budget pool (pass
    ``sim_tracker`` to supply it), so trace bombs are stopped by the
    trace-entry/byte budgets rather than by memory exhaustion.  The
    reference is replayed from its tape when the active verdict cache
    holds one (:func:`~repro.sim.testbench.reference_run`).
    """
    scope = current()
    if engine is None:
        engine = scope.get("sim_engine", DEFAULT_SIM_ENGINE)
    effective_sim = sim_limits
    if effective_sim is None:
        effective_sim = scope.get("sim_limits", DEFAULT_SIM_LIMITS)
    tracker = sim_tracker
    if tracker is None and effective_sim is not UNTRACKED:
        tracker = SimLimitTracker(effective_sim)
    cand_sim = make_simulator(
        candidate, engine=engine, limits=limits,
        sim_limits=effective_sim, sim_tracker=tracker,
    )
    ref_sim = reference_run(
        "feedback", reference, samples, seed, engine, limits,
        effective_sim if sim_tracker is None else sim_tracker.limits,
        tracker,
    )
    rng = random.Random(seed)

    # Lazy: the service package sits above the sim package.
    from ..service.deadline import current_deadline

    deadline = current_deadline()

    inputs = ref_sim.inputs
    clock = next((p.name for p in inputs if p.name in CLOCK_NAMES), None)
    resets = [p.name for p in inputs if p.name in RESET_NAMES]
    data = [p for p in inputs if p.name != clock and p.name not in resets]
    outputs = [p.name for p in ref_sim.outputs]

    cand_trace = Trace(signals=list(outputs), tracker=tracker)
    ref_trace = Trace(signals=list(outputs), tracker=tracker)

    for cycle in range(samples):
        if deadline is not None:
            deadline.check(stage="sim-cycle")
        stimulus: dict[str, Logic | int] = {}
        in_reset = bool(resets) and cycle < 2
        for name in resets:
            active = 1 if not name.endswith("n") else 0
            stimulus[name] = active if in_reset else active ^ 1
        for port in data:
            stimulus[port.name] = _random_vector(rng, port.width)
        if clock is None:
            cand_sim.step(dict(stimulus))
            ref_sim.step(dict(stimulus))
        else:
            stimulus[clock] = 0
            cand_sim.step(dict(stimulus))
            ref_sim.step(dict(stimulus))
            cand_sim.step({clock: 1})
            ref_sim.step({clock: 1})
        if not in_reset:
            if tracker is not None:
                tracker.phase = "trace"
            cand_trace.record(cand_sim)
            ref_trace.record(ref_sim)
            if tracker is not None:
                tracker.phase = "cycle"
    ref_sim.completed()
    return cand_trace, ref_trace


def make_sim_feedback(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    max_shown: int = 16,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> SimFeedback:
    """The feedback message described in §5: error count summary plus the
    waveform-style expected-vs-actual comparison.

    Memoized in the active :class:`~repro.sim.verdict.VerdictCache` the
    same way :func:`~repro.sim.testbench.run_differential` verdicts are:
    feedback is a pure function of the design digests and the stimulus
    parameters.  The sandbox budgets join the key, and only ``ok``/
    ``fail`` outcomes are memoized -- a budget overflow or crash report
    is environment-dependent feedback, not a content-addressed fact."""
    chaos = _chaos_verdict(
        "sim.feedback",
        f"{getattr(candidate, 'digest', None)}|"
        f"{getattr(reference, 'digest', None)}|{samples}|{seed}",
        engine or current().get("sim_engine", DEFAULT_SIM_ENGINE),
    )
    if chaos is not None:
        return SimFeedback(
            mismatch_count=samples, samples=samples,
            text=f"Simulation failed to run: {chaos.detail}",
            verdict=chaos,
        )
    return cached_sim_feedback(
        candidate, reference, samples, seed, max_shown, engine, limits,
        sim_limits,
    )


def cached_sim_feedback(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    max_shown: int = 16,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> SimFeedback:
    """:func:`make_sim_feedback` without the chaos seam: the active
    verdict cache's entry for the triple, simulated on a miss.  The
    trace-diff localizer reads the oracle's feedback through here."""
    scope = current()
    effective_engine = engine
    if effective_engine is None:
        effective_engine = scope.get("sim_engine", DEFAULT_SIM_ENGINE)
    effective_sim = sim_limits
    if effective_sim is None:
        effective_sim = scope.get("sim_limits", DEFAULT_SIM_LIMITS)
    cache = scope.get("verdict_cache", DEFAULT_VERDICT_CACHE)
    key = None
    if cache is not None:
        key = verdict_key(
            "feedback",
            (getattr(candidate, "digest", None), getattr(reference, "digest", None)),
            effective_engine,
            limits,
            samples, seed, max_shown, repr(effective_sim),
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
    feedback = _make_sim_feedback_uncached(
        candidate, reference, samples, seed, max_shown,
        effective_engine, limits, effective_sim,
    )
    if cache is not None and feedback.verdict is not None and feedback.verdict.cacheable:
        cache.put(key, feedback)
    return feedback


def _make_sim_feedback_uncached(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    max_shown: int,
    engine: str,
    limits: Optional[ResourceLimits],
    sim_limits: SimLimits,
) -> SimFeedback:
    traces, verdict = run_sandboxed(
        lambda: simulate_with_traces(
            candidate, reference, samples=samples, seed=seed,
            engine=engine, limits=limits, sim_limits=sim_limits,
        ),
        engine,
    )
    if verdict is not None:  # simulation blow-ups are feedback too
        return SimFeedback(
            mismatch_count=samples, samples=samples,
            text=f"Simulation failed to run: {verdict.detail}",
            verdict=verdict,
        )
    cand_trace, ref_trace = traces

    mismatches = 0
    signal_diffs = []
    for name in ref_trace.signals:
        count = 0
        first = ref_trace.length
        for i in range(ref_trace.length):
            exp = ref_trace.value_at(name, i)
            act = cand_trace.value_at(name, i)
            if exp is None or act is None or not exp.same_as(act):
                if not count:
                    first = i
                count += 1
        mismatches += count
        signal_diffs.append((name, count, first))

    comparison = render_comparison(
        cand_trace, ref_trace, max_samples=max_shown
    )
    text = (
        f"Simulation produced {mismatches} mismatching output sample(s) "
        f"out of {ref_trace.length * max(len(ref_trace.signals), 1)}.\n"
        f"{comparison}"
    )
    return SimFeedback(
        mismatch_count=mismatches,
        samples=ref_trace.length * max(len(ref_trace.signals), 1),
        text=text,
        verdict=SimVerdict(
            category="ok" if mismatches == 0 else "fail", engine=engine
        ),
        signal_diffs=tuple(signal_diffs),
    )
