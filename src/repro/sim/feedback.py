"""Simulation-error feedback generation (paper §5).

Runs the candidate beside the golden reference while tracing outputs,
then formats the result the way the paper describes: a summary of the
output error count plus a text-formatted waveform-like comparison of the
erroneous module's outputs against the golden solution's.  The run is
the differential testbench's (:mod:`repro.sim.testbench`): the same
stimulus schedule, memo path and reference tape, observed through two
:class:`~repro.sim.trace.Trace` recordings instead of a mismatch count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..scope import current
from ..verilog.elaborate import ElabDesign
from .engine import make_simulator
from .limits import DEFAULT_SIM_LIMITS, UNTRACKED, SimLimits, SimLimitTracker
from .sandbox import SimVerdict, run_sandboxed
from .testbench import drive, memoized, reference_run
from .trace import Trace, render_comparison

#: Samples the §5 waveform comparison shows (the feedback harness's
#: recording cap in :func:`~repro.sim.testbench.memoized`).
MAX_SHOWN = 16


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
    engine: str = "compiled",
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
    if sim_limits is None:
        sim_limits = current().get("sim_limits", DEFAULT_SIM_LIMITS)
    tracker = sim_tracker
    if tracker is None and sim_limits is not UNTRACKED:
        tracker = SimLimitTracker(sim_limits)
    cand_sim = make_simulator(
        candidate, engine=engine, sim_limits=sim_limits, sim_tracker=tracker,
    )
    ref_sim = reference_run(
        reference, samples, seed, engine,
        sim_limits if sim_tracker is None else sim_tracker.limits, tracker,
    )
    outputs = [p.name for p in ref_sim.outputs]
    cand_trace = Trace(signals=list(outputs), tracker=tracker)
    ref_trace = Trace(signals=list(outputs), tracker=tracker)
    for _ in drive(cand_sim, ref_sim, samples, seed):
        if tracker is not None:
            tracker.phase = "trace"
        cand_trace.record(cand_sim)
        ref_trace.record(ref_sim)
        if tracker is not None:
            tracker.phase = "cycle"
    return cand_trace, ref_trace


def _failed_feedback(verdict: SimVerdict, samples: int) -> SimFeedback:
    # Simulation blow-ups (and injected faults) are feedback too.
    return SimFeedback(
        mismatch_count=samples, samples=samples,
        text=f"Simulation failed to run: {verdict.detail}",
        verdict=verdict,
    )


def make_sim_feedback(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    engine: str = "compiled",
    sim_limits: Optional[SimLimits] = None,
) -> SimFeedback:
    """The feedback message described in §5: error count summary plus the
    waveform-style expected-vs-actual comparison of the first
    :data:`MAX_SHOWN` samples.

    Memoized in the active :class:`~repro.sim.verdict.VerdictCache` the
    same way :func:`~repro.sim.testbench.run_differential` verdicts are
    (:func:`~repro.sim.testbench.memoized`): feedback is a pure function
    of the design digests and the stimulus parameters.  A budget
    overflow or crash report is environment-dependent feedback, not a
    content-addressed fact, so it is never memoized."""
    return memoized(
        "feedback", _make_sim_feedback_uncached, _failed_feedback,
        candidate, reference, samples, seed, MAX_SHOWN, engine, sim_limits,
    )


def cached_sim_feedback(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    engine: str = "compiled",
    sim_limits: Optional[SimLimits] = None,
) -> SimFeedback:
    """:func:`make_sim_feedback` without the chaos seam: the active
    verdict cache's entry for the triple, simulated on a miss.  The
    trace-diff localizer reads the oracle's feedback through here."""
    return memoized(
        "feedback", _make_sim_feedback_uncached, _failed_feedback,
        candidate, reference, samples, seed, MAX_SHOWN, engine, sim_limits,
        chaos=False,
    )


def _make_sim_feedback_uncached(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    max_shown: int,
    engine: str,
    sim_limits: SimLimits,
) -> SimFeedback:
    traces, verdict = run_sandboxed(
        lambda: simulate_with_traces(
            candidate, reference, samples=samples, seed=seed,
            engine=engine, sim_limits=sim_limits,
        ),
        engine,
    )
    if verdict is not None:
        return _failed_feedback(verdict, samples)
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
