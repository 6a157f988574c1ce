"""Simulation-error debugging agent (paper §5 extension).

Adapts the ReAct loop to *functional* bugs: since the repair-engine
refactor this is a thin configuration of
:class:`~repro.repair.engine.RepairEngine` -- a
:class:`~repro.repair.oracles.SimOracle` (sandboxed differential
simulation against the golden reference, mismatch count as the score)
with hill-climbing acceptance: a candidate edit is accepted only if it
strictly reduces the mismatch count, and the run finishes when the
differential testbench passes.  Transcripts and results are
bit-identical to the pre-refactor hand-rolled loop.

The engine's shared service seams apply here too (they were ReAct-only
before the refactor): an ambient request
:class:`~repro.service.deadline.Deadline` stops a functional repair
mid-run with a 504, and ``on_turn`` streams per-iteration progress.

By default the model is the direct
:class:`~repro.llm.simfix.SimulatedLogicDebugger`; under a scoped
``llm_routing`` spec (:mod:`repro.scope`) it becomes the pool-routed :class:`~repro.llm.simfix.PooledLogicModel`, so tier
escalation and token accounting (``report.llm``) cover functional
repair like they cover syntax repair.

Note the evaluation asymmetry the paper glosses over: judging functional
correctness requires the benchmark's golden model, so this agent (like
the paper's preliminary study) is a *benchmark-harness* tool, not a
deployable flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..diagnostics import Compiler
from ..repair import LogicModelProposer, RepairEngine, SimOracle
from ..repair.functional import FUNCTIONAL_CONFIG, default_logic_model
from ..repair.transcript import Transcript, Turn


@dataclass
class SimFixResult:
    success: bool
    final_code: str
    iterations: int
    initial_mismatches: int = 0
    final_mismatches: int = 0
    transcript: Transcript = field(default_factory=Transcript)


class SimDebugAgent:
    """Iterative logic debugging against a golden reference."""

    def __init__(
        self,
        model=None,
        max_iterations: int = 8,
        sim_samples: int = 16,
        sim_limits=None,
        on_turn: Optional[Callable[[Turn], None]] = None,
    ):
        self.model = model if model is not None else default_logic_model()
        self.max_iterations = max_iterations
        self.sim_samples = sim_samples
        #: Sandbox budgets for every simulation this agent runs (None =
        #: ambient default).  A runaway or trace-bombing candidate comes
        #: back as "Simulation failed to run: ..." feedback, never a hang.
        self.sim_limits = sim_limits
        #: Compiler for every candidate; revisions seen before are
        #: served from the whole-result compile cache.
        self.compiler = Compiler()
        #: Progress observer (see :class:`~repro.agents.react.ReActAgent`):
        #: every transcript turn, as recorded.  May be (re)assigned
        #: after construction; must never raise.
        self.on_turn = on_turn

    def run(
        self, code: str, reference_code: str, difficulty: str = "hard"
    ) -> SimFixResult:
        engine = RepairEngine(
            oracle=SimOracle(
                reference_code, compiler=self.compiler,
                samples=self.sim_samples, sim_limits=self.sim_limits,
            ),
            proposer=LogicModelProposer(self.model, difficulty),
            config=replace(FUNCTIONAL_CONFIG, max_iterations=self.max_iterations),
            on_turn=self.on_turn,
        )
        outcome = engine.run(code)
        return SimFixResult(
            success=outcome.success, final_code=outcome.final_code,
            iterations=outcome.iterations,
            initial_mismatches=outcome.initial_score,
            final_mismatches=outcome.final_score,
            transcript=outcome.transcript,
        )
