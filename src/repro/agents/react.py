"""The ReAct debugging agent (paper §3.2).

Since the repair-engine refactor this agent is a thin configuration of
the generic :class:`~repro.repair.engine.RepairEngine`: a
:class:`~repro.repair.oracles.CompileOracle` over the session-backed
compiler, a :class:`~repro.repair.localizers.DiagnosticLocalizer` for
the RAG action, an :class:`~repro.repair.proposers.LLMProposer` over
the repair-model surface and the rule-based pre-fix prefix.  Its
transcripts, results and digests are bit-identical to the pre-refactor
hand-rolled loop (``scripts/repair_diff.py`` prosecutes this against
:mod:`repro.repair.legacy`).

Service integration comes from the engine's shared seams: the ambient
request :class:`~repro.service.deadline.Deadline` is checked at the top
of every iteration (an over-budget repair stops *mid-run* with
:class:`~repro.errors.DeadlineExceededError`), and every transcript
turn flows through the optional ``on_turn`` observer, which the repair
server streams to clients as per-iteration SSE progress events.  Both
are no-ops for batch runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..diagnostics import Compiler
from ..llm.base import RepairModel
from ..rag.retrievers import Retriever
from ..repair import (
    CompileOracle,
    DiagnosticLocalizer,
    EngineConfig,
    LLMProposer,
    RepairEngine,
    RuleFixProposer,
    record_rule_fix,  # re-exported: OneShotAgent shares the pre-pass  # noqa: F401
)
from ..repair.base import _head  # noqa: F401  (compat re-export)
from ..repair.transcript import Transcript, Turn

DEFAULT_MAX_ITERATIONS = 10

#: The ReAct flavor of the engine loop: Compiler action, trust the
#: model's every revision ("always" accept), Finish turns on success,
#: stop once a verified step declared itself done.
_REACT_CONFIG = EngineConfig(
    action="Compiler",
    head_lines=3,
    accept="always",
    finish_thought="The compiler reports no errors; the syntax "
    "error is resolved.",
    initial_finish=lambda rule_fixed: (
        "The rule-based fixes made the module compile cleanly; "
        "no model repair needed."
        if rule_fixed
        else "The module compiles cleanly; no repair needed."
    ),
    stop_after_done=True,
    deadline_stage="react-iteration",
)


@dataclass
class AgentResult:
    """Outcome of one debugging run."""

    success: bool
    final_code: str
    #: Number of code revisions submitted to the compiler (0 when the
    #: input already compiled).
    iterations: int
    transcript: Transcript = field(default_factory=Transcript)
    #: True when the rule-based pre-fixer materially changed the code
    #: before any model involvement.  A success with ``iterations == 0``
    #: and ``rule_fixed`` is a *rule-based repair*, not a clean input --
    #: Table 1 accounting must not conflate the two.
    rule_fixed: bool = False

    @property
    def gave_up(self) -> bool:
        return not self.success


class ReActAgent:
    """LLM-as-autonomous-agent with Compiler / RAG / Finish actions.

    The agent holds one :class:`~repro.diagnostics.Compiler` for its
    whole run; a revision compiled before (in this run or an earlier
    trial) is served from the whole-result compile cache.
    """

    def __init__(
        self,
        model: RepairModel,
        compiler: Compiler,
        retriever: Optional[Retriever] = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        apply_rule_fix: bool = True,
        on_turn: Optional[Callable[[Turn], None]] = None,
    ):
        self.model = model
        self.compiler = compiler
        self.retriever = retriever
        self.max_iterations = max_iterations
        self.apply_rule_fix = apply_rule_fix
        #: Progress observer: called with every transcript Turn the
        #: moment it is recorded (the repair service streams these as
        #: SSE events).  May be (re)assigned after construction; must
        #: never raise -- it runs inside the repair loop.
        self.on_turn = on_turn

    def _engine(self) -> RepairEngine:
        """Assemble the ReAct configuration of the repair engine.

        Built per run (cheap: plain object composition) so post-
        construction reassignment of ``on_turn`` -- the repair server
        does this -- is honoured."""
        return RepairEngine(
            oracle=CompileOracle(self.compiler),
            proposer=LLMProposer(
                self.model, flavor=self.compiler.flavor,
                use_rag=self.retriever is not None,
            ),
            localizer=(
                DiagnosticLocalizer(self.retriever)
                if self.retriever is not None else None
            ),
            config=replace(_REACT_CONFIG, max_iterations=self.max_iterations),
            prefix=RuleFixProposer() if self.apply_rule_fix else None,
            on_turn=self.on_turn,
        )

    def run(self, code: str, description: str = "") -> AgentResult:
        """Debug ``code`` with the ReAct loop until it compiles or the
        iteration budget runs out."""
        outcome = self._engine().run(code)
        return AgentResult(
            success=outcome.success, final_code=outcome.final_code,
            iterations=outcome.iterations, transcript=outcome.transcript,
            rule_fixed=outcome.rule_fixed,
        )
