"""The One-shot baseline (paper §3.2, Fig. 2a).

A single turn of feedback: compile once, hand the model the code, the
compiler message (and retrieved guidance when RAG is enabled), take one
revised implementation, and compile it once more.  No iterative loop, no
reasoning/action decomposition.
"""

from __future__ import annotations

from typing import Optional

from ..diagnostics import Compiler
from ..llm.base import RepairModel
from ..rag.retrievers import Retriever
from .react import AgentResult, record_rule_fix
from ..repair.transcript import Transcript


class OneShotAgent:
    """Single-turn repair baseline.

    Both compiles (the original and the one revision) go through the
    shared :class:`~repro.diagnostics.Compiler` and its compile cache.
    """

    def __init__(
        self,
        model: RepairModel,
        compiler: Compiler,
        retriever: Optional[Retriever] = None,
        apply_rule_fix: bool = True,
    ):
        self.model = model
        self.compiler = compiler
        self.retriever = retriever
        self.apply_rule_fix = apply_rule_fix

    def run(self, code: str, description: str = "") -> AgentResult:
        """Single-turn repair: one feedback round, one revision."""
        from ..core.rulefix import rule_fix  # deferred: avoids an import
        # cycle (repro.core.fixer builds agents)

        transcript = Transcript()
        rule_fixed = False
        if self.apply_rule_fix:
            rule_result = rule_fix(code)
            rule_fixed = record_rule_fix(transcript, code, rule_result)
            code = rule_result.code

        result = self.compiler.compile(code)
        if result.ok:
            return AgentResult(success=True, final_code=code, iterations=0,
                               transcript=transcript, rule_fixed=rule_fixed)

        feedback = result.log
        guidance = []
        # As in ReActAgent: crashed compiles are usable feedback, but
        # internal-error logs have no RAG guidance to retrieve.
        if (
            self.retriever is not None
            and feedback
            and not getattr(result, "crashed", False)
        ):
            guidance = [r.entry for r in self.retriever.retrieve(feedback)]

        session = self.model.start(
            code, flavor=self.compiler.flavor, use_rag=self.retriever is not None
        )
        step = session.step(code, feedback, guidance)
        final = self.compiler.compile(step.code)
        transcript.add(
            thought=step.thought,
            action="Compiler",
            action_input=step.code.strip().split("\n")[0],
            observation=final.log,
        )
        return AgentResult(
            success=final.ok, final_code=step.code, iterations=1,
            transcript=transcript, rule_fixed=rule_fixed,
        )
