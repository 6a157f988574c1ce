"""The One-shot baseline (paper §3.2, Fig. 2a).

A single turn of feedback: compile once, hand the model the code, the
compiler message (and retrieved guidance when RAG is enabled), take one
revised implementation, and compile it once more.  No iterative loop, no
reasoning/action decomposition.

This is the ReAct agent's :class:`~repro.repair.engine.RepairEngine`
assembly stopped after one compile-and-revise round: one iteration, a
one-line action input, no Finish turns, and retrieval that feeds only
the prompt (no RAG turn is recorded).  So it shares the engine's
service seams, the ambient deadline check and the ``on_turn`` observer.
``tests/data/repair_digest_oneshot.sha256``, recorded from the earlier
hand-rolled loop, pins its transcripts.
"""

from __future__ import annotations

from typing import Optional

from ..diagnostics import Compiler
from ..llm.base import RepairModel
from ..rag.retrievers import Retriever
from ..repair import EngineConfig
from .react import ReActAgent

#: The One-shot flavor of the engine loop: one Compiler turn showing
#: the revision's first line, no Finish turns.
_ONESHOT_CONFIG = EngineConfig(
    action="Compiler",
    max_iterations=1,
    head_lines=1,
    deadline_stage="oneshot-iteration",
)


class OneShotAgent(ReActAgent):
    """Single-turn repair baseline.

    Both compiles (the original and the one revision) go through the
    shared :class:`~repro.diagnostics.Compiler` and its compile cache.
    """

    engine_config = _ONESHOT_CONFIG
    rag_turn = False

    def __init__(
        self,
        model: RepairModel,
        compiler: Compiler,
        retriever: Optional[Retriever] = None,
        apply_rule_fix: bool = True,
    ):
        super().__init__(
            model, compiler, retriever, max_iterations=1,
            apply_rule_fix=apply_rule_fix,
        )
