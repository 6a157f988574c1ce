"""The paper's prompts (Fig. 2) and the per-turn repair messages.

The paper runs everything against *gpt-3.5-turbo-16k-0613* via the
OpenAI API.  The real-API path is the pool
(:class:`~repro.llm.pool.PooledRepairModel`) over an
:class:`~repro.llm.backends.OpenAIChatClient` member; the messages it
sends are built here (:func:`build_repair_messages`, extended by
:func:`~repro.llm.backends.simulated.build_pool_messages`).
"""

from __future__ import annotations

from ..rag.database import GuidanceEntry
from .base import ChatMessage

ONE_SHOT_SYSTEM_PROMPT = (
    "Implement the Verilog module based on the following description. "
    "Assume that signals are positive clock/clk edge triggered unless "
    "otherwise stated."
)

REACT_SYSTEM_PROMPT = (
    "Solve a task with interleaving Thought, Action, Observation steps. "
    "Thought can reason about the current situation, and Action can be "
    "the following types:\n"
    "(1) Compiler[code], which compiles the input code and provide error "
    "message if there is syntax error.\n"
    "(2) Finish[answer], which returns the answer and finished the task.\n"
    "(3) RAG[logs], input the compiler log and retrieve expert solutions "
    "to fix the syntax error."
)


def build_repair_messages(
    code: str, feedback: str, guidance: list[GuidanceEntry]
) -> list[ChatMessage]:
    """The messages an API-backed session would send per turn."""
    guidance_text = "\n".join(
        f"- {g.guidance}" + (f"\n  e.g. {g.demonstration}" if g.demonstration else "")
        for g in guidance
    )
    user = (
        "What is the syntax error in the given Verilog module implementation "
        "and how to fix it?\n\n"
        f"```verilog\n{code}\n```\n\n"
        f"Compiler feedback:\n{feedback or 'Correct the syntax error in the code.'}\n"
    )
    if guidance_text:
        user += f"\nHuman expert guidance:\n{guidance_text}\n"
    user += "\nRespond with a Thought line and the full corrected module."
    return [
        ChatMessage(role="system", content=REACT_SYSTEM_PROMPT),
        ChatMessage(role="user", content=user),
    ]
