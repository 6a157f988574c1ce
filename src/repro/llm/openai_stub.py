"""The paper's prompts (Fig. 2), the per-turn repair messages and the
chat adapter that sends them.

The paper runs everything against *gpt-3.5-turbo-16k-0613* via the
OpenAI API.  The real-API path is a pool member
(:class:`~repro.llm.pool.PoolMember`) whose model is a
:class:`ChatRepairModel` over an
:class:`~repro.llm.backends.OpenAIChatClient`.  Wire format, per turn:

* request -- :func:`build_pool_messages`: the two paper-prompt messages
  of :func:`build_repair_messages` plus one extra ``system`` header
  carrying the pooled session token, feedback flavour and RAG bit;
* reply -- :func:`render_repair_reply`: a ReAct-shaped completion
  (``Thought:`` line, ``Action: Finish[answer]``/``Compiler[code]``, a
  ``Used-Guidance`` count, and the full revised module in a
  ```` ```verilog ```` fence), parsed back by :func:`parse_pool_reply`.

The pool books every member's turn from this text: the prompt from
:func:`build_pool_messages`, the completion from the reply a chat
member received or, for an in-process member, from
:func:`render_repair_reply` of its step.
"""

from __future__ import annotations

import re
from typing import Optional

from ..rag.database import GuidanceEntry
from .base import ChatMessage, LLMClient, RepairStep

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

_REPLY_CODE_RE = re.compile(r"```verilog\n(.*)\n```\s*\Z", re.DOTALL)
_USED_GUIDANCE_RE = re.compile(r"Used-Guidance:\s*(\d+)")
_THOUGHT_RE = re.compile(r"Thought:\s*(.*)")


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


def build_pool_messages(
    code: str,
    feedback: str,
    guidance: list[GuidanceEntry],
    *,
    session: str,
    flavor: str,
    use_rag: bool,
) -> list[ChatMessage]:
    """The pooled repair turn as raw chat messages.

    Identical to the paper prompts plus one session-header system
    message, inserted between the ReAct system prompt and the user
    turn, that names the debugging conversation the turn belongs to.
    """
    base = build_repair_messages(code, feedback, guidance)
    header = ChatMessage(
        role="system",
        content=(
            f"X-Repro-Pool-Session: token={session} "
            f"flavor={flavor} rag={int(use_rag)}"
        ),
    )
    return [base[0], header, *base[1:]]


def render_repair_reply(step: RepairStep) -> str:
    """One model turn as completion text.

    Thoughts are flattened to one line so ``Thought:`` parses with a
    line-anchored regex.
    """
    action = "Finish[answer]" if step.declared_done else "Compiler[code]"
    thought = step.thought.replace("\n", " ")
    return (
        f"Thought: {thought}\n"
        f"Action: {action}\n"
        f"Used-Guidance: {len(step.used_guidance)}\n"
        f"```verilog\n{step.code}\n```"
    )


def parse_pool_reply(
    reply: str, guidance: Optional[list[GuidanceEntry]] = None
) -> RepairStep:
    """Reply text back into a :class:`~repro.llm.base.RepairStep`.

    ``used_guidance`` is reconstructed as a prefix of the *caller's*
    guidance list, and the step keeps ``reply`` as the text it was
    parsed from.  A reply with no code fence -- a garbled completion --
    becomes a step whose code *is* the garbled text: the compiler then
    rejects it, which keeps the agent loop honest instead of silently
    re-submitting the previous candidate.
    """
    thought_match = _THOUGHT_RE.search(reply)
    thought = (
        thought_match.group(1).strip()
        if thought_match
        else f"(pool) unparseable model reply: {reply[:120]}"
    )
    used_match = _USED_GUIDANCE_RE.search(reply)
    used = int(used_match.group(1)) if used_match else 0
    code_match = _REPLY_CODE_RE.search(reply)
    code = code_match.group(1) if code_match else reply
    return RepairStep(
        thought=thought,
        code=code,
        declared_done="Action: Finish[" in reply,
        used_guidance=tuple((guidance or [])[:used]),
        reply=reply,
    )


class ChatRepairModel:
    """:class:`~repro.llm.base.RepairModel` over a raw chat client.

    Each turn goes out as :func:`build_pool_messages` under the pooled
    conversation's token ``session``, and the reply comes back through
    :func:`parse_pool_reply`.
    """

    def __init__(self, client: LLMClient, temperature: float, session: str):
        self.client = client
        self.temperature = temperature
        self.session = session

    def start(self, code: str, flavor: str, use_rag: bool) -> "ChatRepairSession":
        return ChatRepairSession(self, flavor, use_rag)


class ChatRepairSession:
    """One conversation of a :class:`ChatRepairModel`."""

    def __init__(self, model: ChatRepairModel, flavor: str, use_rag: bool):
        self.model = model
        self.flavor = flavor
        self.use_rag = use_rag

    def step(self, code: str, feedback: str,
             guidance: list[GuidanceEntry]) -> RepairStep:
        messages = build_pool_messages(
            code, feedback, guidance,
            session=self.model.session, flavor=self.flavor,
            use_rag=self.use_rag,
        )
        reply = self.model.client.complete(
            messages, temperature=self.model.temperature
        )
        return parse_pool_reply(reply, guidance)
