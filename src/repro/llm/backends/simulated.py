"""Raw-client adapter over the simulated repair model.

The pool (:mod:`repro.llm.pool`) speaks the raw
:class:`~repro.llm.base.LLMClient` surface -- the exact wire format an
API-backed backend would see, built from the paper-faithful prompts in
:mod:`repro.llm.openai_stub`.  This module closes the loop offline: it
round-trips a pooled repair turn through real chat messages and back
into a live :class:`~repro.llm.simulated.SimulatedRepairSession`, so

* pooled runs are **bit-identical** to direct simulated runs (the
  adapter reconstructs the session's exact inputs -- code, feedback,
  guidance entries -- from the message text), and
* every piece of pool machinery (routing, escalation, hedging, chaos
  outages, retry) exercises the same message-level seam a production
  deployment would, with no network in sight.

Wire format, per turn:

* request -- :func:`build_pool_messages`: the two paper-prompt messages
  from :func:`repro.llm.openai_stub.build_repair_messages` plus one
  extra ``system`` header carrying the session token, feedback flavour
  and RAG bit (the state an HTTP-era session would keep server-side);
* reply -- :func:`render_repair_reply`: a ReAct-shaped completion
  (``Thought:`` line, ``Action: Finish[answer]``/``Compiler[code]``,
  a ``Used-Guidance`` count, and the full revised module in a
  ```` ```verilog ```` fence) parsed back by :func:`parse_pool_reply`.

Guidance entries survive the round trip by reverse lookup against the
default guidance database (the retriever only ever surfaces entries
from it); unknown guidance text degrades to a synthetic entry with the
same text, which is all the simulated session reads.

Live sessions are kept per session token in a
:class:`~repro.runtime.cache.Memo` -- the store behind the compile and
verdict caches -- bounded at :data:`MAX_SESSIONS` conversations; they
never travel with a pickled adapter.
"""

from __future__ import annotations

import re
import threading
from typing import Optional

from ...rag.database import GuidanceEntry
from ...runtime.cache import Memo
from ..base import ChatMessage, RepairStep
from ..openai_stub import build_repair_messages
from ..simulated import SimulatedLLM

#: LRU bound on the live conversations one adapter keeps.
MAX_SESSIONS = 1024

#: Marks the extra system message that carries pooled-session state.
SESSION_HEADER_PREFIX = "X-Repro-Pool-Session:"

#: The user-prompt placeholder for "no compiler feedback" (mirrors
#: build_repair_messages); the adapter maps it back to empty feedback.
NO_FEEDBACK_SENTINEL = "Correct the syntax error in the code."

_HEADER_RE = re.compile(
    r"token=(?P<token>\S+)\s+flavor=(?P<flavor>\S+)\s+rag=(?P<rag>[01])"
)
_CODE_RE = re.compile(r"```verilog\n(.*?)\n```\n\nCompiler feedback:", re.DOTALL)
_FEEDBACK_RE = re.compile(
    r"Compiler feedback:\n(.*?)\n\n(?:Human expert guidance:|Respond with a Thought)",
    re.DOTALL,
)
_GUIDANCE_RE = re.compile(
    r"Human expert guidance:\n(.*?)\n\nRespond with a Thought", re.DOTALL
)
_REPLY_CODE_RE = re.compile(r"```verilog\n(.*)\n```\s*\Z", re.DOTALL)
_USED_GUIDANCE_RE = re.compile(r"Used-Guidance:\s*(\d+)")
_THOUGHT_RE = re.compile(r"Thought:\s*(.*)")


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
    turn, that lets a stateful backend (the simulated adapter) associate
    consecutive turns of one debugging conversation.
    """
    base = build_repair_messages(code, feedback, guidance)
    header = ChatMessage(
        role="system",
        content=(
            f"{SESSION_HEADER_PREFIX} token={session} "
            f"flavor={flavor} rag={int(use_rag)}"
        ),
    )
    return [base[0], header, *base[1:]]


def render_repair_reply(step: RepairStep) -> str:
    """One model turn as completion text (the adapter's reply format).

    Thoughts are flattened to one line so ``Thought:`` parses with a
    line-anchored regex; the simulated model only emits single-line
    thoughts, so nothing is lost in practice.
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
    guidance list (the pooled session still holds the real entries), so
    it round-trips exactly.  A reply with no code fence -- a garbled
    completion, e.g. a chaos ``garbage`` fault at the client seam --
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
    )


# -- guidance round trip -----------------------------------------------------

_guidance_lookup: Optional[dict] = None
_guidance_lookup_lock = threading.Lock()


def _lookup_guidance(guidance_text: str, demonstration: str) -> GuidanceEntry:
    """Reverse-map rendered guidance text to the real database entry.

    The retriever only surfaces entries of the default database, so the
    lookup recovers the exact object (category included) and keeps the
    simulated session's behaviour bit-identical to the direct path.
    Unknown text (a custom database) degrades to a synthetic entry
    carrying the same strings -- everything the session actually reads.
    """
    global _guidance_lookup
    with _guidance_lookup_lock:
        if _guidance_lookup is None:
            from ...rag.guidance_data import build_default_database

            _guidance_lookup = {}
            for entry in build_default_database():
                _guidance_lookup.setdefault(
                    (entry.guidance, entry.demonstration), entry
                )
        found = _guidance_lookup.get((guidance_text, demonstration))
    if found is not None:
        return found
    return GuidanceEntry(
        category=None,  # type: ignore[arg-type] -- synthetic fallback
        compiler="",
        log_pattern="",
        guidance=guidance_text,
        demonstration=demonstration,
    )


def _parse_guidance_block(block: str) -> list[GuidanceEntry]:
    entries: list[tuple[str, str]] = []
    for line in block.split("\n"):
        if line.startswith("- "):
            entries.append((line[2:], ""))
        elif line.startswith("  e.g. ") and entries:
            text, _ = entries[-1]
            entries[-1] = (text, line[len("  e.g. "):])
    return [_lookup_guidance(text, demo) for text, demo in entries]


class SimulatedChatClient:
    """:class:`~repro.llm.base.LLMClient` over the simulated model.

    Stateless on the wire, stateful inside (like a provider keeping
    per-conversation context): live
    :class:`~repro.llm.simulated.SimulatedRepairSession` objects are
    kept per session token, created lazily at the token's first
    ``complete`` call from that call's code -- which is exactly the
    start code both agents pass, so the session rng seeds identically
    to the direct path.
    """

    def __init__(self, tier: str = "gpt-3.5-sim", seed: int = 0):
        self.tier = tier
        self.seed = seed
        self._sessions = Memo(MAX_SESSIONS)

    def with_seed(self, seed: int) -> "SimulatedChatClient":
        """A fresh adapter (no live sessions) at a different seed."""
        return SimulatedChatClient(self.tier, seed)

    def complete(self, messages: list[ChatMessage], temperature: float = 0.4) -> str:
        """One pooled repair turn: parse, step the live session, render."""
        header = None
        user: Optional[str] = None
        for message in messages:
            if message.role == "system" and message.content.startswith(
                SESSION_HEADER_PREFIX
            ):
                header = _HEADER_RE.search(message.content)
            elif message.role == "user":
                user = message.content
        if header is None or user is None:
            raise ValueError(
                "SimulatedChatClient requires pool-format messages "
                "(build_pool_messages): session header or user turn missing"
            )
        code_match = _CODE_RE.search(user)
        if code_match is None:
            raise ValueError("pool message has no ```verilog fence")
        code = code_match.group(1)
        feedback_match = _FEEDBACK_RE.search(user)
        feedback = feedback_match.group(1) if feedback_match else ""
        if feedback == NO_FEEDBACK_SENTINEL:
            feedback = ""
        guidance_match = _GUIDANCE_RE.search(user)
        guidance = (
            _parse_guidance_block(guidance_match.group(1))
            if guidance_match
            else []
        )

        session = self._sessions.get_or_compute(
            header.group("token"), self._start, code,
            header.group("flavor"), header.group("rag") == "1", temperature,
        )
        # A token is only ever stepped by its own trial, so concurrent
        # trials proceed in parallel.
        step = session.step(code, feedback, guidance)
        return render_repair_reply(step)

    def _start(self, code: str, flavor: str, use_rag: bool, temperature: float):
        model = SimulatedLLM(tier=self.tier, temperature=temperature, seed=self.seed)
        return model.start(code, flavor=flavor, use_rag=use_rag)

    def __getstate__(self) -> dict:
        # Live sessions stay behind: an adapter travelling into a
        # process-pool worker starts its conversations fresh (workers
        # rebuild their own sessions deterministically).
        return {"tier": self.tier, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["tier"], state["seed"])
