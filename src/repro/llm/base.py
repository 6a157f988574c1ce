"""LLM abstractions.

Two layers:

* :class:`RepairModel` -- the semantic surface the agents and every
  pool member use: start a repair session for a piece of broken
  Verilog, then repeatedly ask for a (thought, revised code) step given
  compiler feedback and retrieved guidance.
  :class:`repro.llm.SimulatedLLM` implements it in process;
  :class:`repro.llm.PooledRepairModel` routes it across a ladder of
  such models.
* :class:`LLMClient` -- the raw chat-completion surface (what the paper
  calls through the OpenAI API), behind the wire format: only
  :class:`~repro.llm.backends.OpenAIChatClient` implements it, and
  :class:`~repro.llm.openai_stub.ChatRepairModel` turns it into a
  :class:`RepairModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from ..rag.database import GuidanceEntry


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str


@runtime_checkable
class LLMClient(Protocol):
    """Minimal chat-completion interface."""

    def complete(self, messages: list[ChatMessage], temperature: float = 0.4) -> str: ...


@dataclass(frozen=True)
class RepairStep:
    """One model turn: the reasoning trace plus the revised code."""

    thought: str
    code: str
    #: True when the model claims the code needs no further changes.
    declared_done: bool = False
    #: Guidance entries the model says it used this turn.
    used_guidance: tuple[GuidanceEntry, ...] = field(default=())
    #: The completion text a chat backend returned for this turn, which
    #: the pool books as-is; ``None`` for an in-process model.
    reply: Optional[str] = field(default=None, compare=False, repr=False)


class RepairSession(Protocol):
    """A stateful debugging conversation about one erroneous sample."""

    def step(
        self,
        code: str,
        feedback: str,
        guidance: list[GuidanceEntry],
    ) -> RepairStep: ...


@runtime_checkable
class RepairModel(Protocol):
    """Factory for repair sessions."""

    def start(self, code: str, flavor: str, use_rag: bool) -> RepairSession: ...
