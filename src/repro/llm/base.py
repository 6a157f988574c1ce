"""LLM abstractions.

Two layers:

* :class:`LLMClient` -- the raw chat-completion surface (what the paper
  calls through the OpenAI API): the pool's members
  (:mod:`repro.llm.backends`) implement it.
* :class:`RepairModel` -- the semantic surface the agents actually need:
  start a repair session for a piece of broken Verilog, then repeatedly
  ask for a (thought, revised code) step given compiler feedback and
  retrieved guidance.  :class:`repro.llm.SimulatedLLM` implements this
  mechanically; :class:`repro.llm.PooledRepairModel` implements it over
  raw clients, prompting with :mod:`repro.llm.openai_stub`'s messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

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
