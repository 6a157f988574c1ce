"""Raw chat-completion backends.

:class:`OpenAIChatClient` is the one :class:`repro.llm.base.LLMClient`:
the real-API adapter (urllib, no extra dependencies), offline-guarded --
it raises :class:`repro.errors.LLMError` unless an API key is
configured.  The pool reaches it through
:class:`~repro.llm.openai_stub.ChatRepairModel`, which speaks the wire
format; simulated members step :class:`repro.llm.SimulatedLLM` in
process and need no client.
"""

from .openai import OpenAIChatClient

__all__ = ["OpenAIChatClient"]
