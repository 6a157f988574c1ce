"""Raw chat-completion backends for the LLM pool.

Every backend implements the :class:`repro.llm.base.LLMClient` protocol
so the pool (:mod:`repro.llm.pool`) can treat them interchangeably and
put each one behind the runtime's retry/chaos
:class:`~repro.runtime.retry.Guard`:

* :class:`SimulatedChatClient` -- the offline stand-in: a raw-client
  adapter that drives :class:`repro.llm.SimulatedLLM` through the real
  chat-message wire format, so pooled runs stay bit-identical to direct
  simulated runs and CI stays hermetic;
* :class:`OpenAIChatClient` -- the real-API adapter (urllib, no extra
  dependencies), offline-guarded: it raises
  :class:`repro.errors.LLMError` unless an API key is configured.
"""

from .openai import OpenAIChatClient
from .simulated import (
    SimulatedChatClient,
    build_pool_messages,
    parse_pool_reply,
    render_repair_reply,
)

__all__ = [
    "OpenAIChatClient",
    "SimulatedChatClient",
    "build_pool_messages",
    "parse_pool_reply",
    "render_repair_reply",
]
