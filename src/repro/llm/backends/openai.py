"""OpenAI-compatible chat backend (real API path, offline-guarded).

The paper runs against *gpt-3.5-turbo-16k-0613* / *gpt-4* over the
OpenAI chat-completions API.  This adapter implements that call with
the standard library only (``urllib``), so the pool can route to a
real provider when credentials exist -- and fails loudly, **before**
any network I/O, when they do not (this reproduction's CI environment
is offline by design; simulated pool members carry those runs).

Transient transport faults (HTTP 408/409/429/5xx, socket errors) are
raised as :class:`repro.errors.LLMTimeoutError` so the pool's retry
guard and failover chain handle them exactly like an injected chaos
outage.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from typing import Optional

from ...errors import LLMError, LLMTimeoutError
from ..base import ChatMessage

DEFAULT_BASE_URL = "https://api.openai.com/v1"

#: HTTP statuses worth retrying (rate limits, conflicts, server-side).
_RETRYABLE_STATUS = frozenset({408, 409, 429, 500, 502, 503, 504})


class OpenAIChatClient:
    """:class:`~repro.llm.base.LLMClient` over the OpenAI REST API.

    The key is read from ``api_key`` or the ``OPENAI_API_KEY``
    environment variable at call time; without one, ``complete`` raises
    :class:`~repro.errors.LLMError` immediately (no socket is opened),
    which is what keeps this adapter safe to construct in offline runs.
    """

    def __init__(
        self,
        model: str = "gpt-3.5-turbo-16k-0613",
        api_key: Optional[str] = None,
        base_url: str = DEFAULT_BASE_URL,
        request_timeout: float = 60.0,
    ):
        self.model = model
        self.api_key = api_key
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout

    def _key(self) -> str:
        key = self.api_key or os.environ.get("OPENAI_API_KEY", "")
        if not key:
            raise LLMError(
                f"OpenAIChatClient({self.model!r}) has no API key: set "
                "OPENAI_API_KEY or pass api_key=.  Offline runs should "
                "route to simulated tiers instead "
                "(e.g. --llm-pool cheap=gpt-3.5-sim,strong=gpt-4-sim)."
            )
        return key

    def complete(self, messages: list[ChatMessage], temperature: float = 0.4) -> str:
        """One chat completion over HTTP."""
        key = self._key()  # fail fast before any network I/O
        payload = json.dumps(
            {
                "model": self.model,
                "temperature": temperature,
                "messages": [
                    {"role": m.role, "content": m.content} for m in messages
                ],
            }
        ).encode()
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=payload,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.request_timeout
            ) as response:
                body = json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            if exc.code in _RETRYABLE_STATUS:
                raise LLMTimeoutError(
                    f"{self.model}: HTTP {exc.code} from {self.base_url}"
                ) from exc
            raise LLMError(
                f"{self.model}: HTTP {exc.code} from {self.base_url}"
            ) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise LLMTimeoutError(f"{self.model}: transport error: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise LLMError(
                f"{self.model}: malformed completion response"
            ) from exc
