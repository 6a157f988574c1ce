"""A minimal asyncio client for the repair service.

Speaks exactly the protocol :mod:`repro.service.protocol` defines --
one HTTP/1.1 request per connection, JSON responses, optional SSE
streaming -- with nothing beyond the standard library.  Used by the
load generator (``scripts/loadgen.py``), the CI smoke drill, and the
integration tests; applications are free to use any HTTP client.

>>> client = ServiceClient("127.0.0.1", 8357)
>>> status, result = await client.repair(code="module m; endmodule")
>>> status, stats = await client.stats()
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Optional


class ServiceClient:
    """One repair-service endpoint (host + port)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8357,
                 timeout: float = 30.0):
        """``timeout`` bounds every whole-request round trip."""
        self.host = host
        self.port = port
        self.timeout = timeout

    async def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict]:
        """One request/response round trip; returns (status, payload)."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        try:
            await self._send(writer, method, path, body)
            status, _headers, raw = await asyncio.wait_for(
                self._read_response(reader), self.timeout
            )
            return status, json.loads(raw) if raw else {}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: Optional[dict],
    ) -> None:
        """Write one HTTP/1.1 request."""
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader) -> tuple[int, dict]:
        """Parse the status line and headers."""
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2:
            raise ConnectionError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict, bytes]:
        """Read one complete (non-streaming) response."""
        status, headers = await self._read_head(reader)
        length = headers.get("content-length")
        if length is not None:
            body = await reader.readexactly(int(length))
        else:
            body = await reader.read()
        return status, headers, body

    # -- public API --------------------------------------------------------

    async def repair(self, **fields: Any) -> tuple[int, dict]:
        """Submit one repair job; returns ``(http_status, result_dict)``.

        ``fields`` are :class:`~repro.service.protocol.RepairRequest`
        fields (``code=...`` is required).
        """
        return await self._request("POST", "/repair", fields)

    async def repair_stream(self, **fields: Any) -> AsyncIterator[tuple[str, dict]]:
        """Submit a streaming repair; yields ``(event, payload)`` pairs.

        Yields the ``accepted`` event, one ``iteration`` per ReAct turn,
        and finally the terminal ``result`` (after which the stream
        ends).  A shed or invalid submission yields a single synthetic
        ``("error", payload)`` pair instead.
        """
        fields = dict(fields, stream=True)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        try:
            await self._send(writer, "POST", "/repair", fields)
            status, headers = await asyncio.wait_for(
                self._read_head(reader), self.timeout
            )
            if "text/event-stream" not in headers.get("content-type", ""):
                length = int(headers.get("content-length", "0"))
                body = await reader.readexactly(length) if length else b"{}"
                yield "error", json.loads(body)
                return
            async for event, payload in self._read_sse(reader):
                yield event, payload
                if event == "result":
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_sse(
        reader: asyncio.StreamReader,
    ) -> AsyncIterator[tuple[str, dict]]:
        """Parse Server-Sent-Events frames until EOF."""
        event, data_lines = "", []
        while True:
            line = await reader.readline()
            if not line:
                return
            text = line.decode("utf-8").rstrip("\r\n")
            if not text:
                if event and data_lines:
                    yield event, json.loads("\n".join(data_lines))
                event, data_lines = "", []
                continue
            if text.startswith("event:"):
                event = text[len("event:"):].strip()
            elif text.startswith("data:"):
                data_lines.append(text[len("data:"):].strip())

    async def stats(self) -> tuple[int, dict]:
        """Fetch ``GET /stats``."""
        return await self._request("GET", "/stats")
