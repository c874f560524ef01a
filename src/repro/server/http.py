"""Minimal HTTP/1.1 wire layer over asyncio streams (stdlib only).

The frontend deliberately avoids web frameworks: the protocol surface it
needs is small — JSON request bodies, JSON responses, keep-alive, and
chunked transfer encoding for streaming batch results — and owning the
~200 lines keeps the serving stack dependency-free.  :func:`read_request`
parses one request from a stream (bounded header/body sizes, explicit
``BadRequestError`` on anything malformed), :func:`response_bytes` renders
one buffered response, and :class:`ChunkedStream` writes a streaming
response one chunk per completed result (each flushed immediately, so
clients consume a ``protect_many`` sweep incrementally).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.server.errors import BadRequestError

#: Parser bounds: a request line + headers beyond 64 KiB or a body beyond
#: 64 MiB is rejected, not buffered.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One parsed request: method, split target, lowered headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics (``Connection: close`` opts out)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on a clean EOF between requests."""
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequestError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequestError("request headers exceed the size limit") from exc
    if len(header_block) > MAX_HEADER_BYTES:
        raise BadRequestError("request headers exceed the size limit")

    try:
        head = header_block.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
        raise BadRequestError("undecodable request head") from exc
    request_line, _, header_text = head.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequestError(f"malformed request line {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in header_text.strip("\r\n").split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequestError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise BadRequestError("malformed Content-Length header") from exc
        if length < 0 or length > max_body:
            raise BadRequestError(f"request body of {length} bytes exceeds the limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise BadRequestError("connection closed mid-body") from exc
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        raise BadRequestError("chunked request bodies are not supported")

    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    headers: Optional[Mapping[str, object]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Render one buffered HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ChunkedStream:
    """A chunked streaming response (one flushed chunk per result line)."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        *,
        status: int = 200,
        content_type: str = "application/x-ndjson",
        headers: Optional[Mapping[str, object]] = None,
        keep_alive: bool = True,
    ) -> None:
        self._writer = writer
        self._status = status
        self._content_type = content_type
        self._headers = dict(headers or {})
        self._keep_alive = keep_alive
        self.started = False

    async def start(self) -> None:
        """Send the status line and headers (idempotent)."""
        if self.started:
            return
        self.started = True
        reason = _REASONS.get(self._status, "Unknown")
        lines = [
            f"HTTP/1.1 {self._status} {reason}",
            f"Content-Type: {self._content_type}",
            "Transfer-Encoding: chunked",
            f"Connection: {'keep-alive' if self._keep_alive else 'close'}",
        ]
        for name, value in self._headers.items():
            lines.append(f"{name}: {value}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()

    async def send(self, payload: bytes) -> None:
        """Write one chunk and flush it to the client immediately."""
        await self.start()
        self._writer.write(f"{len(payload):x}\r\n".encode("latin-1"))
        self._writer.write(payload + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        """Terminate the chunked body."""
        await self.start()
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
