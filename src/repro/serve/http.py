"""Minimal HTTP/1.1 framing over :mod:`asyncio` streams.

The serve layer deliberately speaks a small, dependency-free subset of
HTTP/1.1 — enough for JSON request/response bodies, the Prometheus
text exposition and keep-alive connections — rather than pulling in an
ASGI stack.  Only what the daemon needs is implemented:

* request line + headers + ``Content-Length`` bodies (no chunked
  transfer, no multipart);
* responses with JSON, plain-text or raw payloads;
* ``Connection: keep-alive`` by default, ``close`` honoured both ways;
* hard limits on header block and body size, so a misbehaving client
  cannot balloon the daemon's memory.

:class:`HttpError` converts to a structured JSON error response; the
routing layer raises it for every client-visible failure (bad request,
unknown database, admission reject, tripped budget).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on the request-line + header block, bytes.
MAX_HEADER_BYTES = 64 * 1024

#: Upper bound on a request body, bytes (a database text or a query).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for the status codes the daemon emits.
REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A client-visible failure, rendered as a JSON error response.

    Attributes:
        status: HTTP status code.
        code: stable machine-readable error code (``"admission"``,
            ``"timeout"``, ``"budget"``, ``"bad_request"``, ...).
        retry_after: seconds for the ``Retry-After`` header (503/429
            responses that are worth retrying).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
        detail: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        self.detail = detail or {}

    def to_response(self) -> "Response":
        payload = {"error": self.code, "message": self.message}
        payload.update(self.detail)
        headers = {}
        if self.retry_after is not None:
            headers["Retry-After"] = f"{self.retry_after:g}"
        return Response(self.status, payload, headers=headers)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """The body parsed as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, "bad_json", f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "bad_json", "JSON body must be an object")
        return payload

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response:
    """One HTTP response: a JSON-serializable payload, text, or bytes."""

    status: int = 200
    payload: Any = None
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: Optional[str] = None

    def encode(self, keep_alive: bool = True) -> bytes:
        if isinstance(self.payload, bytes):
            body = self.payload
            ctype = self.content_type or "application/octet-stream"
        elif isinstance(self.payload, str):
            body = self.payload.encode("utf-8")
            ctype = self.content_type or "text/plain; charset=utf-8"
        elif self.payload is None:
            body = b""
            ctype = self.content_type or "text/plain; charset=utf-8"
        else:
            body = (
                json.dumps(self.payload, sort_keys=True) + "\n"
            ).encode("utf-8")
            ctype = self.content_type or "application/json"
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Request]:
    """Read one request from the stream, or ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed framing or oversized
    header/body blocks.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "bad_request", "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "too_large", "header block too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "too_large", "header block too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad_request", f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "bad_request", f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "too_large", f"body of {length} bytes refused")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


async def write_response(
    writer: asyncio.StreamWriter,
    response: Response,
    keep_alive: bool = True,
) -> None:
    """Serialize and flush one response."""
    writer.write(response.encode(keep_alive=keep_alive))
    await writer.drain()

