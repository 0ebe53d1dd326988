"""Clients for the serve daemon: async (load generation) and sync.

:class:`AsyncServeClient` keeps one keep-alive connection per instance,
which is what the concurrency tests and the load bench want: N client
instances = N concurrent connections, each issuing sequential requests.

:class:`ServeClient` wraps the stdlib :mod:`http.client` for callers in
the synchronous world (CLI smoke checks, quick scripts).
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Dict, List, Optional

from ..runtime.budget import Budget


def budget_headers(budget: Optional[Budget]) -> Dict[str, str]:
    """The QoS headers encoding ``budget`` (empty when ``None``)."""
    if budget is None:
        return {}
    headers: Dict[str, str] = {}
    if budget.wall_ms is not None:
        headers["X-Budget-Wall-Ms"] = f"{budget.wall_ms:g}"
    if budget.max_sat_calls is not None:
        headers["X-Budget-Sat-Calls"] = str(budget.max_sat_calls)
    if budget.max_nodes is not None:
        headers["X-Budget-Nodes"] = str(budget.max_nodes)
    return headers


class ServeResponse:
    """Status + parsed payload + headers of one response."""

    def __init__(
        self, status: int, payload: Any, headers: Dict[str, str]
    ):
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:
        return f"ServeResponse({self.status}, {self.payload!r})"


class AsyncServeClient:
    """One keep-alive connection to the daemon.

    Args:
        host / port: daemon address.
        tenant: value for the ``X-Tenant`` header on every request.
    """

    def __init__(self, host: str, port: int, tenant: str = "default"):
        self.host = host
        self.port = port
        self.tenant = tenant
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock: Optional[asyncio.Lock] = None

    async def connect(self) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        if self._lock is None:
            self._lock = asyncio.Lock()
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServeResponse:
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        assert self._lock is not None
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else b""
        )
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"X-Tenant: {self.tenant}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        # One request/response exchange at a time per connection: HTTP/1.1
        # keep-alive has no interleaving, so concurrent callers queue here
        # instead of corrupting each other's reads.
        async with self._lock:
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()

    async def _read_response(self) -> ServeResponse:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        resp_headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0") or "0")
        body = await self._reader.readexactly(length) if length else b""
        ctype = resp_headers.get("content-type", "")
        if ctype.startswith("application/json") and body:
            payload: Any = json.loads(body.decode("utf-8"))
        else:
            payload = body.decode("utf-8", errors="replace")
        return ServeResponse(status, payload, resp_headers)

    # ------------------------------------------------------------------
    async def register(
        self, text: str, vocabulary: Optional[List[str]] = None
    ) -> ServeResponse:
        payload: Dict[str, Any] = {"text": text}
        if vocabulary is not None:
            payload["vocabulary"] = list(vocabulary)
        return await self.request("POST", "/v1/databases", payload)

    async def query(
        self,
        db: str,
        task: str = "infers",
        semantics: str = "egcwa",
        query: Optional[str] = None,
        mode: str = "cautious",
        budget: Optional[Budget] = None,
    ) -> ServeResponse:
        payload: Dict[str, Any] = {
            "db": db, "task": task, "semantics": semantics, "mode": mode,
        }
        if query is not None:
            payload["query"] = query
        return await self.request(
            "POST", "/v1/query", payload, headers=budget_headers(budget)
        )

    async def stats(self) -> ServeResponse:
        return await self.request("GET", "/v1/stats")

    async def metrics(self) -> ServeResponse:
        return await self.request("GET", "/metrics")

    async def healthz(self) -> ServeResponse:
        return await self.request("GET", "/healthz")


class ServeClient:
    """Synchronous client over :mod:`http.client` (one connection)."""

    def __init__(self, host: str, port: int, tenant: str = "default"):
        self.host = host
        self.port = port
        self.tenant = tenant
        self._conn = http.client.HTTPConnection(host, port, timeout=30)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServeResponse:
        body = json.dumps(payload) if payload is not None else None
        all_headers = {
            "X-Tenant": self.tenant,
            "Content-Type": "application/json",
        }
        all_headers.update(headers or {})
        self._conn.request(method, path, body=body, headers=all_headers)
        raw = self._conn.getresponse()
        data = raw.read()
        resp_headers = {k.lower(): v for k, v in raw.getheaders()}
        ctype = resp_headers.get("content-type", "")
        if ctype.startswith("application/json") and data:
            parsed: Any = json.loads(data.decode("utf-8"))
        else:
            parsed = data.decode("utf-8", errors="replace")
        return ServeResponse(raw.status, parsed, resp_headers)

    def register(
        self, text: str, vocabulary: Optional[List[str]] = None
    ) -> ServeResponse:
        payload: Dict[str, Any] = {"text": text}
        if vocabulary is not None:
            payload["vocabulary"] = list(vocabulary)
        return self.request("POST", "/v1/databases", payload)

    def query(self, **kwargs: Any) -> ServeResponse:
        budget = kwargs.pop("budget", None)
        return self.request(
            "POST", "/v1/query", kwargs, headers=budget_headers(budget)
        )

    def stats(self) -> ServeResponse:
        return self.request("GET", "/v1/stats")

    def metrics(self) -> ServeResponse:
        return self.request("GET", "/metrics")

    def healthz(self) -> ServeResponse:
        return self.request("GET", "/healthz")

