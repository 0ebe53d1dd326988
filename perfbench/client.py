"""The load generator: closed-loop keep-alive HTTP/1.1 connections.

Each connection sends its next request only after it has read the whole
previous reply.  Every request carries ``X-Request-Id`` and
``X-Sent-Ns`` (``time.monotonic_ns`` at send), which the daemon ignores
and the layer tracer reads.  The benchmark owns this client so that the
load it offers does not change when ``repro.serve.client`` does.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Connection:
    """One keep-alive connection, one exchange at a time."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.writer = None

    async def exchange(
        self, method: str, path: str, body: bytes = b"", qid: int = 0
    ) -> Tuple[int, bytes, int]:
        """Send one request; return (status, body, latency ns)."""
        sent = time.monotonic_ns()
        tags = f"X-Request-Id: {qid}\r\nX-Sent-Ns: {sent}\r\n" if qid else ""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{tags}\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload, time.monotonic_ns() - sent

    async def get_json(self, path: str) -> Any:
        status, payload, _ = await self.exchange("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    async def post_json(self, path: str, body: Dict[str, Any]) -> Tuple[int, Any]:
        status, payload, _ = await self.exchange(
            "POST", path, json.dumps(body).encode("utf-8")
        )
        return status, json.loads(payload)


@dataclass
class Job:
    """One query: where its answer goes, and how to build its body."""

    key: Tuple[int, int]
    body: Callable[[], bytes]
    on_reply: Optional[Callable[[int, Dict[str, Any]], None]] = None


@dataclass
class Record:
    key: Tuple[int, int]
    status: int
    latency_ns: int
    answer: Any
    done_s: float  # time.perf_counter() when the reply was read


@dataclass
class Phase:
    """What a phase's connections did, and for how long."""

    records: List[Record] = field(default_factory=list)
    started_s: float = 0.0
    elapsed_s: float = 0.0


class QueryIds:
    """Request ids unique across a run."""

    def __init__(self) -> None:
        self.next = 0

    def take(self) -> int:
        self.next += 1
        return self.next


async def run_phase(
    connections: List[Connection],
    jobs: List[Iterator[Job]],
    ids: QueryIds,
    seconds: Optional[float] = None,
) -> Phase:
    """Drive every connection through its job iterator, closed loop,
    until the iterators end or ``seconds`` have passed."""
    phase = Phase()
    started = phase.started_s = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    async def drive(conn: Connection, source: Iterator[Job]) -> None:
        for job in source:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            status, raw, latency = await conn.exchange(
                "POST", "/v1/query", job.body(), ids.take()
            )
            payload = json.loads(raw)
            if status == 200:
                answer = payload.get("models", payload.get("verdict"))
            else:
                answer = payload.get("error")
            if job.on_reply is not None:
                job.on_reply(status, payload)
            phase.records.append(
                Record(job.key, status, latency, answer, time.perf_counter())
            )

    await asyncio.gather(*(drive(c, s) for c, s in zip(connections, jobs)))
    phase.elapsed_s = time.perf_counter() - started
    return phase


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> ``{"name{labels}": value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


async def scrape(conn: Connection) -> Dict[str, Any]:
    """``/metrics`` and ``/v1/stats`` at one moment."""
    status, raw, _ = await conn.exchange("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return {
        "metrics": parse_metrics(raw.decode("utf-8")),
        "stats": await conn.get_json("/v1/stats"),
    }
