"""The asyncio HTTP daemon exposing :class:`~repro.serve.service.QueryService`.

Endpoints (all JSON unless noted):

===========================  =========================================
``GET  /healthz``            liveness probe
``GET  /metrics``            Prometheus text exposition (plain text)
``GET  /trace``              drain finished trace roots as JSON lines
``GET  /v1/stats``           service / tenant / cache / pool counters
``POST /v1/databases``       register ``{"text": "a | b. c :- a."}``
``GET  /v1/databases``       list this tenant's databases
``POST /v1/query``           evaluate ``{"db"|"database", "task",
                             "semantics", "query", "mode"}``
===========================  =========================================

Headers:

* ``X-Tenant`` — tenant name (default ``"default"``); every database,
  session and admission queue is namespaced by it.
* ``X-Budget-Wall-Ms`` / ``X-Budget-Sat-Calls`` / ``X-Budget-Nodes`` —
  per-request QoS ceilings riding the cooperative
  :class:`~repro.runtime.budget.Budget`.  A tripped wall clock returns
  503 with ``Retry-After``; a tripped SAT-call or node ceiling returns
  429.

The daemon is a single :func:`asyncio.start_server` accept loop;
evaluation happens on the service's worker threads, so slow queries do
not stall accepts, health checks or metrics scrapes.  Tests and the
bench embed :class:`ReproServer` in their own event loop; the CLI's
``repro-ddb serve`` runs :func:`run_server` until interrupted.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..obs import trace as _trace
from ..runtime.budget import Budget
from .http import HttpError, Request, Response, read_request, write_response
from .service import QueryService

#: Tenant used when the ``X-Tenant`` header is absent.
DEFAULT_TENANT = "default"


def budget_from_headers(request: Request) -> Optional[Budget]:
    """The QoS :class:`Budget` encoded in the request headers, or
    ``None`` when no ceiling header is present."""
    try:
        wall = request.header("x-budget-wall-ms")
        sat = request.header("x-budget-sat-calls")
        nodes = request.header("x-budget-nodes")
        if wall is None and sat is None and nodes is None:
            return None
        return Budget(
            wall_ms=float(wall) if wall is not None else None,
            max_sat_calls=int(sat) if sat is not None else None,
            max_nodes=int(nodes) if nodes is not None else None,
        )
    except ValueError as exc:
        raise HttpError(400, "bad_budget", f"invalid budget header: {exc}")


class ReproServer:
    """The HTTP front door over one :class:`QueryService`.

    Args:
        service: the stateful core (owned by the caller; not closed on
            :meth:`stop` unless ``own_service`` is set).
        host / port: bind address (``port=0`` picks an ephemeral port,
            readable from :attr:`port` after :meth:`start`).
        tracing: install a recording tracer at startup so ``/trace``
            drains span JSONL (the module-global tracer is process-wide;
            pass ``False`` to leave it untouched).
    """

    def __init__(
        self,
        service: Optional[QueryService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracing: bool = False,
        own_service: bool = True,
    ):
        self.service = service if service is not None else QueryService()
        self.host = host
        self.port = port
        self.tracing = tracing
        self.own_service = own_service
        self._server: Optional[asyncio.base_events.Server] = None
        self._tracer: Optional[_trace.Tracer] = None
        self._previous_tracer = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.tracing:
            self._tracer = _trace.Tracer(max_finished=4096)
            self._previous_tracer = _trace.set_tracer(self._tracer)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._previous_tracer is not None:
            _trace.set_tracer(self._previous_tracer)
            self._previous_tracer = None
        if self.own_service:
            self.service.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer, exc.to_response(), keep_alive=False
                    )
                    break
                if request is None:
                    break
                try:
                    response = await self._route(request)
                except HttpError as exc:
                    response = exc.to_response()
                except Exception as exc:  # last-resort 500
                    response = HttpError(
                        500, "internal", f"unhandled error: {exc}"
                    ).to_response()
                keep = request.keep_alive
                await write_response(writer, response, keep_alive=keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Daemon shutdown cancelled this handler mid-close; the
                # transport is already going away.
                pass

    async def _route(self, request: Request) -> Response:
        tenant = request.header("x-tenant", DEFAULT_TENANT) or DEFAULT_TENANT
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return Response(200, {"status": "ok"})
        if path == "/metrics" and method == "GET":
            from ..obs.metrics import METRICS

            return Response(
                200, METRICS.expose(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/trace" and method == "GET":
            return self._drain_trace()
        if path == "/v1/stats" and method == "GET":
            return Response(200, self.service.stats())
        if path == "/v1/databases":
            if method == "POST":
                payload = request.json()
                text = payload.get("text")
                if not isinstance(text, str) or not text.strip():
                    raise HttpError(
                        400, "bad_request", "payload needs a 'text' field"
                    )
                vocabulary = payload.get("vocabulary")
                if vocabulary is not None and not isinstance(
                    vocabulary, list
                ):
                    raise HttpError(
                        400, "bad_request",
                        "'vocabulary' must be a list of atoms",
                    )
                return Response(
                    200,
                    self.service.register_database(
                        tenant, text, vocabulary
                    ),
                )
            if method == "GET":
                return Response(200, self.service.list_databases(tenant))
            raise HttpError(405, "method_not_allowed", f"{method} {path}")
        if path == "/v1/query" and method == "POST":
            budget = budget_from_headers(request)
            item = self.service.make_item(tenant, request.json(), budget)
            result = await self.service.submit(item)
            return Response(
                result.status, result.payload, headers=result.headers
            )
        raise HttpError(404, "not_found", f"no route for {method} {path}")

    def _drain_trace(self) -> Response:
        tracer = self._tracer or _trace.active_tracer()
        if tracer.is_noop:
            return Response(
                200, "", content_type="application/x-ndjson"
            )
        payload = tracer.export_jsonl()
        tracer.clear()
        return Response(
            200, payload, content_type="application/x-ndjson"
        )


def run_server(
    service: Optional[QueryService] = None,
    host: str = "127.0.0.1",
    port: int = 8035,
    tracing: bool = True,
) -> int:
    """Blocking daemon entry point (``repro-ddb serve``)."""
    server = ReproServer(
        service=service, host=host, port=port, tracing=tracing
    )

    async def main() -> None:
        await server.start()
        print(
            f"repro-ddb serve: listening on http://{server.host}:"
            f"{server.port} (engine={server.service.engine}, "
            f"workers={server.service.workers}, "
            f"max-queue={server.service.max_queue})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro-ddb serve: shutting down", flush=True)
    return 0


class BackgroundServer:
    """A daemon running on its own thread + event loop.

    For callers that live in the synchronous world (CLI smoke tests, the
    load bench's subprocess-free mode)::

        with BackgroundServer(QueryService()) as handle:
            client = ServeClient("127.0.0.1", handle.port)
            ...

    The context manager guarantees a clean shutdown: the loop stops, the
    thread joins, the service's worker pool drains.
    """

    def __init__(
        self,
        service: Optional[QueryService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracing: bool = False,
    ):
        self.server = ReproServer(
            service=service, host=host, port=port, tracing=tracing
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def service(self) -> QueryService:
        return self.server.service

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def runner() -> None:
            assert self._loop is not None
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            self._ready.set()
            self._loop.run_forever()
            # Drain the shutdown coroutine scheduled by stop().
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-daemon", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve daemon failed to start in time")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

