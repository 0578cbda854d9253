"""Asyncio HTTP/JSON gateway over the prediction service fleet.

A deliberately small HTTP/1.1 server hand-rolled on
:func:`asyncio.start_server` — no web framework, no new dependencies.
The data-plane endpoints:

* ``POST /predict`` — one request object or a list of them (see
  :mod:`repro.serving.wire`); routes to the *default* model.  Every
  request flows through that model's cross-request
  :class:`~repro.serving.batcher.MicroBatcher`, so concurrent callers
  coalesce into shared model calls.
* ``POST /models/<name>/predict`` — the same contract against any
  loaded model; each model batches independently.
* ``GET /healthz`` — liveness plus the loaded models and the request
  kinds the default model can serve.  Never requires auth (probes).
* ``GET /stats`` — the default model's
  :class:`~repro.api.service.ServiceStats` snapshot plus gateway-level
  counters, the per-model fleet block, and the auth / per-client
  rate-limit counters (client identities are one-way digests — bearer
  tokens never appear).

The DSE plane (:mod:`repro.dse.jobs` — async design-space exploration):

* ``POST /dse`` — submit a parameter grid (axes over raw Table II rows
  x workloads x method); answers 202 with a job id immediately, the
  sweep runs on a background thread through the disk-cached flow.
* ``GET /dse`` / ``GET /dse/<id>`` — job listing / status + progress.
* ``GET /dse/<id>/results?top=N`` — ranked results (409 until done).
* ``DELETE /dse/<id>`` — request cancellation.

DSE jobs live in *this* worker's memory: poll the same worker that
accepted the submit (with ``SO_REUSEPORT`` pools, use one worker or the
per-worker control port).

And the admin plane (:class:`~repro.serving.fleet.ModelFleet`):

* ``PUT /models/<name>`` — load or hot-reload a model from a
  server-side file path or a full v2 envelope in the body; the swap is
  atomic and in-flight requests finish on the old model bitwise.
* ``DELETE /models/<name>`` — drain-then-unload.
* ``GET /models`` / ``GET /models/<name>`` — the loaded-model listing.

When an :class:`~repro.serving.auth.Authenticator` is configured, every
route except ``/healthz`` requires ``Authorization: Bearer <token>``
(401 missing/malformed, 403 wrong) — checked before any body decoding
or model work.  A configured :class:`~repro.serving.auth.RateLimiter`
spends one token per prediction request from the per-client bucket and
sheds 429 + ``Retry-After`` on exhaustion, independently per client.

Connections are keep-alive by default (``Connection: close`` honored);
errors answer with the structured body from
:func:`repro.serving.wire.encode_error` — 400 for malformed requests,
401/403 from auth, 404 for unknown routes *and* unknown model names,
408 for a peer that stalls mid-request, 413/431 for oversized bodies or
header blocks, 422 for kinds the routed model cannot serve, 429/503/504
from the resilience and rate-limit layers (with ``Retry-After``), 500
for unexpected server-side failures.

Shutdown is graceful by default: :meth:`Gateway.stop` (and
``GatewayThread.stop``) closes the listener(s), cancels idle keep-alive
connections, lets in-flight requests finish — their responses stay
bitwise-equal to direct service calls — and only then tears every
model's batcher down, all bounded by the config's ``drain_timeout_s``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from collections import deque
from concurrent.futures import TimeoutError as _FutureTimeoutError
from functools import partial
from typing import Any

from repro.api.service import PredictionService
from repro.dse.jobs import DseError, DseJobManager
from repro.serving import wire
from repro.serving.auth import AuthError, Authenticator, RateLimiter
from repro.serving.fleet import FleetEntry, FleetError, ModelFleet
from repro.serving.resilience import ResilienceConfig, ResilienceError

__all__ = ["Gateway", "GatewayStats", "GatewayThread"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """Transport-level refusal (malformed HTTP); closes the connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _top_from_query(query: str) -> int | None:
    """``top=N`` from a raw query string (None when absent)."""
    for part in query.split("&"):
        name, sep, value = part.partition("=")
        if sep and name == "top":
            try:
                return int(value)
            except ValueError:
                raise wire.WireError(
                    400, f"'top' must be an integer, got {value!r}"
                ) from None
    return None


class GatewayStats:
    """Gateway-level counters (the batching layer's observability)."""

    def __init__(self, latency_window: int = 1024) -> None:
        self.http_requests = 0
        self.predict_requests = 0
        self.predict_responses = 0
        self.errors: dict[int, int] = {}
        self._latencies: deque[float] = deque(maxlen=latency_window)

    def record_error(self, status: int) -> None:
        self.errors[status] = self.errors.get(status, 0) + 1

    def record_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def latency_ms(self) -> dict:
        """p50/p95 request latency (ms) over the sliding window."""
        if not self._latencies:
            return {"window": 0, "p50": None, "p95": None}
        ordered = sorted(self._latencies)

        def percentile(p: float) -> float:
            index = min(len(ordered) - 1, round(p * (len(ordered) - 1)))
            return ordered[index] * 1e3

        return {
            "window": len(ordered),
            "p50": percentile(0.50),
            "p95": percentile(0.95),
        }

    def snapshot(self) -> dict:
        return {
            "http_requests": self.http_requests,
            "predict_requests": self.predict_requests,
            "predict_responses": self.predict_responses,
            "errors": {str(k): v for k, v in sorted(self.errors.items())},
            "latency_ms": self.latency_ms(),
        }


class Gateway:
    """The HTTP front end: one model fleet, one (or two) listeners.

    ``service`` accepts either a single
    :class:`~repro.api.service.PredictionService` (wrapped as the fleet's
    default model — the pre-fleet call shape) or a ready
    :class:`~repro.serving.fleet.ModelFleet`.  ``port=0`` binds an
    ephemeral port; the bound port is on :attr:`port` after
    :meth:`start`.  ``resilience`` carries the
    admission/deadline/breaker/drain knobs
    (:class:`~repro.serving.resilience.ResilienceConfig`); ``clock`` is
    the injectable monotonic time source the fault-injection tests use.

    Fleet-worker extras: ``reuse_port=True`` binds the data listener
    with ``SO_REUSEPORT`` (so sibling workers share the port), and
    ``control_port`` (e.g. ``0``) binds a second loopback listener
    serving the same routes — the per-worker admin/stats plane the pool
    parent fans out to.
    """

    def __init__(
        self,
        service: PredictionService | ModelFleet,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 64,
        resilience: ResilienceConfig | None = None,
        clock: Any = None,
        auth: Authenticator | None = None,
        rate_limiter: RateLimiter | None = None,
        reuse_port: bool = False,
        control_port: int | None = None,
    ) -> None:
        self.host = host
        self.port: int | None = None
        self._requested_port = port
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        if isinstance(service, ModelFleet):
            self.fleet = service
        else:
            self.fleet = ModelFleet(
                max_batch_size=max_batch_size,
                resilience=self.resilience,
                clock=clock,
            )
            self.fleet.add_service(service)
        self.auth = auth if auth is not None else Authenticator()
        self.rate_limiter = (
            rate_limiter if rate_limiter is not None else RateLimiter(None)
        )
        self.dse = DseJobManager()
        self.reuse_port = reuse_port
        self.control_port: int | None = None
        self._requested_control_port = control_port
        self.stats = GatewayStats()  # guarded-by: loop
        self._server: asyncio.base_events.Server | None = None
        self._control_server: asyncio.base_events.Server | None = None
        # Live connection handlers and their phase ("idle" = waiting for
        # the next request on a keep-alive connection, "busy" = a parsed
        # request is being served) — what graceful drain walks.
        self._handlers: dict[asyncio.Task, dict] = {}  # guarded-by: loop

    # Back-compat accessors: the default model's service and batcher
    # (the pre-fleet single-model surface tests and embedders use).
    @property
    def service(self) -> PredictionService:
        return self.fleet.peek(self.fleet.default_model).service

    @property
    def batcher(self):
        return self.fleet.peek(self.fleet.default_model).batcher

    @property
    def draining(self) -> bool:
        return self.fleet.draining

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.fleet.start()
        kwargs = {"reuse_port": True} if self.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self._requested_port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._requested_control_port is not None:
            self._control_server = await asyncio.start_server(
                self._handle_client, "127.0.0.1", self._requested_control_port
            )
            self.control_port = (
                self._control_server.sockets[0].getsockname()[1]
            )

    async def stop(
        self, drain: bool = True, drain_timeout: float | None = None
    ) -> None:
        """Stop the gateway.

        ``drain=True`` (default) is the graceful path: close the
        listeners, stop admitting new requests (they answer 503), cancel
        idle keep-alive connections, wait for busy handlers — their
        in-flight responses complete bitwise-equal — then drain and stop
        every model's batcher.  ``drain=False`` hard-cancels everything.
        Both are bounded by ``drain_timeout`` (default: the config's
        ``drain_timeout_s``) and idempotent.
        """
        if drain_timeout is None:
            drain_timeout = self.resilience.drain_timeout_s
        servers = [
            s
            for s in (self._server, self._control_server)
            if s is not None
        ]
        self._server = None
        self._control_server = None
        for server in servers:
            server.close()
        # Background DSE sweeps stop first: they check their cancel flag
        # between chunks, so they wind down while the handlers drain.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self.dse.stop, drain_timeout if drain else 1.0)
        )
        if drain:
            # New submissions refuse with 503 from this point on; busy
            # handlers' already-submitted requests still complete.
            self.fleet.begin_drain()
            await self._drain_handlers(drain_timeout)
        else:
            for task in list(self._handlers):
                task.cancel()
            await self._drain_handlers(1.0)
        await self.fleet.stop(drain=drain, drain_timeout=drain_timeout)
        for server in servers:
            # After the handlers above finished this returns promptly on
            # every supported Python (3.12+ waits for handler tasks).
            await server.wait_closed()

    async def _drain_handlers(self, timeout: float) -> None:
        """Cancel idle connections, then wait out the busy ones."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        for task, state in list(self._handlers.items()):
            if state["phase"] == "idle":
                task.cancel()
        pending = [task for task in self._handlers if not task.done()]
        if pending:
            _done, still = await asyncio.wait(
                pending, timeout=max(0.0, deadline - loop.time())
            )
            for task in still:  # drain budget exhausted: hard-cancel
                task.cancel()
            if still:
                await asyncio.wait(still, timeout=1.0)

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = {"phase": "idle"}
        task = asyncio.current_task()
        self._handlers[task] = state
        peername = writer.get_extra_info("peername")
        peer_host = peername[0] if isinstance(peername, tuple) else "unknown"
        try:
            while True:
                state["phase"] = "idle"
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:
                    state["phase"] = "busy"
                    self.stats.record_error(exc.status)
                    await self._respond(
                        writer,
                        exc.status,
                        wire.encode_error(exc.status, exc.message),
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break
                state["phase"] = "busy"
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                self.stats.http_requests += 1
                extra_headers = None
                try:
                    client = self._authenticate(path, headers, peer_host)
                    status, payload = await self._dispatch(
                        method, path, body, client
                    )
                except AuthError as exc:
                    status, payload = exc.status, wire.encode_error(
                        exc.status, exc.message
                    )
                    if exc.status == 401:
                        extra_headers = {"WWW-Authenticate": "Bearer"}
                except wire.WireError as exc:
                    status, payload = exc.status, wire.encode_error(
                        exc.status, exc.message
                    )
                except DseError as exc:
                    status, payload = exc.status, wire.encode_error(
                        exc.status, exc.message
                    )
                except FleetError as exc:
                    status, payload = exc.status, wire.encode_error(
                        exc.status, exc.message
                    )
                except ResilienceError as exc:
                    status, payload = exc.status, wire.encode_error(
                        exc.status, exc.message
                    )
                    if exc.retry_after is not None:
                        extra_headers = {"Retry-After": str(exc.retry_after)}
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # unexpected server-side failure
                    status, payload = 500, wire.encode_error(
                        500, f"{type(exc).__name__}: {exc}"
                    )
                if status >= 400:
                    self.stats.record_error(status)
                keep_alive = keep_alive and not self.draining
                await self._respond(
                    writer, status, payload, keep_alive, extra_headers
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with the connection idle: close quietly
            # (asyncio.streams' connection callback would otherwise log
            # the cancellation as an unhandled task exception).
            pass
        finally:
            self._handlers.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _authenticate(
        self, path: str, headers: dict, peer_host: str
    ) -> str:
        """Gate one parsed request; returns the rate-limit client key.

        ``/healthz`` stays open for liveness probes.  With auth enabled
        the client identity is the token's one-way digest; without it,
        the peer address — either way the raw token never lands in a
        counter or a stats payload.
        """
        if path.split("?", 1)[0] == "/healthz":
            return peer_host
        digest = self.auth.check(headers.get("authorization"))
        return digest if digest is not None else peer_host

    async def _read(self, coro, first_line: bool):
        """One bounded stream read.

        A peer that stalls mid-request answers 408 and loses the
        connection — a slow client must not be able to hold a handler
        (and therefore a drain) hostage.  A timeout while *waiting* for
        the next request on an idle keep-alive connection is not an
        error; the connection is just closed.
        """
        timeout = self.resilience.read_timeout_s
        if timeout is None:
            return await coro
        try:
            return await asyncio.wait_for(coro, timeout)
        except asyncio.TimeoutError:
            if first_line:
                return None
            raise _HttpError(
                408, f"timed out reading request after {timeout:g}s"
            ) from None

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP request; ``None`` on a cleanly closed connection."""
        try:
            line = await self._read(reader.readline(), first_line=True)
        except ValueError:  # request line longer than the stream limit
            raise _HttpError(400, "request line too long") from None
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        header_bytes = 0
        max_count = self.resilience.max_header_count
        max_bytes = self.resilience.max_header_bytes
        while True:
            try:
                header_line = await self._read(
                    reader.readline(), first_line=False
                )
            except ValueError:
                raise _HttpError(400, "header line too long") from None
            if header_line in (b"\r\n", b"\n"):
                break
            if not header_line:
                return None
            header_bytes += len(header_line)
            if len(headers) >= max_count:
                raise _HttpError(
                    431, f"more than {max_count} request headers"
                )
            if header_bytes > max_bytes:
                raise _HttpError(
                    431, f"request headers exceed {max_bytes} bytes"
                )
            name, sep, value = header_line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        body = (
            await self._read(reader.readexactly(length), first_line=False)
            if length
            else b""
        )
        return method.upper(), path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
        extra_headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes, client: str):
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, wire.encode_error(405, "use GET /healthz")
            return 200, self._healthz_payload()
        if path == "/stats":
            if method != "GET":
                return 405, wire.encode_error(405, "use GET /stats")
            return 200, self._stats_payload()
        if path == "/predict":
            if method != "POST":
                return 405, wire.encode_error(405, "use POST /predict")
            return await self._predict(body, self.fleet.entry(None), client)
        if path == "/models":
            if method != "GET":
                return 405, wire.encode_error(
                    405, "use GET /models (admin ops go to /models/<name>)"
                )
            return 200, self._models_payload()
        if path == "/dse":
            if method == "POST":
                return self._dse_submit(body, client)
            if method == "GET":
                return 200, self.dse.list_payload()
            return 405, wire.encode_error(405, "use POST or GET /dse")
        if path.startswith("/dse/"):
            parts = [p for p in path[len("/dse/") :].split("/") if p]
            if len(parts) == 1:
                job_id = parts[0]
                if method == "GET":
                    return 200, self.dse.get(job_id).snapshot()
                if method == "DELETE":
                    return 200, self.dse.cancel(job_id)
                return 405, wire.encode_error(
                    405, f"use GET/DELETE /dse/{job_id}"
                )
            if len(parts) == 2 and parts[1] == "results":
                if method != "GET":
                    return 405, wire.encode_error(
                        405, f"use GET /dse/{parts[0]}/results"
                    )
                return 200, self.dse.get(parts[0]).results_payload(
                    _top_from_query(query)
                )
        if path.startswith("/models/"):
            parts = [p for p in path[len("/models/") :].split("/") if p]
            if len(parts) == 2 and parts[1] == "predict":
                if method != "POST":
                    return 405, wire.encode_error(
                        405, f"use POST /models/{parts[0]}/predict"
                    )
                return await self._predict(
                    body, self.fleet.entry(parts[0]), client
                )
            if len(parts) == 1:
                name = parts[0]
                if method == "PUT":
                    return await self._load_model(name, body)
                if method == "DELETE":
                    return 200, await self.fleet.unload(name)
                if method == "GET":
                    return 200, self.fleet.peek(name).info()
                return 405, wire.encode_error(
                    405, f"use PUT/DELETE/GET /models/{name}"
                )
        return 404, wire.encode_error(404, f"no route for {path!r}")

    def _dse_submit(self, body: bytes, client: str):
        """``POST /dse``: validate synchronously, run on a daemon thread.

        Submission is cheap (grid arithmetic, no flow work), so it runs
        on the event loop; the sweep itself never touches the loop.
        Draining gateways refuse with 503, and a submission spends one
        rate-limit token like a prediction request.
        """
        if self.draining:
            raise DseError(503, "gateway is draining; not accepting DSE jobs")
        self.rate_limiter.admit(client, cost=1)
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise wire.WireError(400, "request body is not valid JSON") from None
        spec = wire.decode_dse_submit(payload)
        job = self.dse.submit(spec)
        return 202, {
            **job.snapshot(),
            "poll": f"/dse/{job.id}",
            "results": f"/dse/{job.id}/results",
        }

    def _healthz_payload(self) -> dict:
        try:
            default = self.fleet.peek(self.fleet.default_model)
        except FleetError:
            default = None
        return {
            "status": "draining" if self.draining else "ok",
            "model": (
                type(default.model).__name__ if default is not None else None
            ),
            "kinds": (
                list(wire.supported_kinds(default.model))
                if default is not None
                else []
            ),
            "models": self.fleet.names(),
            "default_model": self.fleet.default_model,
            "workers": 1,
            # The worker's pid: the chaos harness and supervisor tests
            # pick SIGKILL targets from the fleet /healthz fan-out.
            "pid": os.getpid(),
        }

    def _stats_payload(self) -> dict:
        try:
            default = self.fleet.peek(self.fleet.default_model)
        except FleetError:
            default = None
        entries = [self.fleet.peek(name) for name in self.fleet.names()]
        flushes = sum(e.batcher.flushes for e in entries)
        flushed_requests = sum(e.batcher.flushed_requests for e in entries)
        return {
            "service": (
                default.service.stats_snapshot()
                if default is not None
                else None
            ),
            "gateway": {
                **self.stats.snapshot(),
                "queue_depth": sum(e.batcher.queue_depth for e in entries),
                "flushes": flushes,
                "flushed_requests": flushed_requests,
                "mean_flush_size": (
                    flushed_requests / flushes if flushes else None
                ),
                "max_flush_size": max(
                    (e.batcher.max_flush_size for e in entries), default=0
                ),
            },
            "resilience": (
                default.batcher.resilience_snapshot()
                if default is not None
                else None
            ),
            "fleet": self.fleet.snapshot(),
            "dse": self.dse.snapshot(),
            "auth": self.auth.snapshot(),
            "rate_limit": self.rate_limiter.snapshot(),
        }

    def _models_payload(self) -> dict:
        return {
            "default_model": self.fleet.default_model,
            "max_models": self.fleet.max_models,
            "models": {
                name: self.fleet.peek(name).info()
                for name in self.fleet.names()
            },
        }

    async def _load_model(self, name: str, body: bytes):
        """``PUT /models/<name>``: load/hot-reload from a path or envelope.

        The (possibly slow) model-state decode runs on the default
        executor so the event loop keeps serving; the fleet swap itself
        happens on the loop and is atomic.
        """
        from repro.serving.fleet import validate_model_name

        validate_model_name(name)  # 400 before any body or model work
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise wire.WireError(400, "request body is not valid JSON") from None
        kind, value = wire.decode_model_load(payload)
        import repro.api as api

        loader = (
            partial(api.load_model, value)
            if kind == "path"
            else partial(api.model_from_envelope, value)
        )
        loop = asyncio.get_running_loop()
        try:
            model = await loop.run_in_executor(None, loader)
        except (OSError, ValueError, KeyError) as exc:
            source = value if kind == "path" else "request envelope"
            raise wire.WireError(
                400, f"cannot load model from {source!r}: {exc}"
            ) from None
        source = f"path:{value}" if kind == "path" else "envelope"
        return 200, await self.fleet.load(name, model, source)

    async def _predict(self, body: bytes, entry: FleetEntry, client: str):
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise wire.WireError(400, "request body is not valid JSON") from None
        single = isinstance(payload, dict)
        items = [payload] if single else payload
        if not isinstance(items, list):
            raise wire.WireError(400, "request must be an object or a list")
        if not items:
            raise wire.WireError(400, "request list is empty")
        # Per-client rate limiting: one bucket token per prediction
        # request, spent before any decoding or model work.
        self.rate_limiter.admit(client, cost=len(items))
        model = entry.service.model
        requests = [wire.decode_request(obj, model=model) for obj in items]
        # Count at admission (not on success), so the /stats error ratio
        # predict_responses / predict_requests means what it says.
        self.stats.predict_requests += len(requests)
        loop = asyncio.get_running_loop()
        start = loop.time()
        # return_exceptions so one failing request doesn't leave its
        # siblings' exceptions unretrieved; wire validation already ran,
        # so a failure here is either a resilience shed (mapped to its
        # status upstream) or a server-side error for the whole call.
        responses = await asyncio.gather(
            *(entry.batcher.submit(request) for request in requests),
            return_exceptions=True,
        )
        self.stats.record_latency(loop.time() - start)
        for response in responses:
            if isinstance(response, BaseException):
                raise response
        self.stats.predict_responses += len(responses)
        encoded = [wire.encode_response(response) for response in responses]
        return 200, (encoded[0] if single else encoded)


class GatewayThread:
    """Run a :class:`Gateway` on a private event loop in a daemon thread.

    The synchronous-world handle tests, benchmarks and embedding callers
    use: ``start()`` returns once the port is bound, ``stop()`` drains
    gracefully by default and tears the loop down.  Usable as a context
    manager.
    """

    def __init__(
        self,
        service: PredictionService | ModelFleet,
        **gateway_kwargs: Any,
    ) -> None:
        self.gateway = Gateway(service, **gateway_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def host(self) -> str:
        return self.gateway.host

    def start(self) -> GatewayThread:
        if self._thread is not None:
            raise RuntimeError("gateway thread is already running")
        ready = threading.Event()
        startup_error: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.gateway.start())
            except BaseException as exc:  # surface bind failures to start()
                startup_error.append(exc)
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                # Idempotent: a graceful stop() already ran the drain on
                # this loop; this covers the hard-stop and crash paths.
                loop.run_until_complete(self.gateway.stop(drain=False))
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        ready.wait()
        if startup_error:
            self._thread.join()
            self._thread = None
            raise startup_error[0]
        return self

    def stop(
        self, drain: bool = True, drain_timeout: float | None = None
    ) -> None:
        """Stop the gateway and its event-loop thread.

        ``drain=True`` (default) completes in-flight requests first,
        bounded by ``drain_timeout`` (default: the config's
        ``drain_timeout_s``).  If the loop thread fails to stop within
        its join budget this *raises* with diagnostic state instead of
        silently leaking a wedged daemon thread — the handle keeps its
        references so the caller can inspect or retry.
        """
        if self._thread is None:
            return
        if drain and self._loop.is_running():
            budget = (
                drain_timeout
                if drain_timeout is not None
                else self.gateway.resilience.drain_timeout_s
            )
            try:
                asyncio.run_coroutine_threadsafe(
                    self.gateway.stop(drain=True, drain_timeout=drain_timeout),
                    self._loop,
                ).result(timeout=budget + 10.0)
            except _FutureTimeoutError:
                pass  # diagnosed below: the join will time out too
            except RuntimeError:
                pass  # loop shut down concurrently; the join settles it
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            # A wedged loop must not be silently leaked: keep the
            # references (so the caller can inspect or retry) and raise
            # with enough state to debug what is stuck.
            fleet = self.gateway.fleet
            queue_depth = sum(
                fleet.peek(name).batcher.queue_depth
                for name in fleet.names()
            )
            raise RuntimeError(
                "gateway event loop failed to stop within 10s: "
                f"thread {self._thread.name!r} is still alive, "
                f"loop running={self._loop.is_running()}, "
                f"draining={self.gateway.draining}, "
                f"queue_depth={queue_depth}, "
                f"open_connections={len(self.gateway._handlers)}"
            )
        self._thread = None
        self._loop = None

    def __enter__(self) -> GatewayThread:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
