"""Retrying HTTP client for the serving gateway.

The resilience layer *sheds* on purpose — 429 on a full queue, 503 while
draining or with the circuit open — and every shed carries a
``Retry-After`` hint.  :class:`ServingClient` is the cooperating caller:
it retries exactly those statuses (and transport failures) with capped
exponential backoff plus jitter, never sleeping less than the server's
``Retry-After``, and surfaces everything else as a structured
:class:`ServingError`.

The sleep function and the jitter RNG are injectable, so retry behavior
is tested deterministically (recorded sleeps, seeded jitter) without a
single real wait.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from collections.abc import Callable, Sequence
from typing import Any

from repro.api.service import PredictRequest
from repro.serving import wire

__all__ = ["ServingClient", "ServingError"]

# Statuses the resilience layer uses for "try again later".
_RETRYABLE_STATUSES = frozenset({429, 503})


class ServingError(Exception):
    """A gateway answer (or transport failure) the client cannot retry.

    ``status`` is the HTTP status, or ``None`` for transport-level
    failures that exhausted the retry budget.
    """

    def __init__(self, status: int | None, message: str) -> None:
        super().__init__(
            message if status is None else f"HTTP {status}: {message}"
        )
        self.status = status
        self.message = message


class ServingClient:
    """One gateway endpoint, with retries the resilience layer expects.

    Parameters
    ----------
    host / port:
        The gateway address.
    token:
        Optional static bearer token, sent as
        ``Authorization: Bearer <token>`` on every request (the
        gateway's :class:`~repro.serving.auth.Authenticator` contract).
    model:
        Optional model name — predictions go to
        ``POST /models/<model>/predict`` instead of the default-model
        ``/predict`` route.
    timeout:
        Per-attempt socket timeout in seconds.
    max_retries:
        How many times a retryable answer (429/503, connection failure)
        is retried before giving up.
    backoff_base_s / backoff_cap_s:
        Exponential backoff: attempt ``k`` waits
        ``min(cap, base * 2**k)`` scaled by jitter in ``[0.5, 1.0)`` —
        but never less than the server's ``Retry-After``.
    failover_retries:
        Transport failures (connection reset/refused) retry
        *immediately* — no backoff sleep — this many consecutive times
        before exponential backoff kicks in, so a one-off dropped
        connection costs no sleep.  The counter resets on any completed
        HTTP exchange.
    sleep / rng:
        Injectable for deterministic tests (defaults: ``time.sleep``,
        a private ``random.Random``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        token: str | None = None,
        model: str | None = None,
        timeout: float = 30.0,
        max_retries: int = 4,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        failover_retries: int = 1,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff knobs must be non-negative")
        if failover_retries < 0:
            raise ValueError("failover_retries must be non-negative")
        self.host = host
        self.port = port
        self.token = token
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.failover_retries = failover_retries
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    # -- public surface -------------------------------------------------
    def predict(
        self, request: PredictRequest | dict, deadline_ms: float | None = None
    ) -> dict:
        """Serve one request; returns the decoded response object."""
        obj = self._encode(request, deadline_ms)
        return self._call("POST", self._predict_path(), obj)

    def predict_many(
        self,
        requests: Sequence[PredictRequest | dict],
        deadline_ms: float | None = None,
    ) -> list[dict]:
        """Serve a list of requests in one HTTP call."""
        objs = [self._encode(r, deadline_ms) for r in requests]
        return self._call("POST", self._predict_path(), objs)

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def models(self) -> dict:
        """The loaded-model listing (``GET /models``)."""
        return self._call("GET", "/models")

    def load_model(self, name: str, path_or_envelope: str | dict) -> dict:
        """Load/hot-reload a model (``PUT /models/<name>``).

        A string is a server-side model file path; a dict is a full
        model envelope shipped in the request body.
        """
        body = (
            {"path": path_or_envelope}
            if isinstance(path_or_envelope, str)
            else path_or_envelope
        )
        return self._call("PUT", f"/models/{name}", body)

    def unload_model(self, name: str) -> dict:
        """Drain-then-unload a model (``DELETE /models/<name>``)."""
        return self._call("DELETE", f"/models/{name}")

    # -- design-space exploration ---------------------------------------
    def submit_dse(self, spec: dict) -> dict:
        """Submit a DSE sweep (``POST /dse``); returns the 202 job ticket."""
        return self._call("POST", "/dse", dict(spec))

    def dse_jobs(self) -> dict:
        """All tracked DSE jobs (``GET /dse``)."""
        return self._call("GET", "/dse")

    def dse_status(self, job_id: str) -> dict:
        """One job's status + progress (``GET /dse/<id>``)."""
        return self._call("GET", f"/dse/{job_id}")

    def dse_results(self, job_id: str, top: int | None = None) -> dict:
        """A finished job's ranked results (409 until it is done)."""
        path = f"/dse/{job_id}/results"
        if top is not None:
            path += f"?top={top}"
        return self._call("GET", path)

    def cancel_dse(self, job_id: str) -> dict:
        """Request cancellation (``DELETE /dse/<id>``)."""
        return self._call("DELETE", f"/dse/{job_id}")

    def wait_dse(
        self, job_id: str, timeout: float = 300.0, poll_s: float = 0.25
    ) -> dict:
        """Poll until the job leaves pending/running; returns the final
        status snapshot (raises :class:`ServingError` on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.dse_status(job_id)
            if status.get("state") not in ("pending", "running"):
                return status
            if time.monotonic() >= deadline:
                raise ServingError(
                    None,
                    f"DSE job {job_id} still {status.get('state')} "
                    f"after {timeout:g}s",
                )
            self._sleep(poll_s)

    def _predict_path(self) -> str:
        if self.model is None:
            return "/predict"
        return f"/models/{self.model}/predict"

    # -- internals ------------------------------------------------------
    @staticmethod
    def _encode(
        request: PredictRequest | dict, deadline_ms: float | None
    ) -> dict:
        obj = (
            wire.encode_request(request)
            if isinstance(request, PredictRequest)
            else dict(request)
        )
        if deadline_ms is not None:
            obj["deadline_ms"] = deadline_ms
        return obj

    def _send(
        self, method: str, path: str, payload: Any
    ) -> tuple[int, dict, Any]:
        """One HTTP attempt; returns (status, lowercase headers, body)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {"Content-Type": "application/json"}
            if self.token is not None:
                headers["Authorization"] = f"Bearer {self.token}"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
            try:
                decoded = json.loads(raw.decode()) if raw else None
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = None
            return response.status, headers, decoded
        finally:
            conn.close()

    def _call(self, method: str, path: str, payload: Any = None) -> Any:
        attempt = 0
        transport_failures = 0
        while True:
            try:
                status, headers, decoded = self._send(method, path, payload)
            except (OSError, http.client.HTTPException) as exc:
                transport_failures += 1
                if attempt >= self.max_retries:
                    raise ServingError(
                        None, f"gateway unreachable after {attempt + 1} "
                        f"attempts: {exc}"
                    ) from exc
                if transport_failures > self.failover_retries:
                    self._backoff(attempt, None)
                # else: immediate retry on a fresh connection.
                attempt += 1
                continue
            transport_failures = 0
            if status < 400:
                return decoded
            message = ""
            if isinstance(decoded, dict):
                message = decoded.get("error", {}).get("message", "")
            if status in _RETRYABLE_STATUSES and attempt < self.max_retries:
                self._backoff(attempt, headers.get("retry-after"))
                attempt += 1
                continue
            raise ServingError(status, message or f"no body ({method} {path})")

    def _backoff(self, attempt: int, retry_after: str | None) -> None:
        """Sleep before retry ``attempt``: capped exponential backoff with
        jitter, floored by the server's ``Retry-After``."""
        wait = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        wait *= 0.5 + self._rng.random() / 2
        if retry_after is not None:
            try:
                wait = max(wait, float(retry_after))
            except ValueError:
                pass
        self._sleep(wait)
