"""``repro.serving`` — the async HTTP serving layer over ``repro.api``.

A fitted AutoPower-style model answers architecture-side power queries
from performance-simulator events alone — no EDA flow in the loop —
which makes it a natural long-running service.  This package is that
service: an asyncio HTTP/JSON gateway (stdlib only, no new runtime
dependencies) whose core is a **cross-request micro-batcher** — requests
from concurrent HTTP callers coalesce into shared
:meth:`~repro.api.service.PredictionService.submit_many` calls, with
responses bitwise-equal to direct per-request service calls.

* :class:`Gateway` — the asyncio server (``POST /predict``,
  ``POST /models/<name>/predict``, model admin under ``/models``,
  ``GET /healthz``, ``GET /stats``),
* :class:`ModelFleet` — a size-bounded LRU map of named models, each
  behind its own :class:`MicroBatcher`, with atomic hot reload
  (``PUT /models/<name>``) and drain-then-unload
  (``DELETE /models/<name>``),
* :class:`MicroBatcher` — the queue/flush coalescing layer,
* :class:`GatewayThread` — a synchronous handle running the gateway on
  a background event loop (what tests and benchmarks use),
* :class:`Authenticator` / :class:`RateLimiter` — static bearer-token
  auth (401/403) and per-client token buckets (429 + ``Retry-After``),
  layered *before* any model work,
* :func:`run_worker_pool` / :class:`Supervisor` — ``serve --workers
  N``: shared-nothing ``SO_REUSEPORT`` worker processes under a
  self-healing parent control plane that merges ``/stats``
  (:func:`merge_stats`), fans out model admin (journaled in an
  :class:`AdminJournal` and replayed to restarted workers), restarts
  crashed workers with exponential backoff behind a
  :class:`CrashLoopBreaker`, and reports ``degraded`` while a
  replacement comes up,
* :mod:`repro.serving.wire` — the JSON request/response codec with
  structured 400/422 errors,
* :mod:`repro.serving.resilience` — admission control (bounded queue,
  429 + ``Retry-After``), per-request deadlines (504), a circuit
  breaker around the model worker (503) and graceful drain
  (:class:`ResilienceConfig` carries the knobs),
* :class:`ServingClient` — the retrying HTTP client (capped exponential
  backoff + jitter, honors ``Retry-After``; ``token=`` / ``model=``
  select credentials and the routed model),
* :mod:`repro.serving.faults` — deterministic fault injection at the
  service boundary (and, via :class:`ProcessChaos`, at the process
  level), for testing all of the above without sleeps.

Command line::

    python -m repro serve --model model.json --port 8000 --workers 2 \
        --auth-token-env REPRO_TOKEN --rate-limit 50 --max-batch-size 64 \
        --queue-depth 1024 --default-deadline-ms 2000 --drain-timeout 10
"""

from repro.serving.auth import (
    AuthError,
    Authenticator,
    RateLimitedError,
    RateLimiter,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.client import ServingClient, ServingError
from repro.serving.faults import ProcessChaos
from repro.serving.fleet import (
    FleetEntry,
    FleetError,
    ModelFleet,
    format_announce,
    merge_stats,
    parse_announce,
    run_worker_pool,
)
from repro.serving.gateway import Gateway, GatewayStats, GatewayThread
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    DrainingError,
    OverloadError,
    ResilienceConfig,
    ResilienceError,
)
from repro.serving.supervisor import (
    AdminJournal,
    CrashLoopBreaker,
    RestartBackoff,
    Supervisor,
)
from repro.serving.wire import WireError

__all__ = [
    "AdminJournal",
    "AuthError",
    "Authenticator",
    "CircuitBreaker",
    "CircuitOpenError",
    "CrashLoopBreaker",
    "DeadlineExceededError",
    "DrainingError",
    "FleetEntry",
    "FleetError",
    "Gateway",
    "GatewayStats",
    "GatewayThread",
    "MicroBatcher",
    "ModelFleet",
    "OverloadError",
    "ProcessChaos",
    "RateLimitedError",
    "RateLimiter",
    "ResilienceConfig",
    "ResilienceError",
    "RestartBackoff",
    "ServingClient",
    "ServingError",
    "Supervisor",
    "WireError",
    "format_announce",
    "merge_stats",
    "parse_announce",
    "run_worker_pool",
]
