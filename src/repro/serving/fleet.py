"""The model fleet: multi-model routing with atomic hot reload.

:class:`ModelFleet` is a size-bounded LRU cache of named,
independently-batched models sitting under the HTTP gateway.  Each
entry owns its own :class:`~repro.api.service.PredictionService` and
:class:`~repro.serving.batcher.MicroBatcher`, so one slow model's queue
never blocks another's.  ``load`` hot-reloads atomically: the new entry
is swapped in first (new requests route to the new model immediately),
then the old entry's batcher drains — requests already submitted finish
on the *old* model, bitwise-equal to direct service calls.  ``unload``
is drain-then-remove.  Exceeding ``max_models`` evicts the
least-recently-routed entry (the default model is never evicted).

``serve`` prints one machine-parseable line once it is up::

    REPRO-SERVING addr=http://127.0.0.1:8000 pid=1234

(:func:`format_announce` / :func:`parse_announce`); smoke scripts and
tests parse it instead of racing on a hardcoded port.
"""

from __future__ import annotations

import asyncio
import os
import re
from collections.abc import Callable
from typing import Any

from repro.api.service import PredictionService
from repro.serving import wire
from repro.serving.batcher import MicroBatcher
from repro.serving.resilience import ResilienceConfig

__all__ = [
    "FleetError",
    "FleetEntry",
    "ModelFleet",
    "format_announce",
    "parse_announce",
]

_MODEL_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_ANNOUNCE_PREFIX = "REPRO-SERVING "


class FleetError(Exception):
    """A fleet admin/routing refusal, with the HTTP status to answer.

    404 for an unknown model name, 400 for an invalid one, 409 when the
    cache cannot make room without evicting the default model.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def validate_model_name(name: str) -> str:
    """A model name must be a safe URL path segment."""
    if not isinstance(name, str) or not _MODEL_NAME_RE.match(name):
        raise FleetError(
            400,
            "model names must be 1-64 characters of [A-Za-z0-9._-], "
            f"got {name!r}",
        )
    return name


class FleetEntry:
    """One loaded model: its service, its batcher, its identity."""

    def __init__(
        self,
        name: str,
        model: Any,
        service: PredictionService,
        batcher: MicroBatcher,
        source: str = "init",
        generation: int = 1,
    ) -> None:
        self.name = name
        self.model = model
        self.service = service
        self.batcher = batcher
        self.source = source
        self.generation = generation

    @property
    def method(self) -> str:
        from repro.api.registry import spec_for

        try:
            return spec_for(self.model).name
        except KeyError:
            return type(self.model).__name__

    def info(self) -> dict:
        return {
            "name": self.name,
            "method": self.method,
            "kinds": list(wire.supported_kinds(self.model)),
            "source": self.source,
            "generation": self.generation,
        }


class ModelFleet:
    """A size-bounded LRU map of named models, each behind its own batcher.

    Parameters
    ----------
    max_models:
        LRU bound on concurrently loaded models; exceeding it evicts the
        least-recently-routed non-default entry (drain-then-unload).
    default_model:
        The name legacy ``/predict`` routes to (default ``"default"``).
    max_batch_size / resilience / clock:
        Per-entry :class:`~repro.serving.batcher.MicroBatcher` knobs —
        every entry gets its own batcher built from the same knobs.
    service_kwargs:
        Passed to :class:`~repro.api.service.PredictionService` for
        models loaded at runtime (``n_jobs=...``).

    All mutating operations run on the gateway's event loop and are
    serialized by one admin lock, so concurrent ``PUT``/``DELETE``
    cannot interleave a half-swapped entry.
    """

    def __init__(
        self,
        max_models: int = 8,
        default_model: str = "default",
        max_batch_size: int = 64,
        resilience: ResilienceConfig | None = None,
        clock: Callable[[], float] | None = None,
        service_kwargs: dict | None = None,
    ) -> None:
        if max_models < 1:
            raise ValueError("max_models must be positive")
        self.max_models = max_models
        self.default_model = validate_model_name(default_model)
        self.max_batch_size = max_batch_size
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._clock = clock
        self.service_kwargs = dict(service_kwargs or {})
        self._entries: dict[str, FleetEntry] = {}  # insertion order = LRU
        self._lock = asyncio.Lock()
        self._started = False
        self.loads = 0
        self.reloads = 0
        self.unloads = 0
        self.evictions = 0

    # -- construction ---------------------------------------------------
    def _new_entry(
        self, name: str, model: Any, source: str, generation: int = 1
    ) -> FleetEntry:
        service = PredictionService(model, **self.service_kwargs)
        return self._entry_for_service(name, service, source, generation)

    def _entry_for_service(
        self,
        name: str,
        service: PredictionService,
        source: str,
        generation: int = 1,
    ) -> FleetEntry:
        batcher = MicroBatcher(
            service,
            max_batch_size=self.max_batch_size,
            resilience=self.resilience,
            clock=self._clock,
            name=name,
        )
        return FleetEntry(
            name, service.model, service, batcher, source, generation
        )

    def add_service(
        self, service: PredictionService, name: str | None = None
    ) -> FleetEntry:
        """Register a pre-built service before the fleet starts.

        The back-compat seam: ``Gateway(service)`` lands here as the
        default model.
        """
        if self._started:
            raise RuntimeError("use load() once the fleet is running")
        name = validate_model_name(name or self.default_model)
        if not self.service_kwargs:
            # Inherit the seed service's fan-out for later loads
            # (guarded: fault-injection wrappers may not expose it).
            self.service_kwargs = {"n_jobs": getattr(service, "n_jobs", None)}
        entry = self._entry_for_service(name, service, source="init")
        self._entries[name] = entry
        return entry

    def add_model(self, name: str, model: Any, source: str = "init") -> FleetEntry:
        """Register a model before the fleet starts (CLI preloading)."""
        if self._started:
            raise RuntimeError("use load() once the fleet is running")
        name = validate_model_name(name)
        if name in self._entries:
            raise FleetError(409, f"model {name!r} is already loaded")
        if len(self._entries) >= self.max_models:
            raise FleetError(
                409,
                f"cannot preload more than max_models={self.max_models} models",
            )
        entry = self._new_entry(name, model, source)
        self._entries[name] = entry
        return entry

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        for entry in self._entries.values():
            await entry.batcher.start()
        self._started = True

    def begin_drain(self) -> None:
        for entry in self._entries.values():
            entry.batcher.begin_drain()

    async def stop(
        self, drain: bool = True, drain_timeout: float | None = None
    ) -> None:
        for entry in self._entries.values():
            await entry.batcher.stop(drain=drain, drain_timeout=drain_timeout)
        self._started = False

    @property
    def draining(self) -> bool:
        return any(e.batcher.draining for e in self._entries.values())

    # -- routing --------------------------------------------------------
    def names(self) -> list[str]:
        return list(self._entries)

    def entry(self, name: str | None = None) -> FleetEntry:
        """Resolve a routed request to its entry (refreshing LRU recency).

        ``name=None`` is the legacy ``/predict`` route: the default
        model.
        """
        if name is None:
            name = self.default_model
            if name not in self._entries:
                raise FleetError(
                    404,
                    f"no default model {name!r} loaded; "
                    "use POST /models/<name>/predict or PUT /models/<name>",
                )
        if name not in self._entries:
            raise FleetError(
                404,
                f"no model named {name!r} (loaded: {sorted(self._entries)})",
            )
        entry = self._entries.pop(name)  # re-insert = most recently used
        self._entries[name] = entry
        return entry

    def peek(self, name: str) -> FleetEntry:
        """Entry lookup without touching LRU recency (admin/introspection)."""
        if name not in self._entries:
            raise FleetError(
                404,
                f"no model named {name!r} (loaded: {sorted(self._entries)})",
            )
        return self._entries[name]

    # -- admin ----------------------------------------------------------
    async def load(self, name: str, model: Any, source: str) -> dict:
        """Load or hot-reload ``name`` — atomic swap, old drains after.

        The new entry's batcher starts *before* the swap, the swap
        itself is one dict assignment on the event loop (requests
        arriving after it route to the new model), and only then does
        the old entry drain — everything already submitted finishes on
        the old model, bitwise-equal to direct service calls.
        """
        name = validate_model_name(name)
        async with self._lock:
            old = self._entries.get(name)
            generation = old.generation + 1 if old is not None else 1
            entry = self._new_entry(name, model, source, generation)
            await entry.batcher.start()
            # The swap: one dict mutation on the loop thread; re-insert
            # so the (re)loaded entry is most-recently-used.
            self._entries.pop(name, None)
            self._entries[name] = entry
            evicted = await self._evict_over_capacity(keep=name)
            if old is not None:
                self.reloads += 1
                await old.batcher.stop(
                    drain=True, drain_timeout=self.resilience.drain_timeout_s
                )
            else:
                self.loads += 1
            result = entry.info()
            result["replaced"] = old is not None
            if evicted:
                result["evicted"] = evicted
            return result

    async def unload(self, name: str) -> dict:
        """Drain-then-unload one model; 404 when it isn't loaded."""
        name = validate_model_name(name)
        async with self._lock:
            if name not in self._entries:
                raise FleetError(404, f"no model named {name!r}")
            entry = self._entries.pop(name)
            await entry.batcher.stop(
                drain=True, drain_timeout=self.resilience.drain_timeout_s
            )
            self.unloads += 1
            info = entry.info()
            info["unloaded"] = True
            return info

    async def _evict_over_capacity(self, keep: str) -> list[str]:
        """LRU-evict until within ``max_models`` (default model is safe)."""
        evicted: list[str] = []
        while len(self._entries) > self.max_models:
            victim = next(
                (
                    n
                    for n in self._entries  # insertion order = LRU order
                    if n not in (keep, self.default_model)
                ),
                None,
            )
            if victim is None:
                raise FleetError(
                    409,
                    f"model cache full (max_models={self.max_models}) and "
                    "only the default model is evictable",
                )
            entry = self._entries.pop(victim)
            await entry.batcher.stop(
                drain=True, drain_timeout=self.resilience.drain_timeout_s
            )
            self.evictions += 1
            evicted.append(victim)
        return evicted

    # -- observability --------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/stats`` fleet block: per-model counters + cache state."""
        models = {}
        for name, entry in self._entries.items():
            batcher = entry.batcher
            models[name] = {
                **entry.info(),
                "service": entry.service.stats_snapshot(),
                "batcher": {
                    "queue_depth": batcher.queue_depth,
                    "flushes": batcher.flushes,
                    "flushed_requests": batcher.flushed_requests,
                    "max_flush_size": batcher.max_flush_size,
                },
                "resilience": batcher.resilience_snapshot(),
            }
        return {
            "default_model": self.default_model,
            "max_models": self.max_models,
            "loaded": len(self._entries),
            "loads": self.loads,
            "reloads": self.reloads,
            "unloads": self.unloads,
            "evictions": self.evictions,
            "models": models,
        }


# ----------------------------------------------------------------------
# The machine-parseable announce line.


def format_announce(host: str, port: int) -> str:
    """The one-line machine-parseable announcement of this process."""
    return f"{_ANNOUNCE_PREFIX}addr=http://{host}:{port} pid={os.getpid()}"


def parse_announce(text: str) -> dict | None:
    """Parse the first announce line out of captured stdout.

    Returns ``{"host", "port", "pid"}`` or ``None`` when no announce
    line is present.
    """
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith(_ANNOUNCE_PREFIX):
            continue
        fields = dict(
            part.split("=", 1)
            for part in line[len(_ANNOUNCE_PREFIX) :].split()
            if "=" in part
        )
        addr = fields.get("addr", "")
        match = re.match(r"^http://(.+):(\d+)$", addr)
        if not match:
            return None
        return {
            "host": match.group(1),
            "port": int(match.group(2)),
            "pid": int(fields["pid"]) if "pid" in fields else None,
        }
    return None
