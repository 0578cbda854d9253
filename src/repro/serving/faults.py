"""Deterministic fault injection at the prediction-service boundary.

The resilience layer's contract — shed on overload, 504 on expired
deadlines, trip the breaker on consecutive failures, drain to completion
— is about *ordering* of events, not wall-clock timing, so its tests
must not sleep and hope.  This module makes the failure schedule a
script: :class:`FaultInjector` holds faults keyed by **request index**
(requests are numbered in arrival order at the service boundary), and
:class:`FaultyService` wraps a real
:class:`~repro.api.service.PredictionService` so that the call carrying
a scripted index raises, delays, or *hangs* — where a hang blocks the
model worker thread on an event the test releases explicitly.

Because faults fire at the service boundary, everything above it (the
micro-batcher, the gateway, the wire) is exercised unmodified, and the
injector's :attr:`~FaultInjector.served` log proves what did — and did
not — reach the model.  :class:`ManualClock` is the matching
deterministic time source for deadline and circuit-breaker transitions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.api.service import PredictRequest, PredictResponse

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultyService",
    "ManualClock",
]

# Safety net: a test that forgets release_hangs() stalls its worker
# thread for this long instead of forever (the thread is a daemon, so
# even an expired wait cannot wedge interpreter exit).
_HANG_SAFETY_TIMEOUT_S = 60.0


class ManualClock:
    """A monotonic clock the test advances by hand.

    Inject into :class:`~repro.serving.batcher.MicroBatcher` /
    :class:`~repro.serving.resilience.CircuitBreaker` so deadline expiry
    and cooldown elapse exactly when the test says so.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += seconds


@dataclass
class Fault:
    """One scripted fault: raise, delay, or hang the service call."""

    exception: BaseException | None = None
    delay_s: float = 0.0
    hang: bool = False


class FaultInjector:
    """A scripted fault plan keyed by request arrival index.

    Thread-safe: the batcher's worker thread consumes indices while the
    test thread scripts and releases.  Observability for assertions:

    * :attr:`calls` — ``(first_index, n_requests)`` per service call,
    * :attr:`served` — the requests that actually reached the model,
    * :meth:`wait_hang_started` — rendezvous with a hang taking effect.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._script: dict[int, Fault] = {}
        self._next_index = 0
        self._release = threading.Event()
        self._hang_started = threading.Event()
        self.calls: list[tuple[int, int]] = []
        self.served: list[PredictRequest] = []

    # -- scripting ------------------------------------------------------
    def fail_at(
        self, *indices: int, exception: BaseException | None = None
    ) -> FaultInjector:
        """Raise at these request indices (default: ``RuntimeError``)."""
        with self._lock:
            for index in indices:
                self._script[index] = Fault(
                    exception=exception
                    if exception is not None
                    else RuntimeError(f"injected fault at request {index}")
                )
        return self

    def hang_at(self, *indices: int) -> FaultInjector:
        """Block the service call at these indices until released."""
        with self._lock:
            for index in indices:
                self._script[index] = Fault(hang=True)
        return self

    def delay_at(self, index: int, seconds: float) -> FaultInjector:
        """Sleep ``seconds`` before serving the call at ``index``."""
        with self._lock:
            self._script[index] = Fault(delay_s=seconds)
        return self

    # -- hang rendezvous ------------------------------------------------
    def wait_hang_started(self, timeout: float = 10.0) -> bool:
        """Block (on a non-loop thread) until a scripted hang is holding."""
        return self._hang_started.wait(timeout)

    def release_hangs(self) -> None:
        """Let every held (and future) hang proceed normally."""
        self._release.set()

    # -- the service boundary -------------------------------------------
    def take(self, n_requests: int) -> Fault | None:
        """Consume ``n_requests`` arrival indices; return the first
        scripted fault among them (``None`` = serve normally)."""
        with self._lock:
            first = self._next_index
            self._next_index += n_requests
            self.calls.append((first, n_requests))
            for index in range(first, first + n_requests):
                fault = self._script.get(index)
                if fault is not None:
                    return fault
        return None

    def apply(self, fault: Fault | None) -> None:
        """Run one fault's effect on the calling (worker) thread."""
        if fault is None:
            return
        if fault.delay_s:
            time.sleep(fault.delay_s)
        if fault.hang:
            self._hang_started.set()
            self._release.wait(_HANG_SAFETY_TIMEOUT_S)
        if fault.exception is not None:
            raise fault.exception


class FaultyService:
    """A :class:`PredictionService` proxy that runs the fault script.

    Implements the surface the batcher and gateway use (``submit_many``,
    ``model``, ``stats`` / ``stats_snapshot``), so it drops in wherever
    a real service does.
    """

    def __init__(self, service: Any, injector: FaultInjector) -> None:
        self._service = service
        self.injector = injector

    @property
    def model(self) -> Any:
        return self._service.model

    @property
    def stats(self) -> Any:
        return self._service.stats

    def stats_snapshot(self) -> dict:
        return self._service.stats_snapshot()

    def submit_many(
        self, requests: Sequence[PredictRequest]
    ) -> list[PredictResponse]:
        fault = self.injector.take(len(requests))
        self.injector.apply(fault)
        responses = self._service.submit_many(requests)
        with self.injector._lock:
            self.injector.served.extend(requests)
        return responses

