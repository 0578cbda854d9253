"""Cross-request adaptive micro-batching for the serving gateway.

The :class:`~repro.api.service.PredictionService` already coalesces the
requests *inside one submission*; a gateway's opportunity is bigger —
concurrent HTTP callers each carry one request, and those can be
coalesced *across callers*.  :class:`MicroBatcher` is that layer: every
request lands in one asyncio queue, a single collector task drains it
into batches, and each batch becomes one
:meth:`~repro.api.service.PredictionService.submit_many` call.  There
is no timer: the collector flushes whatever is queued (up to
``max_batch_size``) as soon as the model is idle, so requests arriving
during a model call form the next batch and batch size follows load.
Results are bitwise-equal to direct per-request service calls: the
service pins that chunking never changes values.

The blocking model call runs on a private *daemon* worker thread, so
the event loop keeps accepting and queueing new requests while a flush
is being served — and when a model call exceeds its deadline the stuck
thread is simply abandoned and a fresh worker spun up (a daemon thread
cannot wedge interpreter exit), so one hung fit never wedges the
batcher.

Layered on top is the resilience contract from
:mod:`repro.serving.resilience`:

* **admission control** — a bounded queue refuses with
  :class:`~repro.serving.resilience.OverloadError` (429 +
  ``Retry-After`` estimated from queue depth x recent per-request
  service time) and a draining batcher with
  :class:`~repro.serving.resilience.DrainingError` (503),
* **deadlines** — a request carrying ``deadline_ms`` (or covered by the
  server default) is shed *at dequeue* if already expired — it never
  reaches the model — and bounds the model call via
  :func:`asyncio.wait_for` (504 on expiry, worker recycled),
* **circuit breaking** — consecutive model-call failures open the
  :class:`~repro.serving.resilience.CircuitBreaker`; open-circuit
  admission fast-fails, half-open probes close it again,
* **graceful drain** — ``stop(drain=True)`` stops admitting and
  completes everything already accepted, bitwise-equal, before tearing
  down.

Two requests from unrelated callers may disagree on whether they carry
a workload; ``submit_many`` rejects such a mix inside one coalesced
chunk, so a flush partitions its batch into workload-carrying and
workload-free halves first.  If a batch call still fails, the batch is
retried request-by-request so one poison request cannot fail its
flush-mates.
"""

from __future__ import annotations

import asyncio
import queue as _thread_queue
import threading
import time
from dataclasses import dataclass
from functools import partial
from collections.abc import Callable

from repro.api.service import PredictRequest, PredictResponse, PredictionService
from repro.serving.resilience import (
    CircuitBreaker,
    DeadlineExceededError,
    DrainingError,
    OverloadError,
    ResilienceConfig,
    ServiceTimeEstimator,
)

__all__ = ["MicroBatcher"]


class _ModelWorker:
    """A single daemon thread running blocking model calls.

    ``concurrent.futures.ThreadPoolExecutor`` threads are non-daemon and
    joined at interpreter exit, so a model call that never returns would
    wedge process shutdown.  This worker is expendable instead: on a
    model-call timeout the batcher abandons it (the stuck call keeps the
    old thread, which can never block exit) and spins up a fresh one.
    """

    def __init__(self, name: str = "repro-serving-model") -> None:
        self._jobs: _thread_queue.SimpleQueue = _thread_queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def submit(
        self, loop: asyncio.AbstractEventLoop, fn: Callable[[], object]
    ) -> asyncio.Future:
        """Run ``fn`` on the worker thread; resolve an asyncio future.

        Must be called from ``loop``'s thread.  Cancelling the returned
        future abandons the result (the worker checks before
        delivering).
        """
        future = loop.create_future()
        self._jobs.put((loop, future, fn))
        return future

    def stop(self) -> None:
        """Ask the worker to exit after its queued jobs (non-blocking)."""
        self._jobs.put(None)

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            loop, future, fn = job
            try:
                value = fn()
            except BaseException as exc:  # delivered, not raised here
                value, failed = exc, True
            else:
                failed = False

            def deliver(future=future, value=value, failed=failed) -> None:
                if future.cancelled():
                    return
                if failed:
                    future.set_exception(value)
                else:
                    future.set_result(value)

            try:
                loop.call_soon_threadsafe(deliver)
            except RuntimeError:
                # The loop is already closed (shutdown race): the result
                # has no recipient anymore.
                pass


@dataclass
class _Pending:
    """One queued request: payload, caller future, absolute deadline."""

    request: PredictRequest
    future: asyncio.Future
    deadline: float | None


class MicroBatcher:
    """Coalesce concurrent :meth:`submit` calls into batched service calls.

    Each flush takes everything queued while the previous model call ran
    (never waiting for more), so batches grow with load on their own.

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.PredictionService` to drive.
    max_batch_size:
        The most requests one flush takes; the rest wait for the next.
    resilience:
        The :class:`~repro.serving.resilience.ResilienceConfig` knobs
        (queue bound, default deadline, breaker, drain timeout);
        defaults to the stock config.
    clock:
        Monotonic ``() -> float`` used for deadlines and the breaker
        cooldown; defaults to the event loop's clock (tests inject a
        :class:`~repro.serving.faults.ManualClock`).
    name:
        Diagnostic label for this batcher (the fleet passes the model
        name); names the model worker thread so a wedged fleet is
        attributable in a thread dump.
    """

    def __init__(
        self,
        service: PredictionService,
        max_batch_size: int = 64,
        resilience: ResilienceConfig | None = None,
        clock: Callable[[], float] | None = None,
        name: str = "default",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.service = service
        self.name = name
        self.max_batch_size = max_batch_size
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown_s=self.resilience.breaker_cooldown_s,
            clock=clock or time.monotonic,
        )
        self.service_time = ServiceTimeEstimator()
        # Coalescing counters (pre-resilience observability).
        self.flushes = 0  # guarded-by: loop
        self.flushed_requests = 0  # guarded-by: loop
        self.max_flush_size = 0  # guarded-by: loop
        # Resilience counters.
        self.shed_overload = 0  # guarded-by: loop
        self.shed_deadline = 0  # guarded-by: loop
        self.shed_draining = 0  # guarded-by: loop
        self.shed_circuit = 0  # guarded-by: loop
        self.model_timeouts = 0  # guarded-by: loop
        self.worker_recycles = 0  # guarded-by: loop
        self.drained_requests = 0  # guarded-by: loop
        self._clock_override = clock
        self._clock: Callable[[], float] = clock or time.monotonic
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._worker: _ModelWorker | None = None
        self._idle: asyncio.Event | None = None
        self._draining = False

    @property
    def _worker_name(self) -> str:
        return f"repro-serving-model-{self.name}"

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the next flush, right now."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def draining(self) -> bool:
        """True once a drain began: no new requests are admitted."""
        return self._draining

    def resilience_snapshot(self) -> dict:
        """The ``/stats`` view of the resilience layer."""
        mean_s = self.service_time.mean_s
        return {
            "draining": self._draining,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.resilience.queue_depth,
            "default_deadline_ms": self.resilience.default_deadline_ms,
            "shed": {
                "overload": self.shed_overload,
                "deadline": self.shed_deadline,
                "draining": self.shed_draining,
                "circuit": self.shed_circuit,
            },
            "model_timeouts": self.model_timeouts,
            "worker_recycles": self.worker_recycles,
            "drained_requests": self.drained_requests,
            "service_time_ms": None if mean_s is None else mean_s * 1e3,
            "circuit": self.breaker.snapshot(),
        }

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("batcher is already running")
        loop = asyncio.get_running_loop()
        self._clock = self._clock_override or loop.time
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._worker = _ModelWorker(name=self._worker_name)
        self._task = asyncio.create_task(self._run())

    def begin_drain(self) -> None:
        """Stop admitting new requests (everything queued still runs)."""
        self._draining = True

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for accepted requests to complete.

        Returns ``True`` when the queue and in-flight flush fully
        drained, ``False`` on timeout (callers then hard-stop).
        """
        self.begin_drain()
        if self._task is None or self._idle is None:
            return True
        before = self.flushed_requests
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        finally:
            self.drained_requests += self.flushed_requests - before
        return True

    async def stop(
        self, drain: bool = True, drain_timeout: float | None = None
    ) -> None:
        """Tear the batcher down.

        ``drain=True`` (the default) first completes every accepted
        request — their responses stay bitwise-equal to direct service
        calls — bounded by ``drain_timeout`` (default: the config's
        ``drain_timeout_s``).  ``drain=False`` is the hard stop: queued
        and in-flight futures fail with ``RuntimeError('batcher
        stopped')`` instead of hanging their submitters.
        """
        if self._task is None:
            return
        if drain:
            if drain_timeout is None:
                drain_timeout = self.resilience.drain_timeout_s
            await self.drain(timeout=drain_timeout)
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        while self._queue is not None and not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(RuntimeError("batcher stopped"))
        self._worker.stop()
        self._worker = None
        self._queue = None
        self._idle = None

    async def submit(
        self, request: PredictRequest, deadline_ms: float | None = None
    ) -> PredictResponse:
        """Enqueue one request and wait for its batched response.

        Admission control runs here, before anything is queued: a
        draining batcher answers :class:`DrainingError` (503), an open
        circuit :class:`CircuitOpenError` (503 + ``Retry-After``), and a
        full queue :class:`OverloadError` (429 + ``Retry-After``
        estimated from queue depth x recent per-request service time).
        The effective deadline is ``deadline_ms`` (argument) >
        ``request.deadline_ms`` (wire field) > the config default; its
        expiry answers :class:`DeadlineExceededError` (504).
        """
        if self._task is None:
            raise RuntimeError("batcher is not running (call start() first)")
        if self._draining:
            self.shed_draining += 1
            raise DrainingError("draining; not accepting new requests")
        try:
            self.breaker.admit()
        except Exception:
            self.shed_circuit += 1
            raise
        capacity = self.resilience.queue_depth
        depth = self._queue.qsize()
        if capacity is not None and depth >= capacity:
            self.shed_overload += 1
            raise OverloadError(
                f"queue full ({depth} requests waiting, capacity {capacity})",
                retry_after=self.service_time.retry_after(depth),
            )
        if deadline_ms is None:
            deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.resilience.default_deadline_ms
        deadline = None if deadline_ms is None else self._clock() + deadline_ms / 1e3
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Pending(request, future, deadline))
        self._idle.clear()
        return await future

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            batch = [await self._queue.get()]
            self._idle.clear()
            try:
                self._drain_into(batch)
                await self._flush(batch)
            except asyncio.CancelledError:
                # stop() mid-flush: the batch items are already out of
                # the queue, so the queue drain in stop() can't see them —
                # fail their futures here or their submitters would await
                # forever.
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError("batcher stopped")
                        )
                raise
            if self._queue.empty():
                self._idle.set()

    def _drain_into(self, batch: list[_Pending]) -> None:
        """Opportunistically absorb already-queued requests (no waiting)."""
        while len(batch) < self.max_batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break

    async def _flush(self, batch: list[_Pending]) -> None:
        self.flushes += 1
        self.flushed_requests += len(batch)
        self.max_flush_size = max(self.max_flush_size, len(batch))
        live = self._shed_expired(batch)
        # submit_many rejects coalesced chunks that mix workload-carrying
        # and workload-free rows; unrelated callers may mix, so partition.
        with_workload = [p for p in live if p.request.workload is not None]
        without = [p for p in live if p.request.workload is None]
        for items in (with_workload, without):
            if items:
                await self._serve(items)

    def _shed_expired(self, batch: list[_Pending]) -> list[_Pending]:
        """Fail already-expired requests at dequeue, before any model
        work — an expired request must never reach the model."""
        now = self._clock()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                self.shed_deadline += 1  # repro: noqa[LOCK001] -- sync helper, but called only from the _flush coroutine on the loop
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued; "
                            "request was shed before the model"
                        )
                    )
            else:
                live.append(pending)
        return live

    def _call_timeout(self, items: list[_Pending]) -> float | None:
        """The model-call budget: the most generous remaining deadline in
        the chunk (``None`` when no item carries one), so one short
        deadline cannot cut off its flush-mates' work."""
        remaining = [
            p.deadline - self._clock()
            for p in items
            if p.deadline is not None
        ]
        if len(remaining) < len(items):
            return None
        return max(0.0, max(remaining))

    async def _call_model(
        self, requests: list[PredictRequest], timeout: float | None
    ) -> list[PredictResponse]:
        """One service call on the worker thread, deadline-bounded.

        On timeout the stuck worker is abandoned and recycled — raising
        ``asyncio.TimeoutError`` to the caller — so one hung model call
        can never wedge the batcher for later requests.
        """
        loop = asyncio.get_running_loop()
        future = self._worker.submit(
            loop, partial(self.service.submit_many, requests)
        )
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self.model_timeouts += 1
            self.worker_recycles += 1
            self._worker.stop()
            self._worker = _ModelWorker(name=self._worker_name)
            raise

    async def _serve(self, items: list[_Pending]) -> None:
        requests = [p.request for p in items]
        started = self._clock()
        try:
            responses = await self._call_model(
                requests, self._call_timeout(items)
            )
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError:
            self.breaker.record_failure()
            for pending in items:
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExceededError(
                            "model call exceeded the request deadline"
                        )
                    )
            return
        except Exception as exc:
            self.breaker.record_failure()
            if len(items) == 1:
                pending = items[0]
                if not pending.future.done():
                    pending.future.set_exception(exc)
                return
            # Isolate the poison request: serve the batch one by one so
            # only the guilty request's caller sees the failure.
            for pending in items:
                await self._serve([pending])
            return
        self.breaker.record_success()
        self.service_time.observe(self._clock() - started, len(items))
        for pending, response in zip(items, responses):
            if not pending.future.done():
                pending.future.set_result(response)
