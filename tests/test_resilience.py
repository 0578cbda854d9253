"""Fault-injection tests for the serving resilience layer.

Every failure mode here is *scripted*, not timed: faults fire at the
service boundary keyed by request arrival index
(:mod:`repro.serving.faults`), hangs hold a worker thread on an event
the test releases, and deadline/breaker state transitions run on a
:class:`ManualClock` the test advances — so nothing below asserts on
wall-clock ordering.

The contracts under test (the PR's acceptance criteria):

* overload at full queue depth sheds with 429 + ``Retry-After`` while
  every accepted request stays bitwise-equal to direct
  ``PredictionService`` calls,
* a request whose deadline expires while queued answers 504 and *never
  reaches the model*,
* a hung model call times out (504), recycles the worker, trips the
  circuit breaker, and a later half-open probe recovers it,
* graceful drain completes in-flight requests to their real values and
  refuses new ones with 503.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import socket
import threading
import time

import pytest

import repro.api as api
from repro.serving import (
    GatewayThread,
    MicroBatcher,
    OverloadError,
    ResilienceConfig,
    ServingClient,
    ServingError,
    WireError,
    wire,
)
from repro.serving.faults import FaultInjector, FaultyService, ManualClock
from repro.serving.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    DrainingError,
    ServiceTimeEstimator,
)


@pytest.fixture(scope="module")
def mcpat_model(flow):
    """Cheap analytical model — resilience behavior is model-agnostic."""
    return api.fit("mcpat", flow=flow)


@pytest.fixture(scope="module")
def service(mcpat_model):
    return api.PredictionService(mcpat_model)


@pytest.fixture(scope="module")
def requests8(flow, test_configs, workloads):
    """Eight total-power requests over distinct (config, workload) pairs."""
    return [
        api.PredictRequest(config=c, events=flow.run(c, w).events, workload=w)
        for c in test_configs[:4]
        for w in workloads[:2]
    ]


@pytest.fixture(scope="module")
def direct_totals(service, requests8):
    """Ground truth: what a direct service call answers, per request."""
    return [service.predict(r).total for r in requests8]


async def _hang_started(injector, timeout=10.0):
    """Await (off-loop) the rendezvous that a scripted hang is holding."""
    loop = asyncio.get_running_loop()
    started = await loop.run_in_executor(
        None, injector.wait_hang_started, timeout
    )
    assert started, "scripted hang never took effect"


async def _spin_until(predicate, rounds=100):
    """Cycle the event loop until ``predicate()`` holds (no sleeping)."""
    for _ in range(rounds):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("event-loop condition never became true")


# ---------------------------------------------------------------------------
class TestFaultHarness:
    def test_manual_clock_is_monotonic(self):
        clock = ManualClock(5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock() == 7.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_unfaulted_calls_pass_through_and_are_logged(
        self, service, requests8, direct_totals
    ):
        injector = FaultInjector()
        faulty = FaultyService(service, injector)
        responses = faulty.submit_many(requests8[:3])
        assert [r.total for r in responses] == direct_totals[:3]
        assert injector.calls == [(0, 3)]
        assert injector.served == requests8[:3]

    def test_scripted_exception_fires_at_its_request_index(
        self, service, requests8
    ):
        injector = FaultInjector().fail_at(1)
        faulty = FaultyService(service, injector)
        faulty.submit_many([requests8[0]])  # index 0: clean
        with pytest.raises(RuntimeError, match="injected fault at request 1"):
            faulty.submit_many([requests8[1]])
        # The faulted call never reached the model.
        assert injector.served == [requests8[0]]


# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_overload_sheds_429_and_accepted_stay_bitwise(
        self, service, requests8, direct_totals
    ):
        """Acceptance: full queue -> 429 + Retry-After; accepted requests
        complete bitwise-equal to direct service calls."""
        injector = FaultInjector().hang_at(0)
        shed = []

        async def run():
            batcher = MicroBatcher(
                FaultyService(service, injector),
                resilience=ResilienceConfig(queue_depth=2),
            )
            await batcher.start()
            # Request 0 is pulled by the collector and wedges the model
            # call; requests 1-2 fill the bounded queue exactly.
            first = asyncio.ensure_future(batcher.submit(requests8[0]))
            await _hang_started(injector)
            queued = [
                asyncio.ensure_future(batcher.submit(r))
                for r in requests8[1:3]
            ]
            await _spin_until(lambda: batcher.queue_depth == 2)
            for request in requests8[3:5]:
                with pytest.raises(OverloadError) as excinfo:
                    await batcher.submit(request)
                shed.append(excinfo.value)
            injector.release_hangs()
            results = await asyncio.gather(first, *queued)
            await batcher.stop()
            return results, batcher

        results, batcher = asyncio.run(run())
        assert [r.total for r in results] == direct_totals[:3]
        assert batcher.shed_overload == 2
        for exc in shed:
            assert exc.status == 429
            assert exc.retry_after >= 1
        # The shed requests never reached the model.
        assert injector.served == requests8[:3]

    def test_retry_after_scales_with_observed_service_time(self):
        estimator = ServiceTimeEstimator()
        assert estimator.retry_after(10) >= 1
        estimator.observe(4.0, n_requests=2)  # 2s per request
        assert estimator.retry_after(5) == 10
        # EWMA folds new samples in rather than jumping.
        estimator.observe(0.0, n_requests=1)
        assert 0 < estimator.mean_s < 2.0


# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_is_shed_at_dequeue_and_never_reaches_model(
        self, service, requests8, direct_totals
    ):
        """Acceptance: a deadline that expires while queued answers 504
        without the model ever seeing the request."""
        clock = ManualClock()
        injector = FaultInjector().hang_at(0)

        async def run():
            batcher = MicroBatcher(
                FaultyService(service, injector),
                clock=clock,
            )
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(requests8[0]))
            await _hang_started(injector)
            doomed = asyncio.ensure_future(
                batcher.submit(requests8[1], deadline_ms=100.0)
            )
            await _spin_until(lambda: batcher.queue_depth == 1)
            clock.advance(1.0)  # the queued deadline is now long past
            injector.release_hangs()
            with pytest.raises(DeadlineExceededError) as excinfo:
                await doomed
            result = await first
            await batcher.stop()
            return result, excinfo.value, batcher

        result, exc, batcher = asyncio.run(run())
        assert exc.status == 504
        assert "before the model" in exc.message
        assert result.total == direct_totals[0]
        assert batcher.shed_deadline == 1
        assert injector.served == [requests8[0]]

    def test_hung_model_call_times_out_504_and_recycles_worker(
        self, service, requests8, direct_totals
    ):
        injector = FaultInjector().hang_at(0)

        async def run():
            batcher = MicroBatcher(FaultyService(service, injector))
            await batcher.start()
            with pytest.raises(DeadlineExceededError) as excinfo:
                await batcher.submit(requests8[0], deadline_ms=50.0)
            # The stuck worker was abandoned; a fresh one serves the
            # next request normally.
            follow_up = await batcher.submit(requests8[1])
            injector.release_hangs()
            await batcher.stop()
            return excinfo.value, follow_up, batcher

        exc, follow_up, batcher = asyncio.run(run())
        assert exc.status == 504
        assert batcher.model_timeouts == 1
        assert batcher.worker_recycles == 1
        assert follow_up.total == direct_totals[1]

    def test_deadline_ms_round_trips_the_wire(self, requests8):
        request = api.PredictRequest(
            requests8[0].config,
            requests8[0].events,
            requests8[0].workload,
            deadline_ms=250.0,
        )
        encoded = wire.encode_request(request)
        assert encoded["deadline_ms"] == 250.0
        assert wire.decode_request(encoded).deadline_ms == 250.0
        # Requests without a deadline don't grow the field.
        bare = wire.encode_request(requests8[0])
        assert "deadline_ms" not in bare

    @pytest.mark.parametrize("bad", ["soon", True, -5, 0, float("nan")])
    def test_bad_deadline_ms_is_400(self, requests8, bad):
        obj = wire.encode_request(requests8[0])
        obj["deadline_ms"] = bad
        with pytest.raises(WireError) as excinfo:
            wire.decode_request(obj)
        assert excinfo.value.status == 400

    def test_predict_request_validates_deadline(self, requests8):
        with pytest.raises(ValueError, match="deadline_ms"):
            api.PredictRequest(
                requests8[0].config, requests8[0].events, deadline_ms=-1.0
            )


# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_state_machine_transitions_on_manual_clock(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=10.0, clock=clock
        )
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.admit()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.admit()
        assert excinfo.value.retry_after == 10
        clock.advance(10.0)
        breaker.admit()  # cooldown elapsed: the probe goes through
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # failed probe re-opens immediately
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(10.0)
        breaker.admit()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.opened_count == 2

    def test_consecutive_failures_open_circuit_and_probe_recovers(
        self, service, requests8, direct_totals
    ):
        clock = ManualClock()
        injector = FaultInjector().fail_at(0, 1, 2)

        async def run():
            batcher = MicroBatcher(
                FaultyService(service, injector),
                resilience=ResilienceConfig(
                    breaker_failure_threshold=3, breaker_cooldown_s=30.0
                ),
                clock=clock,
            )
            await batcher.start()
            for i in range(3):
                with pytest.raises(RuntimeError, match="injected fault"):
                    await batcher.submit(requests8[i])
            assert batcher.breaker.state == CircuitBreaker.OPEN
            calls_before = len(injector.calls)
            # Open circuit: fast-fail at admission, service never called.
            with pytest.raises(CircuitOpenError) as excinfo:
                await batcher.submit(requests8[3])
            assert len(injector.calls) == calls_before
            clock.advance(31.0)
            probe = await batcher.submit(requests8[3])  # index 3: clean
            await batcher.stop()
            return excinfo.value, probe, batcher

        exc, probe, batcher = asyncio.run(run())
        assert exc.status == 503
        assert exc.retry_after == 30
        assert batcher.shed_circuit == 1
        assert probe.total == direct_totals[3]
        assert batcher.breaker.state == CircuitBreaker.CLOSED

    def test_hung_call_trips_breaker_and_half_open_probe_recovers(
        self, service, requests8, direct_totals
    ):
        """Acceptance: a hung model call trips the circuit breaker and a
        later half-open probe recovers it."""
        clock = ManualClock()
        injector = FaultInjector().hang_at(0)

        async def run():
            batcher = MicroBatcher(
                FaultyService(service, injector),
                resilience=ResilienceConfig(
                    breaker_failure_threshold=1, breaker_cooldown_s=5.0
                ),
                clock=clock,
            )
            await batcher.start()
            with pytest.raises(DeadlineExceededError):
                await batcher.submit(requests8[0], deadline_ms=20.0)
            assert batcher.breaker.state == CircuitBreaker.OPEN
            with pytest.raises(CircuitOpenError):
                await batcher.submit(requests8[1])
            clock.advance(6.0)
            recovered = await batcher.submit(requests8[1])
            injector.release_hangs()
            await batcher.stop()
            return recovered, batcher

        recovered, batcher = asyncio.run(run())
        assert recovered.total == direct_totals[1]
        assert batcher.breaker.state == CircuitBreaker.CLOSED
        assert batcher.breaker.snapshot()["opened_count"] == 1


# ---------------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_completes_in_flight_bitwise_and_refuses_new(
        self, service, requests8, direct_totals
    ):
        """Acceptance: drain completes accepted requests to their real
        values; new submissions answer 503."""
        injector = FaultInjector().hang_at(0)

        async def run():
            batcher = MicroBatcher(FaultyService(service, injector))
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(requests8[0]))
            await _hang_started(injector)
            queued = [
                asyncio.ensure_future(batcher.submit(r))
                for r in requests8[1:4]
            ]
            await _spin_until(lambda: batcher.queue_depth == 3)
            stop_task = asyncio.ensure_future(
                batcher.stop(drain=True, drain_timeout=30.0)
            )
            await _spin_until(lambda: batcher.draining)
            with pytest.raises(DrainingError) as excinfo:
                await batcher.submit(requests8[4])
            injector.release_hangs()
            await stop_task
            results = await asyncio.gather(first, *queued)
            return results, excinfo.value, batcher

        results, exc, batcher = asyncio.run(run())
        assert exc.status == 503
        assert [r.total for r in results] == direct_totals[:4]
        assert batcher.shed_draining == 1
        assert batcher.drained_requests >= 3

    def test_drain_timeout_falls_back_to_hard_stop(self, service, requests8):
        injector = FaultInjector().hang_at(0)

        async def run():
            batcher = MicroBatcher(FaultyService(service, injector))
            await batcher.start()
            stuck = asyncio.ensure_future(batcher.submit(requests8[0]))
            await _hang_started(injector)
            # The hang holds the only worker; an unreleased drain cannot
            # complete, so the bounded stop must fail the future rather
            # than hang the caller.
            await batcher.stop(drain=True, drain_timeout=0.05)
            outcome = await asyncio.gather(stuck, return_exceptions=True)
            injector.release_hangs()
            return outcome[0]

        outcome = asyncio.run(run())
        assert isinstance(outcome, RuntimeError)
        assert "stopped" in str(outcome)


# ---------------------------------------------------------------------------
def _http(port, method, path, payload=None, timeout=30):
    """One HTTP round trip: (status, decoded body, lowercase headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    decoded = json.loads(response.read().decode("utf-8"))
    headers = {k.lower(): v for k, v in response.getheaders()}
    conn.close()
    return response.status, decoded, headers


def _raw_exchange(port, raw, timeout=10.0):
    """Send raw bytes, read until the server closes; returns the bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        sock.settimeout(timeout)
        data = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        except socket.timeout:
            pass
    return data


def _read_response(sock):
    """Read one HTTP response off a keep-alive socket: (head, body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(
        next(
            line.split(b":", 1)[1]
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
    )
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    return head, body


class TestGatewayResilience:
    def test_overload_answers_429_with_retry_after_header(
        self, service, requests8, direct_totals
    ):
        injector = FaultInjector().hang_at(0)
        outcomes = {}

        def post(port, index):
            outcomes[index] = _http(
                port, "POST", "/predict", wire.encode_request(requests8[index])
            )

        with GatewayThread(
            FaultyService(service, injector),
            resilience=ResilienceConfig(queue_depth=1),
        ) as handle:
            wedger = threading.Thread(target=post, args=(handle.port, 0))
            wedger.start()
            assert injector.wait_hang_started(10)
            filler = threading.Thread(target=post, args=(handle.port, 1))
            filler.start()
            for _ in range(500):  # until the filler occupies the queue
                _status, stats, _ = _http(handle.port, "GET", "/stats")
                if stats["resilience"]["queue_depth"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("queued request never became visible")
            status, body, headers = _http(
                handle.port, "POST", "/predict",
                wire.encode_request(requests8[2]),
            )
            assert status == 429
            assert body["error"]["status"] == 429
            assert int(headers["retry-after"]) >= 1
            injector.release_hangs()
            wedger.join(30)
            filler.join(30)
        assert outcomes[0][0] == 200 and outcomes[1][0] == 200
        assert outcomes[0][1]["total"] == direct_totals[0]
        assert outcomes[1][1]["total"] == direct_totals[1]

    def test_wire_deadline_on_hung_model_answers_504(
        self, service, requests8
    ):
        injector = FaultInjector().hang_at(0)
        with GatewayThread(FaultyService(service, injector)) as handle:
            obj = wire.encode_request(requests8[0])
            obj["deadline_ms"] = 50
            status, body, _ = _http(handle.port, "POST", "/predict", obj)
            assert status == 504
            assert body["error"]["status"] == 504
            injector.release_hangs()

    def test_too_many_headers_is_431(self, service):
        with GatewayThread(service) as handle:
            filler = "".join(
                f"X-Filler-{i}: v\r\n" for i in range(150)
            ).encode()
            raw = b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
            data = _raw_exchange(handle.port, raw)
            assert data.startswith(b"HTTP/1.1 431 ")
            assert b"headers" in data

    def test_oversized_header_block_is_431(self, service):
        with GatewayThread(service) as handle:
            filler = "".join(
                f"X-Big-{i}: {'v' * 1024}\r\n" for i in range(40)
            ).encode()
            raw = b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
            data = _raw_exchange(handle.port, raw)
            assert data.startswith(b"HTTP/1.1 431 ")

    def test_stalled_client_mid_request_is_408(self, service):
        with GatewayThread(
            service,
            resilience=ResilienceConfig(read_timeout_s=0.3),
        ) as handle:
            # Declares a body it never sends: the body read must time
            # out instead of holding the handler (and any drain) hostage.
            raw = (
                b"POST /predict HTTP/1.1\r\n"
                b"Content-Length: 100\r\n\r\n"
                b"{\"par"
            )
            data = _raw_exchange(handle.port, raw)
            assert data.startswith(b"HTTP/1.1 408 ")

    def test_stall_mid_headers_is_408(self, service):
        with GatewayThread(
            service,
            resilience=ResilienceConfig(read_timeout_s=0.3),
        ) as handle:
            # The request line and one header arrive, the blank line
            # that ends the header block never does.
            raw = b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            data = _raw_exchange(handle.port, raw)
            assert data.startswith(b"HTTP/1.1 408 ")
            _status, stats, _ = _http(handle.port, "GET", "/stats")
        assert stats["gateway"]["errors"] == {"408": 1}

    def test_idle_keep_alive_connection_closes_quietly(self, service):
        with GatewayThread(
            service,
            resilience=ResilienceConfig(read_timeout_s=0.3),
        ) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10.0
            ) as sock:
                # One full keep-alive exchange, then silence: the server
                # closes the connection without writing a byte.
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                head, body = _read_response(sock)
                assert head.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: keep-alive" in head
                assert json.loads(body)["status"] == "ok"
                started = time.monotonic()
                assert sock.recv(65536) == b""
                assert time.monotonic() - started < 5.0
            # A connection that never sends a request line closes the
            # same way.
            assert _raw_exchange(handle.port, b"") == b""
            _status, stats, _ = _http(handle.port, "GET", "/stats")
        assert stats["gateway"]["errors"] == {}
        assert stats["gateway"]["http_requests"] == 2

    def test_model_call_longer_than_read_timeout_is_served(
        self, service, requests8, direct_totals
    ):
        # The read timeout bounds reads only: a model call that outlasts
        # it answers 200, and the keep-alive connection serves on.
        injector = FaultInjector().delay_at(0, 0.8)
        with GatewayThread(
            FaultyService(service, injector),
            resilience=ResilienceConfig(read_timeout_s=0.3),
        ) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
            for request, want in zip(requests8[:2], direct_totals[:2]):
                conn.request(
                    "POST", "/predict", body=json.dumps(wire.encode_request(request))
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["total"] == want
            conn.close()

    def test_list_body_raises_its_first_error(self, service, requests8):
        # A queue of one: the list's first object is admitted, the second
        # and third are refused at admission.  The answer is the first
        # error in list order, and the admitted sibling still ran.
        injector = FaultInjector()
        with GatewayThread(
            FaultyService(service, injector),
            resilience=ResilienceConfig(queue_depth=1),
        ) as handle:
            status, body, headers = _http(
                handle.port, "POST", "/predict",
                [wire.encode_request(r) for r in requests8[:3]],
            )
            assert status == 429
            assert body["error"]["status"] == 429
            assert "queue full" in body["error"]["message"]
            assert int(headers["retry-after"]) >= 1
            _status, stats, _ = _http(handle.port, "GET", "/stats")
        assert [r.config.name for r in injector.served] == [
            requests8[0].config.name
        ]
        gateway = stats["gateway"]
        assert gateway["predict_requests"] == 3
        assert gateway["predict_responses"] == 0
        assert gateway["errors"] == {"429": 1}
        assert stats["resilience"]["shed"]["overload"] == 2

    def test_stats_exposes_resilience_and_circuit_state(self, service):
        with GatewayThread(service) as handle:
            _status, stats, _ = _http(handle.port, "GET", "/stats")
        resilience = stats["resilience"]
        assert resilience["draining"] is False
        assert resilience["queue_capacity"] == 1024
        assert resilience["shed"] == {
            "overload": 0, "deadline": 0, "draining": 0, "circuit": 0,
        }
        assert resilience["circuit"]["state"] == "closed"
        assert resilience["circuit"]["failure_threshold"] == 5

    def test_predict_requests_counted_at_admission(
        self, service, requests8
    ):
        # Satellite: a failing request must still count in
        # predict_requests, so /stats error ratios mean something.
        injector = FaultInjector().fail_at(0)
        with GatewayThread(FaultyService(service, injector)) as handle:
            status, _body, _ = _http(
                handle.port, "POST", "/predict",
                wire.encode_request(requests8[0]),
            )
            assert status == 500
            _status, stats, _ = _http(handle.port, "GET", "/stats")
        gateway = stats["gateway"]
        assert gateway["predict_requests"] == 1
        assert gateway["predict_responses"] == 0
        assert gateway["errors"].get("500") == 1
        assert gateway["latency_ms"]["window"] == 1

    def test_gateway_drain_completes_in_flight_and_refuses_new(
        self, service, requests8, direct_totals
    ):
        injector = FaultInjector().hang_at(0)
        outcomes = {}

        def post(port, index):
            outcomes[index] = _http(
                port, "POST", "/predict", wire.encode_request(requests8[index])
            )

        handle = GatewayThread(FaultyService(service, injector)).start()
        port = handle.port
        try:
            wedger = threading.Thread(target=post, args=(port, 0))
            wedger.start()
            assert injector.wait_hang_started(10)
            stopper = threading.Thread(
                target=handle.stop, kwargs={"drain_timeout": 30.0}
            )
            stopper.start()
            for _ in range(500):
                if handle.gateway.draining:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("gateway never began draining")
            # The listener is closed: new connections are refused (or,
            # if raced into an accepted socket, answered 503).
            try:
                status, _body, _ = _http(port, "POST", "/predict",
                                         wire.encode_request(requests8[1]),
                                         timeout=5)
            except OSError:
                pass
            else:
                assert status == 503
            injector.release_hangs()
            stopper.join(60)
            wedger.join(30)
            assert not stopper.is_alive()
        finally:
            injector.release_hangs()
            if handle._thread is not None:
                handle.stop(drain=False)
        # The in-flight request completed bitwise during the drain.
        assert outcomes[0][0] == 200
        assert outcomes[0][1]["total"] == direct_totals[0]


# ---------------------------------------------------------------------------
class TestGatewayThreadDiagnostics:
    def test_wedged_loop_raises_with_diagnostics_and_keeps_refs(
        self, service
    ):
        # Satellite: a join timeout used to silently null _thread/_loop,
        # leaking a wedged daemon thread with no signal.
        handle = GatewayThread(service)

        class StubLoop:
            def call_soon_threadsafe(self, callback, *args):
                pass

            def is_running(self):
                return False

            def stop(self):
                pass

        class StubThread:
            name = "repro-gateway"

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        handle._loop = StubLoop()
        handle._thread = StubThread()
        with pytest.raises(RuntimeError, match="failed to stop") as excinfo:
            handle.stop()
        assert "queue_depth" in str(excinfo.value)
        # The refs survive so the caller can inspect or retry.
        assert handle._thread is not None
        assert handle._loop is not None


# ---------------------------------------------------------------------------
class _ScriptedTransportClient(ServingClient):
    """A client whose HTTP attempts and sleeps are fully scripted."""

    def __init__(self, script, **kwargs):
        self.script = list(script)
        self.attempts = 0
        self.sleeps = []
        kwargs.setdefault("rng", random.Random(7))
        super().__init__(sleep=self.sleeps.append, **kwargs)

    def _send(self, method, path, payload):
        self.attempts += 1
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _error_body(status, message="try later"):
    return {"error": {"status": status, "message": message}}


class TestServingClient:
    def test_retry_honors_retry_after_as_floor(self):
        client = _ScriptedTransportClient(
            [
                (429, {"retry-after": "3"}, _error_body(429)),
                (200, {}, {"total": 1.25}),
            ],
            backoff_base_s=0.01,
        )
        assert client.predict({"config": "C8", "events": {}}) == {"total": 1.25}
        assert client.attempts == 2
        assert len(client.sleeps) == 1
        assert client.sleeps[0] >= 3.0

    def test_backoff_grows_exponentially_with_jitter_and_cap(self):
        client = _ScriptedTransportClient(
            [(503, {}, _error_body(503))] * 4 + [(200, {}, {"ok": True})],
            max_retries=4,
            backoff_base_s=1.0,
            backoff_cap_s=4.0,
        )
        assert client.healthz() == {"ok": True}
        assert len(client.sleeps) == 4
        for attempt, slept in enumerate(client.sleeps):
            ceiling = min(4.0, 1.0 * 2**attempt)
            assert 0.5 * ceiling <= slept < ceiling

    def test_retry_budget_exhausted_raises_last_status(self):
        client = _ScriptedTransportClient(
            [(503, {}, _error_body(503, "draining"))] * 3, max_retries=2
        )
        with pytest.raises(ServingError) as excinfo:
            client.stats()
        assert excinfo.value.status == 503
        assert "draining" in str(excinfo.value)
        assert client.attempts == 3

    def test_non_retryable_status_raises_immediately(self):
        client = _ScriptedTransportClient(
            [(400, {}, _error_body(400, "bad config"))]
        )
        with pytest.raises(ServingError) as excinfo:
            client.predict({"config": "C999", "events": {}})
        assert excinfo.value.status == 400
        assert client.sleeps == []

    def test_connection_failures_are_retried_then_surface(self):
        client = _ScriptedTransportClient(
            [ConnectionRefusedError("nope")] * 2 + [(200, {}, {"ok": 1})],
            max_retries=3,
        )
        assert client.healthz() == {"ok": 1}
        assert client.attempts == 3
        exhausted = _ScriptedTransportClient(
            [ConnectionRefusedError("nope")] * 2, max_retries=1
        )
        with pytest.raises(ServingError) as excinfo:
            exhausted.healthz()
        assert excinfo.value.status is None

    def test_first_transport_failure_fails_over_without_sleeping(self):
        # A one-off dropped connection: the first transport retry
        # reconnects at once instead of backing off.
        client = _ScriptedTransportClient(
            [ConnectionResetError("connection dropped")] + [(200, {}, {"ok": 1})],
            max_retries=3,
        )
        assert client.healthz() == {"ok": 1}
        assert client.attempts == 2
        assert client.sleeps == []

    def test_repeated_transport_failures_back_off_after_failover_budget(self):
        client = _ScriptedTransportClient(
            [ConnectionResetError("down")] * 3 + [(200, {}, {"ok": 1})],
            max_retries=3,
            failover_retries=1,
            backoff_base_s=0.01,
        )
        assert client.healthz() == {"ok": 1}
        assert client.attempts == 4
        # First transport failure: free failover; the next two sleep.
        assert len(client.sleeps) == 2

    def test_failover_counter_resets_on_completed_exchange(self):
        # 503 (a completed HTTP exchange) resets the consecutive
        # transport-failure count, so the next reset is again free.
        client = _ScriptedTransportClient(
            [
                ConnectionResetError("worker died"),
                (503, {}, _error_body(503)),
                ConnectionResetError("worker died again"),
                (200, {}, {"ok": 1}),
            ],
            max_retries=5,
            backoff_base_s=0.01,
        )
        assert client.healthz() == {"ok": 1}
        assert client.attempts == 4
        assert len(client.sleeps) == 1  # only the 503 slept

    def test_failover_knob_validation(self):
        with pytest.raises(ValueError):
            ServingClient(failover_retries=-1)
        zero = _ScriptedTransportClient(
            [ConnectionResetError("down"), (200, {}, {"ok": 1})],
            failover_retries=0,
            backoff_base_s=0.01,
        )
        assert zero.healthz() == {"ok": 1}
        assert len(zero.sleeps) == 1  # no free failover with budget 0

    def test_live_round_trip_is_bitwise(
        self, service, requests8, direct_totals
    ):
        with GatewayThread(service) as handle:
            client = ServingClient(port=handle.port, max_retries=0)
            single = client.predict(requests8[0])
            many = client.predict_many(requests8[:3], deadline_ms=30_000)
            health = client.healthz()
        assert single["total"] == direct_totals[0]
        assert [obj["total"] for obj in many] == direct_totals[:3]
        assert health["status"] == "ok"
