"""Tests for ``repro.serving``: wire codec, micro-batcher, HTTP gateway.

The core contract under test: responses served through the gateway (and
therefore through the cross-request micro-batcher and the JSON wire) are
bitwise-equal to direct :meth:`PredictionService.submit_many` calls for
the same requests.
"""

from __future__ import annotations

import asyncio
import http.client
import json

import numpy as np
import pytest

import repro.api as api
from repro.serving import GatewayThread, MicroBatcher, WireError
from repro.serving import wire


@pytest.fixture(scope="module")
def mcpat_model(flow):
    """The analytical baseline: totals only, workload optional."""
    return api.fit("mcpat", flow=flow)


@pytest.fixture(scope="module")
def total_requests(flow, test_configs, workloads):
    """A 3-config x 3-workload grid of total-power requests."""
    return [
        api.PredictRequest(config=c, events=flow.run(c, w).events, workload=w)
        for c in test_configs[:3]
        for w in workloads[:3]
    ]


@pytest.fixture(scope="module")
def ap_gateway(autopower2):
    """A live gateway thread over a fitted AutoPower model."""
    with GatewayThread(api.PredictionService(autopower2)) as handle:
        yield handle


@pytest.fixture(scope="module")
def mcpat_gateway(mcpat_model):
    """A live gateway over the reports-free analytical baseline."""
    with GatewayThread(api.PredictionService(mcpat_model)) as handle:
        yield handle


def _http(port, method, path, payload=None, raw_body=None):
    """One HTTP round trip; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = raw_body if raw_body is not None else (
        None if payload is None else json.dumps(payload)
    )
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    decoded = json.loads(response.read().decode("utf-8"))
    conn.close()
    return response.status, decoded


class TestWire:
    def test_total_request_round_trips(self, total_requests):
        request = total_requests[0]
        clone = wire.decode_request(wire.encode_request(request))
        assert clone.config.name == request.config.name
        assert clone.workload.name == request.workload.name
        assert clone.kind == "total"
        assert clone.events.counts == request.events.counts

    def test_trace_request_round_trips(self, total_requests):
        request = api.PredictRequest(
            total_requests[0].config,
            total_requests[0].events,
            total_requests[0].workload,
            kind="trace",
            scales=np.linspace(0.7, 1.3, 7),
            window_cycles=40,
        )
        clone = wire.decode_request(wire.encode_request(request))
        assert clone.kind == "trace"
        assert clone.window_cycles == 40
        np.testing.assert_array_equal(clone.scales, request.scales)

    def test_workload_free_request_round_trips(self, total_requests):
        request = api.PredictRequest(
            total_requests[0].config, total_requests[0].events, None
        )
        encoded = wire.encode_request(request)
        assert "workload" not in encoded
        assert wire.decode_request(encoded).workload is None

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda obj: obj.update(shoe_size=43), "unknown request fields"),
            (lambda obj: obj.pop("config"), "config"),
            (lambda obj: obj.pop("events"), "events"),
            (lambda obj: obj.update(config="C999"), "C999"),
            (lambda obj: obj.update(kind="banana"), "kind"),
            (lambda obj: obj.update(workload=42), "workload"),
            (lambda obj: obj["events"].update(weird_event=1.0), "weird_event"),
            (lambda obj: obj["events"].update(cycles="many"), "numbers"),
            (lambda obj: obj.update(kind="trace", scales=[]), "scale"),
            (lambda obj: obj.update(kind="trace", scales=[-1.0]), "positive"),
            (
                lambda obj: obj.update(
                    kind="trace", scales=[1.0], window_cycles=0
                ),
                "window_cycles",
            ),
        ],
    )
    def test_malformed_requests_are_400(self, total_requests, mutate, match):
        obj = wire.encode_request(total_requests[0])
        obj["events"] = dict(obj["events"])
        mutate(obj)
        with pytest.raises(WireError, match=match) as excinfo:
            wire.decode_request(obj)
        assert excinfo.value.status == 400

    def test_non_object_request_is_400(self):
        with pytest.raises(WireError, match="object") as excinfo:
            wire.decode_request([1, 2, 3])
        assert excinfo.value.status == 400

    def test_unsupported_kind_for_model_is_422(
        self, mcpat_model, total_requests
    ):
        obj = wire.encode_request(total_requests[0])
        obj["kind"] = "report"
        with pytest.raises(WireError, match="report") as excinfo:
            wire.decode_request(obj, model=mcpat_model)
        assert excinfo.value.status == 422

    def test_supported_kinds(self, autopower2, mcpat_model):
        assert wire.supported_kinds(autopower2) == ("total", "report", "trace")
        assert wire.supported_kinds(mcpat_model) == ("total",)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_bitwise(
        self, autopower2, total_requests
    ):
        direct = api.PredictionService(autopower2).submit_many(total_requests)

        service = api.PredictionService(autopower2)

        async def run():
            batcher = MicroBatcher(service, max_batch_size=64)
            await batcher.start()
            try:
                responses = await asyncio.gather(
                    *(batcher.submit(r) for r in total_requests)
                )
            finally:
                await batcher.stop()
            return responses, batcher.flushes, batcher.max_flush_size

        responses, flushes, max_flush = asyncio.run(run())
        assert [r.total for r in responses] == [r.total for r in direct]
        # The whole point: requests from concurrent callers shared flushes.
        assert flushes < len(total_requests)
        assert max_flush > 1

    def test_requests_queued_during_a_flush_form_the_next_one(
        self, autopower2, total_requests
    ):
        # The load-adaptive policy, pinned without timing: flush 1 wedges
        # in the model, N requests queue behind it, and on release
        # exactly one more flush carries all N.
        import threading

        service = api.PredictionService(autopower2)
        entered = threading.Event()
        release = threading.Event()

        class GatedService:
            def submit_many(self, requests):
                entered.set()
                release.wait(30)
                return service.submit_many(requests)

        first, rest = total_requests[0], total_requests[1:]

        async def run():
            batcher = MicroBatcher(GatedService())
            await batcher.start()
            try:
                head = asyncio.ensure_future(batcher.submit(first))
                while not entered.is_set():
                    await asyncio.sleep(0.001)
                tail = [asyncio.ensure_future(batcher.submit(r)) for r in rest]
                while batcher.queue_depth < len(rest):
                    await asyncio.sleep(0)
                release.set()
                responses = await asyncio.gather(head, *tail)
            finally:
                release.set()
                await batcher.stop()
            return responses, batcher.flushes, batcher.max_flush_size

        responses, flushes, max_flush = asyncio.run(run())
        assert flushes == 2
        assert max_flush == len(rest)
        direct = [service.predict(r).total for r in total_requests]
        assert [r.total for r in responses] == direct

    def test_mixed_workload_presence_is_partitioned(
        self, mcpat_model, total_requests
    ):
        # Direct submit_many rejects a workload mix inside one chunk; the
        # batcher partitions across callers, so both halves are served.
        service = api.PredictionService(mcpat_model)
        request = total_requests[0]
        bare = api.PredictRequest(request.config, request.events, None)

        async def run():
            batcher = MicroBatcher(service)
            await batcher.start()
            try:
                return await asyncio.gather(
                    batcher.submit(request), batcher.submit(bare)
                )
            finally:
                await batcher.stop()

        with_wl, without_wl = asyncio.run(run())
        assert with_wl.total == service.predict(request).total
        assert without_wl.total == service.predict(
            api.PredictRequest(request.config, request.events, None)
        ).total

    def test_poison_request_fails_alone(self, mcpat_model, total_requests):
        # An unservable request that reaches the batcher (report kind on a
        # reports-free model) must fail only its own caller.
        service = api.PredictionService(mcpat_model)
        request = total_requests[0]
        poison = api.PredictRequest(
            request.config, request.events, request.workload, kind="report"
        )

        async def run():
            batcher = MicroBatcher(service)
            await batcher.start()
            try:
                return await asyncio.gather(
                    batcher.submit(total_requests[0]),
                    batcher.submit(poison),
                    batcher.submit(total_requests[1]),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()

        first, failed, second = asyncio.run(run())
        assert isinstance(failed, TypeError)
        assert first.total == service.predict(total_requests[0]).total
        assert second.total == service.predict(total_requests[1]).total

    def test_hard_stop_fails_in_flight_futures_instead_of_hanging(
        self, total_requests
    ):
        # Regression: stop() during an in-flight flush used to abandon
        # that batch's futures (they were already out of the queue), so
        # their submitters awaited forever.  The hard stop must fail
        # them promptly instead.
        import time

        class SlowService:
            def submit_many(self, requests):
                time.sleep(0.5)
                return list(requests)

        async def run():
            batcher = MicroBatcher(SlowService())
            await batcher.start()
            pending = asyncio.ensure_future(
                batcher.submit(total_requests[0])
            )
            await asyncio.sleep(0.05)  # let the flush start
            await batcher.stop(drain=False)
            return await asyncio.wait_for(
                asyncio.gather(pending, return_exceptions=True), timeout=5
            )

        (outcome,) = asyncio.run(run())
        assert isinstance(outcome, RuntimeError)
        assert "stopped" in str(outcome)

    def test_stop_drains_in_flight_futures_to_completion(
        self, mcpat_model, total_requests
    ):
        # The graceful default: stop() completes everything already
        # accepted — in-flight and still-queued — bitwise-equal to
        # direct service calls, instead of failing the futures.
        service = api.PredictionService(mcpat_model)
        direct = [service.predict(r).total for r in total_requests[:4]]

        async def run():
            batcher = MicroBatcher(service)
            await batcher.start()
            pending = [
                asyncio.ensure_future(batcher.submit(r))
                for r in total_requests[:4]
            ]
            await asyncio.sleep(0)  # enqueue, but don't wait for a flush
            await batcher.stop(drain=True, drain_timeout=30.0)
            return await asyncio.gather(*pending)

        responses = asyncio.run(run())
        assert [r.total for r in responses] == direct

    def test_queue_full_rejection_order_is_fifo(self, mcpat_model, total_requests):
        # Admission is strictly first-come-first-admitted: with capacity
        # k and a wedged collector, submissions 1..k are accepted and
        # every later one is refused with 429 — never an earlier one.
        import threading

        from repro.serving import OverloadError, ResilienceConfig

        service = api.PredictionService(mcpat_model)
        release = threading.Event()

        class GatedService:
            def submit_many(self, requests):
                release.wait(30)
                return service.submit_many(requests)

        async def run():
            batcher = MicroBatcher(
                GatedService(),
                resilience=ResilienceConfig(queue_depth=2),
            )
            await batcher.start()
            # First submission is pulled by the collector and wedges in
            # the gated model call; the queue is then free for exactly 2.
            first = asyncio.ensure_future(batcher.submit(total_requests[0]))
            await asyncio.sleep(0.05)
            accepted = [
                asyncio.ensure_future(batcher.submit(r))
                for r in total_requests[1:3]
            ]
            await asyncio.sleep(0)  # let them enqueue
            rejections = []
            for request in total_requests[3:6]:
                try:
                    await batcher.submit(request)
                except OverloadError as exc:
                    rejections.append(exc)
            release.set()
            results = await asyncio.gather(first, *accepted)
            await batcher.stop()
            return results, rejections, batcher.shed_overload

        results, rejections, shed = asyncio.run(run())
        # The first k admitted all completed with real values ...
        expected = [service.predict(r).total for r in total_requests[:3]]
        assert [r.total for r in results] == expected
        # ... and every late-comer was refused, with a Retry-After hint.
        assert len(rejections) == 3 and shed == 3
        assert all(exc.status == 429 for exc in rejections)
        assert all(exc.retry_after >= 1 for exc in rejections)

    def test_poison_isolation_under_concurrent_mixed_load(
        self, mcpat_model, total_requests
    ):
        # A worst-case flush: workload-carrying, workload-free and
        # poison (unsupported-kind) requests all land in one flush from
        # concurrent callers.  Every good request must resolve with its
        # direct-call value; only the poison callers see failures.
        service = api.PredictionService(mcpat_model)
        good = [
            api.PredictRequest(r.config, r.events, r.workload)
            for r in total_requests[:4]
        ] + [
            api.PredictRequest(r.config, r.events, None)
            for r in total_requests[4:8]
        ]
        poison = [
            api.PredictRequest(
                r.config, r.events, r.workload, kind="report"
            )
            for r in total_requests[:2]
        ]
        direct = [service.predict(r).total for r in good]

        async def run():
            batcher = MicroBatcher(service)
            await batcher.start()
            try:
                interleaved = [
                    batcher.submit(r)
                    for pair in zip(good[:2], poison, good[2:4])
                    for r in pair
                ] + [batcher.submit(r) for r in good[4:]]
                return await asyncio.gather(
                    *interleaved, return_exceptions=True
                )
            finally:
                await batcher.stop()

        outcomes = asyncio.run(run())
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        totals = [
            o.total for o in outcomes if not isinstance(o, BaseException)
        ]
        assert len(failures) == 2
        assert all(isinstance(f, TypeError) for f in failures)
        assert sorted(totals) == sorted(direct)

    def test_submit_requires_running_batcher(self, mcpat_model):
        batcher = MicroBatcher(api.PredictionService(mcpat_model))

        async def run():
            await batcher.submit(None)

        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(run())

    def test_knob_validation(self, mcpat_model):
        service = api.PredictionService(mcpat_model)
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(service, max_batch_size=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(service, max_batch_size=-1)
        assert MicroBatcher(service, max_batch_size=1).max_batch_size == 1


class TestGateway:
    def test_single_requests_bitwise_equal_to_service(
        self, ap_gateway, autopower2, total_requests
    ):
        direct = api.PredictionService(autopower2).submit_many(total_requests)
        for request, expected in zip(total_requests, direct):
            status, body = _http(
                ap_gateway.port, "POST", "/predict",
                wire.encode_request(request),
            )
            assert status == 200
            assert body["total"] == expected.total
            assert body["config"] == expected.config_name
            assert body["workload"] == expected.workload_name
            assert body["kind"] == "total"

    def test_request_list_bitwise_equal_to_service(
        self, ap_gateway, autopower2, total_requests
    ):
        direct = api.PredictionService(autopower2).submit_many(total_requests)
        status, body = _http(
            ap_gateway.port, "POST", "/predict",
            [wire.encode_request(r) for r in total_requests],
        )
        assert status == 200
        assert [item["total"] for item in body] == [r.total for r in direct]

    def test_report_over_the_wire(self, ap_gateway, autopower2, total_requests):
        request = api.PredictRequest(
            total_requests[0].config,
            total_requests[0].events,
            total_requests[0].workload,
            kind="report",
        )
        expected = api.PredictionService(autopower2).predict(request)
        status, body = _http(
            ap_gateway.port, "POST", "/predict", wire.encode_request(request)
        )
        assert status == 200
        assert body["total"] == expected.total
        assert body["report"]["total"] == float(expected.report.total)
        assert set(body["report"]["groups"]) == {
            "clock", "sram", "register", "comb",
        }
        assert len(body["report"]["components"]) == len(
            expected.report.components
        )

    def test_trace_bitwise_over_the_wire(
        self, ap_gateway, autopower2, total_requests
    ):
        request = api.PredictRequest(
            total_requests[0].config,
            total_requests[0].events,
            total_requests[0].workload,
            kind="trace",
            scales=np.linspace(0.8, 1.2, 9),
        )
        expected = api.PredictionService(autopower2).predict(request)
        status, body = _http(
            ap_gateway.port, "POST", "/predict", wire.encode_request(request)
        )
        assert status == 200
        assert body["trace"] == [float(x) for x in expected.trace]

    def test_mixed_workload_presence_in_one_http_batch(
        self, mcpat_gateway, mcpat_model, total_requests
    ):
        request = total_requests[0]
        bare = api.PredictRequest(request.config, request.events, None)
        status, body = _http(
            mcpat_gateway.port, "POST", "/predict",
            [wire.encode_request(request), wire.encode_request(bare)],
        )
        assert status == 200
        service = api.PredictionService(mcpat_model)
        assert body[0]["total"] == service.predict(request).total
        assert body[1]["total"] == service.predict(bare).total
        assert body[1]["workload"] is None

    def test_healthz(self, ap_gateway):
        status, body = _http(ap_gateway.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["model"] == "AutoPower"
        assert body["kinds"] == ["total", "report", "trace"]

    def test_stats_exposes_service_and_gateway_counters(
        self, ap_gateway, total_requests
    ):
        _http(ap_gateway.port, "POST", "/predict",
              [wire.encode_request(r) for r in total_requests[:4]])
        status, body = _http(ap_gateway.port, "GET", "/stats")
        assert status == 200
        service_stats = body["service"]
        gateway_stats = body["gateway"]
        assert service_stats["requests"] >= 4
        assert service_stats["responses"] == service_stats["requests"]
        assert gateway_stats["predict_requests"] >= 4
        assert gateway_stats["queue_depth"] == 0
        assert gateway_stats["flushes"] >= 1
        assert gateway_stats["flushed_requests"] >= 4
        assert gateway_stats["max_flush_size"] >= 1
        assert gateway_stats["mean_flush_size"] >= 1.0
        assert gateway_stats["latency_ms"]["window"] >= 1
        assert gateway_stats["latency_ms"]["p50"] > 0
        assert gateway_stats["latency_ms"]["p95"] >= gateway_stats[
            "latency_ms"
        ]["p50"]

    def test_malformed_json_is_400(self, ap_gateway):
        status, body = _http(
            ap_gateway.port, "POST", "/predict", raw_body="{not json"
        )
        assert status == 400
        assert body["error"]["status"] == 400
        assert "JSON" in body["error"]["message"]

    def test_bad_request_is_400_with_structured_error(
        self, ap_gateway, total_requests
    ):
        obj = wire.encode_request(total_requests[0])
        obj["config"] = "C999"
        status, body = _http(ap_gateway.port, "POST", "/predict", obj)
        assert status == 400
        assert "C999" in body["error"]["message"]

    def test_unsupported_kind_is_422(self, mcpat_gateway, total_requests):
        obj = wire.encode_request(total_requests[0])
        obj["kind"] = "report"
        status, body = _http(mcpat_gateway.port, "POST", "/predict", obj)
        assert status == 422
        assert body["error"]["status"] == 422

    def test_one_bad_request_fails_the_whole_http_batch_before_any_work(
        self, ap_gateway, total_requests
    ):
        # Wire-level validation is all-or-nothing per HTTP request: the
        # caller gets the error and no partial responses.
        good = wire.encode_request(total_requests[0])
        bad = dict(good, config="C999")
        status, body = _http(
            ap_gateway.port, "POST", "/predict", [good, bad]
        )
        assert status == 400
        assert "error" in body

    def test_empty_request_list_is_400(self, ap_gateway):
        status, body = _http(ap_gateway.port, "POST", "/predict", [])
        assert status == 400

    def test_unknown_route_is_404(self, ap_gateway):
        status, body = _http(ap_gateway.port, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, ap_gateway):
        status, _ = _http(ap_gateway.port, "GET", "/predict")
        assert status == 405
        status, _ = _http(ap_gateway.port, "POST", "/healthz", payload={})
        assert status == 405

    def test_errors_are_counted_in_stats(self, ap_gateway):
        _http(ap_gateway.port, "GET", "/definitely-not-a-route")
        status, body = _http(ap_gateway.port, "GET", "/stats")
        assert status == 200
        assert body["gateway"]["errors"].get("404", 0) >= 1

    def test_keep_alive_serves_many_requests_per_connection(
        self, ap_gateway, total_requests
    ):
        conn = http.client.HTTPConnection(
            "127.0.0.1", ap_gateway.port, timeout=30
        )
        for request in total_requests[:3]:
            conn.request(
                "POST", "/predict", body=json.dumps(wire.encode_request(request))
            )
            response = conn.getresponse()
            assert response.status == 200
            json.loads(response.read())
        conn.close()
