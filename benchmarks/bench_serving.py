"""Perf smoke for the ``repro.serving`` HTTP gateway (load generator).

The gateway's whole reason to exist is cross-request coalescing: N
concurrent HTTP clients each carrying one request per call should beat
the same requests sent one HTTP call at a time, because concurrent
requests share micro-batched model calls.  This benchmark drives both
shapes through a live gateway over loopback HTTP, asserts the win and
that every wire response is bitwise-equal to a direct
``PredictionService.submit_many`` call, and exports the requests/s into
``BENCH_ml_engine.json`` with the rest of the ``perf_smoke`` suite.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import WORKLOADS
from repro.serving import GatewayThread, ResilienceConfig
from repro.serving.wire import encode_request

N_CLIENTS = 8
# Timed rounds of each shape in the throughput comparison.
ROUNDS = 21


@pytest.fixture(scope="module")
def served_load(flow):
    """A fitted AutoPower model plus a realistic load.

    32 requests over 4 unseen configurations x 8 workloads (the same mix
    as the prediction-service benchmark), pre-encoded to JSON, plus the
    bitwise ground truth from a direct ``submit_many`` call.
    """
    train = [config_by_name("C1"), config_by_name("C15")]
    model = api.fit(
        "autopower", flow=flow, train_configs=train, workloads=list(WORKLOADS)
    )
    requests = [
        api.PredictRequest(config=c, events=flow.run(c, w).events, workload=w)
        for c in (config_by_name(f"C{i}") for i in (2, 5, 9, 12))
        for w in WORKLOADS
    ]
    expected = [
        r.total for r in api.PredictionService(model).submit_many(requests)
    ]
    payloads = [json.dumps(encode_request(r)) for r in requests]
    return model, payloads, expected


@pytest.fixture(scope="module")
def live_gateway(served_load):
    """A live in-process gateway thread over the fitted model."""
    model, payloads, expected = served_load
    # An explicit (generous) queue bound: the benchmark runs through the
    # real admission-control path, and the stats check below asserts it
    # never sheds at this load.
    handle = GatewayThread(
        api.PredictionService(model),
        max_batch_size=64,
        resilience=ResilienceConfig(queue_depth=256),
    ).start()
    yield handle, payloads, expected
    handle.stop()


def _post_slice(port, payloads, out, offset):
    """One client: its own keep-alive connection, one request per call."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    for i, payload in enumerate(payloads):
        conn.request(
            "POST", "/predict", body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        out[offset + i] = json.loads(response.read())["total"]
    conn.close()


@pytest.mark.perf_smoke
def test_serving_gateway_concurrent_throughput(benchmark, live_gateway):
    """N concurrent clients vs the sequential one-call-at-a-time loop.

    Both shapes run ``ROUNDS`` times, interleaved (one sequential pass
    before each concurrent round), so a drift in host speed hits both
    sides alike, and the bar compares their medians.
    """
    handle, payloads, expected = live_gateway
    slice_size = len(payloads) // N_CLIENTS

    def concurrent_clients():
        results = [None] * len(payloads)
        threads = [
            threading.Thread(
                target=_post_slice,
                args=(
                    handle.port,
                    payloads[i * slice_size : (i + 1) * slice_size],
                    results,
                    i * slice_size,
                ),
            )
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    # Reference: the same 32 requests, one HTTP call at a time, one
    # client — no coalescing opportunity.
    sequential_seconds = []

    def sequential_pass():
        sequential = [None] * len(payloads)
        start = time.perf_counter()
        _post_slice(handle.port, payloads, sequential, 0)
        sequential_seconds.append(time.perf_counter() - start)
        assert sequential == expected

    results = benchmark.pedantic(concurrent_clients, setup=sequential_pass, rounds=ROUNDS)
    # Coalesced-through-the-gateway must equal direct submit_many bitwise
    # (json round-trips floats exactly).
    assert results == expected
    assert len(sequential_seconds) == ROUNDS

    concurrent_median = benchmark.stats.stats.median
    sequential_median = statistics.median(sequential_seconds)
    benchmark.extra_info["concurrent_requests_per_second"] = (
        len(payloads) / concurrent_median
    )
    benchmark.extra_info["sequential_requests_per_second"] = (
        len(payloads) / sequential_median
    )
    benchmark.extra_info["speedup_vs_sequential"] = sequential_median / concurrent_median
    # The acceptance bar: coalesced concurrent throughput >= the
    # one-request-per-HTTP-call baseline.
    assert concurrent_median <= sequential_median


@pytest.mark.perf_smoke
def test_serving_gateway_stats_stay_consistent(live_gateway):
    """After the load, the gateway books balance (no lost responses)."""
    handle, _payloads, _expected = live_gateway
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
    conn.request("GET", "/stats")
    stats = json.loads(conn.getresponse().read())
    conn.close()
    gateway = stats["gateway"]
    service = stats["service"]
    assert gateway["predict_requests"] == gateway["predict_responses"]
    assert service["requests"] == service["responses"]
    assert service["requests"] == gateway["predict_requests"]
    assert gateway["queue_depth"] == 0
    assert gateway["flushed_requests"] == gateway["predict_requests"]
    assert gateway["max_flush_size"] >= 1
    # The resilience layer was live but never in the way: nothing shed,
    # breaker closed, service-time EWMA tracking the real load.
    resilience = stats["resilience"]
    assert resilience["draining"] is False
    assert resilience["queue_capacity"] == 256
    assert all(count == 0 for count in resilience["shed"].values())
    assert resilience["model_timeouts"] == 0
    assert resilience["circuit"]["state"] == "closed"
    assert resilience["service_time_ms"] > 0
