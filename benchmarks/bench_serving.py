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
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import WORKLOADS
from repro.serving import GatewayThread, ResilienceConfig
from repro.serving.fleet import parse_announce, reuse_port_supported
from repro.serving.wire import encode_request

N_CLIENTS = 8


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
    """N concurrent clients vs the sequential one-call-at-a-time loop."""
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

    results = benchmark(concurrent_clients)
    # Coalesced-through-the-gateway must equal direct submit_many bitwise
    # (json round-trips floats exactly).
    assert results == expected

    # Reference: the same 32 requests, one HTTP call at a time, one
    # client — no coalescing opportunity.  Timed once in-process.
    sequential = [None] * len(payloads)
    start = time.perf_counter()
    _post_slice(handle.port, payloads, sequential, 0)
    sequential_seconds = time.perf_counter() - start
    assert sequential == expected

    concurrent_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["concurrent_requests_per_second"] = (
        len(payloads) / concurrent_seconds
    )
    benchmark.extra_info["sequential_requests_per_second"] = (
        len(payloads) / sequential_seconds
    )
    benchmark.extra_info["speedup_vs_sequential"] = (
        sequential_seconds / concurrent_seconds
    )
    # The acceptance bar: coalesced concurrent throughput >= the
    # one-request-per-HTTP-call baseline.
    assert concurrent_seconds <= sequential_seconds


def _launch_serve(model_path, extra_args, come_up_timeout=120.0):
    """One real ``python -m repro serve`` subprocess; returns
    (proc, announce) once the REPRO-SERVING line has been printed."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(model_path), "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    lines = []
    announce = [None]

    def pump():
        for line in proc.stdout:
            lines.append(line)
            if announce[0] is None:
                announce[0] = parse_announce(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    deadline = time.monotonic() + come_up_timeout
    while announce[0] is None and time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    if announce[0] is None:
        proc.kill()
        raise RuntimeError(f"serve never announced: {''.join(lines)}")
    return proc, announce[0]


def _spray(port, payloads, rounds):
    """N_CLIENTS threads, each sending every payload ``rounds`` times."""
    results = [None] * (N_CLIENTS * rounds * len(payloads))
    per_client = rounds * len(payloads)
    threads = [
        threading.Thread(
            target=_post_slice,
            args=(port, payloads * rounds, results, i * per_client),
        )
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


@pytest.mark.perf_smoke
def test_serving_worker_pool_scaling(benchmark, served_load, tmp_path):
    """``--workers 2`` vs one worker, through real serve subprocesses.

    Bitwise correctness and merged-stats consistency are asserted
    everywhere; the >= 1.5x throughput bar only on multicore hosts
    (forked workers time-share a single core otherwise).
    """
    if not reuse_port_supported():
        pytest.skip("worker pool needs os.fork and SO_REUSEPORT")
    model, payloads, expected = served_load
    model_path = tmp_path / "pool-model.json"
    api.save_model(model, model_path)
    rounds = 2
    expected_spray = expected * rounds * N_CLIENTS

    # Reference: a single-process serve under the identical client load.
    proc, announce = _launch_serve(model_path, [])
    try:
        start = time.perf_counter()
        results = _spray(announce["port"], payloads, rounds)
        single_seconds = time.perf_counter() - start
        assert sorted(results) == sorted(expected_spray)
    finally:
        proc.terminate()
    assert proc.wait(timeout=60) == 0

    proc, announce = _launch_serve(model_path, ["--workers", "2"])
    try:
        assert announce["workers"] == 2
        results = benchmark(_spray, announce["port"], payloads, rounds)
        assert sorted(results) == sorted(expected_spray)

        # The parent control plane's merged view must stay consistent
        # with the per-worker counters.
        control_host, control_port = (
            announce["control"].removeprefix("http://").rsplit(":", 1)
        )
        conn = http.client.HTTPConnection(
            control_host, int(control_port), timeout=60
        )
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        per_worker = [w["body"]["gateway"] for w in stats["workers"]]
        assert len(per_worker) == 2
        merged = stats["merged"]["gateway"]
        assert merged["predict_responses"] == sum(
            w["predict_responses"] for w in per_worker
        )
        assert merged["predict_responses"] >= len(expected_spray)
        assert all(w["predict_responses"] > 0 for w in per_worker)
    finally:
        proc.terminate()
    assert proc.wait(timeout=60) == 0

    pool_seconds = benchmark.stats.stats.mean
    total = len(expected_spray)
    benchmark.extra_info["single_worker_requests_per_second"] = (
        total / single_seconds
    )
    benchmark.extra_info["two_worker_requests_per_second"] = (
        total / pool_seconds
    )
    benchmark.extra_info["worker_scaling_speedup"] = (
        single_seconds / pool_seconds
    )
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    if (os.cpu_count() or 1) >= 2:
        assert single_seconds / pool_seconds >= 1.5, (
            f"2-worker speedup {single_seconds / pool_seconds:.2f}x < 1.5x "
            f"on a {os.cpu_count()}-CPU host"
        )


@pytest.mark.perf_smoke
def test_serving_pool_restart_recovery_latency(benchmark, served_load, tmp_path):
    """SIGKILL one pool worker; measure time back to full capacity.

    The supervised pool's recovery budget is backoff + fork + model load
    + journal replay; this pins a number on it (exported as
    ``recovery_seconds``) and asserts the pool answers bitwise-correct
    predictions immediately after each heal.
    """
    if not reuse_port_supported():
        pytest.skip("worker pool needs os.fork and SO_REUSEPORT")
    model, payloads, expected = served_load
    model_path = tmp_path / "recovery-model.json"
    api.save_model(model, model_path)
    # Every benchmark round is one crash: fund the breaker well past the
    # round count and keep the backoff small so we measure respawn +
    # reload, not sleep.
    proc, announce = _launch_serve(
        model_path,
        ["--workers", "2", "--restart-backoff-ms", "25",
         "--max-restarts", "1000"],
    )
    control_host, control_port = (
        announce["control"].removeprefix("http://").rsplit(":", 1)
    )

    def ready_pids():
        conn = http.client.HTTPConnection(
            control_host, int(control_port), timeout=60
        )
        try:
            conn.request("GET", "/healthz")
            body = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return body["status"], {
            w["pid"] for w in body["workers"] if w.get("status") == 200
        }

    def kill_and_recover():
        status, pids = ready_pids()
        assert status == "ok" and len(pids) == 2
        victim = min(pids)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, pids = ready_pids()
            if status == "ok" and len(pids) == 2 and victim not in pids:
                return
            time.sleep(0.01)
        raise RuntimeError("pool never returned to full capacity")

    try:
        benchmark.pedantic(kill_and_recover, rounds=5, iterations=1)
        # Post-heal correctness: the replacement serves bitwise answers.
        results = [None] * len(payloads)
        _post_slice(announce["port"], payloads, results, 0)
        assert sorted(results) == sorted(expected)
    finally:
        proc.terminate()
    assert proc.wait(timeout=60) == 0
    benchmark.extra_info["recovery_seconds"] = benchmark.stats.stats.mean
    benchmark.extra_info["restart_backoff_ms"] = 25


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
