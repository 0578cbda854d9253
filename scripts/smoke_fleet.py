"""Fleet smoke: multi-model routing, hot reload, auth, and --workers 2.

The acceptance check for fleet-scale serving, against the real
``python -m repro serve`` artifact on ephemeral ports:

**Phase 1 — single process, two models + auth.**  Serve two fitted
models, verify ``POST /models/<name>/predict`` answers bitwise-equal to
direct :class:`repro.api.PredictionService` calls for both, that a
request without the bearer token answers 401, then hot-reload one model
over ``PUT /models/<name>`` (generation bumps, still bitwise), load a
third from an envelope body, and ``DELETE`` it (route 404s after).

**Phase 2 — ``--workers 2``.**  Fork two shared-nothing workers on one
``SO_REUSEPORT`` port, spray concurrent requests at the shared data
port (every response must stay bitwise), read the parent control
plane's merged ``/stats`` and require the merged counters to equal the
sum of the per-worker counters, hot-reload a model through the control
plane's fan-out (both workers must serve it afterwards), then SIGTERM
and require a clean pool exit.  On a machine with >= 2 CPUs the
two-worker throughput must be >= 1.5x a single worker's on the same
load (skipped on single-core runners, where forked workers time-share
one core).

Usage::

    python scripts/smoke_fleet.py [--skip-scaling]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time

from smoke_common import ServeProcess, check, fit_model, http_call

TOKEN = "smoke-fleet-token"


def _spray(host, port, path, payloads, n_threads=8, rounds=4, token=None):
    """Concurrent single-request POSTs; returns (bodies, elapsed_s)."""
    results: list[list] = [[] for _ in range(n_threads)]
    errors: list = []

    def worker(slot: int) -> None:
        try:
            for r in range(rounds):
                for payload in payloads:
                    status, _h, body = http_call(
                        host, port, "POST", path, payload, token=token
                    )
                    if status != 200:
                        errors.append((status, body))
                        return
                    results[slot].append(body)
        except OSError as exc:
            errors.append(("transport", str(exc)))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    check(not errors, "sprayed requests must all answer 200", errors[:3])
    return [b for slot in results for b in slot], elapsed


def phase_single_process(paths, requests, expected) -> None:
    serve = ServeProcess([
        "--model", f"default={paths['ap']}",
        "--model", f"mcpat={paths['mcpat']}",
        "--port", "0",
        "--auth-token", TOKEN,
    ])
    try:
        serve.wait_healthy()
        print(f"[phase 1] two-model gateway on {serve.host}:{serve.port}",
              flush=True)

        # No token -> 401 before any model work; /healthz stays open.
        status, headers, _b = http_call(
            serve.host, serve.port, "POST", "/predict", requests["ap"][0]
        )
        check(status == 401, f"tokenless predict must 401, got {status}")
        check(headers.get("www-authenticate") == "Bearer", "401 challenge")

        # Both models route bitwise, independently.
        for name in ("ap", "mcpat"):
            route = "/predict" if name == "ap" else "/models/mcpat/predict"
            status, _h, body = http_call(
                serve.host, serve.port, "POST", route, requests[name],
                token=TOKEN,
            )
            check(status == 200, f"POST {route}", body)
            got = [r["total"] for r in body]
            check(
                got == expected[name],
                f"{name} responses must be bitwise-equal to direct calls",
                (got[:2], expected[name][:2]),
            )

        # Hot reload: PUT the same name again; generation bumps and the
        # model keeps serving bitwise.
        status, _h, body = http_call(
            serve.host, serve.port, "PUT", "/models/mcpat",
            {"path": paths["mcpat"]}, token=TOKEN,
        )
        check(status == 200 and body["replaced"] is True, "hot reload", body)
        check(body["generation"] == 2, "reload bumps the generation", body)
        status, _h, body = http_call(
            serve.host, serve.port, "POST", "/models/mcpat/predict",
            requests["mcpat"], token=TOKEN,
        )
        check(
            status == 200
            and [r["total"] for r in body] == expected["mcpat"],
            "reloaded model must stay bitwise", body,
        )

        # Load a third model from a full envelope body, then unload it.
        import repro.api as api

        envelope = api.model_to_envelope(api.load_model(paths["mcpat"]))
        status, _h, body = http_call(
            serve.host, serve.port, "PUT", "/models/third", envelope,
            token=TOKEN,
        )
        check(status == 200 and body["source"] == "envelope",
              "envelope load", body)
        status, _h, body = http_call(
            serve.host, serve.port, "POST", "/models/third/predict",
            requests["mcpat"], token=TOKEN,
        )
        check(
            status == 200
            and [r["total"] for r in body] == expected["mcpat"],
            "envelope-loaded model must serve bitwise", body,
        )
        status, _h, body = http_call(
            serve.host, serve.port, "DELETE", "/models/third", token=TOKEN
        )
        check(status == 200 and body["unloaded"] is True, "unload", body)
        status, _h, _b = http_call(
            serve.host, serve.port, "POST", "/models/third/predict",
            requests["mcpat"][:1], token=TOKEN,
        )
        check(status == 404, "unloaded model route must 404")
    except BaseException:
        serve.kill()
        print(serve.output)
        raise
    code = serve.terminate_and_wait()
    check(code == 0, f"phase-1 serve must exit 0, got {code}", serve.output)
    print("[phase 1] ok: routing/auth/hot-reload/unload all bitwise",
          flush=True)


def _measure_throughput(paths, requests, expected, workers: int) -> float:
    args = [
        "--model", f"default={paths['ap']}",
        "--port", "0",
    ]
    if workers > 1:
        args += ["--workers", str(workers)]
    serve = ServeProcess(args)
    try:
        serve.wait_healthy()
        bodies, elapsed = _spray(
            serve.host, serve.port, "/predict", requests["ap"],
            n_threads=8, rounds=4,
        )
        for body in bodies:
            check(
                body["total"] in expected["ap"],
                "load responses must stay bitwise", body,
            )
        rate = len(bodies) / elapsed
    except BaseException:
        serve.kill()
        print(serve.output)
        raise
    code = serve.terminate_and_wait()
    check(code == 0, f"load serve must exit 0, got {code}", serve.output)
    return rate


def phase_worker_pool(paths, requests, expected, skip_scaling: bool) -> None:
    serve = ServeProcess([
        "--model", f"default={paths['ap']}",
        "--model", f"mcpat={paths['mcpat']}",
        "--port", "0",
        "--workers", "2",
        "--auth-token", TOKEN,
    ])
    try:
        serve.wait_healthy()
        check(serve.announce["workers"] == 2, "announce reports 2 workers",
              serve.announce)
        check(serve.control is not None, "announce carries the control addr",
              serve.announce)
        control_host, control_port = serve.control.removeprefix(
            "http://"
        ).rsplit(":", 1)
        control_port = int(control_port)
        print(
            f"[phase 2] pool on {serve.host}:{serve.port}, "
            f"control {serve.control}", flush=True,
        )

        # Concurrent load over the shared SO_REUSEPORT port: every
        # response bitwise, whichever worker the kernel picked.
        bodies, _elapsed = _spray(
            serve.host, serve.port, "/predict", requests["ap"],
            n_threads=8, rounds=2, token=TOKEN,
        )
        for body in bodies:
            check(body["total"] in expected["ap"],
                  "pooled responses must stay bitwise", body)

        # Merged /stats: the parent's merged view must equal the sum of
        # the per-worker counters, and must account for every request.
        status, _h, stats = http_call(
            control_host, control_port, "GET", "/stats", token=TOKEN
        )
        check(status == 200, "control GET /stats", stats)
        per_worker = [w["body"] for w in stats["workers"]]
        check(len(per_worker) == 2, "stats from both workers", stats)
        summed = sum(
            w["gateway"]["predict_responses"] for w in per_worker
        )
        merged = stats["merged"]["gateway"]["predict_responses"]
        check(
            merged == summed,
            "merged predict_responses must equal the per-worker sum",
            (merged, summed),
        )
        check(
            merged >= len(bodies),
            "merged counters must account for every sprayed request",
            (merged, len(bodies)),
        )
        for w in per_worker:
            check(
                w["gateway"]["predict_responses"] > 0,
                "SO_REUSEPORT must spread load over both workers",
                [x["gateway"]["predict_responses"] for x in per_worker],
            )

        # Hot reload through the control plane: the fan-out must land on
        # both workers, so the reloaded model serves from either.
        status, _h, body = http_call(
            control_host, control_port, "PUT", "/models/mcpat",
            {"path": paths["mcpat"]}, token=TOKEN,
        )
        check(status == 200, "control-plane PUT fan-out", body)
        check(
            all(w["status"] == 200 for w in body["workers"])
            and len(body["workers"]) == 2,
            "PUT must succeed on both workers", body,
        )
        bodies, _elapsed = _spray(
            serve.host, serve.port, "/models/mcpat/predict",
            requests["mcpat"], n_threads=4, rounds=2, token=TOKEN,
        )
        for body in bodies:
            check(body["total"] in expected["mcpat"],
                  "post-reload pooled responses must stay bitwise", body)

        # Unload everywhere; the route must 404 on the data port after.
        status, _h, body = http_call(
            control_host, control_port, "DELETE", "/models/mcpat",
            token=TOKEN,
        )
        check(status == 200, "control-plane DELETE fan-out", body)
        status, _h, _b = http_call(
            serve.host, serve.port, "POST", "/models/mcpat/predict",
            requests["mcpat"][:1], token=TOKEN,
        )
        check(status == 404, "unloaded model must 404 on the data port")
    except BaseException:
        serve.kill()
        print(serve.output)
        raise
    code = serve.terminate_and_wait()
    check(code == 0, f"pool must drain and exit 0, got {code}", serve.output)
    check("all workers drained" in serve.output, "pool drain message",
          serve.output)
    print("[phase 2] ok: pool routing/merged-stats/fan-out/drain", flush=True)

    if skip_scaling:
        print("[scaling] skipped (--skip-scaling)", flush=True)
        return
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(
            f"[scaling] skipped: {cpus} CPU(s); forked workers would "
            "time-share one core", flush=True,
        )
        return
    single = _measure_throughput(paths, requests, expected, workers=1)
    double = _measure_throughput(paths, requests, expected, workers=2)
    ratio = double / single
    print(
        f"[scaling] 1 worker: {single:.0f} req/s, "
        f"2 workers: {double:.0f} req/s, ratio {ratio:.2f}x", flush=True,
    )
    check(
        ratio >= 1.5,
        f"2-worker throughput must be >= 1.5x single-worker, got {ratio:.2f}x",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-scaling", action="store_true",
        help="skip the 2-worker >= 1.5x throughput assertion",
    )
    args = parser.parse_args(argv)

    import repro.api as api
    from repro.arch.config import config_by_name
    from repro.arch.workloads import workload_by_name
    from repro.serving import wire
    from repro.sim.perf import PerfSimulator

    from repro.serving.fleet import reuse_port_supported

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        paths = {"ap": f"{tmp}/ap.json", "mcpat": f"{tmp}/mcpat.json"}
        print("fitting autopower + mcpat ...", flush=True)
        fit_model("autopower", paths["ap"])
        fit_model("mcpat", paths["mcpat"])

        perf = PerfSimulator()
        grid = [
            (config_by_name(c), workload_by_name(w))
            for c in ("C8", "C9")
            for w in ("dhrystone", "qsort")
        ]
        predict_requests = [
            api.PredictRequest(c, perf.run(c, w), w) for c, w in grid
        ]
        requests = {
            name: [wire.encode_request(r) for r in predict_requests]
            for name in ("ap", "mcpat")
        }
        expected = {}
        for name, path in paths.items():
            service = api.PredictionService(api.load_model(path))
            expected[name] = [
                float(r.total) for r in service.submit_many(predict_requests)
            ]

        phase_single_process(paths, requests, expected)
        if not reuse_port_supported():
            print(
                "[phase 2] skipped: no os.fork/SO_REUSEPORT on this platform",
                flush=True,
            )
        else:
            phase_worker_pool(paths, requests, expected, args.skip_scaling)
    print("fleet smoke ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
