"""DSE smoke: submit a grid twice over HTTP, require a warm second pass.

The end-to-end check CI runs against the real ``python -m repro serve``
artifact:

1. fit (or reuse) a model file and serve it on an ephemeral port with a
   fresh, private flow-cache directory,
2. ``POST /dse`` a small grid, poll ``GET /dse/<id>`` until done, fetch
   ranked ``GET /dse/<id>/results``,
3. resubmit the *same* grid and require the second sweep to be pure
   cache: zero flow executions, zero disk misses, and a ranked result
   list JSON-identical to the cold pass,
4. exercise the error surface (400 on a bad axis, 404 on an unknown
   job) and require a clean (exit 0) drain with jobs stopped.

Usage::

    python scripts/smoke_dse.py [--model model.json] [--method autopower]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

from smoke_common import ServeProcess, check, fit_model, http_call

AXES = {"RobEntry": [64, 96, 128], "FetchBufferEntry": [16, 24]}
SPEC = {"axes": AXES, "workloads": ["qsort", "towers"], "chunk": 3}


def run_job(serve, spec, timeout=120.0):
    """Submit ``spec``, poll to completion, return (status-snap, results)."""
    status, _h, ticket = http_call(
        serve.host, serve.port, "POST", "/dse", spec
    )
    check(status == 202, "POST /dse must answer 202 Accepted", (status, ticket))
    job_id = ticket["id"]
    deadline = time.monotonic() + timeout
    while True:
        status, _h, snap = http_call(
            serve.host, serve.port, "GET", f"/dse/{job_id}"
        )
        check(status == 200, f"GET /dse/{job_id}", snap)
        if snap["state"] not in ("pending", "running"):
            break
        check(
            time.monotonic() < deadline,
            f"job {job_id} still {snap['state']} after {timeout:g}s",
            snap,
        )
        time.sleep(0.1)
    check(snap["state"] == "done", "job must finish done", snap)
    status, _h, results = http_call(
        serve.host, serve.port, "GET", f"/dse/{job_id}/results"
    )
    check(status == 200, f"GET /dse/{job_id}/results", results)
    return snap, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--model", default=None, metavar="PATH",
        help="model file to serve (default: fit --method into a temp file)",
    )
    parser.add_argument(
        "--method", default="autopower",
        help="method to fit when --model is absent (default: autopower)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-dse-") as tmp:
        model_path = args.model
        if model_path is None:
            model_path = f"{tmp}/model.json"
            print(f"fitting {args.method} -> {model_path}", flush=True)
            fit_model(args.method, model_path)

        # A private cache root: the warm pass below is warmed by *this*
        # smoke's cold pass, nothing else.
        cache_dir = f"{tmp}/flow-cache"
        serve = ServeProcess(
            ["--model", model_path, "--port", "0"],
            env_extra={"REPRO_FLOW_CACHE_DIR": cache_dir},
        )
        try:
            serve.wait_healthy()
            print(f"gateway up on {serve.host}:{serve.port}", flush=True)

            cold_snap, cold = run_job(serve, SPEC)
            check(cold["configs"] == 6, "2x3 grid -> 6 configs", cold)
            means = [e["mean_total_mw"] for e in cold["ranked"]]
            check(means == sorted(means), "ranked ascending", means)
            cold_flow = cold_snap["flow"]
            check(
                cold_flow["executions"] > 0,
                "cold pass must execute the flow", cold_flow,
            )
            print(
                f"cold: {cold_flow['executions']} flow executions, "
                f"top {cold['ranked'][0]['config']} "
                f"{cold['ranked'][0]['mean_total_mw']:.2f} mW",
                flush=True,
            )

            warm_snap, warm = run_job(serve, SPEC)
            warm_flow = warm_snap["flow"]
            check(
                warm_flow["executions"] == 0,
                "warm pass must run zero flows", warm_flow,
            )
            check(
                warm_flow["cache"]["misses"] == 0,
                "warm pass must be all cache hits", warm_flow,
            )
            check(
                json.dumps(warm["ranked"]) == json.dumps(cold["ranked"]),
                "warm ranked results must be identical to the cold pass",
            )
            print(
                f"warm: 0 executions, {warm_flow['cache']['hits']} hits, "
                "ranked results identical", flush=True,
            )

            status, _h, body = http_call(
                serve.host, serve.port, "POST", "/dse",
                {"axes": {"NoSuchRow": [1]}},
            )
            check(status == 400, "bad axis row must answer 400", (status, body))
            status, _h, body = http_call(
                serve.host, serve.port, "GET", "/dse/dse-999"
            )
            check(status == 404, "unknown job must answer 404", (status, body))

            status, _h, stats = http_call(
                serve.host, serve.port, "GET", "/stats"
            )
            check(
                stats["dse"]["submitted"] == 2,
                "stats must count both submissions", stats.get("dse"),
            )
        except BaseException:
            serve.kill()
            print(serve.output)
            raise
        code = serve.terminate_and_wait()
        check(code == 0, f"serve must drain and exit 0, got {code}",
              serve.output)
    print("dse smoke ok: warm sweep pure cache, identical ranking, clean exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
