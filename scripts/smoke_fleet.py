"""Fleet smoke: multi-model routing, hot reload and auth.

The acceptance check for fleet serving, against the real
``python -m repro serve`` artifact on an ephemeral port: serve two
fitted models, verify ``POST /models/<name>/predict`` answers
bitwise-equal to direct :class:`repro.api.PredictionService` calls for
both, that a request without the bearer token answers 401, then
hot-reload one model over ``PUT /models/<name>`` (generation bumps,
still bitwise), load a third from an envelope body, and ``DELETE`` it
(route 404s after).  SIGTERM must then drain and exit 0.

Usage::

    python scripts/smoke_fleet.py
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from smoke_common import ServeProcess, check, fit_model, http_call

TOKEN = "smoke-fleet-token"


def run_smoke(paths, requests, expected) -> None:
    serve = ServeProcess([
        "--model", f"default={paths['ap']}",
        "--model", f"mcpat={paths['mcpat']}",
        "--port", "0",
        "--auth-token", TOKEN,
    ])
    try:
        serve.wait_healthy()
        print(f"two-model gateway on {serve.host}:{serve.port}", flush=True)

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
    check(code == 0, f"serve must exit 0, got {code}", serve.output)
    print("ok: routing/auth/hot-reload/unload all bitwise", flush=True)



def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    import repro.api as api
    from repro.arch.config import config_by_name
    from repro.arch.workloads import workload_by_name
    from repro.serving import wire
    from repro.sim.perf import PerfSimulator

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

        run_smoke(paths, requests, expected)
    print("fleet smoke ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
