"""Benchmark entry point.

    python3 perfbench/run.py --workload fewshot-sweep --seed 1 --seconds 25 --trace 0

Prints a ``perfbench-detail`` line (run metadata, noise controls, the
workload's own figures) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer spans of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common

WORKLOADS = ("fewshot-sweep", "dse-sweep", "serve-open")
SETUP_REPEATS = 3  # set-up is timed this many times; setup_s is the median
CHILD_TIMEOUT_S = 120


def make_bench(workload: str, seed: int, temp_root: str, trace: bool):
    if workload == "fewshot-sweep":
        import fewshot

        return fewshot.Bench(seed, temp_root)
    if workload == "dse-sweep":
        import dse

        return dse.Bench(seed, temp_root)
    import serve

    return serve.Bench(seed, temp_root, traced=trace)


def child_setup_s(args) -> float:
    """Time one more set-up in a fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        cwd=common.ROOT,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def layer_metrics(snapshot: dict, ops: float, extra: dict) -> dict:
    """Per-layer metrics per op: for every span, time, self time, calls."""
    import spans

    per = max(ops, 1e-9)
    found = snapshot["spans"]
    counters = snapshot["counters"]
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, total_s, self_s = (
            (found[name]["calls"], found[name]["total_s"], found[name]["self_s"])
            if name in found else (0, 0.0, 0.0)
        )
        metrics[f"{name}.ms"] = (1000.0 * total_s / per, "ms")
        metrics[f"{name}.self_ms"] = (1000.0 * self_s / per, "ms")
        metrics[f"{name}.calls"] = (calls / per, "count")
    rows = counters.get("core.predict.rows", 0.0)
    metrics["core.predict.rows"] = (rows / per, "count")
    svc_calls = found.get("api.service", {}).get("calls", 0)
    svc_rows = counters.get("api.service.rows", 0.0)
    metrics["api.service.rows_per_call"] = (svc_rows / svc_calls if svc_calls else 0.0, "count")
    wait_n = counters.get("serving.batcher.wait.n", 0.0)
    metrics["serving.batcher.wait.ms"] = (
        1000.0 * counters.get("serving.batcher.wait.s", 0.0) / wait_n if wait_n else 0.0, "ms"
    )
    metrics["serving.batcher.rows_per_flush"] = (
        metrics["api.service.rows_per_call"][0] if wait_n else 0.0, "count"
    )
    for name, unit in EXTRA_UNITS.items():
        metrics[name] = (float(extra.get(name, 0.0)), unit)
    return metrics


# Per-layer figures a workload reports itself; 0 where it does not apply.
EXTRA_UNITS = {
    "dse.job.cold.ms": "ms",
    "dse.job.warm.ms": "ms",
    "dse.job.model.ms": "ms",
    "dse.cache.hits": "count",
    "dse.cache.misses": "count",
    "dse.cache.stores": "count",
    "dse.cache.bytes": "B",
    "vlsi.flow.executions.cold": "count",
    "vlsi.flow.executions.warm": "count",
    "vlsi.flow.executions.model": "count",
    "loadgen.late_p99_ms": "ms",
    "serve.latency_p50_ms": "ms",
    "serve.latency_tail_ms": "ms",
    "serve.capacity_rps": "1/s",
    "trace.overhead_pct": "%",
    "trace.ops": "count",
}


def main(argv=None) -> int:
    common.reexec_if_needed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    setups = []
    if not args.setup_only:
        # The extra set-ups run first, so the timed ops follow this
        # process's own set-up directly.
        setups = [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    with open(os.path.join(common.BENCH_DIR, "reference.json")) as handle:
        reference = json.load(handle)

    t_setup = time.perf_counter()
    temp_root = common.prepare_environment()
    bench = None
    try:
        bench = make_bench(args.workload, args.seed, temp_root, trace)
        bench.setup()
        setups.append(time.perf_counter() - t_setup)
        if args.setup_only:
            print(json.dumps({"setup_s": setups[-1]}))
            return 0
        meta = common.run_meta(args.workload, args.seed, args.seconds, trace)
        meta["flow_cache_root"] = os.path.relpath(temp_root, common.ROOT)
        meta["setup_samples_s"] = setups
        meta["warmup_ops"] = 1
        meta["fixed_env"] = common.FIXED_ENV

        tracer = None
        if trace and args.workload != "serve-open":
            import spans

            tracer = spans.Tracer()
            tracer.enabled = False
            spans.install(tracer)
        result = bench.measure(args.seconds, reference, tracer)
        detail = bench.detail
        meta["comparable"] = bool(detail.get("kernel"))
        if not meta["comparable"]:
            print("warning: compiled kernel unavailable; numpy fallback "
                  "is not comparable", file=sys.stderr)
        if args.workload == "serve-open":
            rss = detail["server_peak_rss_mb"]
            bench.close()  # the server writes its spans on the drain
            snapshot = bench.server_spans() if trace else None
            if trace and snapshot is None:
                raise RuntimeError("traced server wrote no spans")
        else:
            rss = common.peak_rss_mb()
            snapshot = tracer.snapshot() if tracer is not None else None
        if trace:
            extra = dict(result.get("extra", {}))
            extra["trace.overhead_pct"] = result["overhead_pct"]
            extra["trace.ops"] = result["ops_traced"]
            metrics = layer_metrics(snapshot, result["ops_traced"], extra)
        else:
            metrics = {
                "setup_s": (common.median(setups), "s"),
                "peak_rss_mb": (rss, "MB"),
                "op_ms": (result["op_ms"], "ms"),
            }
        common.emit(meta, detail, result["attempted"], result["failed"], metrics)
        return 0
    finally:
        if bench is not None:
            bench.close()
        common.remove_tree(temp_root)


if __name__ == "__main__":
    sys.exit(main())
