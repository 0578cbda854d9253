"""``dse-sweep``: design-space exploration jobs through ``DseJobManager``.

A cycle starts from an empty flow-cache directory and runs three jobs
one at a time, as ``POST /dse`` would: a cold ``golden`` sweep that
computes and stores every flow, the same spec again warm (reads only,
zero flow executions), and an ``autopower`` job that fits on C1 and C15
and predicts every grid point from perf-sim events.  The seed permutes
each axis' value order, which reorders the grid but not the ranking.
``op_ms`` is the sum of the three jobs' median times.
"""

from __future__ import annotations

import json
import os
import random
import time

import common

BASE = "C8"
AXES = {
    "RobEntry": [64, 96, 128],
    "FetchBufferEntry": [16, 24],
    "MSHREntry": [2, 4],
    "DCache/ICacheWay": [4, 8],
}
JOBS = ("cold", "warm", "model")
TRAIN = ("C1", "C15")
JOB_TIMEOUT_S = 60.0


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def job_spec(axes: dict, method: str) -> dict:
    """The ``POST /dse`` body of one job; ``jobs: 1`` keeps it in-process."""
    return {"base": BASE, "axes": axes, "method": method, "train": list(TRAIN), "jobs": 1}


def ranking(payload: dict) -> list:
    return [[e["config"], e["mean_total_mw"]] for e in payload["ranked"]]


class Bench:
    def __init__(self, seed: int, temp_root: str) -> None:
        self.seed = seed
        self.temp_root = temp_root
        self.detail: dict = {}
        self.cycles = 0

    def setup(self) -> None:
        from repro.arch.workloads import WORKLOADS
        from repro.dse.jobs import DseJobManager

        rng = random.Random(self.seed)
        self.axes = {}
        for row, values in AXES.items():
            values = list(values)
            rng.shuffle(values)
            self.axes[row] = values
        self.pairs = len(WORKLOADS)
        for values in AXES.values():
            self.pairs *= len(values)
        self.manager = DseJobManager()
        self.detail["kernel"] = common.build_kernel()
        self.detail["axes"] = self.axes
        self.cycle(None)  # warm-up, untimed

    def run_job(self, method: str) -> tuple[float, dict, dict | None]:
        t0 = time.perf_counter()
        job = self.manager.submit(job_spec(self.axes, method))
        job.thread.join(JOB_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if job.thread.is_alive():
            job.cancel()
            job.thread.join()
        snap = job.snapshot()
        payload = job.results_payload() if snap["state"] == "done" else None
        return elapsed, snap, payload

    def cycle(self, reference: dict | None):
        """One cold/warm/model cycle in a fresh cache directory.

        Returns per-job (seconds, ok) plus the cycle's cache counters."""
        self.cycles += 1
        cache_dir = os.path.join(self.temp_root, f"flow-cache-{self.cycles}")
        os.environ["REPRO_FLOW_CACHE_DIR"] = cache_dir
        out = {}
        counters = {"hits": 0, "misses": 0, "stores": 0, "executions": {}}
        cold_ranked = None
        try:
            for name, method in zip(JOBS, ("golden", "golden", "autopower")):
                elapsed, snap, payload = self.run_job(method)
                flow = snap["flow"] or {}
                cache = flow.get("cache") or {}
                for key in ("hits", "misses", "stores"):
                    counters[key] += cache.get(key, 0)
                counters["executions"][name] = flow.get("executions")
                ok = payload is not None
                if ok and reference is not None:
                    ok = self.check(name, snap, payload, reference, cold_ranked)
                if payload is not None and name == "cold":
                    cold_ranked = json.dumps(payload["ranked"], sort_keys=True)
                if not ok:
                    self.detail.setdefault("mismatches", []).append(
                        {"job": name, "state": snap["state"], "error": snap["error"]}
                    )
                out[name] = (elapsed, ok)
            counters["bytes"] = dir_bytes(cache_dir)
        finally:
            common.remove_tree(cache_dir)
        return out, counters

    def check(self, name, snap, payload, reference, cold_ranked) -> bool:
        ref = reference["dse"]
        if snap["flow"]["executions"] != ref["executions"][name]:
            return False
        if name == "warm":
            # Warm results must be byte-identical to the cold ones.
            return json.dumps(payload["ranked"], sort_keys=True) == cold_ranked
        want = ref["golden" if name == "cold" else "autopower"]
        got = ranking(payload)
        return len(got) == len(want) and all(
            g[0] == w[0] and common.close(g[1], w[1]) for g, w in zip(got, want)
        )

    def measure(self, seconds: float, reference: dict, tracer=None) -> dict:
        times = {name: [] for name in JOBS}
        traced_times = {name: [] for name in JOBS}
        totals = {"hits": 0, "misses": 0, "stores": 0, "bytes": 0}
        executions = {name: [] for name in JOBS}
        attempted = failed = traced_cycles = 0
        start = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - start < seconds:
            traced = tracer is not None and n % 2 == 0
            if tracer is not None:
                tracer.enabled = traced
            result, counters = self.cycle(reference)
            if tracer is not None:
                tracer.enabled = False
            for name, (elapsed, ok) in result.items():
                attempted += 1
                failed += not ok
                (traced_times if traced else times)[name].append(elapsed)
            if traced:
                traced_cycles += 1
                for key in totals:
                    totals[key] += counters[key]
                for name in JOBS:
                    executions[name].append(counters["executions"][name])
            n += 1
        main = times if all(times.values()) else traced_times
        job_ms = {name: 1000.0 * common.median(main[name]) for name in JOBS}
        self.detail.update(
            cycles=n,
            grid_pairs=self.pairs,
            **{f"{name}_ms": ms for name, ms in job_ms.items()},
        )
        out = {
            "attempted": attempted,
            "failed": failed,
            "op_ms": sum(job_ms.values()),
        }
        if tracer is not None:
            per = max(traced_cycles, 1)
            out["ops_traced"] = traced_cycles
            out["extra"] = {
                **{f"dse.job.{k}.ms": v for k, v in job_ms.items()},
                **{f"dse.cache.{k}": v / per for k, v in totals.items()},
                **{
                    f"vlsi.flow.executions.{k}": (sum(v) / len(v) if v else 0.0)
                    for k, v in executions.items()
                },
            }
            if all(times.values()) and all(traced_times.values()):
                t_ms = sum(common.median(traced_times[k]) for k in JOBS)
                u_ms = sum(common.median(times[k]) for k in JOBS)
                out["overhead_pct"] = 100.0 * (t_ms / u_ms - 1.0)
            else:
                out["overhead_pct"] = 0.0
        return out

    def close(self) -> None:
        self.manager.stop()
