"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --workload serve-open --runs 5 --seed 100

Each run is a fresh ``run.py`` process with its own seed.  Per metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread over the median, next to the bound in BENCHMARK.json; a
spread under a third of the bound is the target.  The bounds in
BENCHMARK.json were set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common

RUN = os.path.join(common.BENCH_DIR, "run.py")


def load_config() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=common.ROOT,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(workload: str, results: list[dict], bounds: dict) -> list[str]:
    lines = [f"{workload}: {len(results)} runs, "
             f"{sum(not r['correct'] for r in results)} incorrect, "
             f"{sum(r['failed'] for r in results)} failed ops of "
             f"{sum(r['attempted'] for r in results)}"]
    lines.append(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
                 f"{'spread':>9}{'bound':>7}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = common.quartiles(values)
        rel = common.spread(values)
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "set-up: median drift is what counts"
        else:
            verdict = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO NOISY")
        lines.append(f"  {name:<16}{q2:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                     f"{rel:>9.4f}{'' if bound is None else bound:>7}  {verdict}")
    return lines


def main() -> int:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]} if not args.trace else {}
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            results.append(one_run(workload, args.seed + i, args.seconds, args.trace))
            print(f"  {workload} seed {args.seed + i}: "
                  + json.dumps({k: v["value"] for k, v in results[-1]["metrics"].items()}
                               if not args.trace else results[-1]["correct"]),
                  flush=True)
        print("\n".join(report(workload, results, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
