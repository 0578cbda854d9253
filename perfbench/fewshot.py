"""``fewshot-sweep``: the paper's few-shot workflow, offline, one caller.

One op fits every learned method at every training budget (2 to 6
known configurations) with ``repro.api.fit`` and predicts that
budget's held-out configurations with ``predict_totals``.  An op is
twenty (method, budget) cells; the seed shuffles their order in every
pass.  ``op_ms`` is the sum over cells of each cell's median time in the
run: a cell disturbed by a noisy neighbour in one pass does not move it.
"""

from __future__ import annotations

import random
import time

import common

METHODS = ("autopower", "autopower-minus", "mcpat-calib", "mcpat-calib-component")


def accuracy(y_true, y_pred) -> dict:
    """Held-out MAPE (%) and R^2, computed here rather than by the program."""
    import numpy as np

    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    mape = float(np.mean(np.abs(p - t) / np.abs(t)) * 100.0)
    r2 = float(1.0 - np.sum((t - p) ** 2) / np.sum((t - t.mean()) ** 2))
    return {"mape": mape, "r2": r2}


class Bench:
    """Ground truth for all 15 configurations is computed in setup."""

    def __init__(self, seed: int, temp_root: str) -> None:
        self.seed = seed
        self.temp_root = temp_root
        self.detail: dict = {}

    def setup(self) -> None:
        import repro.api as api
        from repro.arch.config import BOOM_CONFIGS
        from repro.arch.workloads import WORKLOADS
        from repro.experiments import TRAIN_SETS, test_configs_for, train_configs_for
        from repro.vlsi.flow import VlsiFlow

        self.api = api
        self.workloads = list(WORKLOADS)
        self.flow = VlsiFlow(disk_cache=None)
        self.flow.run_many(list(BOOM_CONFIGS), self.workloads)
        self.budgets = sorted(TRAIN_SETS)
        self.data = {}
        for budget in self.budgets:
            test = test_configs_for(budget)
            self.data[budget] = (
                train_configs_for(budget),
                [
                    (c, [self.flow.run(c, w).events for w in self.workloads])
                    for c in test
                ],
                [self.flow.run(c, w).power.total for c in test for w in self.workloads],
            )
        self.cells = [(m, b) for m in METHODS for b in self.budgets]
        self.detail["kernel"] = common.build_kernel()
        for method in METHODS:  # warm-up: the smallest budget, untimed
            self.run_cell(method, self.budgets[0])

    def run_cell(self, method: str, budget: int) -> dict:
        train, test, y_true = self.data[budget]
        model = self.api.fit(
            method,
            flow=self.flow,
            train_configs=train,
            workloads=self.workloads,
            n_jobs=1,
        )
        y_pred = []
        for config, events in test:
            y_pred.extend(model.predict_totals(config, events, self.workloads))
        return accuracy(y_true, y_pred)

    def check(self, method: str, budget: int, got: dict, reference: dict) -> bool:
        want = reference["fewshot"][f"{method}/{budget}"]
        return all(common.close(got[k], want[k]) for k in ("mape", "r2"))

    def measure(self, seconds: float, reference: dict, tracer=None) -> dict:
        rng = random.Random(self.seed)
        times: dict[tuple, list[float]] = {c: [] for c in self.cells}
        traced_times: dict[tuple, list[float]] = {c: [] for c in self.cells}
        attempted = failed = traced_cells = 0
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            order = list(self.cells)
            rng.shuffle(order)
            # Traced runs alternate traced and untraced passes; the
            # difference is the tracing overhead.
            traced = tracer is not None and passes % 2 == 0
            if tracer is not None:
                tracer.enabled = traced
            for cell in order:
                if passes > 0 and time.perf_counter() - start >= seconds:
                    break
                attempted += 1
                t0 = time.perf_counter()
                try:
                    got = self.run_cell(*cell)
                except Exception as exc:  # counted, not fatal
                    failed += 1
                    self.detail.setdefault("errors", []).append(repr(exc))
                    continue
                elapsed = time.perf_counter() - t0
                (traced_times if traced else times)[cell].append(elapsed)
                traced_cells += traced
                if not self.check(*cell, got, reference):
                    failed += 1
                    self.detail.setdefault("mismatches", []).append(
                        {"cell": f"{cell[0]}/{cell[1]}", "got": got}
                    )
            passes += 1
        if tracer is not None:
            tracer.enabled = False
        # A traced run may leave its last untraced pass incomplete.
        main = times if all(times.values()) else traced_times
        main = {c: v for c, v in main.items() if v}
        op_ms = 1000.0 * sum(common.median(v) for v in main.values())
        self.detail.update(passes=passes, cells=attempted)
        out = {"attempted": attempted, "failed": failed, "op_ms": op_ms}
        if tracer is not None:
            both = [c for c in self.cells if times[c] and traced_times[c]]
            t_ms = sum(common.median(traced_times[c]) for c in both)
            u_ms = sum(common.median(times[c]) for c in both)
            out["ops_traced"] = traced_cells / len(self.cells)
            out["overhead_pct"] = 100.0 * (t_ms / u_ms - 1.0) if u_ms else 0.0
        return out

    def close(self) -> None:
        pass
