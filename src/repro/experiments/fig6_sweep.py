"""Fig. 6: accuracy vs number of known configurations for training.

The paper sweeps the training budget and shows AutoPower consistently
below McPAT-Calib and McPAT-Calib + Component in MAPE (and above in R²),
with the gap narrowing as configurations are added.  This experiment
regenerates the same series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.arch.config import BOOM_CONFIGS
from repro.arch.workloads import WORKLOADS
from repro.experiments.runner import AccuracyResult, evaluate_methods
from repro.experiments.tables import format_table
from repro.parallel import get_executor
from repro.vlsi.flow import VlsiFlow

__all__ = ["SweepResult", "main", "run"]

_SWEEP_METHODS = ("AutoPower", "McPAT-Calib", "McPAT-Calib+Comp")


def _sweep_budget_task(
    flow: VlsiFlow, methods: tuple[str, ...], n_train: int
) -> AccuracyResult:
    """Evaluate one training budget — the parallel unit of the sweep.

    Runs with ``n_jobs=1`` inside: the sweep already fans out across
    budgets, and nesting pools inside pool threads would oversubscribe.
    """
    return evaluate_methods(flow=flow, n_train=n_train, methods=methods, n_jobs=1)


@dataclass
class SweepResult:
    """Per-budget accuracy of each method (the Fig. 6 series)."""

    budgets: tuple[int, ...]
    results: dict[int, AccuracyResult]

    def series(self, method: str, metric: str = "mape") -> list[float]:
        """One curve of the figure: metric vs training budget."""
        out = []
        for n in self.budgets:
            acc = self.results[n].methods[method]
            out.append(getattr(acc, metric))
        return out

    def rows(self) -> list[list]:
        rows = []
        for n in self.budgets:
            for method, acc in self.results[n].methods.items():
                rows.append([n, method, acc.mape, acc.r2])
        return rows


def run(
    flow: VlsiFlow | None = None,
    budgets: tuple[int, ...] = (2, 3, 4, 5, 6),
    methods: tuple[str, ...] = _SWEEP_METHODS,
    n_jobs: int | None = None,
) -> SweepResult:
    """Sweep the number of training configurations.

    Every budget consumes the same ground truth, so one ``run_many`` over
    every configuration generates it first (on processes with
    ``n_jobs > 1``).  The per-budget evaluations then only read the
    flow's caches and fit, which runs in the GIL-releasing kernel, so
    they fan out over threads sharing that flow (each budget's fits run
    serially inside its thread).  Results do not depend on ``n_jobs``.
    """
    if flow is None:
        flow = VlsiFlow()
    flow.run_many(list(BOOM_CONFIGS), list(WORKLOADS), n_jobs=n_jobs)
    with get_executor(n_jobs, "thread") as executor:
        accuracies = executor.map(
            partial(_sweep_budget_task, flow, methods), list(budgets)
        )
    return SweepResult(budgets=tuple(budgets), results=dict(zip(budgets, accuracies)))


def main() -> None:
    result = run(n_jobs=None)  # resolves --jobs / REPRO_JOBS
    print(
        format_table(
            ["#configs", "method", "MAPE %", "R2"],
            result.rows(),
            title="Fig. 6 — accuracy vs number of known configurations",
        )
    )


if __name__ == "__main__":
    main()
