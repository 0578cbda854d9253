"""Shared experiment infrastructure: splits, method resolution, evaluation.

The paper trains on a handful of *known* configurations and evaluates on
the remaining ones across all eight riscv-tests workloads.  ``TRAIN_SETS``
fixes the training configurations per budget (spread across the scale
range, smallest and largest always included, as a practicing architect
would pick known designs).

Methods resolve exclusively through the :mod:`repro.api` registry — the
evaluation below drives every model through the ``PowerModel`` protocol
(``predict_totals`` over one event batch per test configuration) with no
per-method branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.api as api
from repro.arch.config import BOOM_CONFIGS, BoomConfig, config_by_name
from repro.arch.workloads import WORKLOADS, Workload
from repro.ml.metrics import mape, pearson_r, r2_score
from repro.vlsi.flow import VlsiFlow

__all__ = [
    "AccuracyResult",
    "METHOD_NAMES",
    "MethodAccuracy",
    "TRAIN_SETS",
    "evaluate_methods",
    "fit_method",
    "test_configs_for",
    "train_configs_for",
]

# Training configurations per budget (paper: 2 and 3 known configs for the
# headline results; Fig. 6 sweeps the count).
TRAIN_SETS: dict[int, tuple[str, ...]] = {
    2: ("C1", "C15"),
    3: ("C1", "C8", "C15"),
    4: ("C1", "C5", "C10", "C15"),
    5: ("C1", "C4", "C8", "C12", "C15"),
    6: ("C1", "C4", "C7", "C10", "C13", "C15"),
}

METHOD_NAMES: tuple[str, ...] = (
    "AutoPower",
    "McPAT-Calib",
    "McPAT-Calib+Comp",
    "AutoPower-",
)


def train_configs_for(n_train: int) -> list[BoomConfig]:
    """The training configurations for a given budget."""
    try:
        names = TRAIN_SETS[n_train]
    except KeyError:
        raise KeyError(
            f"no training set for {n_train} configs; available: {sorted(TRAIN_SETS)}"
        ) from None
    return [config_by_name(name) for name in names]


def test_configs_for(n_train: int) -> list[BoomConfig]:
    """All configurations not used for training at this budget."""
    train_names = set(TRAIN_SETS[n_train])
    return [c for c in BOOM_CONFIGS if c.name not in train_names]


@dataclass
class MethodAccuracy:
    """Accuracy of one method on the test set."""

    method: str
    y_true: np.ndarray
    y_pred: np.ndarray
    labels: list[tuple[str, str]] = field(default_factory=list)

    @property
    def mape(self) -> float:
        return mape(self.y_true, self.y_pred)

    @property
    def r2(self) -> float:
        return r2_score(self.y_true, self.y_pred)

    @property
    def pearson(self) -> float:
        return pearson_r(self.y_true, self.y_pred)

    def scatter_points(self) -> list[tuple[str, str, float, float]]:
        """(config, workload, golden, predicted) — the paper's Fig. 4/5
        scatter, with points of the same configuration sharing a color."""
        return [
            (cfg, wl, float(t), float(p))
            for (cfg, wl), t, p in zip(self.labels, self.y_true, self.y_pred)
        ]


@dataclass
class AccuracyResult:
    """Accuracy of several methods under one training budget."""

    n_train: int
    train_names: tuple[str, ...]
    methods: dict[str, MethodAccuracy]

    def rows(self) -> list[list]:
        return [
            [name, acc.mape, acc.r2, acc.pearson]
            for name, acc in self.methods.items()
        ]


def fit_method(
    name: str, flow: VlsiFlow, train_configs, workloads, n_jobs: int | None = None,
    **kwargs,
):
    """Construct and fit one method through the :mod:`repro.api` registry.

    ``name`` is a registry name or alias (the historical display names in
    ``METHOD_NAMES`` resolve).  ``n_jobs`` parallelizes the sub-model fits
    of the methods that decompose into independent tasks; the monolithic
    baselines ignore it.  Extra keyword arguments reach the method's
    constructor (e.g. ``use_program_features=False``).
    """
    return api.fit(
        name,
        flow=flow,
        train_configs=train_configs,
        workloads=workloads,
        n_jobs=n_jobs,
        **kwargs,
    )


def evaluate_methods(
    flow: VlsiFlow | None = None,
    n_train: int = 2,
    methods: tuple[str, ...] = METHOD_NAMES,
    workloads: tuple[Workload, ...] | None = None,
    n_jobs: int | None = None,
) -> AccuracyResult:
    """Fit the requested methods and evaluate total-power accuracy.

    Returns per-method MAPE / R² / Pearson R over (test configs x
    workloads), plus the raw scatter points for figure regeneration.
    ``n_jobs`` parallelizes ground-truth generation and the decomposed
    sub-model fits; the numbers do not depend on it.
    """
    if flow is None:
        flow = VlsiFlow()
    if workloads is None:
        workloads = WORKLOADS
    train = train_configs_for(n_train)
    test = test_configs_for(n_train)
    # One parallel sweep generates every flow run (train + test ground
    # truth) the rest of this function consumes from cache.
    flow.run_many(train + test, list(workloads), n_jobs=n_jobs)
    fitted = {
        name: fit_method(name, flow, train, list(workloads), n_jobs=n_jobs)
        for name in methods
    }

    results: dict[str, MethodAccuracy] = {}
    labels = [(c.name, w.name) for c in test for w in workloads]
    y_true = np.array(
        [flow.run(c, w).power.total for c in test for w in workloads]
    )
    events_by_config = {
        c.name: [flow.run(c, w).events for w in workloads] for c in test
    }
    for name, model in fitted.items():
        # Every method satisfies the PowerModel protocol: one batched
        # predict_totals call per test configuration, no method branches.
        y_pred = np.concatenate(
            [
                np.asarray(
                    model.predict_totals(
                        c, events_by_config[c.name], list(workloads)
                    ),
                    dtype=float,
                )
                for c in test
            ]
        )
        results[name] = MethodAccuracy(
            method=name, y_true=y_true, y_pred=y_pred, labels=list(labels)
        )
    return AccuracyResult(
        n_train=n_train,
        train_names=TRAIN_SETS[n_train],
        methods=results,
    )
