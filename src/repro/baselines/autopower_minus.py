"""AutoPower− — the within-group-decoupling ablation (paper Sec. III-B3).

"It only decouples the model across different power groups and only
directly adopts the ML model for the estimation of each power group."
One boosted model per (component, power group), trained directly on the
golden group power, with the same feature budget as AutoPower's activity
models (hardware parameters, event rates, program features).  What it
lacks is the structural decoupling: no register-count/gating-rate
formulation for clock, no scaling-law + macro-mapping for SRAM.

Fit and predict gather one :class:`repro.core.features.FeatureLayout`, and
predict is one :class:`Forest` call over all 88 GBMs, built per fit or load.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.arch.workloads import Workload
from repro.baselines.mcpat_calib import DEFAULT_GBM
from repro.core.features import FeatureLayout, activity_block, features_by_config
from repro.ml.gbm import Forest, GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict
from repro.parallel import get_executor
from repro.power.report import POWER_GROUPS

__all__ = ["AutoPowerMinus"]


def _fit_group_gbm(payload: dict) -> GradientBoostingRegressor:
    """Fit one (component, group) GBM — the picklable executor task."""
    model = GradientBoostingRegressor(**payload["gbm_params"])
    model.fit(payload["x"], payload["y"])
    return model


class AutoPowerMinus:
    """Per-group direct ML power model (no within-group decoupling).

    ``n_jobs`` is the default worker count of ``fit``, resolved as for
    :class:`repro.core.autopower.AutoPower`: the ground-truth flow runs
    fan out over processes and the 88 independent GBM fits over threads,
    with results numerically identical to the serial fit.
    """

    def __init__(
        self,
        use_program_features: bool = True,
        gbm_params: dict | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.use_program_features = use_program_features
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self.n_jobs = n_jobs
        # Per component, in ``COMPONENTS`` order: hardware parameters, raw
        # and normalized event rates, IPC, then program features.
        self.layout = FeatureLayout(
            [activity_block(c.name, use_program_features) for c in COMPONENTS]
        )
        self._models: dict[tuple[str, str], GradientBoostingRegressor] = {}
        self._forest: Forest | None = None

    # ------------------------------------------------------------------
    def fit(
        self, flow, train_configs, workloads, n_jobs: int | None = None
    ) -> AutoPowerMinus:
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        results = flow.run_many(list(train_configs), list(workloads), n_jobs=n_jobs)
        return self.fit_results(results, n_jobs=n_jobs)

    def fit_results(
        self, results: list, n_jobs: int | None = None
    ) -> AutoPowerMinus:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        wide = features_by_config(results, self.layout)
        keys: list[tuple[str, str]] = []
        payloads: list[dict] = []
        for comp, x in zip(COMPONENTS, self.layout.split(wide)):
            for group in POWER_GROUPS:
                y = np.array(
                    [r.power.component(comp.name).group(group) for r in results]
                )
                keys.append((comp.name, group))
                payloads.append({"gbm_params": self.gbm_params, "x": x, "y": y})
        with get_executor(n_jobs, "thread") as executor:
            models = executor.map(_fit_group_gbm, payloads)
        self._models = dict(zip(keys, models))
        self._compile()
        return self

    def _compile(self) -> None:
        """One forest over every GBM: component-major, then ``POWER_GROUPS``."""
        self._forest = Forest(
            [self._models[(c.name, g)] for c in COMPONENTS for g in POWER_GROUPS],
            [base for base, _ in self.layout.spans for _ in POWER_GROUPS],
            self.layout.width,
        )

    # ------------------------------------------------------------------
    def predict_groups(self, config: BoomConfig, events, workload) -> np.ndarray:
        """Power per interval of every (component, group), in mW, shaped
        ``(n, len(COMPONENTS), len(POWER_GROUPS))``.  ``events`` is an
        :class:`EventBatch` or a sequence of :class:`EventParams`;
        ``workload`` is one workload or one per interval."""
        if self._forest is None:
            raise RuntimeError("AutoPowerMinus used before fit")
        batch = EventBatch.from_events(events)
        x = self.layout.config_features(config, batch, workload)
        power = np.maximum(self._forest.predict(x), 0.0)
        return power.reshape(len(batch), len(COMPONENTS), len(POWER_GROUPS))

    def predict_total(self, config: BoomConfig, events: EventParams, workload: Workload) -> float:
        return float(self.predict_totals(config, [events], workload)[0])

    def predict_totals(self, config: BoomConfig, events, workload) -> np.ndarray:
        """Total power per interval of a batch, in mW: every (component,
        group) of :meth:`predict_groups`, accumulated in that order."""
        groups = self.predict_groups(config, events, workload)
        total = np.zeros(len(groups))
        for column in groups.reshape(len(groups), -1).T:
            total += column
        return total

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted per-(component, group) GBMs."""
        if not self._models:
            raise ValueError("cannot serialize an unfitted AutoPowerMinus")
        return {
            "use_program_features": self.use_program_features,
            "gbm_params": dict(self.gbm_params),
            "models": [
                {"component": comp, "group": group, "model": gbm_to_dict(m)}
                for (comp, group), m in self._models.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> AutoPowerMinus:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            use_program_features=bool(state["use_program_features"]),
            gbm_params=state["gbm_params"],
        )
        model._models = {
            (entry["component"], entry["group"]): gbm_from_dict(entry["model"])
            for entry in state["models"]
        }
        model._compile()
        return model
