"""McPAT-Calib + Component — the paper's extra ablation baseline.

"McPAT-Calib + Component adopts the McPAT-Calib as a building block and
builds power models for each component respectively" (Sec. III-B1).  Each
component gets its own boosted model over its Table III hardware
parameters, its event rates and its analytical McPAT estimate; the total
is the sum of the component predictions.

Fit and predict gather one :class:`repro.core.features.FeatureLayout`, and
predict is one :class:`Forest` call over all 22 GBMs, built per fit or load.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import COMPONENT_EVENTS, EventBatch, EventParams
from repro.baselines.mcpat import McPatAnalytical
from repro.baselines.mcpat_calib import DEFAULT_GBM
from repro.core.features import (
    FeatureBlock,
    FeatureLayout,
    features_by_config,
    hardware_feature_names,
)
from repro.ml.gbm import Forest, GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

__all__ = ["McPatCalibComponent"]


class McPatCalibComponent:
    """One McPAT-Calib model per component; total = sum of components."""

    #: Per component, in ``COMPONENTS`` order: hardware parameters, raw
    #: event rates and IPC (no utilization-normalized features: those are
    #: AutoPower's design), then the component's McPAT estimate.
    layout = FeatureLayout([
        FeatureBlock(hardware_feature_names(c.name), COMPONENT_EVENTS[c.name], raw=True, extra=1)
        for c in COMPONENTS
    ])

    def __init__(
        self,
        mcpat: McPatAnalytical | None = None,
        gbm_params: dict | None = None,
    ) -> None:
        self.mcpat = mcpat if mcpat is not None else McPatAnalytical()
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self._models: dict[str, GradientBoostingRegressor] = {}
        self._forest: Forest | None = None

    def _mcpat_components(self, config: BoomConfig, batch: EventBatch) -> np.ndarray:
        return np.column_stack(
            [self.mcpat.predict_component_batch(c.name, config, batch) for c in COMPONENTS]
        )

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> McPatCalibComponent:
        results = flow.run_many(list(train_configs), list(workloads))
        return self.fit_results(results)

    def fit_results(self, results: list) -> McPatCalibComponent:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        x = features_by_config(results, self.layout, self._mcpat_components)
        for comp, block in zip(COMPONENTS, self.layout.split(x)):
            y = np.array([r.power.component(comp.name).total for r in results])
            model = GradientBoostingRegressor(**self.gbm_params)
            model.fit(block, y)
            self._models[comp.name] = model
        self._compile()
        return self

    def _compile(self) -> None:
        """One forest over the per-component GBMs, in ``COMPONENTS`` order."""
        self._forest = Forest(
            [self._models[c.name] for c in COMPONENTS],
            [base for base, _ in self.layout.spans],
            self.layout.width,
        )

    def predict_total(self, config: BoomConfig, events: EventParams, workload=None) -> float:
        return float(self.predict_totals(config, [events], workload)[0])

    def predict_totals(self, config: BoomConfig, events, workload=None) -> np.ndarray:
        """Per-interval total power for a batch, in mW: the clamped
        component predictions summed in ``COMPONENTS`` order."""
        if self._forest is None:
            raise RuntimeError("McPatCalibComponent used before fit")
        batch = EventBatch.from_events(events)
        x = self.layout.config_features(config, batch, extra=self._mcpat_components)
        power = np.maximum(self._forest.predict(x), 0.0)
        total = 0.0
        for column in power.T:
            total = total + column
        return np.asarray(total, dtype=float)

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted per-component models."""
        if not self._models:
            raise ValueError("cannot serialize an unfitted McPatCalibComponent")
        return {
            "gbm_params": dict(self.gbm_params),
            "mcpat": self.mcpat.to_state(),
            "models": {name: gbm_to_dict(m) for name, m in self._models.items()},
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> McPatCalibComponent:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            mcpat=McPatAnalytical.from_state(state["mcpat"]),
            gbm_params=state["gbm_params"],
        )
        model._models = {
            name: gbm_from_dict(sub) for name, sub in state["models"].items()
        }
        model._compile()
        return model
