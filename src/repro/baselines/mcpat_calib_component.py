"""McPAT-Calib + Component — the paper's extra ablation baseline.

"McPAT-Calib + Component adopts the McPAT-Calib as a building block and
builds power models for each component respectively" (Sec. III-B1).  Each
component gets its own boosted model over its Table III hardware
parameters, its event rates and its analytical McPAT estimate; the total
is the sum of the component predictions.

Fit and predict share one batched feature assembly, and predict is one
:class:`Forest` call over all 22 GBMs, built once per fit or load.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.baselines.mcpat import McPatAnalytical
from repro.core.features import (
    event_feature_names,
    event_features_batch,
    features_by_config,
    hardware_feature_names,
    hardware_features,
)
from repro.ml.gbm import Forest, GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

__all__ = ["McPatCalibComponent"]

_DEFAULT_GBM = {
    "n_estimators": 200,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


class McPatCalibComponent:
    """One McPAT-Calib model per component; total = sum of components."""

    def __init__(
        self,
        mcpat: McPatAnalytical | None = None,
        gbm_params: dict | None = None,
        random_state: int = 0,
    ) -> None:
        self.mcpat = mcpat if mcpat is not None else McPatAnalytical()
        self.gbm_params = dict(_DEFAULT_GBM if gbm_params is None else gbm_params)
        self.random_state = random_state
        self._models: dict[str, GradientBoostingRegressor] = {}
        self._forest: Forest | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _bases() -> np.ndarray:
        """Start column of each component's block, then the total width."""
        return np.cumsum([0] + [
            len(hardware_feature_names(c.name))
            + len(event_feature_names(c.name, normalized=False)) + 1
            for c in COMPONENTS
        ])

    def _features_batch(self, config: BoomConfig, batch: EventBatch, workload=None) -> np.ndarray:
        """One row per interval; per component, in ``COMPONENTS`` order:
        hardware parameters, raw event rates (no utilization-normalized
        features: those are AutoPower's design) and the McPAT estimate."""
        n = len(batch)
        blocks = []
        for comp in COMPONENTS:
            blocks += [
                np.tile(hardware_features(config, comp.name), (n, 1)),
                event_features_batch(batch, comp.name),
                self.mcpat.predict_component_batch(comp.name, config, batch)[:, None],
            ]
        return np.hstack(blocks)

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> McPatCalibComponent:
        results = flow.run_many(list(train_configs), list(workloads))
        return self.fit_results(results)

    def fit_results(self, results: list) -> McPatCalibComponent:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        x = features_by_config(results, self._features_batch)
        bases = self._bases()
        for comp, lo, hi in zip(COMPONENTS, bases, bases[1:]):
            y = np.array([r.power.component(comp.name).total for r in results])
            model = GradientBoostingRegressor(
                random_state=self.random_state, **self.gbm_params
            )
            model.fit(x[:, lo:hi], y)
            self._models[comp.name] = model
        self._compile()
        return self

    def _compile(self) -> None:
        """One forest over the per-component GBMs, in ``COMPONENTS`` order."""
        bases = self._bases()
        self._forest = Forest(
            [self._models[c.name] for c in COMPONENTS], bases[:-1], int(bases[-1])
        )

    def predict_total(self, config: BoomConfig, events: EventParams, workload=None) -> float:
        return float(self.predict_totals(config, [events], workload)[0])

    def predict_totals(self, config: BoomConfig, events, workload=None) -> np.ndarray:
        """Per-interval total power for a batch, in mW: the clamped
        component predictions summed in ``COMPONENTS`` order."""
        if self._forest is None:
            raise RuntimeError("McPatCalibComponent used before fit")
        batch = EventBatch.from_events(events)
        power = np.maximum(self._forest.predict(self._features_batch(config, batch)), 0.0)
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
            "random_state": self.random_state,
            "mcpat": self.mcpat.to_state(),
            "models": {name: gbm_to_dict(m) for name, m in self._models.items()},
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> McPatCalibComponent:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            mcpat=McPatAnalytical.from_state(state["mcpat"]),
            gbm_params=state["gbm_params"],
            random_state=int(state["random_state"]),
        )
        model._models = {
            name: gbm_from_dict(sub) for name, sub in state["models"].items()
        }
        model._compile()
        return model
