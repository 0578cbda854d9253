"""McPAT-Calib baseline [Zhai et al., TCAD 2022].

McPAT-Calib feeds hardware parameters, event parameters and the analytical
McPAT estimate into an ML model (XGBoost in the original and in the
paper's comparison) that predicts total CPU power directly.  It is the
representative "data-hungry" ML baseline: with only 2-3 known
configurations its tree ensemble can only reproduce power levels it has
seen, which is precisely the failure mode the paper's Fig. 4-6 document.

Fit and predict gather one :class:`repro.core.features.FeatureLayout`, and
predict is one :class:`Forest` call, built once per fit or load.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import BoomConfig
from repro.arch.events import EVENT_NAMES, EventBatch, EventParams
from repro.arch.params import HARDWARE_PARAMETERS
from repro.baselines.mcpat import McPatAnalytical
from repro.core.features import FeatureBlock, FeatureLayout, features_by_config
from repro.ml.gbm import Forest, GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

__all__ = ["DEFAULT_GBM", "McPatCalib"]

# McPAT-Calib's boosted-model settings; every learned baseline uses them.
DEFAULT_GBM = {
    "n_estimators": 200,
    "learning_rate": 0.08,
    "max_depth": 3,
    "reg_lambda": 1.0,
}


class McPatCalib:
    """XGBoost-style calibration of the analytical McPAT model.

    Parameters
    ----------
    mcpat:
        The analytical model used as a feature source.
    gbm_params:
        Hyper-parameters of the boosted regression model.
    """

    #: Columns as :meth:`feature_names`: every hardware parameter, every
    #: raw event rate, IPC, then the McPAT total.
    layout = FeatureLayout([FeatureBlock(
        HARDWARE_PARAMETERS, tuple(n for n in EVENT_NAMES if n != "cycles"), raw=True, extra=1
    )])

    def __init__(
        self,
        mcpat: McPatAnalytical | None = None,
        gbm_params: dict | None = None,
    ) -> None:
        self.mcpat = mcpat if mcpat is not None else McPatAnalytical()
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self._model: GradientBoostingRegressor | None = None
        self._forest: Forest | None = None

    # ------------------------------------------------------------------
    def _mcpat_total(self, config: BoomConfig, batch: EventBatch) -> np.ndarray:
        return self.mcpat.predict_totals(config, batch)[:, None]

    @staticmethod
    def feature_names() -> tuple[str, ...]:
        rates = tuple(f"rate_{n}" for n in EVENT_NAMES if n != "cycles")
        return HARDWARE_PARAMETERS + rates + ("ipc", "mcpat_total")

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> McPatCalib:
        results = flow.run_many(list(train_configs), list(workloads))
        return self.fit_results(results)

    def fit_results(self, results: list) -> McPatCalib:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        x = features_by_config(results, self.layout, self._mcpat_total)
        y = np.array([r.power.total for r in results])
        self._model = GradientBoostingRegressor(**self.gbm_params)
        self._model.fit(x, y)
        self._compile()
        return self

    def _compile(self) -> None:
        self._forest = Forest([self._model], [0], self._model.n_features_)

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload=None
    ) -> float:
        """Predicted total power, in mW (workload arg for API uniformity)."""
        return float(self.predict_totals(config, [events], workload)[0])

    def predict_totals(self, config: BoomConfig, events, workload=None) -> np.ndarray:
        """Per-interval total power for a batch, in mW."""
        if self._forest is None:
            raise RuntimeError("McPatCalib used before fit")
        batch = EventBatch.from_events(events)
        x = self.layout.config_features(config, batch, extra=self._mcpat_total)
        return np.maximum(self._forest.predict(x)[:, 0], 0.0)

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted model."""
        if self._model is None:
            raise ValueError("cannot serialize an unfitted McPatCalib")
        return {
            "gbm_params": dict(self.gbm_params),
            "mcpat": self.mcpat.to_state(),
            "model": gbm_to_dict(self._model),
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> McPatCalib:
        """Rebuild a fitted model from :meth:`to_state` output."""
        model = cls(
            mcpat=McPatAnalytical.from_state(state["mcpat"]),
            gbm_params=state["gbm_params"],
        )
        model._model = gbm_from_dict(state["model"])
        model._compile()
        return model
