"""Logic power model (paper Sec. II-C).

Logic power = register power (excluding clock pins) + combinational power,
modelled separately:

* **register power** (Eq. 11): ``P_reg = F_reg(H) * F_act(H, E)`` — a
  ridge hardware model for the register count and a GBM activity model
  whose label is golden register power divided by the register count,
* **combinational power** (Eq. 12): ``P_comb = F_sta(H) * F_var(H, E)`` —
  a *stable* model trained on the workload-averaged combinational power of
  each training configuration (hardware-only) and a *variation* model on
  the per-workload ratio to that stable power.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventParams
from repro.core.clock import DEFAULT_GBM
from repro.core.features import (
    FeatureLayout,
    event_features,
    features_by_config,
    group_by_config,
    hardware_features,
    normalized_block,
    polynomial_hardware_features,
)
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.parallel import Executor, SerialExecutor

__all__ = ["CombPowerModel", "LogicPowerModel", "RegisterPowerModel"]


def _he_features(config: BoomConfig, events: EventParams, component: str) -> np.ndarray:
    # Scale-free event features: the GBM targets here (per-register power,
    # power variation ratio) are rates, so raw machine-scaled rates are
    # dropped in favour of per-parameter-normalized ones.
    return np.concatenate(
        [
            hardware_features(config, component),
            event_features(events, component, config, include_raw=False),
        ]
    )


def _he_blocks(results: list) -> list[np.ndarray]:
    """Each component's :func:`_he_features` block of the fit matrix, one
    row per result, in ``COMPONENTS`` order."""
    layout = FeatureLayout([normalized_block(c.name) for c in COMPONENTS])
    return layout.split(features_by_config(results, layout))


def _fit_ridge_gbm_pair(
    payload: dict,
) -> tuple[RidgeRegression, GradientBoostingRegressor]:
    """Fit one component's (ridge hardware model, activity GBM) pair.

    Shared by the register and combinational fits — both decompose into a
    hardware-only ridge and an activity GBM per component.  Module-level
    and array-only, so the executor can run it in worker processes.
    """
    ridge = RidgeRegression(alpha=payload["ridge_alpha"], nonnegative=True)
    ridge.fit(payload["h"], payload["h_labels"])
    gbm = GradientBoostingRegressor(**payload["gbm_params"])
    gbm.fit(payload["x"], payload["x_labels"])
    return ridge, gbm


class RegisterPowerModel:
    """Per-component register (non-clock) power: F_reg(H) * F_act(H, E)."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
    ) -> None:
        self.ridge_alpha = ridge_alpha
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self._f_reg: dict[str, RidgeRegression] = {}
        self._f_act: dict[str, GradientBoostingRegressor] = {}
        self._fitted = False

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> RegisterPowerModel:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = SerialExecutor()
        config_results = [results[rows[0]] for rows in group_by_config(results)]
        payloads = [
            self._component_payload(component.name, results, config_results, x)
            for component, x in zip(COMPONENTS, _he_blocks(results))
        ]
        pairs = executor.map(_fit_ridge_gbm_pair, payloads)
        for component, (f_reg, f_act) in zip(COMPONENTS, pairs):
            self._f_reg[component.name] = f_reg
            self._f_act[component.name] = f_act
        self._fitted = True
        return self

    def _component_payload(
        self, name: str, results: list, config_results: list, x: np.ndarray
    ) -> dict:
        h_rows = [
            polynomial_hardware_features(res.config, name) for res in config_results
        ]
        r_labels = [
            float(res.netlist.component(name).registers) for res in config_results
        ]
        rows, act_labels = [], []
        for i, res in enumerate(results):
            registers = res.netlist.component(name).registers
            if registers <= 0:
                continue
            p_register = res.power.component(name).register
            rows.append(i)
            act_labels.append(p_register / registers)
        return {
            "ridge_alpha": self.ridge_alpha,
            "gbm_params": self.gbm_params,
            "h": np.stack(h_rows),
            "h_labels": np.array(r_labels),
            "x": x[rows],
            "x_labels": np.array(act_labels),
        }

    def predict_registers(self, component: str, config: BoomConfig) -> float:
        """Hardware-only register count F_reg(H) (non-negative)."""
        if not self._fitted:
            raise RuntimeError("RegisterPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        return max(float(self._f_reg[component].predict(h)[0]), 0.0)

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        registers = self.predict_registers(component, config)
        x = _he_features(config, events, component).reshape(1, -1)
        per_register = max(float(self._f_act[component].predict(x)[0]), 0.0)
        return registers * per_register


class CombPowerModel:
    """Per-component combinational power: F_sta(H) * F_var(H, E)."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
    ) -> None:
        self.ridge_alpha = ridge_alpha
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self._f_sta: dict[str, RidgeRegression] = {}
        self._f_var: dict[str, GradientBoostingRegressor] = {}
        self._fitted = False

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> CombPowerModel:
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = SerialExecutor()
        by_config = group_by_config(results)
        payloads = [
            self._component_payload(component.name, results, by_config, x)
            for component, x in zip(COMPONENTS, _he_blocks(results))
        ]
        pairs = executor.map(_fit_ridge_gbm_pair, payloads)
        for component, (f_sta, f_var) in zip(COMPONENTS, pairs):
            self._f_sta[component.name] = f_sta
            self._f_var[component.name] = f_var
        self._fitted = True
        return self

    def _component_payload(
        self, name: str, results: list, by_config: list, x: np.ndarray
    ) -> dict:
        # Stable power: average combinational power across workloads.
        h_rows, sta_labels = [], []
        for indices in by_config:
            powers = [results[i].power.component(name).comb for i in indices]
            stable = float(np.mean(powers))
            h_rows.append(polynomial_hardware_features(results[indices[0]].config, name))
            sta_labels.append(stable)

        # Variation: per-workload ratio to the stable power.
        rows, var_labels = [], []
        for indices, stable in zip(by_config, sta_labels):
            if stable <= 0:
                continue
            for i in indices:
                rows.append(i)
                var_labels.append(results[i].power.component(name).comb / stable)
        return {
            "ridge_alpha": self.ridge_alpha,
            "gbm_params": self.gbm_params,
            "h": np.stack(h_rows),
            "h_labels": np.array(sta_labels),
            "x": x[rows],
            "x_labels": np.array(var_labels),
        }

    def predict_stable(self, component: str, config: BoomConfig) -> float:
        """Hardware-only stable power F_sta(H) (non-negative)."""
        if not self._fitted:
            raise RuntimeError("CombPowerModel used before fit")
        h = polynomial_hardware_features(config, component).reshape(1, -1)
        return max(float(self._f_sta[component].predict(h)[0]), 0.0)

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        stable = self.predict_stable(component, config)
        x = _he_features(config, events, component).reshape(1, -1)
        variation = max(float(self._f_var[component].predict(x)[0]), 0.0)
        return stable * variation


class LogicPowerModel:
    """Combined logic power group: register + combinational sub-models."""

    def __init__(
        self,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
    ) -> None:
        self.register_model = RegisterPowerModel(ridge_alpha, gbm_params)
        self.comb_model = CombPowerModel(ridge_alpha, gbm_params)
        self._fitted = False

    def fit(
        self, results: list, executor: Executor | None = None
    ) -> LogicPowerModel:
        self.register_model.fit(results, executor=executor)
        self.comb_model.fit(results, executor=executor)
        self._fitted = True
        return self

    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> tuple[float, float]:
        """(register, comb) power of one component, in mW."""
        if not self._fitted:
            raise RuntimeError("LogicPowerModel used before fit")
        return (
            self.register_model.predict_component(component, config, events),
            self.comb_model.predict_component(component, config, events),
        )

    def predict(
        self, config: BoomConfig, events: EventParams
    ) -> dict[str, tuple[float, float]]:
        return {
            comp.name: self.predict_component(comp.name, config, events)
            for comp in COMPONENTS
        }
