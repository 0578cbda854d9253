"""McPAT-like analytical power model.

A hand-built resource-function model in the spirit of McPAT [Li et al.
2009]: every component gets a generic area proxy (a weighted sum of its
hardware parameters) and a generic dynamic-energy proxy (driven by its
event rates), multiplied by technology constants.  Crucially — and this is
the published failure mode the paper leans on — the constants were *not*
calibrated to the target implementation: each component's estimate is off
by a deterministic factor (reproducible per component), it knows nothing
about clock gating, and its SRAM energies assume idealized macros.

It is useful in two roles: as a standalone baseline, and as the analytical
feature inside McPAT-Calib.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch, EventParams
from repro.sim.perf import stable_seed

__all__ = ["McPatAnalytical"]

# Generic per-parameter "area weight" (register-bit equivalents) an
# engineer might assume without access to the real design.
_PARAM_WEIGHT: dict[str, float] = {
    "FetchWidth": 90.0,
    "DecodeWidth": 420.0,
    "FetchBufferEntry": 35.0,
    "RobEntry": 28.0,
    "IntPhyRegister": 70.0,
    "FpPhyRegister": 70.0,
    "LDQEntry": 60.0,
    "STQEntry": 60.0,
    "BranchCount": 55.0,
    "MemIssueWidth": 700.0,
    "FpIssueWidth": 900.0,
    "IntIssueWidth": 700.0,
    "DCacheWay": 260.0,
    "ICacheWay": 230.0,
    "DTLBEntry": 30.0,
    "ITLBEntry": 30.0,
    "MSHREntry": 110.0,
    "ICacheFetchBytes": 120.0,
}


class McPatAnalytical:
    """Analytical architecture-level power model (no training).

    Parameters
    ----------
    mw_per_kunit:
        Technology constant: mW per thousand area units at full activity.
    static_share:
        Fraction of component power that is activity-independent in the
        analytical model (McPAT's idle/leakage assumption).
    miscalibration:
        Half-range of the deterministic per-component error factor
        (0.45 means factors in [0.55, 1.45]); models the documented
        McPAT-vs-silicon drift on new microarchitectures.
    """

    def __init__(
        self,
        mw_per_kunit: float = 0.95,
        static_share: float = 0.35,
        miscalibration: float = 0.45,
    ) -> None:
        if not 0.0 <= static_share <= 1.0:
            raise ValueError("static_share must be in [0, 1]")
        if not 0.0 <= miscalibration < 1.0:
            raise ValueError("miscalibration must be in [0, 1)")
        self.mw_per_kunit = mw_per_kunit
        self.static_share = static_share
        self.miscalibration = miscalibration
        # A factor depends only on its component and miscalibration: draw once.
        rngs = {c.name: np.random.default_rng(stable_seed("mcpat-distortion", c.name))
                for c in COMPONENTS}
        self._distortions = {
            name: float(1.0 + rng.uniform(-miscalibration, miscalibration))
            for name, rng in rngs.items()
        }

    # ------------------------------------------------------------------
    def area_proxy(self, config: BoomConfig, component: str) -> float:
        """Generic resource function: weighted sum of the component's params."""
        comp = next(c for c in COMPONENTS if c.name == component)
        return sum(_PARAM_WEIGHT[p] * config[p] for p in comp.hardware_parameters)

    def activity_proxy(self, events: EventParams, component: str) -> float:
        """Normalized activity in [0, 1] from the component's event rates."""
        rates = events.rates_for_component(component)
        total = sum(rates.values())
        return min(total / 2.0, 1.0)

    # ------------------------------------------------------------------
    def fit(self, flow, train_configs, workloads) -> McPatAnalytical:
        """No-op: the analytical model has no learned state."""
        return self

    def fit_results(self, results: list) -> McPatAnalytical:
        """No-op: the analytical model has no learned state."""
        return self

    # ------------------------------------------------------------------
    def predict_component(
        self, component: str, config: BoomConfig, events: EventParams
    ) -> float:
        """Analytical power of one component, in mW."""
        area = self.area_proxy(config, component)
        act = self.activity_proxy(events, component)
        dynamic_share = 1.0 - self.static_share
        power = (
            self.mw_per_kunit
            * (area / 1000.0)
            * (self.static_share + dynamic_share * act)
        )
        return power * self._distortions[component]

    def predict_component_batch(
        self, component: str, config: BoomConfig, batch: EventBatch
    ) -> np.ndarray:
        """Per-interval analytical power of one component, in mW.

        Element-for-element the same arithmetic (and operation order) as
        :meth:`predict_component`, so batch predictions are bitwise equal
        to the scalar path.
        """
        rates = batch.rates_for_component(component)
        total = 0.0
        for vector in rates.values():
            total = total + vector
        act = np.minimum(total / 2.0, 1.0)
        area = self.area_proxy(config, component)
        dynamic_share = 1.0 - self.static_share
        power = (
            self.mw_per_kunit
            * (area / 1000.0)
            * (self.static_share + dynamic_share * act)
        )
        return power * self._distortions[component]

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload=None
    ) -> float:
        """Analytical total power, in mW (workload arg for API uniformity)."""
        return sum(
            self.predict_component(c.name, config, events) for c in COMPONENTS
        )

    def predict_totals(self, config: BoomConfig, events, workload=None) -> np.ndarray:
        """Per-interval analytical total power for a batch, in mW."""
        batch = EventBatch.from_events(events)
        total = 0.0
        for comp in COMPONENTS:
            total = total + self.predict_component_batch(comp.name, config, batch)
        return np.asarray(total, dtype=float)

    def predict(self, config: BoomConfig, events: EventParams) -> dict[str, float]:
        return {
            c.name: self.predict_component(c.name, config, events) for c in COMPONENTS
        }

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state (hyper-parameters only — no learning)."""
        return {
            "mw_per_kunit": self.mw_per_kunit,
            "static_share": self.static_share,
            "miscalibration": self.miscalibration,
        }

    @classmethod
    def from_state(cls, state: dict, library=None) -> McPatAnalytical:
        """Rebuild from :meth:`to_state` output (library arg unused)."""
        return cls(
            mw_per_kunit=float(state["mw_per_kunit"]),
            static_share=float(state["static_share"]),
            miscalibration=float(state["miscalibration"]),
        )
