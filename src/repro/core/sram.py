"""SRAM power model (paper Sec. II-B).

Top-down over the four-level hierarchy
``Component -> SRAM Position -> SRAM Block -> SRAM Macro``:

1. **feature transfer** — an SRAM position inherits the hardware and event
   parameters of its component,
2. **hardware model** — the scaling-pattern detector fits directly
   proportional laws for capacity, throughput and width of each position
   from the training configurations' block shapes, then derives
   ``count = throughput / width`` and ``depth = capacity / throughput``,
3. **activity model** — gradient-boosted trees predict block-level
   read/write frequencies from hardware parameters, event parameters and
   (the paper's addition) microarchitecture-independent program features,
4. **macro-level mapping** — the VLSI flow's deterministic rule builds the
   block from legal macros; per-macro frequency is the block frequency
   divided by the number of macro columns (Eq. 9), and power follows
   Eq. 10 with the pin-toggle/leakage constant ``C`` calibrated once from
   golden power of the training configuration's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.components import component_by_name, sram_components
from repro.arch.config import BoomConfig
from repro.arch.events import EventParams
from repro.arch.workloads import Workload
from repro.core.clock import DEFAULT_GBM
from repro.core.features import (
    FeatureLayout,
    activity_block,
    event_features,
    features_by_config,
    group_by_config,
    hardware_features,
    program_features,
)
from repro.core.scaling import FittedLaw, ScalingPatternDetector
from repro.library.stdcell import TechLibrary
from repro.ml.gbm import GradientBoostingRegressor
from repro.parallel import Executor, SerialExecutor
from repro.vlsi.macro_mapping import MacroMapper

__all__ = ["PredictedBlock", "SramPowerModel"]


@dataclass(frozen=True)
class PredictedBlock:
    """Predicted SRAM block hardware information of one position."""

    width: int
    depth: int
    count: int

    @property
    def capacity_bits(self) -> int:
        return self.width * self.depth * self.count


class _PositionModel:
    """Hardware + activity models of one SRAM position."""

    def __init__(self, component: str, gbm_params: dict) -> None:
        self.component = component
        self.capacity_law: FittedLaw | None = None
        self.throughput_law: FittedLaw | None = None
        self.width_law: FittedLaw | None = None
        self.f_read = GradientBoostingRegressor(**gbm_params)
        self.f_write = GradientBoostingRegressor(**gbm_params)


def _fit_sram_position(payload: dict) -> _PositionModel:
    """Fit one position's scaling laws and activity GBMs from a payload.

    Module-level and built from plain arrays only, so the executor can
    hand it to worker processes.
    """
    model = _PositionModel(payload["component"], payload["gbm_params"])
    detector = ScalingPatternDetector(
        max_combination_size=payload["max_combination_size"],
        tolerance=payload["tolerance"],
    )
    params = payload["params"]
    param_values = payload["param_values"]
    model.capacity_law = detector.fit(payload["capacities"], param_values, params)
    model.throughput_law = detector.fit(payload["throughputs"], param_values, params)
    model.width_law = detector.fit(payload["widths"], param_values, params)
    model.f_read.fit(payload["x"], payload["read_labels"])
    model.f_write.fit(payload["x"], payload["write_labels"])
    return model


class SramPowerModel:
    """Hierarchy-based SRAM power with scaling-pattern hardware modeling.

    Parameters
    ----------
    library:
        Technology library (macro energies; shared with the golden flow,
        as in the paper where both read the same memory-compiler views).
    mapper:
        The VLSI flow's block-to-macro mapping rule.
    use_program_features:
        Include microarchitecture-independent program features in the
        activity model (the paper's addition; disable for the ablation).
    """

    def __init__(
        self,
        library: TechLibrary,
        mapper: MacroMapper | None = None,
        use_program_features: bool = True,
        gbm_params: dict | None = None,
    ) -> None:
        self.library = library
        self.mapper = mapper if mapper is not None else MacroMapper(library.sram)
        self.use_program_features = use_program_features
        self.gbm_params = dict(DEFAULT_GBM if gbm_params is None else gbm_params)
        self.detector = ScalingPatternDetector(max_combination_size=3)
        self._positions: dict[str, _PositionModel] = {}
        self._component_positions: dict[str, tuple[str, ...]] = {}
        self.c_constant_mw: float = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self, results: list, executor: Executor | None = None
    ) -> SramPowerModel:
        """Train from flow results of the known configurations.

        The per-position fits (scaling laws + read/write GBMs) are
        independent pure tasks and run through ``executor`` (serial by
        default) with numerically identical results on every executor.
        """
        if not results:
            raise ValueError("cannot fit on an empty result list")
        if executor is None:
            executor = SerialExecutor()
        config_results = [results[rows[0]] for rows in group_by_config(results)]

        # Discover positions from the training designs (architecture-visible).
        first_design = config_results[0].design
        comp_positions: dict[str, list[str]] = {}
        for comp in sram_components():
            comp_rtl = first_design.component(comp.name)
            comp_positions[comp.name] = [p.name for p in comp_rtl.sram_positions]
        self._component_positions = {
            name: tuple(pos) for name, pos in comp_positions.items()
        }

        # One row per result; positions share their component's block.
        program = self.use_program_features
        layout = FeatureLayout([activity_block(name, program) for name in comp_positions])
        blocks = layout.split(features_by_config(results, layout))
        position_names: list[str] = []
        payloads: list[dict] = []
        for (comp_name, pos_names), x in zip(self._component_positions.items(), blocks):
            params = component_by_name(comp_name).hardware_parameters
            for pos_name in pos_names:
                position_names.append(pos_name)
                payloads.append(
                    self._position_payload(
                        comp_name, pos_name, params, config_results, results, x
                    )
                )
        models = executor.map(_fit_sram_position, payloads)
        self._positions = dict(zip(position_names, models))

        self.c_constant_mw = self._calibrate_constant(config_results[0])
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def _position_payload(
        self,
        comp_name: str,
        pos_name: str,
        params: tuple[str, ...],
        config_results: list,
        results: list,
        x: np.ndarray,
    ) -> dict:
        """One position's fit task; ``x`` is its component's fit block."""
        # Hardware side: block shapes per training configuration.
        capacities, throughputs, widths = [], [], []
        param_values: dict[str, list[float]] = {p: [] for p in params}
        for res in config_results:
            block = res.design.component(comp_name).position(pos_name).block
            capacities.append(block.capacity_bits)
            throughputs.append(block.throughput_bits)
            widths.append(block.width)
            for p in params:
                param_values[p].append(float(res.config[p]))
        # Activity side: golden block frequencies per (config, workload).
        read_labels, write_labels = [], []
        for res in results:
            act = res.activity.component(comp_name).positions[pos_name]
            read_labels.append(act.read_per_block_cycle)
            write_labels.append(act.write_per_block_cycle)
        return {
            "component": comp_name,
            "gbm_params": self.gbm_params,
            "max_combination_size": self.detector.max_combination_size,
            "tolerance": self.detector.tolerance,
            "params": params,
            "param_values": param_values,
            "capacities": capacities,
            "throughputs": throughputs,
            "widths": widths,
            "x": x,
            "read_labels": np.array(read_labels),
            "write_labels": np.array(write_labels),
        }

    def _activity_features(
        self,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
        comp_name: str,
    ) -> np.ndarray:
        parts = [
            hardware_features(config, comp_name),
            event_features(events, comp_name, config),
        ]
        if self.use_program_features:
            parts.append(program_features(workload))
        return np.concatenate(parts)

    def _calibrate_constant(self, result) -> float:
        """Estimate per-macro constant C from golden block power (Eq. 10).

        The paper estimates C from the golden power of an SRAM block from
        power simulation; we average the residual (golden minus modeled
        dynamic power) per macro over the first training configuration's
        positions.
        """
        # "Power simulation" of the training configuration's blocks: ask
        # the golden analyzer (same library + mapping rule, as in the paper
        # where PrimePower and the model share the .lib and flow scripts).
        from repro.power.analysis import PowerAnalyzer

        analyzer = PowerAnalyzer(self.library, self.mapper)
        residual = 0.0
        macros = 0.0
        for comp_name, position_names in self._component_positions.items():
            comp_net = result.netlist.component(comp_name)
            comp_act = result.activity.component(comp_name)
            for pos_name in position_names:
                pos = next(p for p in comp_net.sram_positions if p.name == pos_name)
                act = comp_act.positions[pos_name]
                mapping = self.mapper.map(pos.block.width, pos.block.depth)
                macro = mapping.macro
                dyn = self.library.power_mw(
                    mapping.n_row
                    * (
                        act.read_per_block_cycle * macro.read_energy_pj
                        + act.write_per_block_cycle * macro.write_energy_pj
                    )
                )
                golden = analyzer.position_power(comp_net, comp_act, pos_name)
                residual += golden - pos.block.count * dyn
                macros += pos.block.count * mapping.n_macros
        if macros <= 0:
            raise RuntimeError("no macros found while calibrating C")
        return max(residual / macros, 0.0)

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("SramPowerModel used before fit")

    # -- hardware prediction ---------------------------------------------
    def predict_block(self, position: str, config: BoomConfig) -> PredictedBlock:
        """Predicted SRAM block shape of one position (Table I mechanics)."""
        self._require_fit()
        model = self._positions[position]
        params = component_by_name(model.component).hardware_parameters
        values = {p: float(config[p]) for p in params}
        capacity = model.capacity_law.evaluate(values)
        throughput = model.throughput_law.evaluate(values)
        width = model.width_law.evaluate(values)
        count = max(int(round(throughput / max(width, 1e-9))), 1)
        depth = max(int(round(capacity / max(throughput, 1e-9))), 1)
        return PredictedBlock(
            width=max(int(round(width)), 1), depth=depth, count=count
        )

    # -- activity prediction -----------------------------------------------
    def predict_block_activity(
        self,
        position: str,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
    ) -> tuple[float, float]:
        """Predicted block-level (read, write) frequencies per cycle."""
        self._require_fit()
        model = self._positions[position]
        x = self._activity_features(config, events, workload, model.component)
        x = x.reshape(1, -1)
        read = max(float(model.f_read.predict(x)[0]), 0.0)
        write = max(float(model.f_write.predict(x)[0]), 0.0)
        return read, write

    # -- power prediction ----------------------------------------------------
    def predict_position(
        self,
        position: str,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
    ) -> float:
        """Predicted power of one SRAM position (all blocks), in mW."""
        block = self.predict_block(position, config)
        read_f, write_f = self.predict_block_activity(position, config, events, workload)
        mapping = self.mapper.map(block.width, block.depth)
        macro = mapping.macro
        # Eq. 9: per-macro frequency is block frequency over macro columns.
        f_read_macro = read_f / mapping.n_col
        f_write_macro = write_f / mapping.n_col
        # Eq. 10 per macro, summed over the macro grid and the blocks.
        per_macro = (
            self.library.power_mw(
                f_read_macro * macro.read_energy_pj
                + f_write_macro * macro.write_energy_pj
            )
            + self.c_constant_mw
        )
        return block.count * mapping.n_macros * per_macro

    def predict_component(
        self,
        component: str,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
    ) -> float:
        """Predicted SRAM power of one component, in mW."""
        self._require_fit()
        positions = self._component_positions.get(component, ())
        return sum(
            self.predict_position(pos, config, events, workload) for pos in positions
        )

    def predict(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> dict[str, float]:
        """Per-component SRAM power, in mW (SRAM-bearing components only)."""
        self._require_fit()
        return {
            name: self.predict_component(name, config, events, workload)
            for name in self._component_positions
        }

    @property
    def position_names(self) -> tuple[str, ...]:
        self._require_fit()
        return tuple(self._positions)

    def laws(self, position: str) -> dict[str, FittedLaw]:
        """The fitted scaling laws of one position (for inspection)."""
        self._require_fit()
        model = self._positions[position]
        return {
            "capacity": model.capacity_law,
            "throughput": model.throughput_law,
            "width": model.width_law,
        }
