"""A fitted AutoPower model compiled into one predict program.

AutoPower's prediction is 94 boosted ensembles (per component: clock
active rate, register activity, combinational variation; per SRAM
position: read and write frequency) wrapped in hardware-only sub-models
and the paper's power equations.  :class:`PredictProgram` evaluates all
of it for a batch of event intervals of one configuration in three steps:

1. **Hardware memo.**  Everything that depends on the configuration alone
   — the feature layout's hardware values and rate divisors, register
   counts, gating rates, stable combinational power, SRAM block shapes and
   macro mappings — is computed once per configuration *content* (its
   parameter values, not its name) and kept in a small thread-safe LRU.
2. **One gather.**  The inputs of every sub-model come from one
   :class:`repro.core.features.FeatureLayout` gather into one wide
   matrix: per component a normalized block that its clock, register and
   comb ensembles share, then per SRAM component an activity block that
   its positions share.  The group models' ``fit`` builds its training
   rows from the same blocks, so fit and predict see the same columns.
3. **One forest.**  All ensembles form one :class:`repro.ml.gbm.Forest`,
   evaluated in one call, followed by the power equations, vectorized
   across components.

Every sum, division and ``max(., 0)`` is the same IEEE operation, in the
same order, as the scalar ``predict_component`` family, so the program's
outputs equal it bit for bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig
from repro.arch.events import EventBatch
from repro.core.features import FeatureLayout, activity_block, normalized_block
from repro.ml.gbm import Forest

__all__ = ["PredictProgram"]

# Configurations whose hardware plan is kept; a DSE sweep or a serving
# fleet touches a few dozen at a time.
_MEMO_SIZE = 64


class _ConfigPlan:
    """The hardware-only part of a prediction for one configuration."""

    __slots__ = (
        "hardware",
        "clock_static",
        "clock_r",
        "clock_g",
        "registers",
        "stable",
        "sram_scale",
        "sram_n_col",
        "sram_read_pj",
        "sram_write_pj",
    )


class PredictProgram:
    """Compiled prediction of a fitted AutoPower's three group models.

    Built from fitted models, whose ensembles it references without
    copying.  Holds only numpy arrays, the group models and the memo, and
    looks the compiled kernel up at call time, so it pickles for process
    pools (the memo and its lock are rebuilt, not pickled).
    """

    def __init__(self, clock_model, sram_model, logic_model) -> None:
        self.clock_model = clock_model
        self.sram_model = sram_model
        self.logic_model = logic_model
        names = [comp.name for comp in COMPONENTS]
        positions = sram_model._component_positions
        self.components = tuple(names)
        self.has_sram = tuple(name in positions for name in names)

        # Per component: the clock active-rate, register-activity and
        # comb-variation GBMs share one normalized block; SRAM positions
        # share their component's activity block.
        self.layout = FeatureLayout(
            [normalized_block(name) for name in names]
            + [
                activity_block(comp_name, sram_model.use_program_features)
                for comp_name in positions
            ]
        )
        bases = [base for base, _ in self.layout.spans]
        models = []
        col_bases = []
        for name, base in zip(names, bases):
            models += [
                clock_model._models[name].f_alpha,
                logic_model.register_model._f_act[name],
                logic_model.comb_model._f_var[name],
            ]
            col_bases += [base, base, base]
        position_component: list[int] = []
        self.position_names: list[str] = []
        for (comp_name, pos_names), base in zip(positions.items(), bases[len(names):]):
            for pos in pos_names:
                model = sram_model._positions[pos]
                models += [model.f_read, model.f_write]
                col_bases += [base, base]
                position_component.append(names.index(comp_name))
                self.position_names.append(pos)

        self.position_component = tuple(position_component)
        n = len(names)
        self.clock_seg = np.arange(0, 3 * n, 3)
        self.register_seg = self.clock_seg + 1
        self.comb_seg = self.clock_seg + 2
        self.read_seg = np.arange(3 * n, len(models), 2)
        self.write_seg = self.read_seg + 1
        self.forest = Forest(models, col_bases, self.layout.width)
        self._memo: OrderedDict[tuple, _ConfigPlan] = OrderedDict()  # guarded-by: _memo_lock
        self._memo_lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_memo"], state["_memo_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = OrderedDict()
        self._memo_lock = threading.Lock()

    # -- hardware memo ---------------------------------------------------
    def plan(self, config: BoomConfig) -> _ConfigPlan:
        """The memoized hardware plan of ``config`` (keyed by content)."""
        key = config.params_key
        with self._memo_lock:
            plan = self._memo.get(key)
            if plan is not None:
                self._memo.move_to_end(key)
                return plan
        # Built outside the lock (a pure function of the config), so a
        # miss never stalls other configs' predictions.
        plan = self._build_plan(config)
        with self._memo_lock:
            self._memo[key] = plan
            self._memo.move_to_end(key)
            while len(self._memo) > _MEMO_SIZE:
                self._memo.popitem(last=False)
        return plan

    def _build_plan(self, config: BoomConfig) -> _ConfigPlan:
        clock, sram = self.clock_model, self.sram_model
        register = self.logic_model.register_model
        comb = self.logic_model.comb_model
        names = self.components
        plan = _ConfigPlan()
        plan.hardware = self.layout.hardware(config)
        p_reg = clock.library.p_reg_mw
        r = [clock.predict_register_count(name, config) for name in names]
        g = [clock.predict_gating_rate(name, config) for name in names]
        plan.clock_static = np.array(
            [r_i * (1.0 - g_i) * p_reg for r_i, g_i in zip(r, g)]
        )
        plan.clock_r = np.array(r)
        plan.clock_g = np.array(g)
        plan.registers = np.array(
            [register.predict_registers(name, config) for name in names]
        )
        plan.stable = np.array([comb.predict_stable(name, config) for name in names])
        scale, n_col, read_pj, write_pj = [], [], [], []
        for pos in self.position_names:
            block = sram.predict_block(pos, config)
            mapping = sram.mapper.map(block.width, block.depth)
            scale.append(block.count * mapping.n_macros)
            n_col.append(mapping.n_col)
            read_pj.append(mapping.macro.read_energy_pj)
            write_pj.append(mapping.macro.write_energy_pj)
        plan.sram_scale = np.array(scale, dtype=float)
        plan.sram_n_col = np.array(n_col, dtype=float)
        plan.sram_read_pj = np.array(read_pj, dtype=float)
        plan.sram_write_pj = np.array(write_pj, dtype=float)
        return plan

    # -- evaluation ------------------------------------------------------
    def groups(
        self, config: BoomConfig, events: EventBatch, workload
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(clock, sram, register, comb) power, each ``(n, components)``
        in mW; components without SRAM have zero SRAM power."""
        plan = self.plan(config)
        pred = self.forest.predict(self.layout.features(plan.hardware, events, workload))
        alpha = np.maximum(pred[:, self.clock_seg], 0.0)
        clock = np.maximum(
            plan.clock_static + alpha * plan.clock_r * plan.clock_g, 0.0
        )
        register = plan.registers * np.maximum(pred[:, self.register_seg], 0.0)
        comb = plan.stable * np.maximum(pred[:, self.comb_seg], 0.0)
        # SRAM (Eq. 9-10): per-macro frequency is block frequency over the
        # macro columns; positions add up per component, in order.
        read = np.maximum(pred[:, self.read_seg], 0.0)
        write = np.maximum(pred[:, self.write_seg], 0.0)
        library = self.sram_model.library
        per_macro = (
            library.power_mw(
                read / plan.sram_n_col * plan.sram_read_pj
                + write / plan.sram_n_col * plan.sram_write_pj
            )
            + self.sram_model.c_constant_mw
        )
        positions = plan.sram_scale * per_macro
        sram = np.zeros_like(clock)
        for k, j in enumerate(self.position_component):
            sram[:, j] += positions[:, k]
        return clock, sram, register, comb

    def totals(self, config: BoomConfig, events: EventBatch, workload) -> np.ndarray:
        """Total power per interval, in mW: per component ``clock +
        register + comb``, then ``sram``, accumulated in component order."""
        clock, sram, register, comb = self.groups(config, events, workload)
        logic = clock + register + comb
        total = np.zeros(len(events))
        for j, has_sram in enumerate(self.has_sram):
            total += logic[:, j]
            if has_sram:
                total += sram[:, j]
        return total
