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

        # Forest columns: per component (clock, register, comb), then per
        # SRAM position (read, write).  Strided slices, so no copies.
        n = len(names)
        self.clock_seg = slice(0, 3 * n, 3)
        self.register_seg = slice(1, 3 * n, 3)
        self.comb_seg = slice(2, 3 * n, 3)
        self.read_seg = slice(3 * n, len(models), 2)
        self.write_seg = slice(3 * n + 1, len(models), 2)
        # SRAM power per component is its positions' sum, in position
        # order, from 0.0: each position gets a slot of a per-component
        # row that starts with a 0.0 slot and pads with 0.0 after its
        # last position.  Adding +0.0 to a sum that started from +0.0
        # changes no bit, so one sequential accumulate along the row is
        # the per-position loop.
        sram_components = sorted(set(position_component))
        self.sram_components = np.array(sram_components, dtype=np.intp)
        row = [sram_components.index(j) for j in position_component]
        slot = [row[: k + 1].count(r) for k, r in enumerate(row)]
        self._position_row = np.array(row, dtype=np.intp)
        self._position_slot = np.array(slot, dtype=np.intp)
        self._position_width = max(slot, default=0) + 1
        # The total adds, in component order, each component's logic
        # power and then its SRAM power if it has any, from 0.0: column 0
        # of the term row is that 0.0, and a sequential accumulate along
        # the row adds the rest in this order.
        terms = 1
        logic_col, sram_col = [], []
        for j in range(n):
            logic_col.append(terms)
            terms += 1
            if j in sram_components:
                sram_col.append(terms)
                terms += 1
        self._logic_col = np.array(logic_col, dtype=np.intp)
        self._sram_col = np.array(sram_col, dtype=np.intp)
        self._n_terms = terms
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
    def _evaluate(self, config: BoomConfig, events: EventBatch, workload):
        """(clock, sram, register, comb) power in mW, ``sram`` with one
        column per component of :attr:`sram_components`."""
        plan = self.plan(config)
        x = self.layout.features(plan.hardware, events, workload)
        # Every group model's output is clamped at zero.
        pred = np.maximum(self.forest.predict(x), 0.0)
        clock = np.maximum(
            plan.clock_static + pred[:, self.clock_seg] * plan.clock_r * plan.clock_g,
            0.0,
        )
        register = plan.registers * pred[:, self.register_seg]
        comb = plan.stable * pred[:, self.comb_seg]
        # SRAM (Eq. 9-10): per-macro frequency is block frequency over the
        # macro columns; positions add up per component, in order.
        library = self.sram_model.library
        per_macro = (
            library.power_mw(
                pred[:, self.read_seg] / plan.sram_n_col * plan.sram_read_pj
                + pred[:, self.write_seg] / plan.sram_n_col * plan.sram_write_pj
            )
            + self.sram_model.c_constant_mw
        )
        n = x.shape[0]
        slots = np.zeros((n, self.sram_components.size, self._position_width))
        slots[:, self._position_row, self._position_slot] = plan.sram_scale * per_macro
        sram = np.add.accumulate(slots, axis=2)[:, :, -1]
        return clock, sram, register, comb

    def groups(
        self, config: BoomConfig, events: EventBatch, workload
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(clock, sram, register, comb) power, each ``(n, components)``
        in mW; components without SRAM have zero SRAM power."""
        clock, sram_by_component, register, comb = self._evaluate(
            config, events, workload
        )
        sram = np.zeros_like(clock)
        sram[:, self.sram_components] = sram_by_component
        return clock, sram, register, comb

    def totals(self, config: BoomConfig, events: EventBatch, workload) -> np.ndarray:
        """Total power per interval, in mW: per component ``clock +
        register + comb``, then ``sram``, accumulated in component order."""
        clock, sram, register, comb = self._evaluate(config, events, workload)
        terms = np.empty((clock.shape[0], self._n_terms))
        terms[:, 0] = 0.0
        terms[:, self._logic_col] = clock + register + comb
        terms[:, self._sram_col] = sram
        return np.add.accumulate(terms, axis=1)[:, -1]
