"""A fitted AutoPower model compiled into one predict program.

AutoPower's prediction is 94 boosted ensembles (per component: clock
active rate, register activity, combinational variation; per SRAM
position: read and write frequency) wrapped in hardware-only sub-models
and the paper's power equations.  :class:`PredictProgram` evaluates all
of it for a batch of event intervals of one configuration in three steps:

1. **Hardware memo.**  Everything that depends on the configuration alone
   — hardware features, register counts, gating rates, stable
   combinational power, SRAM block shapes and macro mappings, and the
   per-parameter divisors of the normalized event rates — is computed
   once per configuration *content* (its parameter values, not its name)
   and kept in a small thread-safe LRU.
2. **One gather.**  Event features of every sub-model come from one
   gather-and-divide of the per-cycle rate matrix into one wide matrix;
   hardware and program features are scattered beside them.
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
from repro.arch.events import COMPONENT_EVENTS, EVENT_NAMES, EventBatch
from repro.core.features import (
    hardware_feature_names,
    program_feature_names,
    program_features_matrix,
)
from repro.ml.gbm import Forest

__all__ = ["PredictProgram"]

# Configurations whose hardware plan is kept; a DSE sweep or a serving
# fleet touches a few dozen at a time.
_MEMO_SIZE = 64

_INSTRUCTIONS = EVENT_NAMES.index("instructions")


class _ConfigPlan:
    """The hardware-only part of a prediction for one configuration."""

    __slots__ = (
        "hw_values",
        "divisors",
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

        # -- wide-matrix layout: one column block per feature set --------
        hw_cols: list[int] = []
        hw_param: list[str] = []
        ev_cols: list[int] = []
        ev_src: list[int] = []
        ev_param: list[str | None] = []  # divisor parameter, None = 1.0
        prog_cols: list[int] = []
        width = 0

        def block(name: str, include_raw: bool, program: bool) -> int:
            """Lay out one sub-model's feature vector; return its base."""
            nonlocal width
            base = width
            params = hardware_feature_names(name)
            events = [EVENT_NAMES.index(e) for e in COMPONENT_EVENTS[name]]
            for p in params:
                hw_cols.append(width)
                hw_param.append(p)
                width += 1
            columns: list[tuple[int, str | None]] = []
            if include_raw:
                columns.extend((e, None) for e in events)
            columns.extend((e, p) for e in events for p in params)
            columns.append((_INSTRUCTIONS, None))  # ipc
            for e, p in columns:
                ev_cols.append(width)
                ev_src.append(e)
                ev_param.append(p)
                width += 1
            if program:
                prog_cols.extend(range(width, width + len(program_feature_names())))
                width += len(program_feature_names())
            return base

        # Per component: the clock active-rate, register-activity and
        # comb-variation GBMs share one (hardware, normalized events)
        # block; SRAM positions share their component's activity block.
        models = []
        col_bases = []
        for name in names:
            base = block(name, include_raw=False, program=False)
            models += [
                clock_model._models[name].f_alpha,
                logic_model.register_model._f_act[name],
                logic_model.comb_model._f_var[name],
            ]
            col_bases += [base, base, base]
        position_component: list[int] = []
        self.position_names: list[str] = []
        for comp_name, pos_names in positions.items():
            base = block(
                comp_name, include_raw=True, program=sram_model.use_program_features
            )
            for pos in pos_names:
                model = sram_model._positions[pos]
                models += [model.f_read, model.f_write]
                col_bases += [base, base]
                position_component.append(names.index(comp_name))
                self.position_names.append(pos)

        self.width = width
        self.hw_cols = np.array(hw_cols, dtype=np.intp)
        self.hw_param = tuple(hw_param)
        self.ev_cols = np.array(ev_cols, dtype=np.intp)
        self.ev_src = np.array(ev_src, dtype=np.intp)
        self.ev_param = tuple(ev_param)
        self.prog_cols = np.array(prog_cols, dtype=np.intp)
        self.position_component = tuple(position_component)
        n = len(names)
        self.clock_seg = np.arange(0, 3 * n, 3)
        self.register_seg = self.clock_seg + 1
        self.comb_seg = self.clock_seg + 2
        self.read_seg = np.arange(3 * n, len(models), 2)
        self.write_seg = self.read_seg + 1
        self.forest = Forest(models, col_bases, width)
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
        plan.hw_values = np.array([float(config[p]) for p in self.hw_param])
        plan.divisors = np.array(
            [1.0 if p is None else max(float(config[p]), 1.0) for p in self.ev_param]
        )
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
    def features(self, plan: _ConfigPlan, events: EventBatch, workload) -> np.ndarray:
        """The wide feature matrix of one config's ``plan``: every
        sub-model's inputs, one row per interval."""
        n = len(events)
        x = np.empty((n, self.width))
        x[:, self.hw_cols] = plan.hw_values
        rates = events.matrix / events.cycles[:, None]
        x[:, self.ev_cols] = rates[:, self.ev_src] / plan.divisors
        if self.prog_cols.size:
            prog = program_features_matrix(workload, n)
            x[:, self.prog_cols] = np.tile(prog, self.prog_cols.size // prog.shape[1])
        return x

    def groups(
        self, config: BoomConfig, events: EventBatch, workload
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(clock, sram, register, comb) power, each ``(n, components)``
        in mW; components without SRAM have zero SRAM power."""
        plan = self.plan(config)
        pred = self.forest.predict(self.features(plan, events, workload))
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
