"""AutoPower model state codecs.

Training needs the full EDA flow (slow, licensed tooling in the paper's
setting); prediction only needs hardware parameters and a performance
simulator.  Persistence lets the flow-side team train once and hand the
fitted model to architects.

This module owns the AutoPower *state codec* — :func:`autopower_to_state`
/ :func:`autopower_from_state` turn a fitted model into a plain dict of
JSON types (ridge coefficients, boosted trees, fitted scaling laws, the
calibrated SRAM constant — no pickle, safe to check into a repo).  File
I/O lives in :mod:`repro.api.persistence`, which wraps any registered
method's state in a versioned envelope (``save_model`` / ``load_model``).
"""

from __future__ import annotations

from repro.core.autopower import AutoPower
from repro.core.clock import _ComponentClockModel
from repro.core.scaling import FittedLaw
from repro.core.sram import _PositionModel
from repro.library.stdcell import TechLibrary
from repro.ml.serialize import (
    gbm_from_dict,
    gbm_to_dict,
    ridge_from_dict,
    ridge_to_dict,
)

__all__ = [
    "autopower_from_state",
    "autopower_to_state",
]


def _law_to_dict(law: FittedLaw) -> dict:
    return {
        "coefficient": law.coefficient,
        "params": list(law.params),
        "error": law.error,
    }


def _law_from_dict(state: dict) -> FittedLaw:
    return FittedLaw(
        coefficient=float(state["coefficient"]),
        params=tuple(state["params"]),
        error=float(state["error"]),
    )


def autopower_to_state(model: AutoPower) -> dict:
    """JSON-serializable state of a fitted AutoPower model.

    The payload carries only learned state (plus the training-config
    provenance); the technology library is identified by name in the
    persistence envelope, not here.
    """
    if not model._fitted:
        raise ValueError("cannot save an unfitted AutoPower model")
    clock = {
        name: {
            "f_reg": ridge_to_dict(m.f_reg),
            "f_gate": ridge_to_dict(m.f_gate),
            "f_alpha": gbm_to_dict(m.f_alpha),
        }
        for name, m in model.clock_model._models.items()
    }
    sram = {
        "c_constant_mw": model.sram_model.c_constant_mw,
        "use_program_features": model.sram_model.use_program_features,
        "component_positions": {
            comp: list(names)
            for comp, names in model.sram_model._component_positions.items()
        },
        "positions": {
            name: {
                "component": m.component,
                "capacity_law": _law_to_dict(m.capacity_law),
                "throughput_law": _law_to_dict(m.throughput_law),
                "width_law": _law_to_dict(m.width_law),
                "f_read": gbm_to_dict(m.f_read),
                "f_write": gbm_to_dict(m.f_write),
            }
            for name, m in model.sram_model._positions.items()
        },
    }
    logic = {
        "register": {
            name: {
                "f_reg": ridge_to_dict(model.logic_model.register_model._f_reg[name]),
                "f_act": gbm_to_dict(model.logic_model.register_model._f_act[name]),
            }
            for name in model.logic_model.register_model._f_reg
        },
        "comb": {
            name: {
                "f_sta": ridge_to_dict(model.logic_model.comb_model._f_sta[name]),
                "f_var": gbm_to_dict(model.logic_model.comb_model._f_var[name]),
            }
            for name in model.logic_model.comb_model._f_sta
        },
    }
    return {
        "train_config_names": list(model.train_config_names),
        "clock": clock,
        "sram": sram,
        "logic": logic,
    }


def autopower_from_state(state: dict, library: TechLibrary | None = None) -> AutoPower:
    """Rebuild a fitted AutoPower model from :func:`autopower_to_state`.

    Also accepts the body of a legacy format-v1 file (same inner layout,
    with ``format_version``/``library`` keys riding along at the top).
    """
    model = AutoPower(
        library=library,
        use_program_features=bool(state["sram"]["use_program_features"]),
    )

    for name, sub in state["clock"].items():
        comp_model = _ComponentClockModel.__new__(_ComponentClockModel)
        comp_model.f_reg = ridge_from_dict(sub["f_reg"])
        comp_model.f_gate = ridge_from_dict(sub["f_gate"])
        comp_model.f_alpha = gbm_from_dict(sub["f_alpha"])
        model.clock_model._models[name] = comp_model
    model.clock_model._fitted = True

    sram_state = state["sram"]
    model.sram_model.c_constant_mw = float(sram_state["c_constant_mw"])
    model.sram_model._component_positions = {
        comp: tuple(names)
        for comp, names in sram_state["component_positions"].items()
    }
    for name, sub in sram_state["positions"].items():
        pos = _PositionModel.__new__(_PositionModel)
        pos.component = sub["component"]
        pos.capacity_law = _law_from_dict(sub["capacity_law"])
        pos.throughput_law = _law_from_dict(sub["throughput_law"])
        pos.width_law = _law_from_dict(sub["width_law"])
        pos.f_read = gbm_from_dict(sub["f_read"])
        pos.f_write = gbm_from_dict(sub["f_write"])
        model.sram_model._positions[name] = pos
    model.sram_model._fitted = True

    for name, sub in state["logic"]["register"].items():
        model.logic_model.register_model._f_reg[name] = ridge_from_dict(sub["f_reg"])
        model.logic_model.register_model._f_act[name] = gbm_from_dict(sub["f_act"])
    model.logic_model.register_model._fitted = True
    for name, sub in state["logic"]["comb"].items():
        model.logic_model.comb_model._f_sta[name] = ridge_from_dict(sub["f_sta"])
        model.logic_model.comb_model._f_var[name] = gbm_from_dict(sub["f_var"])
    model.logic_model.comb_model._fitted = True
    model.logic_model._fitted = True

    model.train_config_names = tuple(state["train_config_names"])
    model._fitted = True
    return model
