"""Feature extraction for every learned power model.

Three feature families, matching the paper's inputs:

* **hardware features** ``H`` — the component's Table III parameters,
* **event features** ``E`` — per-cycle rates of the component's events
  (plus global IPC), from the performance simulator,
* **program features** — microarchitecture-independent properties of the
  workload (instruction mix, footprints, entropy).  The paper adds these
  to the SRAM activity model to compensate for performance-simulator
  inaccuracy.

A :class:`FeatureLayout` lays the inputs of many sub-models side by side
in one wide matrix, one block each, and fills it with one gather.  Every
learned method builds its fit and predict matrices through one, so the
two see the same columns; the scalar extractors here are the references
the gather equals bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.arch.components import component_by_name
from repro.arch.config import BoomConfig
from repro.arch.events import COMPONENT_EVENTS, EVENT_NAMES, EventBatch, EventParams
from repro.arch.workloads import Workload

__all__ = [
    "FeatureBlock",
    "FeatureLayout",
    "activity_block",
    "event_feature_names",
    "event_features",
    "event_features_batch",
    "features_by_config",
    "group_by_config",
    "hardware_feature_names",
    "hardware_features",
    "normalized_block",
    "program_feature_names",
    "program_features",
    "program_features_matrix",
]

_PROGRAM_FEATURE_NAMES: tuple[str, ...] = (
    "prog_instructions",
    "prog_branches",
    "prog_loads",
    "prog_stores",
    "prog_fp_ops",
    "prog_mul_ops",
    "prog_branch_entropy",
    "prog_locality",
    "prog_icache_footprint",
    "prog_dcache_footprint",
    "prog_ilp",
)


def hardware_feature_names(component: str) -> tuple[str, ...]:
    """Names of the H features of one component (Table III order)."""
    return component_by_name(component).hardware_parameters


def hardware_features(config: BoomConfig, component: str) -> np.ndarray:
    """H feature vector of one component for one configuration."""
    return config.vector(hardware_feature_names(component))


def polynomial_hardware_feature_names(component: str) -> tuple[str, ...]:
    """Names for :func:`polynomial_hardware_features`."""
    params = hardware_feature_names(component)
    names = list(params)
    for i in range(len(params)):
        for j in range(i, len(params)):
            names.append(f"{params[i]}*{params[j]}")
    return tuple(names)


def polynomial_hardware_features(config: BoomConfig, component: str) -> np.ndarray:
    """H features expanded with degree-2 products (for the linear models).

    Real structures routinely scale with *products* of parameters (ports x
    entries, width x depth); a generic quadratic expansion lets the ridge
    sub-models represent them without any design-specific knowledge.
    """
    base = hardware_features(config, component)
    products = [
        base[i] * base[j]
        for i in range(base.size)
        for j in range(i, base.size)
    ]
    return np.concatenate([base, products])


def event_feature_names(component: str, include_raw: bool = True) -> tuple[str, ...]:
    """Names of the E features of one component.

    Raw per-cycle rates, the same rates normalized by each of the
    component's hardware parameters (utilization-style features — events
    per hardware lane/entry, which generalize across machine widths), and
    global IPC.
    """
    event_names = COMPONENT_EVENTS[component]
    params = hardware_feature_names(component)
    names: list[str] = []
    if include_raw:
        names.extend(f"rate_{n}" for n in event_names)
    names.extend(f"rate_{n}/{p}" for n in event_names for p in params)
    names.append("ipc")
    return tuple(names)


def event_features(
    events: EventParams,
    component: str,
    config: BoomConfig | None = None,
    include_raw: bool = True,
) -> np.ndarray:
    """E feature vector: raw rates, per-parameter-normalized rates, IPC.

    When ``config`` is omitted only the raw rates and IPC are emitted
    (no parameter values to normalize by).  ``include_raw=False`` keeps
    only the scale-free normalized rates — the right diet for sub-models
    whose targets are rates rather than absolute power.
    """
    rates = events.rates_for_component(component)
    event_names = COMPONENT_EVENTS[component]
    if config is None and not include_raw:
        raise ValueError("normalized-only features require a config")
    values: list[float] = []
    if include_raw or config is None:
        values.extend(rates[n] for n in event_names)
    if config is not None:
        params = hardware_feature_names(component)
        for n in event_names:
            for p in params:
                values.append(rates[n] / max(float(config[p]), 1.0))
    values.append(events.ipc)
    return np.array(values, dtype=float)


def event_features_batch(
    events: EventBatch,
    component: str,
    config: BoomConfig | None = None,
    include_raw: bool = True,
) -> np.ndarray:
    """Batched :func:`event_features`: one row per interval.

    Column order (and the per-element arithmetic) matches the scalar
    extractor exactly, so batch predictions reproduce per-interval
    predictions bit for bit.
    """
    rates = events.rates_for_component(component)
    event_names = COMPONENT_EVENTS[component]
    if config is None and not include_raw:
        raise ValueError("normalized-only features require a config")
    columns: list[np.ndarray] = []
    if include_raw or config is None:
        columns.extend(rates[n] for n in event_names)
    if config is not None:
        params = hardware_feature_names(component)
        for n in event_names:
            for p in params:
                columns.append(rates[n] / max(float(config[p]), 1.0))
    columns.append(events.ipc)
    return np.column_stack(columns)


# One workload's program features, in _PROGRAM_FEATURE_NAMES order.
_program_row = operator.itemgetter(*_PROGRAM_FEATURE_NAMES)


def program_feature_names() -> tuple[str, ...]:
    return _PROGRAM_FEATURE_NAMES


def program_features(workload: Workload) -> np.ndarray:
    """Program-level feature vector (immune to perf-simulator error)."""
    feats = workload.program_features()
    return np.array([feats[n] for n in _PROGRAM_FEATURE_NAMES], dtype=float)


def program_features_matrix(workload, n_rows: int) -> np.ndarray:
    """Program features for a batch: one workload (tiled) or one per row."""
    if isinstance(workload, Workload):
        return np.tile(program_features(workload), (n_rows, 1))
    workloads = list(workload)
    if len(workloads) != n_rows:
        raise ValueError(
            f"got {len(workloads)} workloads for a batch of {n_rows} intervals"
        )
    return np.array(
        [_program_row(w.program_features()) for w in workloads], dtype=float
    ).reshape(n_rows, len(_PROGRAM_FEATURE_NAMES))


_INSTRUCTIONS = EVENT_NAMES.index("instructions")


@dataclass(frozen=True)
class FeatureBlock:
    """One sub-model's inputs, in column order: the hardware ``params``,
    the raw per-cycle rates of ``events``, those rates divided by each of
    ``params`` (floored at 1), IPC, the program features, then ``extra``
    columns the caller fills (the McPAT-Calib baselines' McPAT estimates)."""

    params: tuple[str, ...]
    events: tuple[str, ...]
    raw: bool = False
    normalized: bool = False
    program: bool = False
    extra: int = 0


def normalized_block(component: str) -> FeatureBlock:
    """H and normalized E: the clock active-rate, register-activity and
    comb-variation GBMs' inputs (``ClockPowerModel._alpha_features``)."""
    return FeatureBlock(
        hardware_feature_names(component), COMPONENT_EVENTS[component], normalized=True
    )


def activity_block(component: str, program: bool) -> FeatureBlock:
    """H, raw and normalized E [and program features]: what the SRAM
    positions inherit (``SramPowerModel._activity_features``)."""
    return FeatureBlock(
        hardware_feature_names(component), COMPONENT_EVENTS[component],
        raw=True, normalized=True, program=program,
    )


class FeatureLayout:
    """Blocks side by side in one wide matrix; ``spans[k]`` is the
    ``(base, width)`` of ``blocks[k]``.

    :meth:`hardware` is the configuration-only part (memoizable per
    configuration); :meth:`features` gathers the rest per interval.
    """

    def __init__(self, blocks) -> None:
        self.blocks = tuple(blocks)
        # Every parameter read, then a 1.0 slot: the raw rates' divisor.
        self.params = tuple(sorted({p for b in self.blocks for p in b.params}))
        slot = {p: i for i, p in enumerate(self.params)}
        one = len(self.params)
        hw: list[tuple[int, int]] = []  # (column, parameter slot)
        ev: list[tuple[int, int, int]] = []  # (column, event, divisor slot)
        prog: list[int] = []
        extra: list[int] = []
        spans = []
        width = 0
        for block in self.blocks:
            base = width
            params = [slot[p] for p in block.params]
            events = [EVENT_NAMES.index(e) for e in block.events]
            hw += [(width + k, s) for k, s in enumerate(params)]
            width += len(params)
            sources = [(e, one) for e in events] if block.raw else []
            if block.normalized:
                sources += [(e, s) for e in events for s in params]
            sources.append((_INSTRUCTIONS, one))  # ipc
            ev += [(width + k, e, s) for k, (e, s) in enumerate(sources)]
            width += len(sources)
            n_prog = len(_PROGRAM_FEATURE_NAMES) if block.program else 0
            prog += range(width, width + n_prog)
            extra += range(width + n_prog, width + n_prog + block.extra)
            width += n_prog + block.extra
            spans.append((base, width - base))
        self.spans = tuple(spans)
        self.width = width
        self._hw_cols, self._hw_slot = np.array(hw, dtype=np.intp).reshape(-1, 2).T
        self._ev_cols, self._ev_src, self._ev_slot = (
            np.array(ev, dtype=np.intp).reshape(-1, 3).T
        )
        self._prog_cols = np.array(prog, dtype=np.intp)
        # Each program block repeats the same features: their gather.
        self._prog_src = np.arange(len(prog), dtype=np.intp) % len(_PROGRAM_FEATURE_NAMES)
        self._extra_cols = np.array(extra, dtype=np.intp)

    def hardware(self, config: BoomConfig) -> tuple[np.ndarray, np.ndarray]:
        """The hardware columns' values and the event columns' divisors."""
        values = np.append(config.vector(self.params), 1.0)
        return values[self._hw_slot], np.maximum(values[self._ev_slot], 1.0)

    def features(self, hardware, events: EventBatch, workload=None, extra=None) -> np.ndarray:
        """One configuration's matrix, one row per interval: ``hardware``
        is its :meth:`hardware`, ``workload`` one or one per interval, and
        ``extra`` the ``(n, n_extra)`` caller-filled columns."""
        values, divisors = hardware
        n = len(events)
        x = np.empty((n, self.width))
        x[:, self._hw_cols] = values
        rates = events.matrix / events.cycles[:, None]
        x[:, self._ev_cols] = rates[:, self._ev_src] / divisors
        if self._prog_cols.size:
            prog = program_features_matrix(workload, n)
            x[:, self._prog_cols] = prog[:, self._prog_src]
        if self._extra_cols.size:
            if extra is None:
                raise ValueError("this layout needs its extra columns")
            x[:, self._extra_cols] = extra
        return x

    def config_features(self, config, events: EventBatch, workload=None, extra=None):
        """:meth:`features` of ``config``, unmemoized; ``extra(config,
        events)`` returns the caller-filled columns."""
        cols = None if extra is None else extra(config, events)
        return self.features(self.hardware(config), events, workload, cols)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Each block's column slice of a matrix in this layout."""
        return [x[:, lo : lo + width] for lo, width in self.spans]


def group_by_config(results) -> list[list[int]]:
    """Indices of flow ``results`` per configuration, in first-seen order.

    A configuration is its name *and* its parameters (``params_key``), the
    identity the flow caches by: two configs sharing a name but not their
    parameters are two groups.
    """
    groups: dict[tuple, list[int]] = {}
    for i, res in enumerate(results):
        groups.setdefault((res.config.name, res.config.params_key), []).append(i)
    return list(groups.values())


def features_by_config(results, layout: FeatureLayout, extra=None) -> np.ndarray:
    """The ``layout`` matrix of flow ``results``, one row per result.

    Each :func:`group_by_config` group is one gather, scattered back in
    result order.  ``extra(config, batch)`` fills the layout's
    caller-filled columns.
    """
    x = np.empty((len(results), layout.width))
    for rows in group_by_config(results):
        batch = EventBatch.from_events([results[i].events for i in rows])
        workloads = [results[i].workload for i in rows]
        x[rows] = layout.config_features(results[rows[0]].config, batch, workloads, extra)
    return x
