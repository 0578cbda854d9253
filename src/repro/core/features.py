"""Feature extraction for AutoPower's sub-models.

Three feature families, matching the paper's inputs:

* **hardware features** ``H`` — the component's Table III parameters,
* **event features** ``E`` — per-cycle rates of the component's events
  (plus global IPC), from the performance simulator,
* **program features** — microarchitecture-independent properties of the
  workload (instruction mix, footprints, entropy).  The paper adds these
  to the SRAM activity model to compensate for performance-simulator
  inaccuracy.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import component_by_name
from repro.arch.config import BoomConfig
from repro.arch.events import COMPONENT_EVENTS, EventBatch, EventParams
from repro.arch.workloads import Workload

__all__ = [
    "event_feature_names",
    "event_features",
    "event_features_batch",
    "features_by_config",
    "hardware_feature_names",
    "hardware_features",
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


def event_feature_names(
    component: str, include_raw: bool = True, normalized: bool = True
) -> tuple[str, ...]:
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
    if normalized:
        for n in event_names:
            for p in params:
                names.append(f"rate_{n}/{p}")
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
    return np.stack([program_features(w) for w in workloads])


def features_by_config(results, build) -> np.ndarray:
    """Feature rows of flow ``results``, in result order, built in batches.

    Results are grouped by configuration content (``params_key``).  Each
    group's rows come from one ``build(config, batch, workloads)`` call
    over its stacked :class:`EventBatch` and per-row workloads, and are
    scattered back to the results' positions.  The batched extractors
    equal the scalar ones bit for bit, so the rows do too.
    """
    groups: dict[tuple, list[int]] = {}
    for i, res in enumerate(results):
        groups.setdefault(res.config.params_key, []).append(i)
    x = None
    for rows in groups.values():
        block = build(
            results[rows[0]].config,
            EventBatch.from_events([results[i].events for i in rows]),
            [results[i].workload for i in rows],
        )
        if x is None:
            x = np.empty((len(results), block.shape[1]))
        x[rows] = block
    return x
