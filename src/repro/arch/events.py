"""Event parameters — the performance-simulator outputs AutoPower consumes.

The paper defines event parameters ``E`` as "information collected from
architecture-level performance simulators ... for example, the number of
cache misses and branch mispredictions".  This module fixes the canonical
event vocabulary, the mapping from components to the events that are
relevant to them, and a container type with validation.

All events are *counts over the simulated interval* (a whole workload, or
one 50-cycle window for trace prediction), except ``cycles`` which defines
the interval length.  Rate features (events per cycle) are derived by the
feature extractors, not stored here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["COMPONENT_EVENTS", "EVENT_NAMES", "EventBatch", "EventParams"]

EVENT_NAMES: tuple[str, ...] = (
    "cycles",
    "instructions",
    "fetch_packets",
    "fetch_bubbles",
    "decode_uops",
    "rename_uops",
    "branch_lookups",
    "branch_mispredicts",
    "btb_hits",
    "icache_accesses",
    "icache_misses",
    "dcache_accesses",
    "dcache_misses",
    "dcache_writebacks",
    "mshr_allocations",
    "itlb_accesses",
    "itlb_misses",
    "dtlb_accesses",
    "dtlb_misses",
    "rob_allocations",
    "rob_commits",
    "rob_flushes",
    "int_issues",
    "fp_issues",
    "mem_issues",
    "regfile_int_reads",
    "regfile_int_writes",
    "regfile_fp_reads",
    "regfile_fp_writes",
    "ldq_allocations",
    "stq_allocations",
    "fu_int_ops",
    "fu_mul_ops",
    "fu_fp_ops",
    "fu_mem_ops",
)

# Which events feed each component's models (AutoPower trains per component
# and only sees the events of that component — mirroring how McPAT-Calib's
# per-component variant partitions gem5 statistics).
COMPONENT_EVENTS: dict[str, tuple[str, ...]] = {
    "BPTAGE": ("branch_lookups", "branch_mispredicts"),
    "BPBTB": ("branch_lookups", "btb_hits", "branch_mispredicts"),
    "BPOthers": ("branch_lookups", "branch_mispredicts", "fetch_packets"),
    "ICacheTagArray": ("icache_accesses", "icache_misses"),
    "ICacheDataArray": ("icache_accesses", "icache_misses"),
    "ICacheOthers": ("icache_accesses", "icache_misses", "fetch_packets"),
    "RNU": ("rename_uops", "decode_uops", "rob_flushes"),
    "ROB": ("rob_allocations", "rob_commits", "rob_flushes"),
    "Regfile": (
        "regfile_int_reads",
        "regfile_int_writes",
        "regfile_fp_reads",
        "regfile_fp_writes",
    ),
    "DCacheTagArray": ("dcache_accesses", "dcache_misses"),
    "DCacheDataArray": ("dcache_accesses", "dcache_misses", "dcache_writebacks"),
    "DCacheOthers": ("dcache_accesses", "dcache_misses", "mshr_allocations"),
    "FP-ISU": ("fp_issues", "decode_uops"),
    "Int-ISU": ("int_issues", "decode_uops"),
    "Mem-ISU": ("mem_issues", "decode_uops"),
    "I-TLB": ("itlb_accesses", "itlb_misses"),
    "D-TLB": ("dtlb_accesses", "dtlb_misses"),
    "FU Pool": ("fu_int_ops", "fu_mul_ops", "fu_fp_ops", "fu_mem_ops"),
    "Other Logic": ("instructions", "decode_uops", "rob_commits"),
    "DCacheMSHR": ("mshr_allocations", "dcache_misses"),
    "LSU": ("ldq_allocations", "stq_allocations", "mem_issues", "dcache_accesses"),
    "IFU": ("fetch_packets", "fetch_bubbles", "decode_uops", "icache_accesses"),
}


@dataclass
class EventParams:
    """Event counts for one (configuration, workload) simulation interval."""

    counts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.counts) - set(EVENT_NAMES)
        if unknown:
            raise ValueError(f"unknown event names: {sorted(unknown)}")
        missing = set(EVENT_NAMES) - set(self.counts)
        if missing:
            raise ValueError(f"missing event names: {sorted(missing)}")
        for name, value in self.counts.items():
            if value < 0:
                raise ValueError(f"event {name} is negative: {value}")
        if self.counts["cycles"] <= 0:
            raise ValueError("cycles must be positive")

    def __getitem__(self, name: str) -> float:
        return self.counts[name]

    @property
    def cycles(self) -> float:
        return self.counts["cycles"]

    @property
    def ipc(self) -> float:
        return self.counts["instructions"] / self.counts["cycles"]

    def rate(self, name: str) -> float:
        """Events per cycle for the given event."""
        return self.counts[name] / self.counts["cycles"]

    def for_component(self, component_name: str) -> dict[str, float]:
        """The event sub-dict relevant to one component (raw counts)."""
        try:
            names = COMPONENT_EVENTS[component_name]
        except KeyError:
            raise KeyError(f"no event mapping for component {component_name!r}") from None
        return {name: self.counts[name] for name in names}

    def rates_for_component(self, component_name: str) -> dict[str, float]:
        """Per-cycle event rates relevant to one component."""
        return {
            name: value / self.cycles
            for name, value in self.for_component(component_name).items()
        }

    def scaled(self, factor: float) -> EventParams:
        """A copy with every count (including cycles) multiplied by factor."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return EventParams({k: v * factor for k, v in self.counts.items()})


_EVENT_INDEX: dict[str, int] = {name: i for i, name in enumerate(EVENT_NAMES)}
# One interval's counts, in EVENT_NAMES order, from its counts dict.
_event_row = operator.itemgetter(*EVENT_NAMES)


class EventBatch:
    """Stacked event counts for many simulation intervals.

    The matrix has one row per interval and one column per event in
    ``EVENT_NAMES`` order.  Batched feature extraction and the batch
    prediction APIs consume this instead of a list of
    :class:`EventParams`, so a trace sweep touches no per-window dicts.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape[1] != len(EVENT_NAMES):
            raise ValueError(
                f"event matrix has {matrix.shape[1]} columns, "
                f"expected {len(EVENT_NAMES)}"
            )
        if matrix.shape[0] == 0:
            raise ValueError("event matrix must have at least one row")
        if np.any(matrix < 0):
            raise ValueError("event counts must be non-negative")
        if np.any(matrix[:, _EVENT_INDEX["cycles"]] <= 0):
            raise ValueError("cycles must be positive")
        self.matrix = matrix

    @classmethod
    def from_events(cls, events) -> EventBatch:
        """Stack a sequence of :class:`EventParams` (or pass one through)."""
        if isinstance(events, EventBatch):
            return events
        if isinstance(events, EventParams):
            events = [events]
        events = list(events)
        matrix = np.array([_event_row(e.counts) for e in events], dtype=float)
        if not events or not all(isinstance(e, EventParams) for e in events):
            return cls(matrix)
        # Every row is an EventParams, validated on construction by the
        # same rules, so the stacked matrix skips the second check.
        batch = cls.__new__(cls)
        batch.matrix = matrix
        return batch

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, i: int) -> EventParams:
        row = self.matrix[i]
        return EventParams({name: float(row[j]) for name, j in _EVENT_INDEX.items()})

    def column(self, name: str) -> np.ndarray:
        """The per-interval counts of one event."""
        try:
            return self.matrix[:, _EVENT_INDEX[name]]
        except KeyError:
            raise KeyError(f"unknown event name {name!r}") from None

    @property
    def cycles(self) -> np.ndarray:
        return self.matrix[:, _EVENT_INDEX["cycles"]]

    @property
    def ipc(self) -> np.ndarray:
        return self.matrix[:, _EVENT_INDEX["instructions"]] / self.cycles

    def rate(self, name: str) -> np.ndarray:
        """Events per cycle for the given event, per interval."""
        return self.column(name) / self.cycles

    def rates_for_component(self, component_name: str) -> dict[str, np.ndarray]:
        """Per-cycle event rate vectors relevant to one component."""
        try:
            names = COMPONENT_EVENTS[component_name]
        except KeyError:
            raise KeyError(
                f"no event mapping for component {component_name!r}"
            ) from None
        cycles = self.cycles
        return {name: self.column(name) / cycles for name in names}
