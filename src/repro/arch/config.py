"""The 15 BOOM CPU configurations from Table II of the paper."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.arch.params import (
    HARDWARE_PARAMETERS,
    RAW_PARAMETER_ROWS,
    expand_raw_parameters,
)

__all__ = ["BOOM_CONFIGS", "BoomConfig", "config_by_name", "config_matrix"]


@dataclass(frozen=True)
class BoomConfig:
    """One out-of-order RISC-V BOOM configuration.

    ``params`` maps every canonical hardware-parameter name (see
    :data:`repro.arch.params.HARDWARE_PARAMETERS`) to its value.
    """

    name: str
    params: dict[str, int] = field(hash=False)

    def __post_init__(self) -> None:
        missing = set(HARDWARE_PARAMETERS) - set(self.params)
        if missing:
            raise ValueError(f"{self.name}: missing parameters {sorted(missing)}")
        extra = set(self.params) - set(HARDWARE_PARAMETERS)
        if extra:
            raise ValueError(f"{self.name}: unknown parameters {sorted(extra)}")

    def __getitem__(self, key: str) -> int:
        return self.params[key]

    def subset(self, names: tuple[str, ...] | list[str]) -> dict[str, int]:
        """Parameter sub-dict for a component's Table III parameter list."""
        return {name: self.params[name] for name in names}

    def vector(self, names: tuple[str, ...] | list[str] | None = None) -> np.ndarray:
        """Parameter values as a float vector, in canonical order by default."""
        if names is None:
            names = HARDWARE_PARAMETERS
        return np.array([self.params[n] for n in names], dtype=float)

    @cached_property
    def params_key(self) -> tuple:
        """Hashable identity of the configuration's content: its parameter
        values in canonical order.  The name is a label, not identity; two
        configs with one name and different parameters key differently.
        Built once per instance (a configuration's parameters are never
        changed after construction)."""
        return tuple(self.params[n] for n in HARDWARE_PARAMETERS)

    @property
    def index(self) -> int:
        """1-based configuration index (C1 -> 1, ..., C15 -> 15)."""
        return int(self.name.lstrip("C"))


# Table II, transcribed column-wise: raw row -> 15 values (C1..C15).
_TABLE_II: dict[str, tuple[int, ...]] = {
    "FetchWidth": (4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    "DecodeWidth": (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5),
    "FetchBufferEntry": (5, 8, 16, 8, 16, 24, 18, 24, 30, 24, 32, 40, 30, 35, 40),
    "RobEntry": (16, 32, 48, 64, 64, 80, 81, 96, 114, 112, 128, 136, 125, 130, 140),
    "IntPhyRegister": (36, 53, 68, 64, 80, 88, 88, 110, 112, 108, 128, 136, 108, 128, 140),
    "FpPhyRegister": (36, 48, 56, 56, 64, 72, 88, 96, 112, 108, 128, 136, 108, 128, 140),
    "LDQ/STQEntry": (4, 8, 16, 12, 16, 20, 16, 24, 32, 24, 32, 36, 24, 32, 36),
    "BranchCount": (6, 8, 10, 10, 12, 14, 14, 16, 16, 18, 20, 20, 18, 20, 20),
    "Mem/FpIssueWidth": (1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 2),
    "IntIssueWidth": (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5),
    "DCache/ICacheWay": (2, 4, 8, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    "DTLBEntry": (8, 8, 16, 8, 8, 16, 16, 16, 32, 32, 32, 32, 32, 32, 32),
    "MSHREntry": (2, 2, 4, 2, 2, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8),
    "ICacheFetchBytes": (2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
}


def _build_configs() -> tuple[BoomConfig, ...]:
    n = len(next(iter(_TABLE_II.values())))
    for row, values in _TABLE_II.items():
        if len(values) != n:
            raise AssertionError(f"Table II row {row} has {len(values)} != {n} entries")
    if set(_TABLE_II) != set(RAW_PARAMETER_ROWS):
        raise AssertionError("Table II rows out of sync with RAW_PARAMETER_ROWS")
    configs = []
    for i in range(n):
        raw = {row: _TABLE_II[row][i] for row in _TABLE_II}
        configs.append(BoomConfig(name=f"C{i + 1}", params=expand_raw_parameters(raw)))
    return tuple(configs)


BOOM_CONFIGS: tuple[BoomConfig, ...] = _build_configs()

_BY_NAME = {cfg.name: cfg for cfg in BOOM_CONFIGS}


def config_by_name(name: str) -> BoomConfig:
    """Look up a configuration by its paper name (``"C1"`` .. ``"C15"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


def config_matrix(
    configs: tuple[BoomConfig, ...] | list[BoomConfig] | None = None,
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Stack configurations into a (n_configs, n_params) float matrix."""
    if configs is None:
        configs = BOOM_CONFIGS
    return np.stack([cfg.vector(names) for cfg in configs])
