"""gem5-like performance simulator: true events + systematic error.

The paper observes that "the inaccurate performance simulator is one of
the root causes of the low accuracy of the ML-based power model" and adds
microarchitecture-independent program features to compensate.  Our perf
simulator therefore does *not* report the true execution: every event is
distorted by

* a per-(workload, event) systematic bias — gem5 consistently over- or
  under-counts certain statistics on certain programs,
* a width-dependent bias on pipeline events — abstract CPU models drift
  more on wider out-of-order machines,
* small reproducible noise.

All distortions are seeded from stable string hashes, so a given
(config, workload) pair always yields the same event report.  The bias
and the width drift depend only on the workload, the DecodeWidth and the
simulator's magnitudes, so they are drawn once per such key and reused
(:func:`_systematic_bias`); only the noise is drawn on every call, seeded
per (config, workload, event).
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.arch.config import BoomConfig
from repro.arch.events import EVENT_NAMES, EventParams
from repro.arch.workloads import Workload
from repro.sim.uarch import TrueExecution, execute

__all__ = ["PerfSimulator", "stable_seed"]

# Events tied to out-of-order pipeline behaviour, which abstract simulators
# mis-model more as the machine gets wider.
_PIPELINE_EVENTS = frozenset(
    {
        "decode_uops",
        "rename_uops",
        "rob_allocations",
        "rob_flushes",
        "int_issues",
        "fp_issues",
        "mem_issues",
        "fetch_bubbles",
        "regfile_int_reads",
        "regfile_int_writes",
        "regfile_fp_reads",
        "regfile_fp_writes",
    }
)


def stable_seed(*parts: str) -> int:
    """Deterministic 32-bit seed from string parts (process-independent)."""
    return zlib.crc32("|".join(parts).encode())


@lru_cache(maxsize=256, typed=True)
def _systematic_bias(
    workload_name: str, decode_width: int, bias_magnitude: float, width_drift: float
) -> tuple[float, ...]:
    """Per-event systematic bias (plus width drift), in ``EVENT_NAMES`` order.

    A function of its arguments alone, so it is memoized at module level:
    the simulator's instance state, and with it the flow fingerprint,
    stays free of it.  ``typed`` keeps e.g. an ``np.int64`` DecodeWidth
    from sharing an entry with the equal ``int``: the drift's result type
    follows the argument types, and event counts are pickled bytewise.
    """
    biases = []
    for name in EVENT_NAMES:
        bias_rng = np.random.default_rng(stable_seed("gem5-bias", workload_name, name))
        bias = bias_rng.uniform(-bias_magnitude, bias_magnitude)
        if name in _PIPELINE_EVENTS:
            drift_rng = np.random.default_rng(
                stable_seed("gem5-drift", workload_name, name)
            )
            direction = 1.0 if drift_rng.random() < 0.5 else -1.0
            bias += direction * width_drift * max(decode_width - 3, 0)
        biases.append(bias)
    return tuple(biases)


class PerfSimulator:
    """Architecture-level performance simulator (the paper's gem5 stage).

    Parameters
    ----------
    bias_magnitude:
        Half-width of the uniform systematic per-(workload, event) bias.
        The default of 7 % matches the well-documented gem5-vs-RTL drift
        on BOOM-class cores.
    noise_magnitude:
        Standard deviation of the reproducible per-sample noise.
    width_drift:
        Extra relative bias on pipeline events per unit of DecodeWidth
        beyond 3.
    """

    def __init__(
        self,
        bias_magnitude: float = 0.07,
        noise_magnitude: float = 0.015,
        width_drift: float = 0.012,
    ) -> None:
        if bias_magnitude < 0 or noise_magnitude < 0 or width_drift < 0:
            raise ValueError("error magnitudes must be non-negative")
        self.bias_magnitude = bias_magnitude
        self.noise_magnitude = noise_magnitude
        self.width_drift = width_drift

    # ------------------------------------------------------------------
    def run(self, config: BoomConfig, workload: Workload) -> EventParams:
        """Simulate one workload and report (distorted) event parameters."""
        true = execute(config, workload)
        return self.distort(true, config)

    def distort(self, true: TrueExecution, config: BoomConfig) -> EventParams:
        """Apply the simulator's systematic error to a true execution."""
        counts: dict[str, float] = {}
        biases = _systematic_bias(
            true.workload_name,
            config["DecodeWidth"],
            self.bias_magnitude,
            self.width_drift,
        )
        for name, bias in zip(EVENT_NAMES, biases):
            value = true.events[name]
            noise_rng = np.random.default_rng(
                stable_seed("gem5-noise", true.config_name, true.workload_name, name)
            )
            noise = noise_rng.normal(0.0, self.noise_magnitude)
            counts[name] = max(value * (1.0 + bias + noise), 0.0)
        # Cycles must stay positive; re-clamp to at least 1.
        counts["cycles"] = max(counts["cycles"], 1.0)
        return EventParams(counts)
