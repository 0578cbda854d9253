"""Unit tests for repro.sim.perf (gem5-like simulator with error)."""

import numpy as np
import pytest

from repro.arch.config import BOOM_CONFIGS, BoomConfig, config_by_name
from repro.arch.events import EVENT_NAMES
from repro.arch.workloads import WORKLOADS, workload_by_name
from repro.sim.perf import _PIPELINE_EVENTS, PerfSimulator, stable_seed
from repro.sim.uarch import execute


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", "b") == stable_seed("a", "b")

    def test_part_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")
        assert stable_seed("ab") != stable_seed("a", "b")


class TestPerfSimulator:
    def test_reports_all_events(self):
        sim = PerfSimulator()
        ev = sim.run(config_by_name("C8"), workload_by_name("qsort"))
        assert set(ev.counts) == set(EVENT_NAMES)

    def test_deterministic(self):
        sim = PerfSimulator()
        c, w = config_by_name("C8"), workload_by_name("qsort")
        a = sim.run(c, w)
        b = sim.run(c, w)
        assert a.counts == b.counts

    def test_distortion_is_bounded(self):
        sim = PerfSimulator(bias_magnitude=0.07, noise_magnitude=0.015, width_drift=0.012)
        c, w = config_by_name("C8"), workload_by_name("qsort")
        true = execute(c, w)
        ev = sim.run(c, w)
        for name in EVENT_NAMES:
            if true.events[name] <= 0:
                continue
            rel = abs(ev.counts[name] - true.events[name]) / true.events[name]
            assert rel < 0.25, name

    def test_distortion_is_nonzero(self):
        sim = PerfSimulator()
        c, w = config_by_name("C8"), workload_by_name("qsort")
        true = execute(c, w)
        ev = sim.run(c, w)
        diffs = [
            abs(ev.counts[n] - true.events[n]) / max(true.events[n], 1e-9)
            for n in EVENT_NAMES
        ]
        assert np.mean(diffs) > 0.01

    def test_zero_error_simulator_is_exact(self):
        sim = PerfSimulator(bias_magnitude=0.0, noise_magnitude=0.0, width_drift=0.0)
        c, w = config_by_name("C8"), workload_by_name("qsort")
        true = execute(c, w)
        ev = sim.run(c, w)
        for name in EVENT_NAMES:
            assert ev.counts[name] == pytest.approx(true.events[name])

    def test_bias_is_systematic_across_configs(self):
        # Same (workload, event) -> same bias direction on any config.
        sim = PerfSimulator(noise_magnitude=0.0)
        w = workload_by_name("qsort")
        name = "dcache_misses"
        signs = []
        for cname in ("C2", "C5", "C9"):
            c = config_by_name(cname)
            true = execute(c, w)
            ev = sim.run(c, w)
            signs.append(np.sign(ev.counts[name] - true.events[name]))
        assert len(set(signs)) == 1

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            PerfSimulator(bias_magnitude=-0.1)


def reference_distort(sim, true, config):
    """The per-event RNG loop ``distort`` memoizes, kept as its reference:
    bias, drift and noise drawn from fresh seeded RNGs for every event."""
    counts = {}
    dw = config["DecodeWidth"]
    for name in EVENT_NAMES:
        value = true.events[name]
        bias_rng = np.random.default_rng(
            stable_seed("gem5-bias", true.workload_name, name)
        )
        bias = bias_rng.uniform(-sim.bias_magnitude, sim.bias_magnitude)
        if name in _PIPELINE_EVENTS:
            drift_rng = np.random.default_rng(
                stable_seed("gem5-drift", true.workload_name, name)
            )
            direction = 1.0 if drift_rng.random() < 0.5 else -1.0
            bias += direction * sim.width_drift * max(dw - 3, 0)
        noise_rng = np.random.default_rng(
            stable_seed("gem5-noise", true.config_name, true.workload_name, name)
        )
        noise = noise_rng.normal(0.0, sim.noise_magnitude)
        counts[name] = max(value * (1.0 + bias + noise), 0.0)
    counts["cycles"] = max(counts["cycles"], 1.0)
    return counts


class TestDistortMatchesReference:
    """``distort`` reads bias and drift from a memo; every count must
    still equal the per-event reference loop exactly."""

    DEFAULT = PerfSimulator()
    OTHER = PerfSimulator(bias_magnitude=0.03, width_drift=0.02)
    EXACT = PerfSimulator(bias_magnitude=0.0, noise_magnitude=0.0, width_drift=0.0)

    @staticmethod
    def _assert_bitwise(sim, config, workload):
        true = execute(config, workload)
        got = sim.distort(true, config).counts
        want = reference_distort(sim, true, config)
        assert list(got) == list(want)
        for name in EVENT_NAMES:
            assert got[name] == want[name], (config.name, workload.name, name)
            assert type(got[name]) is type(want[name])

    @pytest.mark.parametrize("config", BOOM_CONFIGS, ids=lambda c: c.name)
    def test_table_ii_configs_all_workloads(self, config):
        for workload in WORKLOADS:
            self._assert_bitwise(self.DEFAULT, config, workload)

    @pytest.mark.parametrize("sim", [OTHER, EXACT], ids=["other", "exact"])
    def test_non_default_magnitudes(self, sim):
        for config in BOOM_CONFIGS:
            self._assert_bitwise(sim, config, workload_by_name("qsort"))

    def test_alternating_simulators_do_not_share_a_memo_entry(self):
        # Interleave magnitudes on the same (workload, DecodeWidth), so a
        # memo key that drops a magnitude returns the other's biases.
        workload = workload_by_name("median")
        for config in (config_by_name("C13"), config_by_name("C2")):
            for sim in (self.DEFAULT, self.OTHER, self.DEFAULT, self.EXACT, self.OTHER):
                self._assert_bitwise(sim, config, workload)

    def test_numpy_decode_width_keeps_its_result_type(self):
        # The drift's result type follows DecodeWidth's type; a memo entry
        # shared between an int and an equal np.int64 would change bytes.
        base = config_by_name("C13")
        workload = workload_by_name("towers")
        for value in (base["DecodeWidth"], np.int64(base["DecodeWidth"])):
            config = BoomConfig(base.name, {**base.params, "DecodeWidth": value})
            self._assert_bitwise(self.DEFAULT, config, workload)
