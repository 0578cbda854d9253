"""Backend equivalence: parallel fits and flows match the serial reference.

The acceptance bar for the parallel subsystem: models fitted with
``n_jobs=2`` (thread and process backends) serialize byte-identically to
the serially fitted model, predict within 1e-9 of it (including after a
save/load round-trip through the JSON persistence layer), and parallel
``run_many`` produces the same ground truth as the serial loop — all on
the paper's fig4 two-config setup.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.core.autopower import AutoPower
from repro.vlsi.flow import VlsiFlow


@pytest.fixture(scope="module")
def train_results(flow, train_configs, workloads):
    """Serially generated flow results of the fig4 two-config split."""
    return flow.run_many(train_configs, workloads)


@pytest.fixture(scope="module")
def serial_model(flow, train_results) -> AutoPower:
    return AutoPower(library=flow.library).fit_results(train_results)


def _predictions(model: AutoPower, flow, configs, workloads) -> np.ndarray:
    return np.array(
        [
            model.predict_total(c, flow.run(c, w).events, w)
            for c in configs
            for w in workloads
        ]
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestFitEquivalence:
    def test_serialized_state_is_byte_identical(
        self, backend, flow, train_results, serial_model, tmp_path
    ):
        parallel_model = AutoPower(library=flow.library).fit_results(
            train_results, n_jobs=2, backend=backend
        )
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / f"{backend}.json"
        api.save_model(serial_model, serial_path)
        api.save_model(parallel_model, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_predictions_match_serial_fit(
        self, backend, flow, train_results, serial_model, test_configs, workloads
    ):
        parallel_model = AutoPower(library=flow.library).fit_results(
            train_results, n_jobs=2, backend=backend
        )
        configs = test_configs[:3]
        expected = _predictions(serial_model, flow, configs, workloads)
        actual = _predictions(parallel_model, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)

    def test_save_load_round_trip_predicts_within_1e9(
        self, backend, flow, train_results, serial_model, test_configs, workloads, tmp_path
    ):
        parallel_model = AutoPower(library=flow.library).fit_results(
            train_results, n_jobs=2, backend=backend
        )
        path = tmp_path / "round_trip.json"
        api.save_model(parallel_model, path)
        loaded = api.load_model(path, library=flow.library)
        configs = test_configs[:2]
        expected = _predictions(serial_model, flow, configs, workloads)
        actual = _predictions(loaded, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


def test_fit_with_process_jobs_matches_serial_end_to_end(
    flow, train_configs, workloads, serial_model, test_configs
):
    """The acceptance criterion verbatim: ``fit(..., n_jobs=2)`` (process
    backend) on the fig4 two-config setup predicts within 1e-9 of the
    serial fit — including the parallel ground-truth generation."""
    model = AutoPower(library=flow.library).fit(
        VlsiFlow(library=flow.library), train_configs, workloads,
        n_jobs=2, backend="process",
    )
    configs = test_configs[:3]
    expected = _predictions(serial_model, flow, configs, workloads)
    actual = _predictions(model, flow, configs, workloads)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_many_parallel_matches_serial(
    flow, train_configs, workloads, backend
):
    serial = flow.run_many(train_configs, workloads)
    fresh = VlsiFlow(library=flow.library)
    parallel = fresh.run_many(train_configs, workloads, n_jobs=2, backend=backend)
    assert len(parallel) == len(serial)
    for a, b in zip(parallel, serial):
        assert a.config.name == b.config.name
        assert a.workload.name == b.workload.name
        assert a.power.total == b.power.total
        assert a.events.counts == b.events.counts
        assert a.netlist.component("ROB").registers == (
            b.netlist.component("ROB").registers
        )
    # The parallel results landed in the flow's caches: a repeat run is
    # served without touching the executor.
    again = fresh.run_many(train_configs, workloads)
    assert [id(r) for r in again] == [id(r) for r in parallel]


def test_run_many_parallel_preserves_partial_cache(flow, train_configs, workloads):
    """Only the missing (config, workload) pairs are recomputed; cached
    runs survive as the same objects instead of being thrown away."""
    fresh = VlsiFlow(library=flow.library)
    warm = fresh.run(train_configs[0], workloads[0])
    out = fresh.run_many(train_configs, workloads, n_jobs=2, backend="thread")
    assert out[0] is warm
    reference = flow.run_many(train_configs, workloads)
    for a, b in zip(out, reference):
        assert a.power.total == b.power.total


def test_autopower_minus_parallel_fit_matches_serial(flow, train_results, workloads, test_configs):
    serial = AutoPowerMinus().fit_results(train_results)
    threaded = AutoPowerMinus().fit_results(train_results, n_jobs=2, backend="thread")
    config = test_configs[0]
    for w in workloads[:3]:
        events = flow.run(config, w).events
        assert threaded.predict_total(config, events, w) == pytest.approx(
            serial.predict_total(config, events, w), abs=1e-9
        )
