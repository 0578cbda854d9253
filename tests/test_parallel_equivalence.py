"""Parallel equivalence: parallel fits and flows match the serial reference.

The acceptance bar for the parallel subsystem: models fitted with
``n_jobs=2`` (sub-model fits on the thread pool) serialize byte-identically
to the serially fitted model, predict within 1e-9 of it (including after a
save/load round-trip through the JSON persistence layer), and parallel
``run_many`` (flows on the process pool) produces the same ground truth as
the serial loop — all on the paper's fig4 two-config setup.  Each fan-out
gets the pool its tasks need, and every pool a fit or sweep opens is
closed before it returns.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading

import numpy as np
import pytest

import repro.api as api
import repro.baselines.autopower_minus as autopower_minus_mod
import repro.core.autopower as autopower_mod
import repro.experiments.fig6_sweep as fig6_mod
import repro.parallel.executor as executor_mod
import repro.vlsi.flow as flow_mod
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.core.autopower import AutoPower
from repro.parallel import get_executor, set_default_jobs
from repro.vlsi.flow import VlsiFlow

METHODS = ("AutoPower", "AutoPowerMinus")


@pytest.fixture(autouse=True)
def _pools_on_every_host(monkeypatch):
    """``n_jobs=2`` opens real pools here even on a one-core host, where
    ``get_executor`` would otherwise run serially."""
    real = executor_mod.cpu_count()
    monkeypatch.setattr(executor_mod, "cpu_count", lambda: max(real, 2))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    set_default_jobs(None)


def _make(method: str, flow):
    return AutoPower(library=flow.library) if method == "AutoPower" else AutoPowerMinus()


@pytest.fixture(scope="module")
def train_results(flow, train_configs, workloads):
    """Serially generated flow results of the fig4 two-config split."""
    return flow.run_many(train_configs, workloads)


@pytest.fixture(scope="module")
def serial_models(flow, train_results) -> dict:
    return {m: _make(m, flow).fit_results(train_results) for m in METHODS}


@pytest.fixture(scope="module")
def serial_model(serial_models) -> AutoPower:
    return serial_models["AutoPower"]


def _predictions(model, flow, configs, workloads) -> np.ndarray:
    return np.array(
        [
            model.predict_total(c, flow.run(c, w).events, w)
            for c in configs
            for w in workloads
        ]
    )


@pytest.mark.parametrize("method", METHODS)
class TestFitEquivalence:
    def test_serialized_state_is_byte_identical(
        self, method, flow, train_results, serial_models, tmp_path
    ):
        parallel_model = _make(method, flow).fit_results(train_results, n_jobs=2)
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        api.save_model(serial_models[method], serial_path)
        api.save_model(parallel_model, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_predictions_match_serial_fit(
        self, method, flow, train_results, serial_models, test_configs, workloads
    ):
        parallel_model = _make(method, flow).fit_results(train_results, n_jobs=2)
        configs = test_configs[:3]
        expected = _predictions(serial_models[method], flow, configs, workloads)
        actual = _predictions(parallel_model, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)

    def test_save_load_round_trip_predicts_within_1e9(
        self, method, flow, train_results, serial_models, test_configs, workloads, tmp_path
    ):
        parallel_model = _make(method, flow).fit_results(train_results, n_jobs=2)
        path = tmp_path / "round_trip.json"
        api.save_model(parallel_model, path)
        loaded = api.load_model(path, library=flow.library)
        configs = test_configs[:2]
        expected = _predictions(serial_models[method], flow, configs, workloads)
        actual = _predictions(loaded, flow, configs, workloads)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


def test_fit_with_process_jobs_matches_serial_end_to_end(
    flow, train_configs, workloads, serial_model, test_configs
):
    """``fit(..., n_jobs=2)`` on the fig4 two-config setup — ground truth
    on the process pool, sub-model fits on the thread pool — predicts
    within 1e-9 of the serial fit."""
    model = AutoPower(library=flow.library).fit(
        VlsiFlow(library=flow.library, disk_cache=None), train_configs, workloads,
        n_jobs=2,
    )
    configs = test_configs[:3]
    expected = _predictions(serial_model, flow, configs, workloads)
    actual = _predictions(model, flow, configs, workloads)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-9)


def test_run_many_parallel_matches_serial(flow, train_configs, workloads):
    serial = flow.run_many(train_configs, workloads)
    fresh = VlsiFlow(library=flow.library, disk_cache=None)
    parallel = fresh.run_many(train_configs, workloads, n_jobs=2)
    assert [pickle.dumps(r) for r in parallel] == [pickle.dumps(r) for r in serial]
    # The parallel results landed in the flow's caches: a repeat run is
    # served without touching the executor.
    again = fresh.run_many(train_configs, workloads)
    assert [id(r) for r in again] == [id(r) for r in parallel]


def test_run_many_parallel_preserves_partial_cache(flow, train_configs, workloads):
    """Only the missing (config, workload) pairs are recomputed; cached
    runs survive as the same objects instead of being thrown away."""
    fresh = VlsiFlow(library=flow.library)
    warm = fresh.run(train_configs[0], workloads[0])
    out = fresh.run_many(train_configs, workloads, n_jobs=2)
    assert out[0] is warm
    reference = flow.run_many(train_configs, workloads)
    for a, b in zip(out, reference):
        assert a.power.total == b.power.total


def test_autopower_minus_parallel_fit_matches_serial(flow, train_results, workloads, test_configs):
    serial = AutoPowerMinus().fit_results(train_results)
    threaded = AutoPowerMinus().fit_results(train_results, n_jobs=2)
    config = test_configs[0]
    for w in workloads[:3]:
        events = flow.run(config, w).events
        assert threaded.predict_total(config, events, w) == pytest.approx(
            serial.predict_total(config, events, w), abs=1e-9
        )


# -- which fan-out gets which pool, and that every pool is closed ----------


@pytest.mark.parametrize(
    ("cls", "module"),
    [(AutoPower, autopower_mod), (AutoPowerMinus, autopower_minus_mod)],
    ids=METHODS,
)
def test_fit_runs_flows_on_processes_and_fits_on_threads(
    monkeypatch, flow, train_configs, workloads, cls, module
):
    kinds: list[str] = []

    def recording(n_jobs, kind):
        kinds.append(kind)
        return get_executor(n_jobs, kind)

    monkeypatch.setattr(flow_mod, "get_executor", recording)
    monkeypatch.setattr(module, "get_executor", recording)
    cls(n_jobs=2).fit(VlsiFlow(disk_cache=None), train_configs, workloads[:2])
    assert kinds == ["process", "thread"]


def _pool_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


@pytest.mark.parametrize("cls", [AutoPower, AutoPowerMinus], ids=METHODS)
def test_fit_closes_its_pools(train_configs, workloads, cls):
    children, threads = set(multiprocessing.active_children()), _pool_threads()
    cls(n_jobs=2).fit(VlsiFlow(disk_cache=None), train_configs, workloads[:2])
    assert set(multiprocessing.active_children()) <= children
    assert _pool_threads() <= threads


def test_fig6_sweep_closes_its_pools(flow):
    children, threads = set(multiprocessing.active_children()), _pool_threads()
    result = fig6_mod.run(
        flow=VlsiFlow(library=flow.library),
        budgets=(2, 3),
        methods=("McPAT-Calib",),
        n_jobs=2,
    )
    assert result.budgets == (2, 3)
    assert set(multiprocessing.active_children()) <= children
    assert _pool_threads() <= threads
