"""Microbenchmarks for the vectorized tree engine (fit + batch predict).

These run on synthetic data only — no VLSI flow — so a tree-engine
regression is caught in seconds without regenerating the figure
benchmarks.  All cases carry the ``perf_smoke`` marker:

    PYTHONPATH=src python -m pytest benchmarks -m perf_smoke

Two regimes are covered: the few-shot regime AutoPower actually fits in
(a dozen samples, ~150 boosting rounds — dominated by numpy dispatch, the
reason for the per-fit sort/size caches), and a larger regime where the
exact split search and the fused-ensemble batch inference matter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.gbm import GradientBoostingRegressor
from repro.parallel import SerialExecutor, get_executor


def _fewshot_data(seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, size=(12, 30))
    y = 50.0 + 8.0 * X[:, 0] - 3.0 * X[:, 1] + rng.normal(scale=0.5, size=12)
    return X, y


def _bulk_data(seed: int = 1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(2000, 16))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2] + rng.normal(size=2000)
    return X, y


@pytest.fixture(scope="module")
def bulk_model():
    X, y = _bulk_data()
    return GradientBoostingRegressor(
        n_estimators=100, learning_rate=0.1, max_depth=4
    ).fit(X, y), X, y


@pytest.mark.perf_smoke
def test_fewshot_fit_exact(benchmark):
    """AutoPower's regime: 12 samples x 150 rounds, exact split search."""
    X, y = _fewshot_data()

    def fit():
        return GradientBoostingRegressor(
            n_estimators=150, learning_rate=0.08, max_depth=3
        ).fit(X, y)

    model = benchmark(fit)
    assert model._flat_ensemble().roots.size == 150
    assert np.mean((model.predict(X) - y) ** 2) <= np.var(y)


@pytest.mark.perf_smoke
def test_bulk_fit_exact(benchmark):
    """Exact split search on a larger matrix."""
    X, y = _bulk_data()

    def fit():
        return GradientBoostingRegressor(
            n_estimators=40, learning_rate=0.1, max_depth=4
        ).fit(X, y)

    model = benchmark(fit)
    assert model._flat_ensemble().roots.size == 40


# -- fit scaling: the AutoPower fan-out through the executor ----------------
#
# AutoPower.fit decomposes into ~90 independent few-shot GBM fits; this
# models that fan-out on synthetic payloads so the serial/parallel ratio is
# *measured* per run rather than assumed.  Run serially and with
# ``--jobs 2`` (CI does both); on a single-core runner the parallel case
# measures the dispatch overhead rather than a speedup, which is exactly
# the number the perf log needs for the fallback-to-serial rule.


def _fanout_payloads(n_tasks: int = 12):
    payloads = []
    for seed in range(n_tasks):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 4.0, size=(12, 30))
        y = 50.0 + 8.0 * X[:, 0] - 3.0 * X[:, 1] + rng.normal(scale=0.5, size=12)
        payloads.append({"x": X, "y": y})
    return payloads


def _fit_fanout_task(payload: dict) -> GradientBoostingRegressor:
    return GradientBoostingRegressor(
        n_estimators=60,
        learning_rate=0.08,
        max_depth=3,
    ).fit(payload["x"], payload["y"])


@pytest.mark.perf_smoke
def test_fit_scaling_serial(benchmark):
    """Reference: the sub-model fan-out through the serial executor."""
    payloads = _fanout_payloads()
    executor = SerialExecutor()

    models = benchmark(executor.map, _fit_fanout_task, payloads)
    assert len(models) == len(payloads)
    assert all(m._flat_ensemble().roots.size == 60 for m in models)


@pytest.mark.perf_smoke
def test_fit_scaling_jobs(benchmark, bench_jobs):
    """The same fan-out at ``--jobs N`` on the fits' thread pool (serial
    at one worker or one core).

    Fitted models must be numerically identical to the serial reference —
    the executor contract the equivalence suite checks on the real model.
    """
    payloads = _fanout_payloads()
    executor = get_executor(bench_jobs, "thread")
    reference = SerialExecutor().map(_fit_fanout_task, payloads)

    models = benchmark(executor.map, _fit_fanout_task, payloads)
    assert len(models) == len(reference)
    probe = np.asarray(payloads[0]["x"])
    for model, ref in zip(models, reference):
        np.testing.assert_array_equal(model.predict(probe), ref.predict(probe))


@pytest.mark.perf_smoke
def test_batch_predict(benchmark, bulk_model):
    """Fused-ensemble inference: all rows x all trees, no per-row Python."""
    model, X, _y = bulk_model
    rng = np.random.default_rng(2)
    X_test = rng.uniform(0.0, 1.0, size=(20000, X.shape[1]))
    model.predict(X_test)  # build the fused ensemble outside the timing loop

    pred = benchmark(model.predict, X_test)
    assert pred.shape == (20000,)
    assert np.isfinite(pred).all()
