"""Equivalence suite for the tree engine.

The scalar per-node reference of ``tests/gbm_reference.py`` (plain
Python, one node at a time) and a per-row tree walk serve as the
reference; the compiled fit and the batched predictors must reproduce
them:

* the identical one-round GBM (feature, threshold, links, leaf values,
  sample counts — byte for byte) and per-row predictions on randomized
  datasets,
* the fused ensemble — lossless round-trip through
  :mod:`repro.ml.serialize`, including the legacy nested format,
* the batched prediction path — bitwise-equal to scalar prediction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.events import EVENT_NAMES, EventBatch
from repro.core.autopower import events_at_scale
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

from gbm_reference import assert_same_fit, fit_both


def _one_round(X, y, **kw):
    """A GBM whose prediction is the target mean plus one tree, fitted
    by the kernel and by the reference."""
    return fit_both(X, y, n_estimators=1, learning_rate=1.0, **kw)


def _walk(ens, row, i=0):
    """The leaf value ``row`` reaches from node ``i``, one step at a time."""
    while ens.left[i] != i:
        i = ens.left[i] if row[ens.feature[i]] <= ens.threshold[i] else ens.right[i]
    return ens.value[i]


def _datasets():
    cases = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        f = int(rng.integers(1, 12))
        X = rng.normal(size=(n, f))
        y = rng.normal(size=n) + 3.0 * np.sin(X[:, 0])
        cases.append((X, y))
    # few-shot shape: 12 samples, like AutoPower's 2-config x 6-workload fit
    rng = np.random.default_rng(99)
    cases.append((rng.uniform(0, 4, size=(12, 30)), rng.uniform(50, 80, size=12)))
    # heavy value ties
    rng = np.random.default_rng(7)
    cases.append(
        (rng.integers(0, 4, size=(60, 5)).astype(float), rng.normal(size=60))
    )
    return cases


class TestExactEquivalence:
    @pytest.mark.parametrize("case", range(8))
    def test_structure_matches_reference(self, case):
        X, y = _datasets()[case]
        kw = dict(max_depth=4, reg_lambda=0.7, min_child_weight=2.0, gamma=0.01)
        assert_same_fit(*_one_round(X, y, **kw), X)

    @pytest.mark.parametrize("case", range(8))
    def test_predictions_match_reference(self, case):
        X, y = _datasets()[case]
        model, ref = _one_round(X, y, max_depth=5, reg_lambda=0.3)
        ens = ref._flat_ensemble()
        want = ref.base_score_ + np.array([_walk(ens, row) for row in X])
        # One tree at learning rate 1: the batched sum is the leaf value.
        assert model.predict(X).tobytes() == want.tobytes()

    def test_min_child_weight_zero_matches_reference(self):
        # Regression: mcw=0 must not push the candidate bound past n-1.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        kw = dict(max_depth=3, min_child_weight=0.0, reg_lambda=0.5)
        assert_same_fit(*_one_round(X, y, **kw), X)

    def test_gbm_fused_predict_matches_per_row_traversal(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(40, 6))
        y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2]
        model = GradientBoostingRegressor(n_estimators=60, learning_rate=0.1).fit(X, y)
        X_test = rng.uniform(-0.5, 1.5, size=(200, 6))
        got = model.predict(X_test)
        # reference: sequential per-row, per-tree Python traversal of the
        # saved preorder node lists (children are tree-local)
        want = np.full(X_test.shape[0], model.base_score_)
        state = gbm_to_dict(model)
        bounds = state["roots"] + [len(state["value"])]
        for a, b in zip(bounds, bounds[1:]):
            nodes = {
                key: state[key][a:b] for key in ("feature", "threshold", "left", "right", "value")
            }
            for i, row in enumerate(X_test):
                node = 0
                while nodes["feature"][node] >= 0:
                    go_left = row[nodes["feature"][node]] <= nodes["threshold"][node]
                    node = nodes["left" if go_left else "right"][node]
                want[i] += model.learning_rate * nodes["value"][node]
        assert np.allclose(got, want, rtol=1e-9, atol=0)


class TestFlattenedRepresentation:
    def test_flat_arrays_round_trip_serialization(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 4))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2
        model = GradientBoostingRegressor(n_estimators=20, max_depth=4).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        a, b = model._flat_ensemble(), clone._flat_ensemble()
        for field in (
            "feature", "threshold", "left", "right", "value", "n_samples", "roots",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.depth == b.depth
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_legacy_nested_format_still_loads(self):
        legacy_tree = {
            "kind": "tree",
            "n_features": 1,
            "max_depth": 1,
            "reg_lambda": 0.0,
            "root": {
                "value": 3.0,
                "n_samples": 20,
                "feature": 0,
                "threshold": 9.5,
                "left": {"value": 1.0, "n_samples": 10},
                "right": {"value": 5.0, "n_samples": 10},
            },
        }
        state = {
            "kind": "gbm",
            "learning_rate": 1.0,
            "base_score": 0.0,
            "n_features": 1,
            "params": {
                "n_estimators": 1,
                "max_depth": 1,
                "reg_lambda": 0.0,
                "min_child_weight": 1.0,
                "gamma": 0.0,
                "subsample": 1.0,
                "colsample_bytree": 1.0,
                "random_state": 0,
            },
            "trees": [{"tree": legacy_tree, "columns": [0]}],
        }
        pred = gbm_from_dict(state).predict(np.array([[0.0], [20.0]]))
        assert pred[0] == pytest.approx(1.0)
        assert pred[1] == pytest.approx(5.0)


class TestBatchedPredictionEquivalence:
    def test_predict_reports_matches_scalar_reports(self, autopower2, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        anchors = np.linspace(0.6, 1.4, 7)
        batch = events_at_scale(events, anchors, 50)
        reports = autopower2.predict_reports(c8, batch, dhrystone)
        for i, s in enumerate(anchors):
            ref = autopower2.predict_report(
                c8, events_at_scale(events, float(s), 50), dhrystone
            )
            for got, want in zip(reports[i].components, ref.components):
                assert got.clock == pytest.approx(want.clock, rel=1e-9, abs=1e-12)
                assert got.sram == pytest.approx(want.sram, rel=1e-9, abs=1e-12)
                assert got.register == pytest.approx(want.register, rel=1e-9, abs=1e-12)
                assert got.comb == pytest.approx(want.comb, rel=1e-9, abs=1e-12)

    def test_predict_totals_matches_reports(self, autopower2, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        batch = events_at_scale(events, np.linspace(0.8, 1.2, 5), 50)
        totals = autopower2.predict_totals(c8, batch, dhrystone)
        reports = autopower2.predict_reports(c8, batch, dhrystone)
        assert np.allclose(totals, [r.total for r in reports], rtol=1e-9)

    def test_predict_trace_matches_anchorwise_scalar_path(
        self, autopower2, flow, c8, dhrystone
    ):
        events = flow.run(c8, dhrystone).events
        scales = np.linspace(0.5, 1.5, 300)
        got = autopower2.predict_trace(c8, events, dhrystone, scales, n_anchors=9)
        anchors = np.linspace(0.5, 1.5, 9)
        powers = np.array(
            [
                autopower2.predict_total(
                    c8, events_at_scale(events, float(s), 50), dhrystone
                )
                for s in anchors
            ]
        )
        want = np.interp(scales, anchors, powers)
        assert np.allclose(got, want, rtol=1e-9)


class TestEventBatch:
    def test_events_at_scale_array_matches_scalar(self, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        scales = np.array([0.5, 1.0, 1.7])
        batch = events_at_scale(events, scales, 50)
        assert isinstance(batch, EventBatch)
        assert len(batch) == 3
        for i, s in enumerate(scales):
            scalar = events_at_scale(events, float(s), 50)
            row = batch[i]
            for name in EVENT_NAMES:
                assert row.counts[name] == pytest.approx(
                    scalar.counts[name], rel=1e-12, abs=0
                ), name

    def test_rates_match_eventparams(self, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        batch = EventBatch.from_events([events, events.scaled(2.0)])
        rates = batch.rates_for_component("LSU")
        want = events.rates_for_component("LSU")
        for name, vec in rates.items():
            assert vec[0] == pytest.approx(want[name], rel=1e-12)
            # scaling counts and cycles together leaves rates unchanged
            assert vec[1] == pytest.approx(want[name], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventBatch(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            EventBatch(np.zeros((1, len(EVENT_NAMES))))  # cycles must be > 0

    def test_events_at_scale_rejects_bad_scales(self, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        with pytest.raises(ValueError):
            events_at_scale(events, np.array([1.0, -0.5]), 50)
        with pytest.raises(ValueError):
            events_at_scale(events, np.array([]), 50)
