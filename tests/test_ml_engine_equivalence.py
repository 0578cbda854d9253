"""Equivalence suite for the vectorized tree engine.

A deliberately naive scalar implementation (per-candidate Python loops,
per-row tree traversal) serves as the reference; the engine must
reproduce it:

* identical tree *structure* (feature, threshold, leaf values) of a
  one-round GBM and per-row predictions on randomized datasets,
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

GAIN_EPS = 1e-12


# -- scalar reference -------------------------------------------------------
def _reference_split(X, grad, hess, idx, reg_lambda, gamma, min_child_weight):
    """Per-candidate scalar split search (feature-major scan, max score)."""
    gsum = float(grad[idx].sum())
    hsum = float(hess[idx].sum())
    parent = gsum * gsum / (hsum + reg_lambda)
    best_score = -np.inf
    best = None
    for feature in range(X.shape[1]):
        values = X[idx, feature]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sg = grad[idx][order]
        sh = hess[idx][order]
        gl = np.cumsum(sg)
        hl = np.cumsum(sh)
        for i in range(idx.size - 1):
            if sv[i + 1] == sv[i]:
                continue
            hl_i = float(hl[i])
            hr_i = hsum - hl_i
            if hl_i < min_child_weight or hr_i < min_child_weight:
                continue
            gl_i = float(gl[i])
            gr_i = gsum - gl_i
            score = gl_i * gl_i / (hl_i + reg_lambda) + gr_i * gr_i / (
                hr_i + reg_lambda
            )
            if score > best_score:
                best_score = score
                best = (feature, i, order)
    if best is None:
        return None
    gain = 0.5 * (best_score - parent) - gamma
    if not gain > GAIN_EPS:
        return None
    feature, pos, order = best
    sv = X[idx, feature][order]
    threshold = 0.5 * (sv[pos] + sv[pos + 1])
    return feature, float(threshold), idx[order[: pos + 1]], idx[order[pos + 1 :]]


def _reference_build(X, grad, hess, idx, depth, params):
    """Reference tree as nested dicts."""
    gsum = float(grad[idx].sum())
    hsum = float(hess[idx].sum())
    node = {
        "value": -gsum / (hsum + params["reg_lambda"]),
        "n_samples": int(idx.size),
    }
    if depth < params["max_depth"] and idx.size >= params["min_samples_split"]:
        best = _reference_split(
            X,
            grad,
            hess,
            idx,
            params["reg_lambda"],
            params["gamma"],
            params["min_child_weight"],
        )
        if best is not None:
            feature, threshold, left_idx, right_idx = best
            node["feature"] = feature
            node["threshold"] = threshold
            node["left"] = _reference_build(X, grad, hess, left_idx, depth + 1, params)
            node["right"] = _reference_build(
                X, grad, hess, right_idx, depth + 1, params
            )
    return node


def _one_round(X, y, **kw):
    """A GBM whose prediction is the target mean plus one tree."""
    model = GradientBoostingRegressor(n_estimators=1, learning_rate=1.0, **kw)
    return model.fit(X, y)


def _reference_tree(X, y, **kw):
    """The reference tree of a GBM's first round (residuals of the mean)."""
    params = {
        "max_depth": kw.get("max_depth", 3),
        "min_samples_split": 2,
        "min_child_weight": kw.get("min_child_weight", 1.0),
        "reg_lambda": kw.get("reg_lambda", 1.0),
        "gamma": kw.get("gamma", 0.0),
    }
    y = np.asarray(y, dtype=float)
    grad = float(y.mean()) - y
    hess = np.ones_like(grad)
    return _reference_build(
        np.asarray(X, dtype=float), grad, hess, np.arange(len(y)), 0, params
    )


def _reference_predict_row(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def _assert_same_structure(ref: dict, ens, i=0, rtol=1e-12):
    """Compare the reference tree with the ensemble's tree rooted at ``i``."""
    assert ens.value[i] == pytest.approx(ref["value"], rel=rtol, abs=1e-12)
    assert ens.n_samples[i] == ref["n_samples"]
    if "feature" in ref:
        assert ens.left[i] != i, "engine made a leaf where reference split"
        assert ens.feature[i] == ref["feature"]
        assert ens.threshold[i] == pytest.approx(ref["threshold"], rel=rtol)
        _assert_same_structure(ref["left"], ens, ens.left[i], rtol)
        _assert_same_structure(ref["right"], ens, ens.right[i], rtol)
    else:
        assert ens.left[i] == i, "engine split where reference made a leaf"


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
        model = _one_round(X, y, **kw)
        ref = _reference_tree(X, y, **kw)
        _assert_same_structure(ref, model._flat_ensemble())

    @pytest.mark.parametrize("case", range(8))
    def test_predictions_match_reference(self, case):
        X, y = _datasets()[case]
        model = _one_round(X, y, max_depth=5, reg_lambda=0.3)
        ref = _reference_tree(X, y, max_depth=5, reg_lambda=0.3)
        got = model.predict(X)
        want = model.base_score_ + np.array(
            [_reference_predict_row(ref, row) for row in X]
        )
        # Leaf G/H sums are read off cumulative arrays instead of being
        # re-reduced per node, so values agree to float associativity —
        # well inside the documented 1e-9 bound.
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_min_child_weight_zero_matches_reference(self):
        # Regression: mcw=0 must not push the candidate bound past n-1.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        kw = dict(max_depth=3, min_child_weight=0.0, reg_lambda=0.5)
        model = _one_round(X, y, **kw)
        ref = _reference_tree(X, y, **kw)
        _assert_same_structure(ref, model._flat_ensemble())

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
