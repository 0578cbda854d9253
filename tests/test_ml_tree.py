"""Unit tests for the split rules of one boosting round (repro.ml.gbm).

Each test fits a one-round GBM with ``learning_rate=1``, so the model is
the target mean plus exactly one tree grown on the residuals, and reads
that tree's nodes off the model's ensemble.
"""

import numpy as np
import pytest

from repro.ml.gbm import GradientBoostingRegressor


def _one_tree(X, y, **kw):
    model = GradientBoostingRegressor(n_estimators=1, learning_rate=1.0, **kw)
    return model.fit(X, y)


def _root_is_leaf(model) -> bool:
    return model._flat_ensemble().left[0] == 0


def _step_data():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.where(X.ravel() < 10, 1.0, 5.0)
    return X, y


class TestFit:
    def test_learns_step_function(self):
        X, y = _step_data()
        model = _one_tree(X, y, max_depth=1, reg_lambda=0.0)
        assert np.allclose(model.predict(X), y, atol=1e-9)

    def test_split_threshold_between_values(self):
        X, y = _step_data()
        model = _one_tree(X, y, max_depth=1, reg_lambda=0.0)
        assert model._flat_ensemble().threshold[0] == pytest.approx(9.5)

    def test_depth_zero_is_mean_leaf(self):
        X, y = _step_data()
        model = _one_tree(X, y, max_depth=0, reg_lambda=0.0)
        assert _root_is_leaf(model)
        assert model.predict(X)[0] == pytest.approx(y.mean())

    def test_reg_lambda_shrinks_leaf_values(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        plain = _one_tree(X, y, max_depth=1, reg_lambda=0.0)
        shrunk = _one_tree(X, y, max_depth=1, reg_lambda=5.0)
        assert np.abs(shrunk._flat_ensemble().value).max() < np.abs(
            plain._flat_ensemble().value
        ).max()

    def test_min_child_weight_blocks_small_splits(self):
        X, y = _step_data()
        assert _root_is_leaf(_one_tree(X, y, max_depth=3, min_child_weight=50.0))

    def test_gamma_blocks_weak_splits(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30) * 0.01  # almost no structure
        assert _root_is_leaf(_one_tree(X, y, max_depth=3, gamma=10.0))

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = np.sin(X[:, 0]) + X[:, 1] ** 2
        assert _one_tree(X, y, max_depth=2)._flat_ensemble().depth <= 2

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        model = _one_tree(X, np.full(10, 7.0), max_depth=3, reg_lambda=0.0)
        assert _root_is_leaf(model)
        assert model.predict(X)[0] == pytest.approx(7.0)

    def test_duplicate_feature_values_not_split(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        assert _root_is_leaf(_one_tree(X, y, max_depth=3))

    def test_predictions_within_target_range(self):
        # Trees cannot extrapolate — the paper's few-shot failure mode.
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.uniform(10, 20, size=50)
        model = _one_tree(X, y, max_depth=4, reg_lambda=0.0)
        pred = model.predict(rng.uniform(-5, 5, size=(100, 2)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


class TestValidation:
    def test_bad_depth(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(max_depth=-1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict([[1.0]])

    def test_feature_count_mismatch(self):
        model = _one_tree(np.ones((4, 2)), np.arange(4.0))
        with pytest.raises(ValueError):
            model.predict(np.ones((1, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _one_tree(np.empty((0, 1)), np.empty(0))

    def test_count_leaves(self):
        X, y = _step_data()
        ens = _one_tree(X, y, max_depth=1, reg_lambda=0.0)._flat_ensemble()
        assert int(np.sum(ens.left == np.arange(ens.left.size))) == 2
