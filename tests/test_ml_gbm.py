"""Unit tests for repro.ml.gbm (gradient boosting)."""

import numpy as np
import pytest

from repro.ml.gbm import GradientBoostingRegressor


def _friedman_like(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 4))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2] + X[:, 3]
    return X, y


class TestFit:
    def test_reduces_training_loss_monotonically_without_subsample(self):
        # Every round fits all rows, so a k-round model is the first k
        # trees of any longer one and its training loss cannot rise.
        X, y = _friedman_like()
        losses = [
            np.mean(
                (GradientBoostingRegressor(n_estimators=k, learning_rate=0.2)
                 .fit(X, y).predict(X) - y) ** 2
            )
            for k in range(1, 51, 7)
        ]
        assert np.all(np.diff(losses) <= 1e-9)

    def test_fits_nonlinear_function_well(self):
        X, y = _friedman_like()
        model = GradientBoostingRegressor(n_estimators=300, learning_rate=0.1, max_depth=3)
        model.fit(X, y)
        resid = model.predict(X) - y
        assert np.sqrt(np.mean(resid**2)) < 0.5

    def test_base_score_is_target_mean(self):
        X, y = _friedman_like(n=30)
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        assert model.base_score_ == pytest.approx(y.mean())

    def test_single_sample(self):
        model = GradientBoostingRegressor(n_estimators=5).fit([[1.0]], [3.0])
        assert model.predict([[1.0]])[0] == pytest.approx(3.0)

    def test_deterministic_for_fixed_seed(self):
        X, y = _friedman_like(n=60)
        kwargs = dict(n_estimators=30, random_state=7)
        a = GradientBoostingRegressor(**kwargs).fit(X, y).predict(X)
        b = GradientBoostingRegressor(**kwargs).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_random_state_does_not_change_the_fit(self):
        # The fit draws no random numbers; the seed is only recorded.
        X, y = _friedman_like(n=60)
        a = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=30, random_state=1).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_cannot_extrapolate_beyond_training_targets(self):
        # The mechanism behind the paper's few-shot argument: tree
        # ensembles cannot predict outside the training label range.
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(50, 2))
        y = 5.0 + 3.0 * X[:, 0]
        model = GradientBoostingRegressor(n_estimators=100).fit(X, y)
        far = model.predict(rng.uniform(5, 10, size=(50, 2)))
        assert far.max() <= y.max() + 1e-6
        assert far.min() >= y.min() - 1e-6

    def test_one_tree_per_round(self):
        X, y = _friedman_like(n=40)
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y)
        assert model._flat_ensemble().roots.size == 10


class TestValidation:
    def test_bad_n_estimators(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=1.5)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict([[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.ones((3, 2)), np.ones(2))

    def test_predict_feature_mismatch(self):
        model = GradientBoostingRegressor(n_estimators=2).fit(np.ones((4, 2)), np.arange(4.0))
        with pytest.raises(ValueError):
            model.predict(np.ones((1, 5)))
