"""Unit tests for repro.ml.gbm (gradient boosting)."""

import pickle

import numpy as np
import pytest

from repro.ml._kernel import get_kernel
from repro.ml.gbm import Forest, GradientBoostingRegressor, _PackedTrees


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
        kwargs = dict(n_estimators=30)
        a = GradientBoostingRegressor(**kwargs).fit(X, y).predict(X)
        b = GradientBoostingRegressor(**kwargs).fit(X, y).predict(X)
        assert np.array_equal(a, b)

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

    def test_fitted_arrays_own_exactly_their_bytes(self):
        # A fitted model must not keep its fit-time buffers alive: the
        # kernel sizes them for complete trees.
        X, y = _friedman_like(n=30)
        ens = GradientBoostingRegressor(n_estimators=20, max_depth=4).fit(X, y)._flat_ensemble()
        for name in ("feature", "threshold", "left", "right", "value", "n_samples", "roots"):
            array = getattr(ens, name)
            assert array.base is None and array.flags.owndata, name


def _mixed_forest():
    """Fitted models of depths 0-6 plus one above the packing cap, on
    overlapping column ranges of one wide matrix."""
    rng = np.random.default_rng(11)
    models, bases = [], []
    for depth in [0, 1, 2, 3, 4, 5, 6, 9]:
        n = 48 if depth > 3 else 16
        f = 2 + depth % 3
        X = rng.uniform(0.0, 4.0, size=(n, f))
        X[:, 0] = np.round(X[:, 0])  # ties, so some leaves stop early
        y = np.sin(X @ rng.normal(size=f)) + (X[:, 0] > 2)
        models.append(
            GradientBoostingRegressor(
                n_estimators=7 + depth, learning_rate=0.3, max_depth=depth,
                reg_lambda=0.01,
            ).fit(X, y)
        )
        bases.append(depth)
    n_cols = max(b + m.n_features_ for b, m in zip(bases, models))
    return Forest(models, bases, n_cols)


def _tree_count_forest():
    """One model per (tree count 1-9, depth cap 0-6) pair, so segments
    end on every remainder of the four-tree descent at every depth; some
    trees stop above their cap."""
    rng = np.random.default_rng(5)
    models, bases = [], []
    for n_trees in range(1, 10):
        for depth in range(7):
            X = rng.uniform(0.0, 4.0, size=(24, 3))
            X[:, 0] = np.round(X[:, 0])
            y = np.sin(X @ rng.normal(size=3)) + (X[:, 0] > 2)
            models.append(
                GradientBoostingRegressor(
                    n_estimators=n_trees, learning_rate=0.5, max_depth=depth,
                    reg_lambda=0.01,
                ).fit(X, y)
            )
            bases.append(len(bases) % 4)
    return Forest(models, bases, 4 + 3)


def _numpy_packing(segments):
    """The packed layout built level by level in numpy: the reference the
    kernel's ``forest_pack`` is pinned to."""
    packed = [e for e in segments if e.depth <= _PackedTrees.MAX_DEPTH]
    feature, threshold, value = [], [], []
    for ens in packed:
        n_trees = ens.roots.size
        n_inner = (1 << ens.depth) - 1
        f = np.empty((n_trees, n_inner), dtype=np.int32)
        t = np.empty((n_trees, n_inner))
        level = ens.roots[:, None]
        for d in range(ens.depth):
            slots = slice((1 << d) - 1, (2 << d) - 1)
            f[:, slots] = ens.feature[level]
            t[:, slots] = ens.threshold[level]
            level = np.stack((ens.left[level], ens.right[level]), axis=2)
            level = level.reshape(n_trees, -1)
        feature.append(f.ravel())
        threshold.append(t.ravel())
        value.append(ens.value[level].ravel())
    return {
        "feature": np.concatenate(feature),
        "threshold": np.concatenate(threshold),
        "value": np.concatenate(value),
    }


@pytest.mark.skipif(get_kernel() is None, reason="compiled kernel unavailable")
class TestForestLayout:
    """The kernel's packed descent against each segment's reference."""

    @staticmethod
    def _assert_matches_reference(forest, X):
        got = forest.sum_values(X)
        assert got.shape == (X.shape[0], forest.n_segments)
        for s, ens in enumerate(forest.segments):
            want = ens.sum_values(X[:, forest.seg_col[s] :])
            assert got[:, s].tobytes() == want.tobytes(), s

    def test_fixture_covers_the_cases(self):
        forest = _mixed_forest()
        depths = [ens.depth for ens in forest.segments]
        assert set(range(7)) <= set(depths)
        assert max(depths) > _PackedTrees.MAX_DEPTH
        forest.sum_values(np.zeros((1, forest.n_cols)))
        assert forest._layout.deep == [depths.index(max(depths))]
        # Some tree has a leaf above its ensemble's bottom level.
        assert any(
            (ens.left == np.arange(ens.value.size)).sum() < ens.roots.size << ens.depth
            for ens in forest.segments if ens.depth > 1
        )

    @pytest.mark.parametrize("n_rows", [0, 1, 64])
    def test_random_rows(self, n_rows):
        forest = _mixed_forest()
        X = np.random.default_rng(n_rows).uniform(-1.0, 5.0, size=(n_rows, forest.n_cols))
        self._assert_matches_reference(forest, X)

    def test_rows_at_thresholds_and_non_finite(self):
        forest = _mixed_forest()
        rng = np.random.default_rng(0)
        thresholds = np.concatenate([ens.threshold for ens in forest.segments])
        thresholds = thresholds[np.isfinite(thresholds)]
        X = rng.choice(thresholds, size=(64, forest.n_cols))
        X[0, :] = np.nan
        X[1, :] = np.inf
        X[2, :] = -np.inf
        X[3, ::2] = np.nan
        X[4, 1::2] = np.inf
        X[5, ::3] = -np.inf
        self._assert_matches_reference(forest, X)

    @pytest.mark.parametrize("method", ["mixed", "autopower", "autopower-minus", "mcpat-calib"])
    def test_kernel_packing_equals_numpy_packing(self, method, request):
        if method == "mixed":
            forest = _mixed_forest()
        elif method == "autopower":
            forest = request.getfixturevalue("autopower2").compile().forest
        else:
            forest = request.getfixturevalue("baselines2")[method]._forest
        packed = _PackedTrees(get_kernel(), forest.segments, forest.seg_col)
        for name, want in _numpy_packing(forest.segments).items():
            got = getattr(packed, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 8])
    def test_four_tree_descent_every_tree_count_and_depth(self, n_rows):
        forest = _tree_count_forest()
        counts = {(e.roots.size % 4, e.depth) for e in forest.segments}
        assert counts == {(r, d) for r in range(4) for d in range(7)}
        X = np.random.default_rng(n_rows).uniform(-1.0, 5.0, size=(n_rows, forest.n_cols))
        self._assert_matches_reference(forest, X)
        assert forest._layout.deep == []

    def test_unpickled_forest_binds_its_own_arrays(self):
        forest = _mixed_forest()
        X = np.random.default_rng(4).uniform(-1.0, 5.0, size=(8, forest.n_cols))
        want = forest.sum_values(X)
        clone = pickle.loads(pickle.dumps(forest))
        del forest
        assert clone.sum_values(X).tobytes() == want.tobytes()
        ffi, _lib = get_kernel()
        layout = clone._layout
        bound = [int(ffi.cast("intptr_t", p)) for p in layout._bound[1:]]
        arrays = (
            layout.feature, layout.threshold, layout.value, layout.n_trees,
            layout.depth, layout.seg_col, layout.node_off, layout.leaf_off,
            layout.seg_out,
        )
        assert bound == [a.ctypes.data for a in arrays]

    def test_packing_rejects_a_wrong_dtype(self):
        # The kernel reads node arrays in place, so a wrong dtype must not
        # reach it.
        forest = _mixed_forest()
        forest.segments[1].feature = forest.segments[1].feature.astype(np.int64)
        with pytest.raises(TypeError, match="int64"):
            forest.sum_values(np.zeros((1, forest.n_cols)))

    def test_pickle_drops_the_layout(self):
        forest = _mixed_forest()
        X = np.random.default_rng(3).uniform(-1.0, 5.0, size=(16, forest.n_cols))
        want = forest.sum_values(X)
        assert forest._layout is not None
        clone = pickle.loads(pickle.dumps(forest))
        assert clone._layout is None
        assert clone.sum_values(X).tobytes() == want.tobytes()


class TestValidation:
    def test_bad_n_estimators(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=1.5)

    @pytest.mark.parametrize("name", ["reg_lambda", "gamma", "min_child_weight"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, float("nan")])
    def test_negative_regularization_rejected(self, name, value):
        # The kernel's pruned split scan assumes non-negative scores.
        with pytest.raises(ValueError, match=name):
            GradientBoostingRegressor(**{name: value})

    def test_zero_regularization_accepted(self):
        model = GradientBoostingRegressor(reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
        model.fit([[0.0], [1.0], [2.0]], [1.0, 2.0, 4.0])

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
