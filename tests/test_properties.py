"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scaling import ScalingPatternDetector
from repro.library.sram_compiler import SramCompiler
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.metrics import mape, pearson_r, r2_score, rmse
from repro.vlsi.macro_mapping import MacroMapper

_SMALL = dict(max_examples=30, deadline=None)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestMetricProperties:
    @given(st.lists(positive_floats, min_size=2, max_size=30))
    @settings(**_SMALL)
    def test_mape_zero_iff_exact(self, values):
        assert mape(values, values) == 0.0

    @given(
        st.lists(positive_floats, min_size=2, max_size=30),
        st.floats(min_value=1.01, max_value=3.0),
    )
    @settings(**_SMALL)
    def test_mape_of_uniform_relative_error(self, values, factor):
        scaled = [v * factor for v in values]
        np.testing.assert_allclose(
            mape(values, scaled), (factor - 1.0) * 100.0, rtol=1e-6
        )

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    @settings(**_SMALL)
    def test_r2_of_exact_prediction_is_one(self, values):
        if len(set(values)) < 2:
            return
        assert r2_score(values, values) == 1.0

    @given(
        st.lists(
            st.tuples(finite_floats, finite_floats), min_size=3, max_size=30
        )
    )
    @settings(**_SMALL)
    def test_pearson_bounded(self, pairs):
        t = [a for a, _ in pairs]
        p = [b for _, b in pairs]
        r = pearson_r(t, p)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9

    @given(st.lists(finite_floats, min_size=2, max_size=30))
    @settings(**_SMALL)
    def test_rmse_nonnegative(self, values):
        shifted = [v + 1.0 for v in values]
        assert rmse(values, shifted) >= 0.0


class TestRidgeProperties:
    @given(
        st.integers(min_value=3, max_value=20),
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    )
    @settings(**_SMALL)
    def test_recovers_univariate_line(self, n, slope, intercept):
        X = np.arange(n, dtype=float).reshape(-1, 1)
        y = slope * X.ravel() + intercept
        model = RidgeRegression(alpha=1e-10).fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-5)

    @given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=100))
    @settings(**_SMALL)
    def test_prediction_finite_on_random_data(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 4))
        y = rng.normal(size=n)
        model = RidgeRegression(alpha=1e-2).fit(X, y)
        assert np.isfinite(model.predict(X)).all()


class TestTreeProperties:
    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=50))
    @settings(**_SMALL)
    def test_tree_predictions_within_target_hull(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = rng.uniform(-10, 10, size=n)
        # One round at full rate: the target mean plus one tree.
        tree = GradientBoostingRegressor(
            n_estimators=1, learning_rate=1.0, max_depth=4, reg_lambda=0.0
        ).fit(X, y)
        pred = tree.predict(rng.normal(size=(50, 3)) * 10)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @given(st.integers(min_value=5, max_value=40), st.integers(min_value=0, max_value=50))
    @settings(**_SMALL)
    def test_gbm_respects_target_hull(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = rng.uniform(0, 5, size=n)
        model = GradientBoostingRegressor(n_estimators=20).fit(X, y)
        pred = model.predict(rng.normal(size=(30, 2)) * 10)
        assert pred.min() >= y.min() - 1e-6
        assert pred.max() <= y.max() + 1e-6


class TestScalingDetectorProperties:
    @given(
        st.floats(min_value=0.5, max_value=100.0),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.integers(min_value=1, max_value=16),
            ),
            min_size=2,
            max_size=6,
            unique=True,
        ),
    )
    @settings(**_SMALL)
    def test_recovers_planted_product_law(self, k, points):
        a = [float(p[0]) for p in points]
        b = [float(p[1]) for p in points]
        targets = [k * x * y for x, y in zip(a, b)]
        detector = ScalingPatternDetector()
        law = detector.fit(targets, {"A": a, "B": b}, ("A", "B"))
        # The found law must reproduce the training targets exactly, even
        # if an equivalent smaller combination exists for these points.
        values = [{"A": x, "B": y} for x, y in zip(a, b)]
        for v, t in zip(values, targets):
            assert abs(law.evaluate(v) - t) / t < 1e-6


class TestMacroMapperProperties:
    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=4000),
    )
    @settings(**_SMALL)
    def test_mapping_covers_block(self, width, depth):
        mapper = MacroMapper(SramCompiler())
        mapping = mapper.map(width, depth)
        assert mapping.n_row * mapping.macro.width >= width
        assert mapping.n_col * mapping.macro.depth >= depth

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=4000),
    )
    @settings(**_SMALL)
    def test_mapping_not_wasteful_in_rows(self, width, depth):
        # One fewer row of macros must not cover the width.
        mapper = MacroMapper(SramCompiler())
        mapping = mapper.map(width, depth)
        assert (mapping.n_row - 1) * mapping.macro.width < width
        assert (mapping.n_col - 1) * mapping.macro.depth < depth
