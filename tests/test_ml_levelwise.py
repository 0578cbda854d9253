"""Level-wise fit suite: the compiled kernel against a scalar reference.

``tests/gbm_reference.py`` fits the same split rule one node at a time in
plain Python; every fit here must match it byte for byte (serialized
model and predictions):

* randomized *small-n* datasets (n in 2..12 — the few-shot regime), value
  ties and constant features,
* matrices whose columns rank the rows alike — the columns the kernel
  skips — and a property test over the inputs its pruned split scan is
  most likely to get wrong (ties, exactly tied scores in different
  columns, subnormal and overflowing scores, ``reg_lambda = 0``),
* the kernel's load path (racing first loads, a failed build) and the
  missing-kernel error of every fit,
* serialization round-trips of fitted models through the legacy nested
  format.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml._kernel as kernel_mod
from repro import api
from repro.ml._kernel import get_kernel
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict

from gbm_reference import assert_same_fit, fit_both


def _check_one_round(X, y, max_depth, mcw, lam, gamma=0.0):
    """A one-round GBM against the reference on the same gradients."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    got, want = fit_both(
        X, y, n_estimators=1, max_depth=max_depth, min_child_weight=mcw,
        reg_lambda=lam, gamma=gamma,
    )
    assert_same_fit(got, want, X)


def _small_cases():
    """Small-n datasets exercising every awkward frontier shape."""
    cases = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))  # n in 2..12: the few-shot regime
        f = int(rng.integers(1, 6))
        X = rng.normal(size=(n, f))
        if seed % 3 == 0 and f > 1:
            X[:, 0] = rng.integers(0, 3, size=n)  # heavy ties
        if seed % 4 == 0:
            X[:, -1] = 1.5  # constant feature
        y = rng.normal(size=n)
        cases.append((X, y))
    # all-constant matrix: no split anywhere
    cases.append((np.ones((6, 3)), np.arange(6.0)))
    # duplicated rows: every candidate tied
    rng = np.random.default_rng(42)
    base = rng.normal(size=(3, 4))
    cases.append((np.repeat(base, 3, axis=0), rng.normal(size=9)))
    return cases


class TestSmallNReference:
    @pytest.mark.parametrize("case", range(12))
    def test_exact_structure_small_n(self, case):
        X, y = _small_cases()[case]
        _check_one_round(X, y, max_depth=3, mcw=1.0, lam=0.4)

    def test_fractional_min_child_weight(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        _check_one_round(X, y, max_depth=4, mcw=2.5, lam=0.2)


@st.composite
def _parity_cases(draw):
    """A small fit whose split scan sits on the pruning bound's edges.

    Columns mix heavy ties, two-valued thresholdings of an earlier column
    (same split, other summation order: scores a few ulp apart), copies
    and mirrors.  A mirrored target sums to exactly zero in integers, so
    a column and its negation score bit-for-bit equal candidates.  Tiny
    and huge targets put the scores in the subnormal range or overflow
    ``c*c`` to infinity.
    """
    n = draw(st.integers(2, 48))
    kinds = draw(st.lists(
        st.sampled_from(["real", "ties", "two", "copy", "negated"]), min_size=1, max_size=6,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in kinds:
        base = cols[int(rng.integers(len(cols)))] if cols else rng.normal(size=n)
        if kind == "real" or not cols:
            col = rng.normal(size=n)
        elif kind == "ties":
            col = rng.integers(0, 3, size=n).astype(float)
        elif kind == "two":
            col = (base > np.median(base)).astype(float)
        elif kind == "copy":
            col = base.copy()
        else:
            col = -base
        cols.append(col)
    X = np.column_stack(cols)
    target = draw(st.sampled_from(["real", "mirrored", "subnormal", "huge"]))
    if target == "mirrored":
        half = rng.integers(-6, 7, size=n // 2).astype(float)
        y = np.concatenate([half, -half, np.zeros(n % 2)])
    else:
        scale = {"real": 1.0, "subnormal": 1e-310, "huge": 1e160}[target]
        y = rng.normal(size=n) * scale
    params = {
        "n_estimators": draw(st.integers(1, 6)),
        "learning_rate": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "max_depth": draw(st.integers(1, 4)),
        "reg_lambda": draw(st.sampled_from([0.0, 0.25, 1.0])),
        "min_child_weight": draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        "gamma": draw(st.sampled_from([0.0, 0.01])),
    }
    return X, y, params


class TestKernelParity:
    """Compiled kernel vs the scalar reference, and the kernel's loading."""

    def _pair(self, **kw):
        rng = np.random.default_rng(kw.pop("seed", 0))
        n = kw.pop("n", 12)
        f = kw.pop("f", 8)
        X = rng.uniform(0.0, 4.0, size=(n, f))
        y = 5.0 * X[:, 0] - X[:, 1] + rng.normal(scale=0.3, size=n)
        return (*fit_both(X, y, **kw), X)

    def test_threads_racing_on_first_load_all_get_the_kernel(self):
        # Fits run on threads: a caller arriving while another loads the
        # kernel must wait for it, not see it missing.
        import sys
        import threading

        saved, saved_tried = kernel_mod._kernel, kernel_mod._kernel_tried
        interval = sys.getswitchinterval()
        got: list = []
        barrier = threading.Barrier(8)

        def load():
            barrier.wait(timeout=10)
            got.append(get_kernel())

        kernel_mod._kernel, kernel_mod._kernel_tried = None, False
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            kernel_mod._kernel, kernel_mod._kernel_tried = saved, saved_tried
        assert len(got) == 8
        assert all(k is got[0] and k is not None for k in got)

    def test_failed_build_keeps_the_compiler_error(self, monkeypatch, tmp_path):
        broken = kernel_mod._SOURCE + "\n#error kernel broken on purpose\n"
        monkeypatch.setattr(kernel_mod, "_SOURCE", broken)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernel_mod, "_kernel", None)
        monkeypatch.setattr(kernel_mod, "_kernel_tried", False)
        monkeypatch.setattr(kernel_mod, "last_error", None)
        assert get_kernel() is None
        assert "kernel broken on purpose" in kernel_mod.last_error

    @pytest.mark.parametrize("seed", range(5))
    def test_serialized_models_byte_identical(self, seed):
        a, b, X = self._pair(
            seed=seed, n_estimators=60, learning_rate=0.1, max_depth=3
        )
        assert_same_fit(a, b, X)

    def test_deep_trees_and_mcw(self):
        a, b, X = self._pair(
            n=40, n_estimators=30, max_depth=6, min_child_weight=3.0, gamma=0.01
        )
        assert_same_fit(a, b, X)
        _assert_same_ensemble(a._flat_ensemble(), b._flat_ensemble())

    @staticmethod
    def _rank_twins(n, seed):
        """Columns that rank the rows like ``x`` or nearly so: the kernel
        scans only the first column of each exact rank class."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, max(n // 3, 2), size=n).astype(float)  # ties
        y = x + rng.normal(scale=0.5, size=n)
        # Same stable order as x, one tie fewer: shift every sorted
        # position from the first tie's right-hand row on.
        order = np.argsort(x, kind="stable")
        untied = x.copy()
        tied = np.nonzero(np.diff(x[order]) == 0)[0]
        if tied.size:
            untied[order[tied[0] + 1 :]] += 0.5
        X = np.column_stack([
            2.0 * x + 1.0,                   # a monotone twin first
            x,
            x.copy(),                        # an exact copy
            untied,                          # same order, other ties
            np.exp(x),                       # monotone
            -x,                              # reversed
            rng.normal(size=n),
            x[::-1].copy(),                  # another row's values
        ])
        return X, y

    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("n", [2, 3, 7, 16, 48])
    def test_rank_duplicate_columns_byte_identical(self, n, max_depth):
        X, y = self._rank_twins(n, seed=n + max_depth)
        kw = {"n_estimators": 30, "learning_rate": 0.3, "max_depth": max_depth}
        assert_same_fit(*fit_both(X, y, **kw), X)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_parity_cases())
    def test_pruned_scan_byte_identical(self, case):
        X, y, params = case
        # Huge targets overflow scores to inf (and inf - inf gains to NaN)
        # in the kernel and the reference alike; that is the case under
        # test, not an error.
        assert_same_fit(*fit_both(X, y, **params), X)

    @staticmethod
    def _root_candidates(X, y, lam):
        """Every untied root candidate of the first round, in scan order
        (feature-major): its exact score and the kernel's pruning
        estimate, computed with the kernel's IEEE operations."""
        n = y.size
        g = y.mean() - y
        gsum = np.cumsum(g)[-1]
        order = np.argsort(X, axis=0, kind="stable").T
        cum = np.cumsum(g[order], axis=1)[:, :-1]
        xs = np.take_along_axis(X.T, order, axis=1)
        untied = xs[:, 1:] != xs[:, :-1]
        hl = np.arange(1.0, n)
        gr = gsum - cum
        score = cum * cum / (hl + lam) + gr * gr / (n - hl + lam)
        est = cum * cum * (1.0 / (hl + lam)) + gr * gr * (1.0 / (n - hl + lam))
        return score[untied], est[untied]

    def test_winner_estimated_below_the_running_best(self):
        # Six rows in forty random orders: many columns split the same
        # rows apart but sum them in other orders, so root scores a few
        # ulp apart abound.  In this draw a candidate that beats the
        # running best has a pruning estimate below it; only the bound's
        # relative slack keeps it in the scan.
        rng = np.random.default_rng(3145)
        X = np.column_stack([rng.permutation(6).astype(float) for _ in range(40)])
        y = rng.normal(size=6)
        score, est = self._root_candidates(X, y, lam=0.25)
        prev = np.concatenate(([-np.inf], np.maximum.accumulate(score)[:-1]))
        assert np.any((score > prev) & (est < prev))
        kw = {
            "n_estimators": 1, "learning_rate": 1.0, "max_depth": 2,
            "reg_lambda": 0.25, "min_child_weight": 0.0,
        }
        assert_same_fit(*fit_both(X, y, **kw), X)

    def test_kernel_ensemble_matches_lazy_assembly(self):
        # The ensemble the loader assembles from saved node lists is the
        # one the kernel emitted.
        a, _, X = self._pair(n_estimators=40, max_depth=3)
        loaded = gbm_from_dict(gbm_to_dict(a))
        _assert_same_ensemble(loaded._flat_ensemble(), a._flat_ensemble())


class TestNumpyEngineWarnings:
    """A fit is silent on extreme targets, and so is the numpy descent
    that predicts from its model: scores that overflow to infinity (and
    their NaN gains) are part of the split contract, not a
    floating-point error to report."""

    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    @pytest.mark.parametrize("scale", [1e160, 1e-310])
    def test_extreme_targets_fit_without_warnings(self, scale, reg_lambda):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(24, 4))
        X[:, 1] = np.round(X[:, 1])
        y = rng.normal(size=24) * scale
        kw = {
            "n_estimators": 4, "learning_rate": 0.5, "max_depth": 3,
            "reg_lambda": reg_lambda,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, want = fit_both(X, y, **kw)
            model.predict(X)
        assert_same_fit(model, want, X)


class TestFitNeedsTheKernel:
    """The kernel is the only fit engine: without it a fit raises with
    the reason the kernel is missing (saved models still load and
    predict, see ``tests/test_persistence.py``)."""

    SENTINEL = "cc: no such compiler (sentinel 7f3a)"

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_kernel", None)
        monkeypatch.setattr(kernel_mod, "_kernel_tried", True)
        monkeypatch.setattr(kernel_mod, "last_error", self.SENTINEL)

    def test_gbm_fit_raises_with_the_load_error(self, no_kernel):
        model = GradientBoostingRegressor(n_estimators=3)
        with pytest.raises(RuntimeError, match="sentinel 7f3a"):
            model.fit(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        with pytest.raises(RuntimeError, match="used before fit"):
            model.predict([[0.0, 1.0]])

    def test_api_fit_raises_with_the_load_error(self, no_kernel, flow):
        with pytest.raises(RuntimeError, match="sentinel 7f3a"):
            api.fit("autopower", flow, ["C1", "C15"], ["dhrystone", "qsort"])


def _assert_same_ensemble(a, b):
    for field in (
        "feature", "threshold", "left", "right", "value", "n_samples", "roots",
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.depth == b.depth


class TestSerializationCompat:
    def test_levelwise_tree_loads_via_legacy_nested_format(self):
        # Level-wise-fitted trees exported through the legacy nested
        # ``root`` schema must load into the same predictor.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = np.sin(X[:, 0]) + rng.normal(scale=0.1, size=30)
        model = GradientBoostingRegressor(n_estimators=5, max_depth=3).fit(X, y)
        state = gbm_to_dict(model)

        def nest(nodes, i=0):
            d = {"value": nodes["value"][i], "n_samples": nodes["n_samples"][i]}
            if nodes["feature"][i] >= 0:
                d["feature"] = nodes["feature"][i]
                d["threshold"] = nodes["threshold"][i]
                d["left"] = nest(nodes, nodes["left"][i])
                d["right"] = nest(nodes, nodes["right"][i])
            return d

        keys = ("feature", "threshold", "left", "right", "value", "n_samples")
        bounds = state.pop("roots") + [len(state["value"])]
        lists = {key: state.pop(key) for key in keys}
        state["trees"] = [
            {
                "tree": {"kind": "tree", "root": nest({k: v[a:b] for k, v in lists.items()})},
                "columns": list(range(model.n_features_)),
            }
            for a, b in zip(bounds, bounds[1:])
        ]
        clone = gbm_from_dict(state)
        assert np.array_equal(model.predict(X), clone.predict(X))
        _assert_same_ensemble(model._flat_ensemble(), clone._flat_ensemble())

    def test_gbm_round_trip_after_kernel_or_numpy_fit(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(15, 6))
        y = rng.uniform(10, 20, size=15)
        model = GradientBoostingRegressor(n_estimators=25, max_depth=3).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))
