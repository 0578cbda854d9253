"""Gradient-boosted regression trees (XGBoost-style, squared loss).

The paper adopts XGBoost [Chen & Guestrin 2016] for the sub-models whose
correlation with hardware and event parameters is complex (effective active
rate, SRAM read/write frequency, register activity, combinational
variation).  No xgboost wheel is available offline, so this module
implements the regularized tree-boosting algorithm directly:

* squared-error objective with first/second-order statistics,
* shrinkage (``learning_rate``), L2 leaf penalty (``reg_lambda``),
  ``min_child_weight``, ``gamma`` and depth limits,
* base score initialised at the target mean,
* exact greedy split search over every row and feature, run by the
  compiled kernel of :mod:`repro.ml._kernel` in one call per fit.
  Fitting needs it (a C compiler and ``cffi``); loading and predicting
  a saved model do not.

A fitted model owns exactly one node-array set, :class:`_FlatEnsemble`:
every tree's nodes concatenated in preorder, leaves encoded as
self-loops, as the kernel emits it.  Inference accumulates every tree
in one lockstep vectorized descent (all rows x all trees advance one
level per step — no per-row or per-tree Python), and a :class:`Forest`
evaluates many fitted models' ensembles on one wide matrix in one
compiled call.

Like real tree ensembles, the model cannot predict outside the range of
training targets — the very property the paper exploits when arguing that
directly-applied ML models fail in the few-shot regime.
"""

from __future__ import annotations

import numpy as np

from repro.ml._kernel import get_kernel, require_kernel

__all__ = ["Forest", "GradientBoostingRegressor"]


class _FlatEnsemble:
    """All trees of a fitted ensemble as one node-array set.

    Tree ``t`` starts at node ``roots[t]`` and its nodes are stored in
    preorder, so every child index exceeds its parent's.  An internal node
    routes a row to ``left`` when ``x[feature] <= threshold``, else to
    ``right``.  Leaves are self-loops (``left == right == self``,
    threshold ``+inf``, feature ``0``) so the lockstep descent needs no
    leaf masking: a row that reached its leaf simply stays there while
    deeper trees keep routing.  ``depth`` is the deepest tree's depth;
    ``n_samples`` counts the training rows that reached each node.
    ``feature``, ``left``, ``right`` and ``roots`` are int32 and
    ``threshold`` and ``value`` float64, all contiguous: the kernel's
    ``forest_pack`` reads them in place.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "value", "n_samples", "roots", "depth",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_samples: np.ndarray,
        roots: np.ndarray,
        depth: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.n_samples = n_samples
        self.roots = roots
        self.depth = depth

    def sum_values(self, X: np.ndarray) -> np.ndarray:
        """Sum of every tree's leaf value per row (before shrinkage).

        Single-tree ensembles skip the broadcast copy (the descent only
        reassigns ``node``, never writes into it).  Once every row of
        every tree sits on a leaf self-loop the state stops changing and
        the loop exits early; the equality probe only pays for itself on
        deep ensembles, so shallow ones skip it.
        """
        n = X.shape[0]
        t = self.roots.size
        node = np.broadcast_to(self.roots, (n, t))
        if t > 1:
            node = node.copy()
        rows = np.arange(n)[:, None]
        depth = self.depth
        for level in range(depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            nxt = np.where(go_left, self.left[node], self.right[node])
            # Probe only when it can still skip >= 2 deeper passes.
            if level >= 3 and depth - level > 1 and np.array_equal(nxt, node):
                break
            node = nxt
        return self.value[node].sum(axis=1)


class Forest:
    """Many fitted GBMs evaluated together, in one compiled call.

    Segment ``s`` is ``models[s]``'s own fused ensemble, reading its
    features from column ``col_bases[s]`` of one wide matrix.  For the
    kernel, every segment no deeper than ``_PackedTrees.MAX_DEPTH`` is
    packed once per process, on first use, into complete trees in heap
    order (:class:`_PackedTrees`).  Deeper segments, and every segment
    when the kernel is missing, run :meth:`_FlatEnsemble.sum_values`, the
    reference the kernel is pinned to bit for bit.
    """

    def __init__(self, models, col_bases, n_cols: int) -> None:
        models = list(models)
        if len(col_bases) != len(models):
            raise ValueError("need one column base per model")
        for model, base in zip(models, col_bases):
            model._check_is_fitted()
            # The kernel reads columns base .. base + n_features - 1.
            if not 0 <= base <= n_cols - model.n_features_:
                raise ValueError("a model's columns fall outside the matrix")
        self.n_cols = int(n_cols)
        self.segments = [model._flat_ensemble() for model in models]
        self.seg_col = np.array(col_bases, dtype=np.int64)
        self.base = np.array([m.base_score_ for m in models], dtype=float)
        self.rate = np.array([m.learning_rate for m in models], dtype=float)
        self._layout = None  # packed kernel layout, built on first use

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_layout": None}

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def sum_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf-value sums, one column per segment (before shrinkage)."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_cols:
            raise ValueError(
                f"X must have shape (n, {self.n_cols}), got {X.shape}"
            )
        n = X.shape[0]
        out = np.empty((n, self.n_segments))
        kernel = get_kernel()
        if kernel is None:
            deep = range(self.n_segments)
        else:
            packed = self._layout
            if packed is None:  # racing threads may both build it: equal copies
                packed = self._layout = _PackedTrees(kernel, self.segments, self.seg_col)
            packed.sum_values(kernel, X, out)
            deep = packed.deep
        for s in deep:
            out[:, s] = self.segments[s].sum_values(X[:, self.seg_col[s] :])
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Every model's prediction, one column per segment.

        Column ``s`` equals ``models[s].predict(X[:, cols_s])`` bit for
        bit: the same per-element ``base + rate * sum``.
        """
        return self.base + self.rate * self.sum_values(X)


class _PackedTrees:
    """A forest's segments as complete trees, the kernel's descent layout.

    The ``k``-th packed segment, forest segment ``seg_out[k]`` with ``T``
    trees and depth ``D``, becomes ``T`` complete trees of depth ``D``.
    Its tree ``t`` owns ``2^D - 1`` internal slots (``feature``,
    ``threshold``) from ``node_off[k] + t * (2^D - 1)`` in heap order —
    the children of slot ``h`` are ``2h + 1`` and ``2h + 2`` — and ``2^D``
    bottom values from ``leaf_off[k] + t * 2^D``.  Following the left and
    right links one level at a time from each root visits the slots in
    exactly that order, and a leaf's self-loop copies it (feature ``0``,
    threshold ``+inf``) into every slot below it, so every row descends
    ``D`` branch-free steps to a bottom slot holding its leaf's value.
    The kernel's ``forest_pack`` writes the slots in one call.  Segments
    deeper than ``MAX_DEPTH`` are listed in ``deep`` instead.
    """

    # A complete tree of depth D has 2^D leaves whatever the real tree
    # holds, so deeper ensembles keep the node-array descent.  Equals the
    # kernel's PACK_MAX_DEPTH.
    MAX_DEPTH = 6
    # feature, threshold, left, right, value, roots: forest_pack's src order
    _NODE_DTYPES = (np.int32, np.float64, np.int32, np.int32, np.float64, np.int32)

    def __init__(self, kernel, segments: list, seg_col: np.ndarray) -> None:
        ffi, lib = kernel
        packed = [s for s, e in enumerate(segments) if e.depth <= self.MAX_DEPTH]
        self.deep = [s for s, e in enumerate(segments) if e.depth > self.MAX_DEPTH]
        self.seg_out = np.array(packed, dtype=np.int64)
        self.seg_col = seg_col[self.seg_out]
        self.n_trees = np.array([segments[s].roots.size for s in packed], dtype=np.int64)
        self.depth = np.array([segments[s].depth for s in packed], dtype=np.int64)
        n_leaf = self.n_trees << self.depth
        self.node_off = np.concatenate(([0], np.cumsum(n_leaf - self.n_trees)))
        self.leaf_off = np.concatenate(([0], np.cumsum(n_leaf)))
        self.feature = np.empty(self.node_off[-1], dtype=np.int32)
        self.threshold = np.empty(self.node_off[-1])
        self.value = np.empty(self.leaf_off[-1])
        # The kernel reads every node array in place: check the dtypes
        # (``from_buffer`` itself rejects a non-contiguous array).
        src = []
        for s in packed:
            e = segments[s]
            arrays = (e.feature, e.threshold, e.left, e.right, e.value, e.roots)
            for a, dtype in zip(arrays, self._NODE_DTYPES):
                if a.dtype != dtype:
                    raise TypeError(f"ensemble node array of dtype {a.dtype}, expected {dtype}")
                src.append(ffi.from_buffer(a))
        src = ffi.new("void *[]", src)

        def ptr(kind, a):
            return ffi.cast(kind, a.ctypes.data)

        done = lib.forest_pack(
            len(packed), src, ptr("long *", self.n_trees), ptr("long *", self.depth),
            ptr("long *", self.node_off), ptr("long *", self.leaf_off),
            ptr("int *", self.feature), ptr("double *", self.threshold),
            ptr("double *", self.value),
        )
        if done < 0:  # pragma: no cover - MAX_DEPTH above the kernel's cap
            raise ValueError("a packed segment is deeper than the kernel packs")
        # The layout's arrays never change and live as long as it does, so
        # forest_predict's pointers to them are bound once, here.
        self._bound = (
            self.n_trees.size,
            ptr("int *", self.feature), ptr("double *", self.threshold),
            ptr("double *", self.value),
            ptr("long *", self.n_trees), ptr("long *", self.depth),
            ptr("long *", self.seg_col), ptr("long *", self.node_off),
            ptr("long *", self.leaf_off), ptr("long *", self.seg_out),
        )

    def sum_values(self, kernel, X: np.ndarray, out: np.ndarray) -> None:
        """Write every packed segment's column of ``out`` (C-contiguous
        float64 ``X`` and ``out``, one ``out`` column per forest segment)."""
        ffi, lib = kernel
        done = lib.forest_predict(
            ffi.from_buffer("double[]", X), X.shape[0], X.shape[1], *self._bound,
            out.shape[1], ffi.from_buffer("double[]", out),
        )
        if done < 0:  # pragma: no cover - allocation failure
            raise MemoryError("forest kernel could not allocate its leaf buffer")


class GradientBoostingRegressor:
    """Boosted regression-tree ensemble with an XGBoost-like API.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of each tree (0 grows single-leaf trees).
    reg_lambda:
        L2 penalty on leaf weights (>= 0).
    min_child_weight:
        Minimum hessian sum per leaf (= samples for squared loss; >= 0).
    gamma:
        Minimum split gain (>= 0).

    The fit uses every row and feature in every round, so it is
    deterministic and draws no random numbers.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        # Split scores are then non-negative, which the kernel's pruning
        # bound relies on (XGBoost has the same constraints).
        for name, value in (
            ("reg_lambda", reg_lambda), ("min_child_weight", min_child_weight),
            ("gamma", gamma),
        ):
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.reg_lambda = float(reg_lambda)
        self.min_child_weight = float(min_child_weight)
        self.gamma = float(gamma)

        self.base_score_: float = 0.0
        self.n_features_: int = 0
        self._ensemble: _FlatEnsemble | None = None

    # ------------------------------------------------------------------
    def fit(self, X, y) -> GradientBoostingRegressor:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        # The compiled kernel is the only fit engine: without it this
        # raises, and the model keeps whatever it held before.
        kernel = require_kernel()
        self._ensemble = None
        self.n_features_ = X.shape[1]
        self.base_score_ = float(y.mean())
        self._ensemble = self._fit_kernel(kernel, X, y)
        return self

    def _fit_kernel(self, kernel, X: np.ndarray, y: np.ndarray) -> _FlatEnsemble:
        """One compiled call for the full boosting loop.

        The kernel reads ``X`` transposed (feature-major), every column's
        stable sort order and its inverse (row -> sorted position), the
        only sort the fit performs.  It writes the ensemble's node arrays
        into buffers sized for complete trees; the model keeps exact-size
        copies, so it does not hold the unused tail.
        """
        ffi, lib = kernel
        xt = np.ascontiguousarray(X.T)
        f, n = xt.shape
        order = xt.argsort(axis=1, kind="stable")
        posof = np.empty_like(order)
        posof[np.arange(f)[:, None], order] = np.arange(n)
        n_est = self.n_estimators
        max_nodes = min(2 ** (self.max_depth + 1) - 1, 2 * n - 1)
        cap = n_est * max_nodes
        pred = np.full(n, self.base_score_)
        tree_off = np.empty(n_est + 1, dtype=np.int64)
        feat = np.empty(cap, dtype=np.int32)
        thr = np.empty(cap)
        left = np.empty(cap, dtype=np.int32)
        right = np.empty(cap, dtype=np.int32)
        val = np.empty(cap)
        nsamp = np.empty(cap, dtype=np.int64)

        def dp(a):
            return ffi.cast("double *", a.ctypes.data)

        def lp(a):
            return ffi.cast("long *", a.ctypes.data)

        def ip(a):
            return ffi.cast("int *", a.ctypes.data)

        yc = np.ascontiguousarray(y, dtype=float)
        depth = lib.gbm_fit_exact(
            dp(xt), lp(order), lp(posof),
            n, f, dp(yc),
            n_est, self.learning_rate, self.max_depth,
            self.reg_lambda, self.min_child_weight, self.gamma,
            dp(pred), max_nodes, lp(tree_off),
            ip(feat), dp(thr), ip(left), ip(right), dp(val), lp(nsamp),
        )
        if depth < 0:  # pragma: no cover - allocation failure
            raise MemoryError("GBM kernel could not allocate scratch buffers")
        end = int(tree_off[n_est])
        return _FlatEnsemble(
            *(a[:end].copy() for a in (feat, thr, left, right, val, nsamp)),
            tree_off[:n_est].astype(np.int32), int(depth),
        )

    # ------------------------------------------------------------------
    def _check_is_fitted(self) -> None:
        if self._ensemble is None:
            raise RuntimeError(
                "GradientBoostingRegressor used before fit"
            )

    def _validated(self, X) -> np.ndarray:
        self._check_is_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, model expects {self.n_features_}"
            )
        return X

    def _flat_ensemble(self) -> _FlatEnsemble:
        self._check_is_fitted()
        return self._ensemble

    def predict(self, X) -> np.ndarray:
        X = self._validated(X)
        return self.base_score_ + self.learning_rate * self._ensemble.sum_values(X)
