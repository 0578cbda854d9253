"""Scalar per-node reference for the GBM fit, the kernel's parity oracle.

The same split rule as ``repro.ml._kernel``'s ``gbm_fit_exact``, fit one
node at a time in plain Python floats (IEEE doubles, like the kernel's
``-ffp-contract=off`` C), with none of the kernel's shortcuts: no
presort, no pruning bound, no skipped columns, no level-wise frontier.

* A node's rows are kept in ascending index order, so a stable sort by
  value is the (value, row) order the kernel's presorted partitions
  hold, and its cumulative gradient sums run in that order.
* The root's gradient sum runs in row order; a child's sum chains off
  the winning cumulative value (left) and its difference from the
  parent's (right), as in the kernel.
* Candidates are scanned feature-major and kept only when strictly
  better, so ties resolve to the lowest (feature, position) pair.

:func:`fit` returns a :class:`~repro.ml.gbm.GradientBoostingRegressor`
holding the reference ensemble, so a kernel fit and a reference fit
compare through ``gbm_to_dict`` and ``predict`` byte for byte
(:func:`assert_same_fit`).
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.ml.gbm import GradientBoostingRegressor, _FlatEnsemble
from repro.ml.serialize import gbm_to_dict

GAIN_EPS = 1e-12


def _best_split(cols, grad, rows, gsum, p):
    """The winning ``(feature, position, sorted rows, cum)``, or None."""
    n = len(rows)
    lam, mcw = p["reg_lambda"], p["min_child_weight"]
    best, win = -math.inf, None
    for feature, col in enumerate(cols):
        order = sorted(rows, key=col.__getitem__)  # stable: ties keep row order
        cum = 0.0
        for j in range(n - 1):
            cum += grad[order[j]]
            if col[order[j]] == col[order[j + 1]]:
                continue
            hl, hr = float(j + 1), float(n - j - 1)
            if hl < mcw or hr < mcw:
                continue
            gr = gsum - cum
            score = cum * cum / (hl + lam) + gr * gr / (hr + lam)
            if score > best:
                best, win = score, (feature, j, order, cum)
    if win is None:
        return None
    gain = 0.5 * (best - gsum * gsum / (n + lam)) - p["gamma"]
    return win if gain > GAIN_EPS else None


def _grow(cols, grad, rows, gsum, depth, p, nodes, update):
    """Append the subtree over ``rows`` in preorder; return its depth."""
    i = len(nodes)
    value = -gsum / (len(rows) + p["reg_lambda"])
    # A leaf: feature 0, threshold +inf, a self-loop (the kernel's form).
    nodes.append([0, math.inf, i, i, value, len(rows)])
    split = None
    if depth < p["max_depth"] and len(rows) >= 2:
        split = _best_split(cols, grad, rows, gsum, p)
    if split is None:
        for r in rows:
            update[r] = value
        return depth
    feature, j, order, cum = split
    col = cols[feature]
    nodes[i][:2] = feature, 0.5 * (col[order[j]] + col[order[j + 1]])
    nodes[i][2] = len(nodes)
    d_left = _grow(cols, grad, sorted(order[: j + 1]), cum, depth + 1, p, nodes, update)
    nodes[i][3] = len(nodes)
    d_right = _grow(
        cols, grad, sorted(order[j + 1 :]), gsum - cum, depth + 1, p, nodes, update
    )
    return max(d_left, d_right)


def fit(X, y, **params) -> GradientBoostingRegressor:
    """The reference fit of ``GradientBoostingRegressor(**params)``."""
    model = GradientBoostingRegressor(**params)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    p = vars(model)
    cols = X.T.tolist()
    targets = y.tolist()
    model.n_features_ = X.shape[1]
    model.base_score_ = float(y.mean())
    pred = [model.base_score_] * len(targets)
    nodes, roots, depth = [], [], 0
    for _ in range(model.n_estimators):
        grad = [a - b for a, b in zip(pred, targets)]
        gsum = 0.0
        for g in grad:  # sequential, unlike sum() on Python 3.12+
            gsum += g
        update = [0.0] * len(grad)
        roots.append(len(nodes))
        tree_depth = _grow(cols, grad, list(range(len(grad))), gsum, 0, p, nodes, update)
        depth = max(depth, tree_depth)
        pred = [a + model.learning_rate * u for a, u in zip(pred, update)]
    feature, threshold, left, right, value, n_samples = zip(*nodes)
    model._ensemble = _FlatEnsemble(
        np.array(feature, dtype=np.int32),
        np.array(threshold),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(value),
        np.array(n_samples, dtype=np.int64),
        np.array(roots, dtype=np.int32),
        depth,
    )
    return model


def fit_both(X, y, **params):
    """The kernel's fit and the reference fit of the same model."""
    return GradientBoostingRegressor(**params).fit(X, y), fit(X, y, **params)


def assert_same_fit(got, want, X) -> None:
    """Byte-equal saved models and predictions on ``X``."""
    assert json.dumps(gbm_to_dict(got)) == json.dumps(gbm_to_dict(want))
    assert got.predict(X).tobytes() == want.predict(X).tobytes()
