"""JSON-serializable state for the ML models.

A fitted AutoPower instance embeds dozens of small models; persisting it
lets a team train once against the (slow, licensed) EDA flow and ship the
fitted model to architects who only have the performance simulator.  All
formats are plain dicts of JSON types — no pickle.

A GBM saves its fused ensemble (format 3): ``roots[]``, the first node
of each tree, and one list each of ``feature``, ``threshold``, ``left``,
``right``, ``value`` and ``n_samples`` over every tree's nodes in
preorder.  Children are indices within their tree; a leaf has feature
``-1``, children ``-1`` and threshold ``0.0``, so the state stays strict
JSON.  The reader checks every type, length and index a compiled descent
would follow before it builds the ensemble.  Formats 1 and 2 saved one
entry per tree (with the model columns its features index, or as a
nested ``root`` tree); one legacy converter turns them into the same
lists and the same validator checks them, so files from earlier releases
— column-subsampled or histogram-fitted models included — still load and
predict the same.
"""

from __future__ import annotations

import numpy as np

from repro.ml.gbm import GradientBoostingRegressor, _FlatEnsemble
from repro.ml.linear import RidgeRegression

__all__ = [
    "gbm_from_dict",
    "gbm_to_dict",
    "ridge_from_dict",
    "ridge_to_dict",
]

_NODE_KEYS = ("feature", "threshold", "left", "right", "value", "n_samples")
_INT_KEYS = frozenset({"roots", "feature", "left", "right", "n_samples"})
_PARAM_KEYS = ("n_estimators", "max_depth", "reg_lambda", "min_child_weight", "gamma")


# -- ridge ------------------------------------------------------------------
def ridge_to_dict(model: RidgeRegression) -> dict:
    if model.coef_ is None:
        raise ValueError("cannot serialize an unfitted RidgeRegression")
    return {
        "kind": "ridge",
        "alpha": model.alpha,
        "fit_intercept": model.fit_intercept,
        "normalize": model.normalize,
        "nonnegative": model.nonnegative,
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_,
    }


def ridge_from_dict(state: dict) -> RidgeRegression:
    if state.get("kind") != "ridge":
        raise ValueError(f"not a ridge state: {state.get('kind')!r}")
    model = RidgeRegression(
        alpha=state["alpha"],
        fit_intercept=state["fit_intercept"],
        normalize=state["normalize"],
        nonnegative=state["nonnegative"],
    )
    model.coef_ = np.asarray(state["coef"], dtype=float)
    model.intercept_ = float(state["intercept"])
    return model


# -- gradient boosting --------------------------------------------------------
def gbm_to_dict(model: GradientBoostingRegressor) -> dict:
    if model._ensemble is None:
        raise ValueError("cannot serialize an unfitted GradientBoostingRegressor")
    ens = model._ensemble
    n_nodes = ens.value.size
    root = np.repeat(ens.roots, np.diff(ens.roots, append=n_nodes))
    leaf = ens.left == np.arange(n_nodes)
    return {
        "kind": "gbm",
        "learning_rate": model.learning_rate,
        "base_score": model.base_score_,
        "n_features": model.n_features_,
        "params": {key: getattr(model, key) for key in _PARAM_KEYS},
        "roots": ens.roots.tolist(),
        "feature": np.where(leaf, -1, ens.feature).tolist(),
        "threshold": np.where(leaf, 0.0, ens.threshold).tolist(),
        "left": np.where(leaf, -1, ens.left - root).tolist(),
        "right": np.where(leaf, -1, ens.right - root).tolist(),
        "value": ens.value.tolist(),
        "n_samples": ens.n_samples.tolist(),
    }


def gbm_from_dict(state: dict) -> GradientBoostingRegressor:
    kind = state.get("kind") if isinstance(state, dict) else None
    if kind != "gbm":
        raise ValueError(f"not a gbm state: {kind!r}")
    params = state.get("params")
    if not isinstance(params, dict):
        raise ValueError("a gbm state needs a 'params' object")
    model = GradientBoostingRegressor(
        learning_rate=_number(state, "learning_rate"),
        **{key: _number(params, key) for key in _PARAM_KEYS},
    )
    model.base_score_ = float(_number(state, "base_score"))
    model.n_features_ = int(_number(state, "n_features"))
    if "trees" in state:
        lists = _lists_from_trees(state["trees"], model.n_features_)
    else:
        lists = state
    model._ensemble = _ensemble_from_lists(lists, model.n_features_)
    return model


def _number(state: dict, key: str) -> int | float:
    value = state.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"gbm {key!r} must be a number, got {value!r}")
    return value


def _array(lists: dict, key: str) -> np.ndarray:
    """``lists[key]`` as a 1-D array, once it is a list of the right type."""
    values = lists.get(key)
    if not isinstance(values, list):
        raise ValueError(f"gbm {key!r} must be a list")
    array = np.array(values)  # a ragged nested list raises ValueError
    integer = key in _INT_KEYS
    if array.ndim != 1 or (array.size and array.dtype.kind not in ("i" if integer else "if")):
        raise ValueError(f"gbm {key!r} must be a list of {'integers' if integer else 'numbers'}")
    return array.astype(np.int64 if integer else float, copy=False)


def _ensemble_from_lists(lists: dict, n_features: int) -> _FlatEnsemble:
    """The fused ensemble of format-3 node lists, validated before anything
    walks it.

    Rejects a list of the wrong type, unequal or empty node lists, roots
    that do not rise strictly from 0 below the node count, a feature
    outside ``[-1, n_features)``, and a child that does not follow its
    parent inside the same tree (preorder) or has two parents — each
    would send the compiled descent outside its arrays.
    """
    roots = _array(lists, "roots")
    feature, threshold, left, right, value, n_samples = (
        _array(lists, key) for key in _NODE_KEYS
    )
    n_nodes = feature.size
    if n_nodes == 0 or any(
        a.size != n_nodes for a in (threshold, left, right, value, n_samples)
    ):
        raise ValueError("a gbm's node lists must have equal, non-zero length")
    if roots.size == 0 or roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n_nodes:
        raise ValueError("a gbm's roots must rise strictly from 0 below its node count")
    if np.any((feature < -1) | (feature >= n_features)):
        raise ValueError(f"a node's feature is outside [-1, {n_features})")

    sizes = np.diff(roots, append=n_nodes)
    root = np.repeat(roots, sizes)
    end = root + np.repeat(sizes, sizes)
    ids = np.arange(n_nodes)
    split = feature >= 0
    left = np.where(split, left + root, ids)
    right = np.where(split, right + root, ids)
    for child in (left, right):
        if np.any(split & ((child <= ids) | (child >= end))):
            raise ValueError("a node's child is not a later node of its tree")
    if np.bincount(np.concatenate((left[split], right[split]))).max(initial=0) > 1:
        raise ValueError("a node is the child of two parents")

    # Levels of internal nodes, all trees at once; every node has one
    # parent and follows it, so the walk ends.
    depth = 0
    level = roots[split[roots]]
    while level.size:
        depth += 1
        level = np.concatenate((left[level], right[level]))
        level = level[split[level]]
    return _FlatEnsemble(
        np.where(split, feature, 0).astype(np.int32),
        np.where(split, threshold, np.inf),
        left.astype(np.int32),
        right.astype(np.int32),
        value,
        n_samples,
        roots.astype(np.int32),
        depth,
    )


def _lists_from_trees(trees: list, n_features: int) -> dict:
    """Format-3 node lists of a format-1/2 GBM's per-tree entries.

    Feature ``j`` of a tree reads model column ``columns[j]``; the lists
    index model columns directly.  Checks what the format-3 lists cannot
    show (a column outside ``[0, n_features)``, a feature outside its
    tree's columns, a tree whose node lists differ in length) and leaves
    the rest to :func:`_ensemble_from_lists`.  A value of the wrong type
    raises ``TypeError`` or ``KeyError``, which
    :func:`repro.api.model_from_envelope` reports as ``ValueError``.
    """
    lists: dict = {key: [] for key in ("roots",) + _NODE_KEYS}
    for entry in trees:
        tree = entry["tree"]
        if tree.get("kind") != "tree":
            raise ValueError(f"not a tree state: {tree.get('kind')!r}")
        nodes = tree["nodes"] if "nodes" in tree else _nodes_from_nested(tree["root"])
        columns = entry["columns"]
        if len({len(nodes[key]) for key in _NODE_KEYS}) != 1:
            raise ValueError("a tree's node lists must have equal length")
        if not all(type(c) is int and 0 <= c < n_features for c in columns):
            raise ValueError(f"a tree column is outside [0, {n_features})")
        if any(f >= len(columns) for f in nodes["feature"]):
            raise ValueError("a node's feature is outside its tree's columns")
        lists["roots"].append(len(lists["feature"]))
        lists["feature"] += [columns[f] if f >= 0 else -1 for f in nodes["feature"]]
        for key in _NODE_KEYS[1:]:
            lists[key] += nodes[key]
    return lists


def _nodes_from_nested(root: dict) -> dict:
    """Preorder node lists of a tree in the legacy nested ``root`` format."""
    nodes: dict = {key: [] for key in _NODE_KEYS}

    def visit(node: dict) -> int:
        i = len(nodes["value"])
        split = "left" in node
        nodes["feature"].append(int(node["feature"]) if split else -1)
        nodes["threshold"].append(float(node["threshold"]) if split else 0.0)
        nodes["left"].append(-1)
        nodes["right"].append(-1)
        nodes["value"].append(float(node["value"]))
        nodes["n_samples"].append(int(node.get("n_samples", 0)))
        if split:
            nodes["left"][i] = visit(node["left"])
            nodes["right"][i] = visit(node["right"])
        return i

    visit(root)
    return nodes
