"""JSON-serializable state for the ML models.

A fitted AutoPower instance embeds dozens of small models; persisting it
lets a team train once against the (slow, licensed) EDA flow and ship the
fitted model to architects who only have the performance simulator.  All
formats are plain dicts of JSON types — no pickle.

A GBM saves one entry per tree: the tree's preorder node lists
(``feature[]``, ``threshold[]``, ``left[]``, ``right[]``, ``value[]``,
``n_samples[]``; a leaf has feature ``-1`` and children ``-1``) and the
model columns its features index.  The writer derives them from the
model's fused ensemble; the reader builds the ensemble straight from
them, after checking every index a compiled descent would follow.  Files
from earlier releases — column-subsampled or histogram-fitted models,
and the nested ``root`` tree format — still load and predict the same.
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
    n_features = model.n_features_
    n_nodes = ens.value.size
    bounds = ens.roots.tolist() + [n_nodes]
    sizes = np.diff(bounds)
    root = np.repeat(ens.roots, sizes)
    leaf = ens.left == np.arange(n_nodes)
    nodes = {
        "feature": np.where(leaf, -1, ens.feature).tolist(),
        "threshold": np.where(leaf, 0.0, ens.threshold).tolist(),
        "left": np.where(leaf, -1, ens.left - root).tolist(),
        "right": np.where(leaf, -1, ens.right - root).tolist(),
        "value": ens.value.tolist(),
        "n_samples": ens.n_samples.tolist(),
    }
    # The fit has no sampling or histogram knobs; the format keeps their
    # keys, at the values that mean full-data exact fitting, so saved
    # bytes do not change and older readers still load the files.
    params = {
        "n_estimators": model.n_estimators,
        "max_depth": model.max_depth,
        "reg_lambda": model.reg_lambda,
        "min_child_weight": model.min_child_weight,
        "gamma": model.gamma,
        "subsample": 1.0,
        "colsample_bytree": 1.0,
        "tree_method": "exact",
        "max_bin": 256,
        "random_state": model.random_state,
    }
    trees = []
    for a, b in zip(bounds, bounds[1:]):
        tree = {
            "kind": "tree",
            "n_features": n_features,
            "max_depth": model.max_depth,
            "reg_lambda": model.reg_lambda,
            "tree_method": "exact",
            "nodes": {key: values[a:b] for key, values in nodes.items()},
        }
        trees.append({"tree": tree, "columns": list(range(n_features))})
    return {
        "kind": "gbm",
        "learning_rate": model.learning_rate,
        "base_score": model.base_score_,
        "n_features": n_features,
        "params": params,
        "trees": trees,
    }


def gbm_from_dict(state: dict) -> GradientBoostingRegressor:
    if state.get("kind") != "gbm":
        raise ValueError(f"not a gbm state: {state.get('kind')!r}")
    params = state["params"]
    model = GradientBoostingRegressor(
        n_estimators=params["n_estimators"],
        learning_rate=state["learning_rate"],
        max_depth=params["max_depth"],
        reg_lambda=params["reg_lambda"],
        min_child_weight=params["min_child_weight"],
        gamma=params["gamma"],
        random_state=params["random_state"],
    )
    model.base_score_ = float(state["base_score"])
    model.n_features_ = int(state["n_features"])
    model._ensemble = _ensemble_from_trees(state["trees"], model.n_features_)
    return model


def _ensemble_from_trees(trees: list, n_features: int) -> _FlatEnsemble:
    """The fused ensemble of saved trees, validated before anything walks it.

    Feature ``j`` of a tree reads model column ``columns[j]``.  Rejects
    unequal or empty node lists, a column outside ``[0, n_features)``, a
    feature outside the tree's columns, and a child that does not follow
    its parent inside the same tree (preorder) or has two parents — each
    would send the compiled descent outside its arrays.
    """
    if not trees:
        raise ValueError("a saved gbm needs at least one tree")
    lists: dict = {key: [] for key in _NODE_KEYS}
    lengths: dict = {key: [] for key in _NODE_KEYS}
    n_cols, columns = [], []
    for entry in trees:
        tree = entry["tree"]
        if tree.get("kind") != "tree":
            raise ValueError(f"not a tree state: {tree.get('kind')!r}")
        nodes = tree["nodes"] if "nodes" in tree else _nodes_from_nested(tree["root"])
        for key in _NODE_KEYS:
            lists[key] += nodes[key]
            lengths[key].append(len(nodes[key]))
        n_cols.append(len(entry["columns"]))
        columns += entry["columns"]
    sizes = lengths["feature"]
    if 0 in sizes or any(lengths[key] != sizes for key in _NODE_KEYS):
        raise ValueError("a tree's node lists must have equal, non-zero length")

    sizes = np.array(sizes)
    n_cols = np.array(n_cols)
    columns = np.array(columns, dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    root = roots[tree_of]
    ids = np.arange(root.size)
    feature = np.array(lists["feature"], dtype=np.int64)
    split = feature >= 0
    left = np.where(split, np.array(lists["left"], dtype=np.int64) + root, ids)
    right = np.where(split, np.array(lists["right"], dtype=np.int64) + root, ids)
    end = root + sizes[tree_of]
    if np.any(columns < 0) or np.any(columns >= n_features):
        raise ValueError(f"a tree column is outside [0, {n_features})")
    if np.any(split & (feature >= n_cols[tree_of])):
        raise ValueError("a node's feature is outside its tree's columns")
    for child in (left, right):
        if np.any(split & ((child <= ids) | (child >= end))):
            raise ValueError("a node's child is not a later node of its tree")
    if np.bincount(np.concatenate((left[split], right[split]))).max(initial=0) > 1:
        raise ValueError("a node is the child of two parents")

    model_feature = np.zeros(ids.size, dtype=np.int32)
    col_base = (np.cumsum(n_cols) - n_cols)[tree_of]
    model_feature[split] = columns[(col_base + feature)[split]]
    # Levels of internal nodes, all trees at once; every node has one
    # parent and follows it, so the walk ends.
    depth = 0
    level = roots[split[roots]]
    while level.size:
        depth += 1
        level = np.concatenate((left[level], right[level]))
        level = level[split[level]]
    return _FlatEnsemble(
        model_feature,
        np.where(split, np.array(lists["threshold"], dtype=float), np.inf),
        left.astype(np.int32),
        right.astype(np.int32),
        np.array(lists["value"], dtype=float),
        np.array(lists["n_samples"], dtype=np.int64),
        roots.astype(np.int32),
        depth,
    )


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
