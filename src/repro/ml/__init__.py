"""Machine-learning stack used by AutoPower and the baselines.

The paper uses two model families:

* a linear model with L2 regularization (ridge regression) for the
  register-count and gating-rate sub-models, where the correlation with
  hardware parameters is simple and training samples are scarce, and
* XGBoost for the activity-style sub-models, where the correlation with
  hardware *and* event parameters is complex and one sample per workload
  is available.

This environment has no network access, so :mod:`repro.ml.gbm` provides a
from-scratch gradient-boosted regression-tree implementation with the
XGBoost-style regularized objective (squared loss, shrinkage, ``reg_lambda``,
``min_child_weight``, ``gamma``, depth limit).

One ensemble per model
----------------------
The paper fits each boosted sub-model on a handful of rows (2-3 known
configurations x 8 workloads), so every round runs the exact greedy
split search over all rows and features.  A fitted
:class:`~repro.ml.gbm.GradientBoostingRegressor` owns exactly one
node-array set: all its trees concatenated in preorder, leaves encoded
as self-loops.  The compiled kernel (:mod:`repro.ml._kernel`, one call
per fit) writes it directly; it is the only fit engine, so fitting needs
a C compiler and ``cffi``.  Prediction descends every row through every
tree in lockstep, and :class:`~repro.ml.gbm.Forest` walks many models'
ensembles in one compiled call, or in numpy without the kernel, so a
saved model loads and predicts anywhere.  :mod:`repro.ml.serialize`
saves that same node-array set and validates it on load.
"""

from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.metrics import (
    mape,
    max_error,
    mean_absolute_error,
    pearson_r,
    r2_score,
    rmse,
)
from repro.ml.scaling import StandardScaler

__all__ = [
    "GradientBoostingRegressor",
    "RidgeRegression",
    "StandardScaler",
    "mape",
    "max_error",
    "mean_absolute_error",
    "pearson_r",
    "r2_score",
    "rmse",
]
