"""``repro.api`` — the single public surface of the reproduction.

The paper's value is that a fitted model is a *hand-off artifact*: the
flow team trains on 2-3 known configurations, architects then predict
any configuration from hardware parameters and performance-simulator
events alone.  This package is that hand-off, method-agnostically:

* :class:`PowerModel` — the protocol every method satisfies
  (``fit_results`` / ``predict_totals`` / ``predict_total``, its batch
  of one, bitwise-equal to the matching row / ``to_state`` /
  ``from_state``, plus ``predict_report`` where supported),
* the **method registry** — :func:`register`, :func:`get_method`,
  :func:`list_methods`, :func:`create`, :func:`fit` resolve methods by
  string name (``"autopower"``, ``"mcpat-calib"``, ...); experiments and
  the CLI carry no per-method branches,
* **versioned persistence** — :func:`save_model` / :func:`load_model`
  wrap any method's state in a ``{format_version: 3, method, library,
  state}`` envelope, each boosted model saved as its fused ensemble (v2
  files and legacy v1 AutoPower files still load),
* the **prediction service** — :class:`PredictionService` coalesces
  :class:`PredictRequest` streams into fused batched model calls.

Quick tour::

    import repro.api as api

    model = api.fit("autopower", train_configs=["C1", "C15"])
    api.save_model(model, "model.json")

    model = api.load_model("model.json")
    service = api.PredictionService(model)
    response = service.predict(api.PredictRequest("C8", events, "dhrystone"))

Importing the package registers the five built-in methods.
"""

from repro.api.adapters import register_builtin_methods
from repro.api.protocol import PowerModel, supports_reports
from repro.api.registry import (
    MethodSpec,
    create,
    fit,
    get_method,
    list_methods,
    method_names,
    register,
    spec_for,
)
from repro.api.persistence import (
    FORMAT_VERSION,
    load_model,
    model_from_envelope,
    model_to_envelope,
    save_model,
)
from repro.api.service import (
    PredictRequest,
    PredictResponse,
    PredictionService,
    ServiceStats,
)

register_builtin_methods()

__all__ = [
    "FORMAT_VERSION",
    "MethodSpec",
    "PowerModel",
    "PredictRequest",
    "PredictResponse",
    "PredictionService",
    "ServiceStats",
    "create",
    "fit",
    "get_method",
    "list_methods",
    "load_model",
    "method_names",
    "model_from_envelope",
    "model_to_envelope",
    "register",
    "register_builtin_methods",
    "save_model",
    "spec_for",
    "supports_reports",
]
