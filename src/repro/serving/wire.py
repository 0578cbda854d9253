"""JSON wire protocol for the serving gateway.

One prediction request is one JSON object::

    {"config": "C8", "workload": "dhrystone", "kind": "total",
     "events": {"cycles": 50000.0, "instructions": 41000.0, ...}}

``events`` carries the full event-count dict of one simulation interval
(every name in :data:`repro.arch.events.EVENT_NAMES`); ``kind`` is
``"total"`` (default), ``"report"`` or ``"trace"``; trace requests add
``"scales"`` (list of activity scales) and optionally
``"window_cycles"``.  Any request may carry ``"deadline_ms"`` — a
positive millisecond budget the resilience layer enforces: the request
is shed with 504 if it expires while queued (never reaching the model)
and bounds the model call itself; requests without one fall back to the
gateway's server-side default.  Responses mirror the request identity
and carry the payload field matching the kind — ``total`` (mW),
``report`` (per-component power-group breakdown) or ``trace``
(per-window mW list).

Decoding is strict and fails *before* anything reaches the model:

* :class:`WireError` with status 400 — malformed request (unknown
  fields, bad event names, empty scales, unknown config/workload, ...),
* :class:`WireError` with status 422 — a well-formed request whose
  ``kind`` the loaded model cannot serve (e.g. ``report`` against a
  method without power-group reports).

Floats survive the wire bitwise: ``json`` serializes via ``repr`` (the
shortest round-tripping form), so a decoded response compares equal to
the in-process :class:`~repro.api.service.PredictResponse` values.
"""

from __future__ import annotations

import json
from typing import Any

from repro.api.service import PredictRequest, PredictResponse
from repro.power.report import POWER_GROUPS, PowerReport

__all__ = [
    "WireError",
    "decode_body",
    "decode_dse_submit",
    "decode_model_load",
    "decode_request",
    "encode_error",
    "encode_report",
    "encode_request",
    "encode_response",
    "supported_kinds",
]

_REQUEST_FIELDS = frozenset(
    {
        "config",
        "workload",
        "kind",
        "events",
        "scales",
        "window_cycles",
        "deadline_ms",
    }
)


class WireError(Exception):
    """A request the gateway refuses, with the HTTP status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def decode_body(body: bytes) -> Any:
    """Parse a request body as JSON; anything unparseable is a 400.

    That includes a body nested deeper than the parser can recurse:
    ``json.loads`` raises :class:`RecursionError` for it.
    """
    try:
        return json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        raise WireError(400, "request body is not valid JSON") from None


def supported_kinds(model: Any) -> tuple[str, ...]:
    """The request kinds a model can serve (mirrors service validation)."""
    kinds = ["total"]
    if callable(getattr(model, "predict_reports", None)) or callable(
        getattr(model, "predict_report", None)
    ):
        kinds.append("report")
    if callable(getattr(model, "predict_trace", None)):
        kinds.append("trace")
    return tuple(kinds)


def decode_request(obj: Any, model: Any = None) -> PredictRequest:
    """Decode one JSON request object into a :class:`PredictRequest`.

    Raises :class:`WireError` (400) on any malformed payload; when
    ``model`` is given, additionally raises :class:`WireError` (422) for
    a kind the model cannot serve.
    """
    if not isinstance(obj, dict):
        raise WireError(400, "request must be a JSON object")
    unknown = set(obj) - _REQUEST_FIELDS
    if unknown:
        raise WireError(400, f"unknown request fields: {sorted(unknown)}")
    config = obj.get("config")
    if not isinstance(config, str):
        raise WireError(400, "request needs a 'config' name string")
    workload = obj.get("workload")
    if workload is not None and not isinstance(workload, str):
        raise WireError(400, "'workload' must be a name string or omitted")
    kind = obj.get("kind", "total")
    if not isinstance(kind, str):
        raise WireError(400, "'kind' must be a string")
    events_obj = obj.get("events")
    if not isinstance(events_obj, dict):
        raise WireError(400, "request needs an 'events' count object")

    from repro.arch.events import EventParams

    try:
        counts = {str(k): float(v) for k, v in events_obj.items()}
    except (TypeError, ValueError):
        raise WireError(400, "event counts must be numbers") from None
    kwargs: dict[str, Any] = {}
    if "scales" in obj:
        kwargs["scales"] = obj["scales"]
    if "window_cycles" in obj:
        window_cycles = obj["window_cycles"]
        if not isinstance(window_cycles, (int, float)) or isinstance(
            window_cycles, bool
        ):
            raise WireError(400, "'window_cycles' must be a number")
        kwargs["window_cycles"] = window_cycles
    if "deadline_ms" in obj:
        deadline_ms = obj["deadline_ms"]
        if (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
        ):
            raise WireError(400, "'deadline_ms' must be a number")
        kwargs["deadline_ms"] = deadline_ms
    try:
        request = PredictRequest(
            config=config,
            events=EventParams(counts),
            workload=workload,
            kind=kind,
            **kwargs,
        )
    except KeyError as exc:  # unknown config / workload name
        raise WireError(400, str(exc.args[0] if exc.args else exc)) from None
    except (TypeError, ValueError) as exc:
        raise WireError(400, str(exc)) from None
    if model is not None and request.kind not in supported_kinds(model):
        raise WireError(
            422,
            f"{type(model).__name__} does not support "
            f"{request.kind!r} requests",
        )
    return request


def decode_model_load(obj: Any) -> tuple[str, Any]:
    """Validate a ``PUT /models/<name>`` body into a load instruction.

    Two accepted shapes, decided by their keys:

    * ``{"path": "model.json"}`` — load a server-side model file
      (``repro.api.load_model``),
    * a full model envelope ``{"format_version": 3, "method": ...,
      "library": ..., "state": ...}`` (or a v2 one) — load from the
      request body itself (``repro.api.model_from_envelope``).

    Returns ``("path", str)`` or ``("envelope", dict)``; raises
    :class:`WireError` 400 on anything else, before any model state is
    touched.  A malformed envelope or state fails later, in
    ``model_from_envelope``, with a ``ValueError`` the gateway also
    answers with 400.
    """
    if not isinstance(obj, dict):
        raise WireError(400, "model load body must be a JSON object")
    if "path" in obj:
        unknown = set(obj) - {"path"}
        if unknown:
            raise WireError(
                400, f"unknown model load fields: {sorted(unknown)}"
            )
        path = obj["path"]
        if not isinstance(path, str) or not path:
            raise WireError(400, "'path' must be a non-empty string")
        return "path", path
    if "format_version" in obj:
        return "envelope", obj
    raise WireError(
        400,
        "model load body needs either a 'path' or a full "
        "'format_version' model envelope",
    )


_DSE_FIELDS = frozenset(
    {
        "base",
        "axes",
        "workloads",
        "method",
        "train",
        "library",
        "jobs",
        "chunk",
        "max_configs",
    }
)


def decode_dse_submit(obj: Any) -> dict:
    """Structurally validate a ``POST /dse`` body into a job spec.

    Only the *shape* is checked here (it must be an object, with known
    field names and JSON-typed values); name resolution and semantic
    validation (unknown rows, grid bounds, method names) belong to
    :func:`repro.dse.jobs.normalize_spec`, which answers 400 through
    :class:`~repro.dse.jobs.DseError` — both run before any flow work.
    """
    if not isinstance(obj, dict):
        raise WireError(400, "DSE submission must be a JSON object")
    unknown = set(obj) - _DSE_FIELDS
    if unknown:
        raise WireError(400, f"unknown DSE fields: {sorted(unknown)}")
    for name in ("base", "method", "library"):
        if name in obj and not isinstance(obj[name], str):
            raise WireError(400, f"{name!r} must be a name string")
    for name in ("workloads", "train"):
        if name in obj and (
            not isinstance(obj[name], list)
            or not all(isinstance(x, str) for x in obj[name])
        ):
            raise WireError(400, f"{name!r} must be a list of name strings")
    if "axes" not in obj:
        raise WireError(400, "DSE submission needs an 'axes' object")
    if not isinstance(obj["axes"], dict):
        raise WireError(
            400, "'axes' must map raw parameter rows to value lists"
        )
    return dict(obj)


def encode_request(request: PredictRequest) -> dict:
    """The JSON object form of a request (the client side of the wire)."""
    obj: dict[str, Any] = {
        "config": request.config.name,
        "kind": request.kind,
        "events": dict(request.events.counts),
    }
    if request.workload is not None:
        obj["workload"] = request.workload.name
    if request.kind == "trace":
        obj["scales"] = [float(s) for s in request.scales]
        obj["window_cycles"] = request.window_cycles
    if request.deadline_ms is not None:
        obj["deadline_ms"] = request.deadline_ms
    return obj


def encode_report(report: PowerReport) -> dict:
    """Per-component power-group breakdown as plain JSON."""
    return {
        "total": float(report.total),
        "groups": {g: float(report.group_total(g)) for g in POWER_GROUPS},
        "components": [
            {
                "name": c.name,
                "clock": float(c.clock),
                "sram": float(c.sram),
                "register": float(c.register),
                "comb": float(c.comb),
                "total": float(c.total),
            }
            for c in report.components
        ],
    }


def encode_response(response: PredictResponse) -> dict:
    """The JSON object form of one response (payload field per kind)."""
    obj: dict[str, Any] = {
        "config": response.config_name,
        "workload": response.workload_name,
        "kind": response.kind,
    }
    if response.total is not None:
        obj["total"] = float(response.total)
    if response.report is not None:
        obj["report"] = encode_report(response.report)
    if response.trace is not None:
        obj["trace"] = [float(x) for x in response.trace]
    return obj


def encode_error(status: int, message: str) -> dict:
    """The structured error body every non-2xx response carries."""
    return {"error": {"status": status, "message": message}}
