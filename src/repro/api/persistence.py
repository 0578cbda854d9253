"""Versioned, method-agnostic model persistence (format v3).

A fitted model is the paper's hand-off artifact: the flow-side team
trains once against the slow, licensed EDA flow and ships a JSON file to
architects who only have a performance simulator.  The envelope wraps
*any* registered method's :meth:`to_state` payload::

    {"format_version": 3, "method": "<registry name>",
     "library": "<tech library name or null>", "state": {...}}

so one ``load_model`` call reconstructs whichever method wrote the file.
The envelope carries the technology library by *name* only — the library
is part of the flow, not of the learned state — and loading validates it
against the caller's library for the methods that depend on one.

Format v3 saves each boosted model as its fused ensemble, one set of
node lists (:mod:`repro.ml.serialize`); v2 saved one entry per tree
under the same envelope.  v2 files and legacy v1 files (AutoPower-only,
state keys at the top level) still load; saving always writes v3.  An
envelope or state of the wrong shape raises :class:`ValueError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.api.registry import get_method, spec_for

__all__ = [
    "FORMAT_VERSION",
    "load_model",
    "model_from_envelope",
    "model_to_envelope",
    "save_model",
]

FORMAT_VERSION = 3


def model_to_envelope(model: Any) -> dict:
    """The format-v3 envelope dict for any registered fitted model.

    This is the in-memory half of :func:`save_model` — the serving
    gateway ships envelopes over the wire (``PUT /models/<name>``)
    without touching the filesystem.
    """
    spec = spec_for(model)
    library = getattr(model, "library", None)
    return {
        "format_version": FORMAT_VERSION,
        "method": spec.name,
        "library": getattr(library, "name", None),
        "state": model.to_state(),
    }


def save_model(model: Any, path: str | Path) -> None:
    """Serialize any registered method's fitted model to a JSON file."""
    Path(path).write_text(json.dumps(model_to_envelope(model)))


def model_from_envelope(envelope: Any, library: Any = None) -> Any:
    """Reconstruct a fitted model from an envelope dict.

    The in-memory half of :func:`load_model`: accepts format-v3 and v2
    envelopes and legacy format-v1 AutoPower payloads.  ``library`` is
    resolved by name for methods that carry one.  Raises
    :class:`ValueError` for any envelope or state of the wrong shape.
    """
    if not isinstance(envelope, dict):
        raise ValueError(
            f"model envelope must be a JSON object, got {type(envelope).__name__}"
        )
    version = envelope.get("format_version")
    if version == 1:
        # v1 predates the envelope: AutoPower state at the top level.
        method, state = "autopower", envelope
    elif version in (2, FORMAT_VERSION):
        method, state = envelope.get("method"), envelope.get("state")
    else:
        raise ValueError(f"unsupported model file version {version!r}")
    library_name = envelope.get("library")
    if not isinstance(method, str):
        raise ValueError("model envelope 'method' must be a string")
    if not isinstance(state, dict):
        raise ValueError("model envelope 'state' must be a JSON object")
    if library_name is not None and not isinstance(library_name, str):
        raise ValueError("model envelope 'library' must be a string or null")
    try:
        spec = get_method(method)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if library_name is not None:
        if library is None:
            from repro.library.stdcell import default_library

            library = default_library()
        if library.name != library_name:
            raise ValueError(
                f"model was trained against library {library_name!r}, "
                f"got {library.name!r}"
            )
    # Every ``from_state`` reads its state with plain indexing; a missing
    # key or a value of the wrong type is a malformed file, not a bug.
    try:
        return spec.cls.from_state(state, library=library)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(
            f"malformed {spec.name} model state: {type(exc).__name__}: {exc}"
        ) from None


def load_model(path: str | Path, library: Any = None) -> Any:
    """Load a fitted model saved by :func:`save_model`.

    Accepts format-v3 and v2 envelopes and legacy format-v1 AutoPower
    files.  ``library`` is resolved by name for methods that carry one
    (pass it explicitly when using a non-default technology library).
    """
    return model_from_envelope(json.loads(Path(path).read_text()), library=library)
