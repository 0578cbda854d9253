"""Central registry of every ``REPRO_*`` environment variable.

Before this module, ~10 knobs were read ad hoc across a dozen files —
each with its own parsing, defaults, and truthiness conventions, and no
single place to learn what a variable does.  Every ``REPRO_*`` read now
goes through this registry:

* each variable is *declared* once (name, type, default, docstring),
* typed accessors (:func:`get_bool`, :func:`get_float`, :func:`get_str`,
  :func:`get_path`) apply one consistent parsing convention,
* :func:`markdown_table` renders the authoritative reference table the
  README embeds,
* the ``ENV001`` lint rule (:mod:`repro.analysis`) rejects any direct
  ``os.environ``/``os.getenv`` read of a ``REPRO_*`` name outside this
  module, so the registry can never silently rot.

Parsing conventions (uniform across all variables):

* values are stripped; an unset or blank variable counts as *unset* and
  yields the declared default,
* booleans: ``1``/``true``/``yes``/``on`` (case-insensitive) are true,
  anything else is false,
* numbers: a malformed value falls back to the declared default rather
  than raising — a typo in an env var must not crash a serving worker,
* paths: ``~`` is expanded and the result made absolute.

Reads always hit the live process environment (no import-time caching),
so tests can ``monkeypatch.setenv`` freely.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "REGISTRY",
    "get_bool",
    "get_float",
    "get_path",
    "get_str",
    "is_set",
    "markdown_table",
]


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable."""

    name: str
    kind: str  # "bool" | "float" | "str" | "path"
    default: object
    doc: str


#: Every known ``REPRO_*`` variable, by name.
REGISTRY: dict[str, EnvVar] = {}

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def _declare(name: str, kind: str, default: object, doc: str) -> EnvVar:
    if name in REGISTRY:
        raise ValueError(f"environment variable {name!r} declared twice")
    var = EnvVar(name=name, kind=kind, default=default, doc=doc)
    REGISTRY[name] = var
    return var


# ---------------------------------------------------------------------------
# The registry (append new variables here; the README table regenerates
# from it via ``python -m repro env --markdown``).
# ---------------------------------------------------------------------------
REPRO_JOBS = _declare(
    "REPRO_JOBS",
    "str",
    None,
    "Default worker count for flow runs and sub-model fits (`4`); "
    "`0` or negative means all cores, anything but an integer is an "
    "error.  Flow runs use processes and fits use threads.  Overridden "
    "by `--jobs` and explicit `n_jobs` arguments; results are identical "
    "for every count.",
)

REPRO_NO_FLOW_CACHE = _declare(
    "REPRO_NO_FLOW_CACHE",
    "bool",
    False,
    "Disable the persistent on-disk flow-result cache "
    "(`repro.dse.cache`); flows then run fully in-process.",
)

REPRO_FLOW_CACHE_DIR = _declare(
    "REPRO_FLOW_CACHE_DIR",
    "path",
    None,
    "Root directory of the flow-result cache "
    "(default: `~/.cache/repro/flow-cache`).",
)

REPRO_FLOW_CACHE_MAX_MB = _declare(
    "REPRO_FLOW_CACHE_MAX_MB",
    "float",
    512.0,
    "Size bound of the flow-result cache in MiB; least-recently-used "
    "entries are evicted beyond it.  `0` disables eviction.",
)

REPRO_BENCH_JSON = _declare(
    "REPRO_BENCH_JSON",
    "path",
    None,
    "Where the benchmark suite writes its per-run JSON trajectory "
    "(equivalent to `pytest --bench-json PATH`).",
)


# ---------------------------------------------------------------------------
# Typed accessors
# ---------------------------------------------------------------------------
def _lookup(name: str) -> EnvVar:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown environment variable {name!r}; declare it in repro.env"
        ) from None


def raw(name: str, environ: Mapping[str, str] | None = None) -> str | None:
    """The stripped raw value of a declared variable, ``None`` when unset.

    A blank value counts as unset.  ``environ`` substitutes the process
    environment, so a caller can parse a recorded mapping.
    """
    _lookup(name)
    source = os.environ if environ is None else environ
    value = source.get(name, "").strip()
    return value or None


def is_set(name: str, environ: Mapping[str, str] | None = None) -> bool:
    """Whether the variable has a non-blank value."""
    return raw(name, environ) is not None


def get_str(
    name: str,
    default: str | None = None,
    environ: Mapping[str, str] | None = None,
) -> str | None:
    """String value; ``default`` (or the declared default) when unset."""
    value = raw(name, environ)
    if value is None:
        declared = _lookup(name).default
        return default if default is not None else declared
    return value


def get_bool(name: str, environ: Mapping[str, str] | None = None) -> bool:
    """Boolean value: ``1``/``true``/``yes``/``on`` (case-insensitive)."""
    value = raw(name, environ)
    if value is None:
        return bool(_lookup(name).default)
    return value.lower() in _TRUE_VALUES


def get_float(
    name: str,
    default: float | None = None,
    environ: Mapping[str, str] | None = None,
) -> float | None:
    """Float value; malformed or unset values yield the default."""
    value = raw(name, environ)
    fallback = default if default is not None else _lookup(name).default
    if value is None:
        return fallback
    try:
        return float(value)
    except ValueError:
        return fallback


def get_path(
    name: str,
    default: str | None = None,
    environ: Mapping[str, str] | None = None,
) -> str | None:
    """Absolute, ``~``-expanded path; the default when unset."""
    value = raw(name, environ)
    if value is None:
        value = default if default is not None else _lookup(name).default
        if value is None:
            return None
    return os.path.abspath(os.path.expanduser(str(value)))


# ---------------------------------------------------------------------------
# Documentation
# ---------------------------------------------------------------------------
def markdown_table() -> str:
    """The README's env-var reference table, straight from the registry."""
    rows = [
        "| Variable | Type | Default | Purpose |",
        "| --- | --- | --- | --- |",
    ]
    for name in sorted(REGISTRY):
        var = REGISTRY[name]
        default = "unset" if var.default is None else f"`{var.default}`"
        rows.append(f"| `{var.name}` | {var.kind} | {default} | {var.doc} |")
    return "\n".join(rows)


def plain_table() -> str:
    """Terminal rendering of the registry (``python -m repro env``)."""
    lines = []
    for name in sorted(REGISTRY):
        var = REGISTRY[name]
        default = "unset" if var.default is None else repr(var.default)
        lines.append(f"{var.name}  ({var.kind}, default: {default})")
        lines.append(f"    {var.doc}")
    return "\n".join(lines)
