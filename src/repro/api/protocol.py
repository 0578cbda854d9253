"""The ``PowerModel`` protocol — the one contract every method satisfies.

The paper's deliverable is a *hand-off artifact*: the flow team fits a
model on 2-3 known configurations, architects predict any configuration
from hardware parameters and performance-simulator events alone.  The
protocol pins down the surface that hand-off needs:

* ``fit_results(results)`` — train from precomputed
  :class:`repro.vlsi.flow.FlowResult` objects (the flow is only ever run
  on *training* configurations),
* ``predict_totals(config, events, workload)`` — total power (mW) per
  interval of an :class:`repro.arch.events.EventBatch` (or sequence of
  :class:`~repro.arch.events.EventParams`); each row depends only on its
  own interval, so it does not change with the batch around it,
* ``predict_total(config, events, workload)`` — one interval's total
  power: the batch of one, bitwise-equal to the matching row of
  ``predict_totals``,
* ``to_state()`` / ``from_state(state, library)`` — plain-JSON state for
  the versioned persistence layer (no pickle),
* ``predict_report`` — per-component, per-group
  :class:`~repro.power.report.PowerReport`, where supported (check with
  :func:`supports_reports`).

Methods that don't consume workload context (the McPAT family) accept
``workload=None`` and ignore it, so callers always pass it.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["PowerModel", "supports_reports"]


@runtime_checkable
class PowerModel(Protocol):
    """Structural type of a registered power-modeling method.

    ``runtime_checkable`` protocols verify method *presence* only;
    signatures follow the conventions documented in the module docstring.
    """

    def fit_results(self, results: list) -> PowerModel:
        """Train from precomputed flow results (training configs only)."""
        ...

    def predict_total(self, config: Any, events: Any, workload: Any = None) -> float:
        """Predicted total power for one interval, in mW (the batch of one)."""
        ...

    def predict_totals(self, config: Any, events: Any, workload: Any = None) -> Any:
        """Predicted total power per interval of a batch, in mW."""
        ...

    def to_state(self) -> dict:
        """JSON-serializable fitted state (no pickle)."""
        ...

    @classmethod
    def from_state(cls, state: dict, library: Any = None) -> PowerModel:
        """Rebuild a fitted model from :meth:`to_state` output."""
        ...


def supports_reports(model: Any) -> bool:
    """Whether the model produces per-component power-group reports."""
    return callable(getattr(model, "predict_report", None))
