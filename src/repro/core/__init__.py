"""AutoPower — the paper's primary contribution.

Power-group decoupling:

* :mod:`repro.core.clock` — clock power via register-count, gating-rate
  and effective-active-rate sub-models (paper Sec. II-A, Eq. 1-8),
* :mod:`repro.core.sram` — SRAM power via the four-level hierarchy:
  scaling-pattern hardware model, activity model and macro-level mapping
  (Sec. II-B, Eq. 9-10),
* :mod:`repro.core.logic` — register power and combinational
  stable/variation decoupling (Sec. II-C, Eq. 11-12),
* :mod:`repro.core.autopower` — the assembled model with a
  paper-equivalent ``fit`` / ``predict`` API and time-based trace support,
* :mod:`repro.core.program` — the fitted model compiled into one predict
  program: a per-configuration hardware memo, one gather of the event
  features into a wide matrix, and one walk over all 94 boosted
  ensembles as a single forest.

The group models keep only scalar, per-component predictions
(``predict_component`` and their hardware-only sub-model calls), the
reference the program is pinned to bit for bit.  Every ``AutoPower``
prediction — ``predict_totals``, ``predict_reports``, ``predict_trace``
and the scalar ``predict_report`` / ``predict_total`` /
``predict_group``, each a batch of one — runs through
``AutoPower.compile()``'s program.
"""

from repro.core.autopower import AutoPower
from repro.core.clock import ClockPowerModel
from repro.core.logic import CombPowerModel, LogicPowerModel, RegisterPowerModel
from repro.core.scaling import FittedLaw, ScalingPatternDetector
from repro.core.sram import SramPowerModel

__all__ = [
    "AutoPower",
    "ClockPowerModel",
    "CombPowerModel",
    "FittedLaw",
    "LogicPowerModel",
    "RegisterPowerModel",
    "ScalingPatternDetector",
    "SramPowerModel",
]
