"""The assembled AutoPower model.

``fit`` consumes the EDA-flow results of the few known configurations
(2-3 in the paper) across the training workloads; ``predict_report``
estimates per-component, per-group power for *any* configuration from its
hardware parameters and performance-simulator events alone.  Time-based
trace prediction evaluates the same model on 50-cycle event windows
without any additional trace training, exactly as in the paper's Table IV
experiment.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.arch.config import BoomConfig
from repro.arch.events import EVENT_NAMES, EventBatch, EventParams
from repro.arch.workloads import Workload
from repro.core.clock import ClockPowerModel
from repro.core.features import group_by_config
from repro.core.logic import LogicPowerModel
from repro.core.program import PredictProgram
from repro.core.sram import SramPowerModel
from repro.library.stdcell import TechLibrary, default_library
from repro.parallel import get_executor
from repro.power.report import ComponentPower, PowerReport
from repro.vlsi.macro_mapping import MacroMapper

__all__ = ["AutoPower", "events_at_scale"]

# Serializes first-use compilation (rare, per fit or load); a module-level
# lock keeps the model itself picklable.
_COMPILE_LOCK = threading.Lock()


def events_at_scale(
    events: EventParams, scale, window_cycles: int
):
    """Event counts of trace windows at given activity scales.

    Window rates are the run-average rates times ``scale``; the window is
    ``window_cycles`` long.  A scalar ``scale`` returns one
    :class:`EventParams`; an array of scales returns an
    :class:`EventBatch` whose rows are the per-scale event vectors (one
    vectorized expression — no per-anchor dict rebuilds).
    """
    if window_cycles <= 0:
        raise ValueError("window_cycles must be positive")
    if np.ndim(scale) == 0:
        if scale <= 0:
            raise ValueError("scale must be positive")
        cycles = events.cycles
        counts = {
            name: events.counts[name] / cycles * scale * window_cycles
            for name in EVENT_NAMES
        }
        counts["cycles"] = float(window_cycles)
        return EventParams(counts)
    scales = np.asarray(scale, dtype=float).ravel()
    if scales.size == 0:
        raise ValueError("scale array must be non-empty")
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")
    cycles = events.cycles
    base = np.array(
        [events.counts[name] / cycles for name in EVENT_NAMES], dtype=float
    )
    matrix = base[None, :] * scales[:, None] * window_cycles
    matrix[:, EVENT_NAMES.index("cycles")] = float(window_cycles)
    return EventBatch(matrix)


class AutoPower:
    """Fully automated few-shot architecture-level power model.

    Parameters
    ----------
    library:
        Technology library for the ``p_reg`` and macro energy lookups.
    use_program_features:
        Feed microarchitecture-independent program features to the SRAM
        activity model (paper default: on).
    ridge_alpha / gbm_params:
        Shared hyper-parameters for the linear and boosted sub-models.
    n_jobs:
        Default worker count of ``fit`` (``None`` defers to the CLI
        ``--jobs`` / ``REPRO_JOBS`` setting, ``<= 0`` means all cores).
        The ground-truth flow runs fan out over processes (the flow is
        pure Python) and the ~90 independent sub-model fits over threads
        (the fit kernel releases the GIL); results are numerically
        identical to the serial fit.
    """

    def __init__(
        self,
        library: TechLibrary | None = None,
        mapper: MacroMapper | None = None,
        use_program_features: bool = True,
        ridge_alpha: float = 1e-3,
        gbm_params: dict | None = None,
        n_jobs: int | None = None,
    ) -> None:
        self.library = library if library is not None else default_library()
        self.n_jobs = n_jobs
        self.mapper = mapper if mapper is not None else MacroMapper(self.library.sram)
        self.clock_model = ClockPowerModel(self.library, ridge_alpha, gbm_params)
        self.sram_model = SramPowerModel(
            self.library,
            self.mapper,
            use_program_features=use_program_features,
            gbm_params=gbm_params,
        )
        self.logic_model = LogicPowerModel(ridge_alpha, gbm_params)
        self.train_config_names: tuple[str, ...] = ()
        self._program: PredictProgram | None = None
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self, flow, train_configs, workloads, n_jobs: int | None = None
    ) -> AutoPower:
        """Train all sub-models from the flow outputs of known configs.

        ``flow`` is a :class:`repro.vlsi.flow.VlsiFlow`; it is only ever
        invoked on the *training* configurations.  ``n_jobs`` overrides
        the instance-level worker count for both the ground-truth flow
        runs and the sub-model fits.
        """
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        results = flow.run_many(list(train_configs), list(workloads), n_jobs=n_jobs)
        return self.fit_results(results, n_jobs=n_jobs)

    def fit_results(self, results: list, n_jobs: int | None = None) -> AutoPower:
        """Train from precomputed flow results (train configs only)."""
        if not results:
            raise ValueError("cannot fit on an empty result list")
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        with get_executor(n_jobs, "thread") as executor:
            self.clock_model.fit(results, executor=executor)
            self.sram_model.fit(results, executor=executor)
            self.logic_model.fit(results, executor=executor)
        self.train_config_names = tuple(
            results[rows[0]].config.name for rows in group_by_config(results)
        )
        self._program = None  # a refit recompiles
        self._fitted = True
        return self

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("AutoPower used before fit")

    def compile(self) -> PredictProgram:
        """The fitted model's predict program, built once per fit or load.

        Every prediction runs through it; the first one builds it.  It is
        not built inside ``from_state``: the parsed model file is still
        alive there, and assembling the ensembles then would add their
        size to the load's peak memory.
        """
        self._require_fit()
        program = self._program
        if program is None:
            with _COMPILE_LOCK:
                if self._program is None:
                    self._program = PredictProgram(
                        self.clock_model, self.sram_model, self.logic_model
                    )
                program = self._program
        return program

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable state of the fitted model (no pickle)."""
        from repro.core.persistence import autopower_to_state

        return autopower_to_state(self)

    @classmethod
    def from_state(
        cls, state: dict, library: TechLibrary | None = None
    ) -> AutoPower:
        """Rebuild a fitted model from :meth:`to_state` output."""
        from repro.core.persistence import autopower_from_state

        return autopower_from_state(state, library=library)

    # -- prediction: one compiled program, a scalar call is a batch of one
    def predict_report(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> PowerReport:
        """Predicted per-component, per-group power report."""
        return self.predict_reports(config, events, workload)[0]

    def predict_total(
        self, config: BoomConfig, events: EventParams, workload: Workload
    ) -> float:
        """Predicted total power, in mW: :meth:`predict_totals` of a batch
        of one."""
        return float(self.predict_totals(config, [events], workload)[0])

    def predict_group(
        self, config: BoomConfig, events: EventParams, workload: Workload, group: str
    ) -> float:
        """Predicted power of one group (clock / sram / register / comb /
        logic), in mW."""
        return self.predict_report(config, events, workload).group_total(group)

    def predict_reports(
        self, config: BoomConfig, events, workload
    ) -> list[PowerReport]:
        """Power reports for a whole batch of event intervals.

        ``events`` is an :class:`EventBatch`, an :class:`EventParams` or a
        sequence of them; ``workload`` is a single workload or one per
        interval.
        """
        program = self.compile()
        batch = EventBatch.from_events(events)
        n = len(batch)
        if isinstance(workload, Workload):
            workload_names = [workload.name] * n
        else:
            workload_names = [w.name for w in workload]
            if len(workload_names) != n:
                raise ValueError(
                    f"got {len(workload_names)} workloads for {n} intervals"
                )
        clock, sram, register, comb = (
            m.tolist() for m in program.groups(config, batch, workload)
        )
        return [
            PowerReport(
                config_name=config.name,
                workload_name=workload_names[i],
                components=tuple(
                    ComponentPower(
                        name=name,
                        clock=clock[i][j],
                        sram=sram[i][j],
                        register=register[i][j],
                        comb=comb[i][j],
                    )
                    for j, name in enumerate(program.components)
                ),
            )
            for i in range(n)
        ]

    def predict_totals(
        self, config: BoomConfig, events, workload
    ) -> np.ndarray:
        """Predicted total power per interval of a batch, in mW."""
        program = self.compile()
        return program.totals(config, EventBatch.from_events(events), workload)

    # ------------------------------------------------------------------
    def predict_trace(
        self,
        config: BoomConfig,
        events: EventParams,
        workload: Workload,
        scales: np.ndarray,
        window_cycles: int = 50,
        n_anchors: int = 65,
    ) -> np.ndarray:
        """Predicted per-window total power for a trace (Table IV).

        The model is applied per 50-cycle window without any trace-level
        tuning; windows are one-parameter (activity scale) families of the
        run-average events, so the prediction is evaluated at ``n_anchors``
        scales and linearly interpolated — exact up to the GBM's step
        granularity.
        """
        self._require_fit()
        scales = np.asarray(scales, dtype=float)
        if scales.size == 0:
            raise ValueError("scales must be non-empty")
        lo, hi = float(scales.min()), float(scales.max())
        if lo <= 0:
            raise ValueError("scales must be positive")
        if hi - lo < 1e-12:
            power = self.predict_total(
                config, events_at_scale(events, lo, window_cycles), workload
            )
            return np.full(scales.shape, power)
        anchors = np.linspace(lo, hi, n_anchors)
        # One stacked event matrix and one batched model pass cover every
        # anchor; no per-anchor event dicts or scalar sub-model calls.
        batch = events_at_scale(events, anchors, window_cycles)
        powers = self.predict_totals(config, batch, workload)
        return np.interp(scales, anchors, powers)
