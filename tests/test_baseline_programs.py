"""The compiled predict of the three learned baselines.

AutoPower−, McPAT-Calib and McPAT-Calib+Comp each predict through one
:class:`repro.ml.gbm.Forest` call.  These tests pin that path bit for bit
against a per-GBM reference built here, from each
``GradientBoostingRegressor.predict`` over the baselines' column blocks,
with and without the compiled kernel, and check that the forest follows
the fitted ensembles through a refit, a load and a pickle round trip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.api as api
import repro.ml.gbm as gbm_module
from repro.arch.components import COMPONENTS
from repro.arch.config import BOOM_CONFIGS, config_by_name
from repro.arch.events import EVENT_NAMES, EventBatch
from repro.arch.workloads import WORKLOADS
from repro.core.autopower import events_at_scale
from repro.core.features import (
    event_features_batch,
    hardware_features,
    program_features_matrix,
)
from repro.power.report import POWER_GROUPS

METHODS = ("autopower-minus", "mcpat-calib", "mcpat-calib-component")

_FAST_GBM = {"n_estimators": 12, "learning_rate": 0.3, "max_depth": 3}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _anchors(flow, config, workload, n):
    events = flow.run(config, workload).events
    if n == 1:
        return EventBatch.from_events(events)
    return events_at_scale(events, np.linspace(0.5, 1.5, n), 50)


# -- the per-GBM reference ---------------------------------------------------
def _minus_groups(model, config, batch, workload) -> np.ndarray:
    """AutoPower−'s clamped (rows, components, groups) power, one GBM at a time."""
    n = len(batch)
    out = np.empty((n, len(COMPONENTS), len(POWER_GROUPS)))
    for j, comp in enumerate(COMPONENTS):
        parts = [
            np.tile(hardware_features(config, comp.name), (n, 1)),
            event_features_batch(batch, comp.name, config),
        ]
        if model.use_program_features:
            parts.append(program_features_matrix(workload, n))
        x = np.hstack(parts)
        for g, group in enumerate(POWER_GROUPS):
            out[:, j, g] = np.maximum(model._models[(comp.name, group)].predict(x), 0.0)
    return out


def _reference_totals(name, model, config, batch, workload) -> np.ndarray:
    n = len(batch)
    if name == "autopower-minus":
        groups = _minus_groups(model, config, batch, workload)
        total = np.zeros(n)
        for j in range(len(COMPONENTS)):
            for g in range(len(POWER_GROUPS)):
                total += groups[:, j, g]
        return total
    if name == "mcpat-calib":
        x = np.hstack(
            [
                np.tile(config.vector(), (n, 1)),
                np.column_stack(
                    [batch.column(e) / batch.cycles for e in EVENT_NAMES if e != "cycles"]
                ),
                batch.ipc[:, None],
                model.mcpat.predict_totals(config, batch)[:, None],
            ]
        )
        return np.maximum(model._model.predict(x), 0.0)
    total = 0.0
    for comp in COMPONENTS:
        x = np.hstack(
            [
                np.tile(hardware_features(config, comp.name), (n, 1)),
                event_features_batch(batch, comp.name),
                model.mcpat.predict_component_batch(comp.name, config, batch)[:, None],
            ]
        )
        total = total + np.maximum(model._models[comp.name].predict(x), 0.0)
    return np.asarray(total, dtype=float)


def _gbms(name, model) -> list:
    """The method's GBMs in its forest's segment order."""
    if name == "autopower-minus":
        return [model._models[(c.name, g)] for c in COMPONENTS for g in POWER_GROUPS]
    if name == "mcpat-calib":
        return [model._model]
    return [model._models[c.name] for c in COMPONENTS]


def _assert_forest_is_current(name, model):
    forest = model._forest
    gbms = _gbms(name, model)
    assert forest.n_segments == len(gbms)
    for ens, gbm in zip(forest.segments, gbms):
        assert ens is gbm._flat_ensemble()


# -- tests --------------------------------------------------------------------
class TestMatchesPerGbmReference:
    @pytest.mark.parametrize("kernel", ["kernel", "numpy"])
    @pytest.mark.parametrize("name", METHODS)
    def test_every_config_and_batch_size(self, baselines2, flow, name, kernel,
                                         monkeypatch):
        if kernel == "numpy":
            monkeypatch.setattr(gbm_module, "get_kernel", lambda: None)
        model = baselines2[name]
        for k, config in enumerate(BOOM_CONFIGS):
            workload = WORKLOADS[k % len(WORKLOADS)]
            for n in (1, 8, 65):
                batch = _anchors(flow, config, workload, n)
                want = _reference_totals(name, model, config, batch, workload)
                got = model.predict_totals(config, batch, workload)
                assert _same_bits(got, want), (name, config.name, n)

    @pytest.mark.parametrize("name", METHODS)
    def test_per_row_workloads(self, baselines2, flow, c8, name):
        model = baselines2[name]
        workloads = [WORKLOADS[i % len(WORKLOADS)] for i in range(8)]
        events = [flow.run(c8, w).events for w in workloads]
        batch = EventBatch.from_events(events)
        want = _reference_totals(name, model, c8, batch, workloads)
        assert _same_bits(model.predict_totals(c8, events, workloads), want)
        # A scalar call is a batch of one.
        for i, (e, w) in enumerate(zip(events, workloads)):
            assert model.predict_total(c8, e, w) == want[i]

    def test_minus_groups(self, baselines2, flow, c8):
        model = baselines2["autopower-minus"]
        workloads = [WORKLOADS[i % len(WORKLOADS)] for i in range(8)]
        events = [flow.run(c8, w).events for w in workloads]
        want = _minus_groups(model, c8, EventBatch.from_events(events), workloads)
        assert _same_bits(model.predict_groups(c8, events, workloads), want)

    def test_predict_does_not_call_per_gbm_predict(self, baselines2, flow, c8,
                                                   dhrystone, monkeypatch):
        def forbidden(self, X):
            raise AssertionError("per-GBM predict on a baseline's predict path")

        batch = _anchors(flow, c8, dhrystone, 8)
        monkeypatch.setattr(gbm_module.GradientBoostingRegressor, "predict", forbidden)
        for name in METHODS:
            model = baselines2[name]
            model.predict_totals(c8, batch, dhrystone)
            model.predict_total(c8, batch[0], dhrystone)
        baselines2["autopower-minus"].predict_groups(c8, batch, dhrystone)


class TestLifecycle:
    @pytest.mark.parametrize("name", METHODS)
    def test_requires_fit(self, flow, c8, dhrystone, name):
        model = api.create(name, library=flow.library)
        with pytest.raises(RuntimeError):
            model.predict_totals(c8, _anchors(flow, c8, dhrystone, 1), dhrystone)

    @pytest.mark.parametrize("name", METHODS)
    def test_refit_predicts_with_the_new_ensembles(self, flow, c8, dhrystone, name):
        configs = [config_by_name(n) for n in ("C1", "C8", "C15")]
        workloads = list(WORKLOADS[:4])
        first = flow.run_many(configs[:2], workloads)
        second = flow.run_many(configs[1:], workloads)
        batch = _anchors(flow, c8, dhrystone, 8)
        model = api.create(name, library=flow.library, gbm_params=_FAST_GBM)
        before = model.fit_results(first).predict_totals(c8, batch, dhrystone)
        after = model.fit_results(second).predict_totals(c8, batch, dhrystone)
        fresh = api.create(name, library=flow.library, gbm_params=_FAST_GBM)
        fresh.fit_results(second)
        assert _same_bits(after, fresh.predict_totals(c8, batch, dhrystone))
        assert not _same_bits(after, before)
        _assert_forest_is_current(name, model)

    @pytest.mark.parametrize("name", METHODS)
    def test_from_state_and_pickle(self, baselines2, flow, c8, dhrystone, name):
        model = baselines2[name]
        batch = _anchors(flow, c8, dhrystone, 8)
        want = model.predict_totals(c8, batch, dhrystone)
        # The forest is derived state: never serialized.
        assert "forest" not in str(sorted(model.to_state()))
        loaded = type(model).from_state(model.to_state())
        pickled = pickle.loads(pickle.dumps(model))
        for clone in (loaded, pickled):
            _assert_forest_is_current(name, clone)
            assert _same_bits(clone.predict_totals(c8, batch, dhrystone), want)
