"""Unit tests for the baseline power models."""

import pytest

from repro.arch.components import COMPONENTS
from repro.arch.config import config_by_name
from repro.arch.events import EventBatch
from repro.arch.workloads import workload_by_name
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.baselines.mcpat import McPatAnalytical
from repro.baselines.mcpat_calib import McPatCalib
from repro.baselines.mcpat_calib_component import McPatCalibComponent
from repro.ml.metrics import mape
from repro.power.report import POWER_GROUPS, ComponentPower, PowerReport


class TestMcPatAnalytical:
    def test_no_training_needed(self, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        assert McPatAnalytical().predict_total(c8, events) > 0

    def test_component_sum_equals_total(self, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        mcpat = McPatAnalytical()
        assert mcpat.predict_total(c8, events) == pytest.approx(
            sum(mcpat.predict(c8, events).values())
        )

    def test_deterministic_distortion(self, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        assert McPatAnalytical().predict_total(c8, events) == pytest.approx(
            McPatAnalytical().predict_total(c8, events)
        )

    def test_area_grows_with_config(self):
        mcpat = McPatAnalytical()
        for comp in COMPONENTS:
            assert mcpat.area_proxy(config_by_name("C15"), comp.name) >= (
                mcpat.area_proxy(config_by_name("C1"), comp.name)
            )

    def test_activity_increases_power(self, flow, c8):
        mcpat = McPatAnalytical()
        busy = flow.run(c8, workload_by_name("multiply")).events
        idle = flow.run(c8, workload_by_name("spmv")).events
        assert mcpat.predict_total(c8, busy) > mcpat.predict_total(c8, idle)

    def test_is_miscalibrated(self, flow, test_configs, workloads):
        # The analytical model must be visibly wrong — that is its role.
        mcpat = McPatAnalytical()
        true, pred = [], []
        for config in test_configs[:5]:
            for w in workloads:
                res = flow.run(config, w)
                true.append(res.power.total)
                pred.append(mcpat.predict_total(config, res.events))
        assert mape(true, pred) > 15.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            McPatAnalytical(static_share=1.5)
        with pytest.raises(ValueError):
            McPatAnalytical(miscalibration=1.0)


class TestMcPatCalib:
    @pytest.fixture(scope="class")
    def calib(self, flow, train_configs, workloads):
        return McPatCalib().fit(flow, train_configs, workloads)

    def test_positive_predictions(self, calib, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        assert calib.predict_total(c8, events) > 0

    def test_much_better_than_raw_mcpat(
        self, calib, flow, test_configs, workloads
    ):
        mcpat = McPatAnalytical()
        true, cal, raw = [], [], []
        for config in test_configs:
            for w in workloads:
                res = flow.run(config, w)
                true.append(res.power.total)
                cal.append(calib.predict_total(config, res.events))
                raw.append(mcpat.predict_total(config, res.events))
        assert mape(true, cal) < 0.7 * mape(true, raw)

    def test_requires_fit(self, flow, c8):
        with pytest.raises(RuntimeError):
            McPatCalib().predict_total(c8, flow.run(c8, workload_by_name("qsort")).events)

    def test_feature_names_align(self, calib, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        assert calib.layout.width == len(McPatCalib.feature_names())
        batch = EventBatch.from_events(events)
        x = calib.layout.features(
            calib.layout.hardware(c8), batch, extra=calib._mcpat_total(c8, batch)
        )
        assert x.shape == (1, len(McPatCalib.feature_names()))


class TestMcPatCalibComponent:
    @pytest.fixture(scope="class")
    def calib_comp(self, flow, train_configs, workloads):
        return McPatCalibComponent().fit(flow, train_configs, workloads)

    def test_total_is_component_sum(self, calib_comp, flow, c8):
        events = flow.run(c8, workload_by_name("qsort")).events
        total = calib_comp.predict_total(c8, events)
        batch = EventBatch.from_events(events)
        layout = calib_comp.layout
        x = layout.features(
            layout.hardware(c8), batch, extra=calib_comp._mcpat_components(c8, batch)
        )
        assert x.shape[1] == layout.width
        parts = 0.0
        for comp, block in zip(COMPONENTS, layout.split(x)):
            model = calib_comp._models[comp.name]
            parts += max(float(model.predict(block)[0]), 0.0)
        assert total == pytest.approx(parts)

    def test_requires_fit(self, flow, c8):
        with pytest.raises(RuntimeError):
            McPatCalibComponent().predict_total(
                c8, flow.run(c8, workload_by_name("qsort")).events
            )


class TestAutoPowerMinus:
    @pytest.fixture(scope="class")
    def minus(self, flow, train_configs, workloads):
        return AutoPowerMinus().fit(flow, train_configs, workloads)

    def test_groups_sum_to_total(self, minus, flow, c8):
        w = workload_by_name("qsort")
        events = flow.run(c8, w).events
        total = minus.predict_total(c8, events, w)
        groups = minus.predict_groups(c8, [events], w)
        assert groups.shape == (1, len(COMPONENTS), len(POWER_GROUPS))
        assert (groups >= 0.0).all()
        assert total == pytest.approx(groups.sum())

    def test_logic_group_alias(self, minus, flow, c8):
        # The groups axis follows POWER_GROUPS, so a report built from it
        # derives the paper's logic group (register + comb).
        w = workload_by_name("qsort")
        events = flow.run(c8, w).events
        groups = minus.predict_groups(c8, [events], w)[0]
        report = PowerReport(
            "C8", "qsort",
            tuple(ComponentPower(c.name, *row) for c, row in zip(COMPONENTS, groups)),
        )
        assert report.group_total("logic") == pytest.approx(
            groups[:, POWER_GROUPS.index("register")].sum()
            + groups[:, POWER_GROUPS.index("comb")].sum()
        )
        assert report.total == pytest.approx(minus.predict_total(c8, events, w))

    def test_requires_fit(self, flow, c8):
        w = workload_by_name("qsort")
        with pytest.raises(RuntimeError):
            AutoPowerMinus().predict_groups(c8, [flow.run(c8, w).events], w)
