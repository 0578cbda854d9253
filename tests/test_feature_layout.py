"""One feature layout for every learned method.

AutoPower's predict program, its group fits and the three learned
baselines all build their feature matrices through
:class:`repro.core.features.FeatureLayout`.  These tests pin every block
of every method's layout, bit for bit, against the scalar reference
extractors the sub-models were defined with, and check that the fit-side
assembly (``features_by_config``) keys configurations by content, not by
name.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch.components import COMPONENTS
from repro.arch.config import BoomConfig, config_by_name
from repro.arch.events import EVENT_NAMES, EventBatch
from repro.arch.workloads import WORKLOADS
from repro.baselines import AutoPowerMinus, McPatCalib, McPatCalibComponent
from repro.core.autopower import AutoPower, events_at_scale
from repro.core.clock import ClockPowerModel
from repro.core.features import (
    FeatureLayout,
    event_features_batch,
    features_by_config,
    hardware_features,
    normalized_block,
    program_features,
    program_features_matrix,
)
from repro.core.logic import CombPowerModel, RegisterPowerModel, _he_features
from repro.core.sram import SramPowerModel
from repro.parallel import SerialExecutor
from repro.vlsi.macro_mapping import MacroMapper

CONFIGS = ("C1", "C8", "C15")


class _Captured(Exception):
    pass


class _CapturingExecutor(SerialExecutor):
    """Records a fit's task payloads, then stops the fit."""

    def map(self, fn, iterable) -> list:
        self.payloads = list(iterable)
        raise _Captured


def _fit_payloads(model, results) -> list[dict]:
    executor = _CapturingExecutor()
    with pytest.raises(_Captured):
        model.fit(results, executor=executor)
    return executor.payloads


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def cases(flow):
    """(config, batch of 5 intervals, one workload per interval)."""
    out = []
    for k, name in enumerate(CONFIGS):
        config = config_by_name(name)
        rows = [WORKLOADS[(k + i) % len(WORKLOADS)] for i in range(5)]
        base = flow.run(config, rows[0]).events
        batch = events_at_scale(base, np.linspace(0.6, 1.4, 5), 50)
        out.append((config, batch, rows))
    return out


def _blocks(layout, config, batch, workloads, extra=None):
    x = layout.features(layout.hardware(config), batch, workloads, extra)
    assert x.shape == (len(batch), layout.width)
    assert sum(width for _, width in layout.spans) == layout.width
    return layout.split(x)


class TestAutoPowerProgram:
    def test_normalized_blocks_equal_alpha_and_he_features(self, autopower2, cases):
        layout = autopower2.compile().layout
        for config, batch, workloads in cases:
            blocks = _blocks(layout, config, batch, workloads)
            for comp, block in zip(COMPONENTS, blocks):
                for i in range(len(batch)):
                    clock = ClockPowerModel._alpha_features(config, batch[i], comp.name)
                    logic = _he_features(config, batch[i], comp.name)
                    assert _same_bits(block[i], clock)
                    assert _same_bits(block[i], logic)

    def test_activity_blocks_equal_sram_activity_features(self, autopower2, cases):
        program = autopower2.compile()
        sram = autopower2.sram_model
        names = list(sram._component_positions)
        assert len(program.layout.blocks) == len(COMPONENTS) + len(names)
        for config, batch, workloads in cases:
            blocks = _blocks(program.layout, config, batch, workloads)[len(COMPONENTS) :]
            for comp_name, block in zip(names, blocks):
                for i in range(len(batch)):
                    want = sram._activity_features(config, batch[i], workloads[i], comp_name)
                    assert _same_bits(block[i], want)

    def test_one_workload_tiles_like_a_per_row_list(self, autopower2, cases):
        layout = autopower2.compile().layout
        config, batch, workloads = cases[0]
        hardware = layout.hardware(config)
        one = layout.features(hardware, batch, workloads[0])
        rows = layout.features(hardware, batch, [workloads[0]] * len(batch))
        assert _same_bits(one, rows)


class TestBaselines:
    @pytest.mark.parametrize("program", [True, False], ids=["program", "no-program"])
    def test_autopower_minus_blocks(self, cases, program):
        layout = AutoPowerMinus(use_program_features=program).layout
        for config, batch, workloads in cases:
            n = len(batch)
            for comp, block in zip(COMPONENTS, _blocks(layout, config, batch, workloads)):
                parts = [
                    np.tile(hardware_features(config, comp.name), (n, 1)),
                    event_features_batch(batch, comp.name, config),
                ]
                if program:
                    parts.append(program_features_matrix(workloads, n))
                assert _same_bits(block, np.hstack(parts))

    def test_mcpat_calib_component_blocks(self, cases):
        model = McPatCalibComponent()
        layout = model.layout
        for config, batch, workloads in cases:
            extra = model._mcpat_components(config, batch)
            blocks = _blocks(layout, config, batch, None, extra)
            for comp, block in zip(COMPONENTS, blocks):
                want = np.hstack(
                    [
                        np.tile(hardware_features(config, comp.name), (len(batch), 1)),
                        event_features_batch(batch, comp.name),
                        model.mcpat.predict_component_batch(comp.name, config, batch)[:, None],
                    ]
                )
                assert _same_bits(block, want)

    def test_mcpat_calib_block(self, cases):
        model = McPatCalib()
        for config, batch, workloads in cases:
            (block,) = _blocks(
                model.layout, config, batch, None, model._mcpat_total(config, batch)
            )
            want = np.hstack(
                [
                    np.tile(config.vector(), (len(batch), 1)),
                    np.column_stack(
                        [batch.column(e) / batch.cycles for e in EVENT_NAMES if e != "cycles"]
                    ),
                    batch.ipc[:, None],
                    model.mcpat.predict_totals(config, batch)[:, None],
                ]
            )
            assert _same_bits(block, want)
            assert block.shape[1] == len(McPatCalib.feature_names())

    def test_missing_extra_columns_rejected(self, cases):
        config, batch, _ = cases[0]
        layout = McPatCalib.layout
        with pytest.raises(ValueError, match="extra"):
            layout.features(layout.hardware(config), batch)


class TestFitAssembly:
    def _results(self, cases):
        """Flow-result stand-ins, the configurations interleaved."""
        out = []
        for i in range(len(cases[0][1])):
            for config, batch, workloads in cases:
                out.append(
                    SimpleNamespace(config=config, events=batch[i], workload=workloads[i])
                )
        return out

    def test_rows_follow_result_order(self, cases):
        layout = AutoPowerMinus(use_program_features=True).layout
        results = self._results(cases)
        x = features_by_config(results, layout)
        for row, res in zip(x, results):
            want = layout.features(
                layout.hardware(res.config),
                EventBatch.from_events(res.events),
                [res.workload],
            )
            assert _same_bits(row, want[0])
            # The program-feature columns are the row's own workload's.
            assert _same_bits(
                row[layout.width - len(program_features(res.workload)) :],
                program_features(res.workload),
            )

    def test_same_name_different_parameters_gives_different_rows(self, cases):
        c8 = config_by_name("C8")
        wide = BoomConfig("C8", {**c8.params, "RobEntry": 2 * c8["RobEntry"]})
        layout = FeatureLayout([normalized_block(c.name) for c in COMPONENTS])
        _, batch, workloads = cases[1]
        events = batch[0]
        results = [
            SimpleNamespace(config=c8, events=events, workload=workloads[0]),
            SimpleNamespace(config=wide, events=events, workload=workloads[0]),
        ]
        x = features_by_config(results, layout)
        assert not _same_bits(x[0], x[1])
        for row, config in zip(x, (c8, wide)):
            want = layout.features(layout.hardware(config), EventBatch.from_events(events))
            assert _same_bits(row, want[0])

    def test_same_name_different_parameters_gives_two_label_rows(self, flow):
        # The per-configuration (ridge and scaling-law) labels of every
        # group fit key a configuration by name *and* parameters.
        c8 = config_by_name("C8")
        wide = BoomConfig("C8", {**c8.params, "RobEntry": 2 * c8["RobEntry"]})
        results = [flow.run(c, w) for c in (c8, wide) for w in WORKLOADS[:2]]
        library = flow.library
        for model in (ClockPowerModel(library), RegisterPowerModel(), CombPowerModel()):
            payloads = _fit_payloads(model, results)
            assert [p["h"].shape[0] for p in payloads] == [2] * len(COMPONENTS)
        sram = SramPowerModel(library, MacroMapper(library.sram))
        assert all(len(p["capacities"]) == 2 for p in _fit_payloads(sram, results))
        model = AutoPower(library=library).fit_results(results)
        assert model.train_config_names == ("C8", "C8")
