"""Integration tests: the paper's headline findings, end to end.

These tests exercise the whole stack — flow, feature extraction, all
sub-models, baselines — and assert the *shape* of the paper's results:

1. AutoPower beats McPAT-Calib on MAPE and R² in the 2-config few-shot
   setting (paper Fig. 4).
2. AutoPower beats the AutoPower− ablation on the clock and SRAM groups
   (paper Figs. 7 and 8).
3. Accuracy improves from 2 to 3 training configurations (paper Fig. 5).
"""

import pytest

from repro.arch.config import config_by_name
from repro.baselines.mcpat_calib import McPatCalib
from repro.baselines.autopower_minus import AutoPowerMinus
from repro.core.autopower import AutoPower
from repro.ml.metrics import mape, pearson_r, r2_score
from repro.power.report import POWER_GROUPS


def _group_total(model, config, events, workload, group) -> float:
    """AutoPower−'s power of one group, summed over components."""
    power = model.predict_groups(config, [events], workload)[0]
    return sum(power[:, POWER_GROUPS.index(group)].tolist())


@pytest.fixture(scope="module")
def mcpat_calib(flow, train_configs, workloads):
    return McPatCalib().fit(flow, train_configs, workloads)


@pytest.fixture(scope="module")
def autopower_minus(flow, train_configs, workloads):
    return AutoPowerMinus().fit(flow, train_configs, workloads)


@pytest.fixture(scope="module")
def eval_points(flow, test_configs, workloads):
    return [(c, w, flow.run(c, w)) for c in test_configs for w in workloads]


class TestHeadline:
    def test_autopower_beats_mcpat_calib(
        self, autopower2, mcpat_calib, eval_points
    ):
        true = [res.power.total for _, _, res in eval_points]
        ours = [
            autopower2.predict_total(c, res.events, w) for c, w, res in eval_points
        ]
        calib = [
            mcpat_calib.predict_total(c, res.events) for c, w, res in eval_points
        ]
        # Paper Fig. 4: 4.36 % / 0.96 vs 9.29 % / 0.87.
        assert mape(true, ours) < mape(true, calib)
        assert r2_score(true, ours) > r2_score(true, calib)
        # Quantitative bands for the synthetic substrate.
        assert mape(true, ours) < 10.0
        assert r2_score(true, ours) > 0.88

    def test_autopower_beats_minus_on_clock(
        self, autopower2, autopower_minus, eval_points
    ):
        true, ours, minus = [], [], []
        for c, w, res in eval_points:
            true.append(res.power.group_total("clock"))
            ours.append(sum(autopower2.clock_model.predict(c, res.events).values()))
            minus.append(_group_total(autopower_minus, c, res.events, w, "clock"))
        assert mape(true, ours) < mape(true, minus)
        assert pearson_r(true, ours) > 0.9  # paper: R = 0.93

    def test_autopower_beats_minus_on_sram(
        self, autopower2, autopower_minus, eval_points
    ):
        true, ours, minus = [], [], []
        for c, w, res in eval_points:
            true.append(res.power.group_total("sram"))
            ours.append(sum(autopower2.sram_model.predict(c, res.events, w).values()))
            minus.append(_group_total(autopower_minus, c, res.events, w, "sram"))
        assert mape(true, ours) < mape(true, minus)
        assert pearson_r(true, ours) > 0.9  # paper: R = 0.94

    def test_three_configs_better_than_two(self, flow, workloads):
        # Paper Fig. 5 vs Fig. 4: accuracy improves with a third config.
        train3 = [config_by_name(n) for n in ("C1", "C8", "C15")]
        model3 = AutoPower(library=flow.library).fit(flow, train3, workloads)
        test3 = [
            config_by_name(f"C{i}") for i in range(1, 16) if i not in (1, 8, 15)
        ]
        true3, pred3 = [], []
        for c in test3:
            for w in workloads:
                res = flow.run(c, w)
                true3.append(res.power.total)
                pred3.append(model3.predict_total(c, res.events, w))
        assert mape(true3, pred3) < 8.0
        assert r2_score(true3, pred3) > 0.9

    def test_per_workload_errors_balanced(self, autopower2, eval_points, workloads):
        # No single workload should dominate the error budget (sanity of
        # the scatter in Fig. 4b).
        per_workload: dict[str, list[float]] = {w.name: [] for w in workloads}
        for c, w, res in eval_points:
            pred = autopower2.predict_total(c, res.events, w)
            per_workload[w.name].append(
                abs(pred - res.power.total) / res.power.total * 100.0
            )
        worst = max(sum(v) / len(v) for v in per_workload.values())
        assert worst < 20.0
