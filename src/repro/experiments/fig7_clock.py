"""Fig. 7: clock power — AutoPower vs AutoPower− (per component).

The paper compares its structured clock model (register count x gating
rate x effective active rate, Eq. 7) against directly regressing clock
power per component with an ML model (AutoPower−).  Reported: AutoPower
reaches MAPE 11.37 % and correlation R 0.93 on the clock group with 2
known configurations, beating AutoPower− for most components.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.arch.components import COMPONENTS
from repro.arch.workloads import WORKLOADS
from repro.experiments.runner import fit_method, test_configs_for, train_configs_for
from repro.experiments.tables import format_table
from repro.ml.metrics import mape, pearson_r
from repro.power.report import POWER_GROUPS
from repro.vlsi.flow import VlsiFlow

__all__ = ["GroupComparisonResult", "main", "run"]


@dataclass
class GroupComparisonResult:
    """Per-component and overall group accuracy of both methods."""

    group: str
    n_train: int
    per_component: dict[str, tuple[float, float]]  # name -> (AutoPower, AutoPower-)
    overall_mape: tuple[float, float]
    overall_pearson: tuple[float, float]

    def rows(self) -> list[list]:
        rows = [
            [name, ours, minus]
            for name, (ours, minus) in self.per_component.items()
        ]
        rows.append(["OVERALL", self.overall_mape[0], self.overall_mape[1]])
        return rows

    @property
    def components_won(self) -> int:
        """Components where AutoPower beats AutoPower− on MAPE."""
        return sum(1 for ours, minus in self.per_component.values() if ours < minus)


def _compare_group(flow: VlsiFlow, group: str, n_train: int) -> GroupComparisonResult:
    train = train_configs_for(n_train)
    test = test_configs_for(n_train)
    workloads = list(WORKLOADS)
    ours = fit_method("autopower", flow, train, workloads)
    minus = fit_method("autopower-minus", flow, train, workloads)

    # AutoPower−'s per-component power of this group, per test cell.
    g = POWER_GROUPS.index(group)
    minus_power = {
        (config.name, workload.name): minus.predict_groups(
            config, [flow.run(config, workload).events], workload
        )[0, :, g].tolist()
        for config in test
        for workload in workloads
    }
    per_component: dict[str, tuple[float, float]] = {}
    all_true, all_ours, all_minus = [], [], []
    for j, comp in enumerate(COMPONENTS):
        y_true, y_ours, y_minus = [], [], []
        for config in test:
            for workload in workloads:
                res = flow.run(config, workload)
                truth = res.power.component(comp.name).group(group)
                if truth <= 1e-9:
                    continue
                y_true.append(truth)
                if group == "clock":
                    y_ours.append(
                        ours.clock_model.predict_component(
                            comp.name, config, res.events
                        )
                    )
                else:
                    y_ours.append(
                        ours.sram_model.predict_component(
                            comp.name, config, res.events, workload
                        )
                    )
                y_minus.append(minus_power[config.name, workload.name][j])
        if not y_true:
            continue
        per_component[comp.name] = (mape(y_true, y_ours), mape(y_true, y_minus))
        all_true.extend(y_true)
        all_ours.extend(y_ours)
        all_minus.extend(y_minus)

    # Overall series: group total per (config, workload).
    tot_true, tot_ours, tot_minus = [], [], []
    for config in test:
        for workload in workloads:
            res = flow.run(config, workload)
            tot_true.append(res.power.group_total(group))
            if group == "clock":
                tot_ours.append(
                    sum(
                        ours.clock_model.predict_component(c.name, config, res.events)
                        for c in COMPONENTS
                    )
                )
            else:
                tot_ours.append(
                    sum(ours.sram_model.predict(config, res.events, workload).values())
                )
            tot_minus.append(sum(minus_power[config.name, workload.name]))
    return GroupComparisonResult(
        group=group,
        n_train=n_train,
        per_component=per_component,
        overall_mape=(mape(tot_true, tot_ours), mape(tot_true, tot_minus)),
        overall_pearson=(
            pearson_r(tot_true, tot_ours),
            pearson_r(tot_true, tot_minus),
        ),
    )


def run(flow: VlsiFlow | None = None, n_train: int = 2) -> GroupComparisonResult:
    """Fig. 7 clock-group comparison with ``n_train`` known configs."""
    if flow is None:
        flow = VlsiFlow()
    return _compare_group(flow, "clock", n_train)


def main() -> None:
    result = run()
    print(
        format_table(
            ["component", "AutoPower MAPE %", "AutoPower- MAPE %"],
            result.rows(),
            title=f"Fig. 7 — clock power accuracy ({result.n_train} known configs)",
        )
    )
    print(
        f"\noverall R: AutoPower {result.overall_pearson[0]:.3f}, "
        f"AutoPower- {result.overall_pearson[1]:.3f}; "
        f"AutoPower wins {result.components_won}/{len(result.per_component)} components"
    )


if __name__ == "__main__":
    main()
