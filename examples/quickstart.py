#!/usr/bin/env python
"""Quickstart: few-shot power modeling through the ``repro.api`` façade.

Train on two known configurations (C1, C15) and predict the power of an
unseen configuration (C8) on every workload — the paper's core scenario.
Methods are resolved by registry name (``api.fit("autopower", ...)``), so
swapping in a baseline is a one-string change.

Run:  python examples/quickstart.py
"""

import repro.api as api
from repro import VlsiFlow, WORKLOADS, config_by_name
from repro.ml.metrics import mape

def main() -> None:
    # The synthetic EDA flow plays the role of the paper's
    # Chipyard + VCS + Design Compiler + PrimePower + gem5 stack.
    flow = VlsiFlow()

    # Few-shot training: only two known configurations.  Any registered
    # method fits through the same call — api.list_methods() names them.
    train_configs = [config_by_name("C1"), config_by_name("C15")]
    print("training AutoPower on:", [c.name for c in train_configs])
    model = api.fit(
        "autopower", flow=flow, train_configs=train_configs,
        workloads=list(WORKLOADS),
    )

    # Predict an unseen configuration.
    target = config_by_name("C8")
    print(f"\npredicting {target.name} (never seen during training):\n")
    print(f"{'workload':>12s} {'golden mW':>10s} {'predicted mW':>12s} {'error %':>8s}")
    golden_all, pred_all = [], []
    for workload in WORKLOADS:
        run = flow.run(target, workload)          # golden reference
        predicted = model.predict_total(target, run.events, workload)
        golden = run.power.total
        err = abs(predicted - golden) / golden * 100.0
        golden_all.append(golden)
        pred_all.append(predicted)
        print(f"{workload.name:>12s} {golden:10.2f} {predicted:12.2f} {err:8.2f}")

    print(f"\nMAPE on {target.name}: {mape(golden_all, pred_all):.2f}%")

    # Per-group view of one prediction (the power-group decoupling).
    run = flow.run(target, WORKLOADS[0])
    report = model.predict_report(target, run.events, WORKLOADS[0])
    print(f"\npower groups for {target.name} / {WORKLOADS[0].name}:")
    for group in ("clock", "sram", "register", "comb"):
        print(f"  {group:>9s}: {report.group_total(group):8.2f} mW")
    print(f"  {'total':>9s}: {report.total:8.2f} mW")

    # The hand-off artifact: save the fitted model (format-v3 JSON), load
    # it back, and serve predictions through the batched service — the
    # architects' side needs no EDA flow at all.
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "autopower.json"
        api.save_model(model, path)
        service = api.PredictionService(api.load_model(path))
        requests = [
            api.PredictRequest(target, flow.run(target, w).events, w)
            for w in WORKLOADS
        ]
        responses = service.submit_many(requests)  # one fused batch call
        worst = max(
            abs(r.total - p) / p for r, p in zip(responses, pred_all)
        )
        print(f"\nsaved + reloaded model serves {len(responses)} requests "
              f"in {service.stats.model_calls} batched model call(s); "
              f"round-trip drift {worst:.2e}")


if __name__ == "__main__":
    main()
