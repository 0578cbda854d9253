"""Write ``v2_models.json``: format-v2 envelopes and their predictions.

The fixture pins that files saved by the last format-v2 release still
load and predict bit for bit.  It must therefore be written by that
release (commit f98e2f7), not by the current tree::

    mkdir -p /tmp/repro-v2 && git archive f98e2f7 src | tar -x -C /tmp/repro-v2
    PYTHONPATH=/tmp/repro-v2/src python tests/data/make_v2_models.py \\
        tests/data/v2_models.json

Each learned method is fitted on the C1/C15 split with two boosting
rounds; ``predict_total`` is recorded on a few held-out (config,
workload) pairs, each kept as its wire-encoded request.
"""

from __future__ import annotations

import json
import sys

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.serving import wire
from repro.vlsi.flow import VlsiFlow

METHODS = ("autopower", "autopower-minus", "mcpat-calib", "mcpat-calib-component")
GBM = {"n_estimators": 2, "learning_rate": 0.08, "max_depth": 3, "reg_lambda": 1.0}
PAIRS = (("C5", "dhrystone"), ("C9", "spmv"), ("C12", "qsort"))


def main(out: str) -> None:
    flow = VlsiFlow()
    requests = []
    for cname, wname in PAIRS:
        config, workload = config_by_name(cname), workload_by_name(wname)
        events = flow.run(config, workload).events
        requests.append(wire.encode_request(api.PredictRequest(config, events, workload)))
    decoded = [wire.decode_request(obj) for obj in requests]
    models = {}
    for name in METHODS:
        # A non-zero seed: the key is recorded in v2 files but never read.
        model = api.fit(name, flow=flow, gbm_params=GBM, random_state=7)
        models[name] = {
            "envelope": api.model_to_envelope(model),
            "predict_total": [
                model.predict_total(r.config, r.events, r.workload) for r in decoded
            ],
        }
    with open(out, "w") as fh:
        json.dump({"requests": requests, "models": models}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
