"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json with the same BLAS thread setting the
benchmark runs with:

* ``fewshot``: held-out MAPE and R^2 of every (method, budget) fit,
* ``dse``: the golden and autopower rankings of the DSE grid and the
  exact flow executions of the cold, warm and model jobs,
* ``serve``: the in-process prediction for every served request.

Run it only on a commit whose outputs are known to be right; the
benchmark then holds later commits to them (see common.REL_TOL).
"""

from __future__ import annotations

import json
import os

import common


def main() -> int:
    common.reexec_if_needed()
    temp_root = common.prepare_environment()
    try:
        import dse
        import fewshot
        import serve
        from repro.dse.jobs import DseJobManager

        few = fewshot.Bench(0, temp_root)
        few.setup()
        fewshot_ref = {
            f"{m}/{b}": few.run_cell(m, b) for m, b in few.cells
        }

        os.environ["REPRO_FLOW_CACHE_DIR"] = os.path.join(temp_root, "dse-cache")
        manager = DseJobManager()
        dse_ref = {"executions": {}}
        for name, method in zip(dse.JOBS, ("golden", "golden", "autopower")):
            job = manager.submit(dse.job_spec(dse.AXES, method))
            job.thread.join()
            snap = job.snapshot()
            if snap["state"] != "done":
                raise RuntimeError(f"DSE {name} job {snap['state']}: {snap['error']}")
            dse_ref["executions"][name] = snap["flow"]["executions"]
            if name != "warm":
                key = "golden" if name == "cold" else "autopower"
                dse_ref[key] = dse.ranking(job.results_payload())
        manager.stop()

        srv = serve.Bench(0, temp_root)
        srv.prepare()
        serve_ref = {"totals": dict(zip(srv.pairs, srv.expected))}
    finally:
        common.remove_tree(temp_root)

    path = os.path.join(common.BENCH_DIR, "reference.json")
    with open(path, "w") as handle:
        json.dump(
            {"rel_tol": common.REL_TOL, "fewshot": fewshot_ref, "dse": dse_ref,
             "serve": serve_ref},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
