"""Asynchronous design-space-exploration jobs.

A DSE job sweeps a parameter grid (:mod:`repro.dse.grid`) through the
disk-cached flow and ranks the resulting configurations.  Jobs are
submitted by the serving gateway (``POST /dse``), run on a daemon
thread so the event loop keeps serving predictions, and are polled via
``GET /dse/<id>`` / ``GET /dse/<id>/results`` (``DELETE`` cancels).

Two evaluation methods:

* ``"golden"`` (default) — run the full flow for every grid point and
  rank by golden mean total power.  Cache-aware scheduling: pairs
  already in the disk cache resolve inline in the submitting process;
  only the misses fan out through :mod:`repro.parallel` (per the job's
  ``jobs`` knob), chunked so progress and cancellation stay responsive.
* any registered model method (``"autopower"``, ``"mcpat-calib"``, ...)
  — few-shot fit the method on the job's training configurations
  through the cached flow, then predict every grid point from
  performance-simulator events alone (the paper's architect-side
  hand-off: no flow run for the explored points).

Ranking is ascending by mean total power over the job's workloads —
the DSE question is "which candidate spends the least power", and ties
between methods are broken by the deterministic grid order.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.arch.config import BoomConfig, config_by_name
from repro.arch.workloads import WORKLOADS, Workload, workload_by_name
from repro.dse.grid import generate_grid, grid_size, raw_rows_of
from repro.parallel import get_executor

__all__ = ["DseError", "DseJob", "DseJobManager"]

_GOLDEN = "golden"
_LIBRARIES = ("default", "extended")
DEFAULT_MAX_CONFIGS = 4096
HARD_MAX_CONFIGS = 50_000
DEFAULT_CHUNK = 25


class DseError(Exception):
    """A DSE request the gateway refuses, with the HTTP status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _known_methods() -> list[str]:
    import repro.api as api

    return [_GOLDEN, *api.method_names()]


def normalize_spec(spec: dict) -> dict:
    """Validate and fill in a submitted spec (cheap; no flow work).

    Everything that can be rejected synchronously is rejected here with
    a :class:`DseError` 400, so a bad submission never spawns a thread:
    unknown base/workload/method/library names, malformed axes, and
    grids larger than the (possibly raised) ``max_configs`` bound.
    """
    if not isinstance(spec, dict):
        raise DseError(400, "DSE spec must be a JSON object")
    axes = spec.get("axes")
    if not isinstance(axes, dict) or not axes:
        raise DseError(
            400, "DSE spec needs a non-empty 'axes' object "
            "(raw Table II row -> list of values)"
        )
    base = spec.get("base", "C8")
    try:
        base_config = (
            base if isinstance(base, BoomConfig) else config_by_name(base)
        )
    except KeyError as exc:
        raise DseError(400, str(exc.args[0] if exc.args else exc)) from None
    workload_names = spec.get("workloads")
    if workload_names is None:
        workload_list: list[Workload] = list(WORKLOADS)
    else:
        try:
            workload_list = [
                w if isinstance(w, Workload) else workload_by_name(w)
                for w in workload_names
            ]
        except KeyError as exc:
            raise DseError(
                400, str(exc.args[0] if exc.args else exc)
            ) from None
        if not workload_list:
            raise DseError(400, "'workloads' must not be empty")
    method = spec.get("method", _GOLDEN)
    if method not in _known_methods():
        raise DseError(
            400,
            f"unknown method {method!r}; expected one of {_known_methods()}",
        )
    train = spec.get("train", ["C1", "C15"])
    try:
        train_configs = [
            c if isinstance(c, BoomConfig) else config_by_name(c)
            for c in train
        ]
    except KeyError as exc:
        raise DseError(400, str(exc.args[0] if exc.args else exc)) from None
    if method != _GOLDEN and not train_configs:
        raise DseError(400, "model methods need at least one train config")
    library = spec.get("library", "default")
    if library not in _LIBRARIES:
        raise DseError(
            400, f"unknown library {library!r}; expected one of {_LIBRARIES}"
        )
    max_configs = spec.get("max_configs", DEFAULT_MAX_CONFIGS)
    if (
        not isinstance(max_configs, int)
        or isinstance(max_configs, bool)
        or not 1 <= max_configs <= HARD_MAX_CONFIGS
    ):
        raise DseError(
            400, f"'max_configs' must be an int in [1, {HARD_MAX_CONFIGS}]"
        )
    chunk = spec.get("chunk", DEFAULT_CHUNK)
    if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
        raise DseError(400, "'chunk' must be a positive int")
    jobs = spec.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool)):
        raise DseError(400, "'jobs' must be an int or omitted")
    normalized_axes: dict[str, list[int]] = {}
    for row, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise DseError(400, f"axis {row!r} needs a non-empty value list")
        cleaned = []
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise DseError(400, f"axis {row!r} values must be positive ints")
            cleaned.append(value)
        normalized_axes[str(row)] = cleaned
    try:
        generate_grid(base_config, {k: [1] for k in normalized_axes}, None)
    except ValueError as exc:  # unknown axis rows
        raise DseError(400, str(exc)) from None
    size = grid_size(normalized_axes)
    if size > max_configs:
        raise DseError(
            400,
            f"grid spans {size} points, more than the {max_configs} allowed; "
            "shrink an axis or raise 'max_configs'",
        )
    return {
        "base": base_config,
        "axes": normalized_axes,
        "workloads": workload_list,
        "method": method,
        "train": train_configs,
        "library": library,
        "max_configs": max_configs,
        "chunk": chunk,
        "jobs": jobs,
    }


def _build_flow(library: str):
    from repro.library.stdcell import default_library, extended_library
    from repro.vlsi.flow import VlsiFlow

    lib = default_library() if library == "default" else extended_library()
    return VlsiFlow(library=lib)


class DseJob:
    """One submitted sweep: spec, progress, and (eventually) ranked results."""

    def __init__(self, job_id: str, spec: dict) -> None:
        self.id = job_id
        self.spec = spec
        # -> running -> done | failed | cancelled
        self.state = "pending"  # guarded-by: _lock
        self.error: str | None = None  # guarded-by: _lock
        self.results: list[dict] | None = None  # guarded-by: _lock
        self.submitted_unix = time.time()
        self.started_monotonic: float | None = None  # guarded-by: _lock
        self.runtime_s: float | None = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        self.thread: threading.Thread | None = None
        self._progress = {
            "grid_points": grid_size(spec["axes"]),
            "configs": None,  # valid configs, known once the grid builds
            "dropped": None,
            "pairs_total": None,
            "pairs_done": 0,
        }
        self._flow_stats: dict | None = None

    # -- worker-thread side ---------------------------------------------
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def _update(self, **fields: Any) -> None:
        with self._lock:
            self._progress.update(fields)

    def _record_flow(self, flow) -> None:
        with self._lock:
            self._flow_stats = {
                "executions": flow.executions,
                "cache": (
                    flow.disk_cache.stats.snapshot()
                    if flow.disk_cache is not None
                    else None
                ),
            }

    def _finish(self, state: str, error: str | None = None) -> None:
        with self._lock:
            self.state = state
            self.error = error
            if self.started_monotonic is not None:
                self.runtime_s = time.monotonic() - self.started_monotonic

    def run(self) -> None:
        """The job body (runs on the manager's daemon thread)."""
        with self._lock:
            self.started_monotonic = time.monotonic()
            self.state = "running"
        try:
            flow = _build_flow(self.spec["library"])
            configs, dropped = generate_grid(
                self.spec["base"], self.spec["axes"], self.spec["max_configs"]
            )
            workloads = self.spec["workloads"]
            self._update(
                configs=len(configs),
                dropped=dropped,
                pairs_total=len(configs) * len(workloads),
            )
            if not configs:
                self._finish("failed", "no valid configurations in the grid")
                return
            if self.spec["method"] == _GOLDEN:
                ranked = self._run_golden(flow, configs, workloads)
            else:
                ranked = self._run_model(flow, configs, workloads)
            self._record_flow(flow)
            if ranked is None:  # cancelled mid-sweep
                self._finish("cancelled")
                return
            with self._lock:
                self.results = ranked
            self._finish("done")
        except Exception as exc:  # surfaced via GET /dse/<id>
            self._finish("failed", f"{type(exc).__name__}: {exc}")

    def _run_golden(self, flow, configs, workloads) -> list[dict] | None:
        # One process pool for the whole sweep (the flow is pure Python):
        # it keeps its workers alive across chunks, so chunking costs
        # progress granularity, not pool spin-ups.
        with get_executor(self.spec["jobs"], "process") as executor:
            chunk = self.spec["chunk"]
            for start in range(0, len(configs), chunk):
                if self.cancelled():
                    return None
                batch = configs[start : start + chunk]
                flow.run_many(batch, workloads, executor=executor)
                self._update(
                    pairs_done=min(
                        (start + len(batch)) * len(workloads),
                        len(configs) * len(workloads),
                    )
                )
                self._record_flow(flow)
        return self._rank(
            configs,
            workloads,
            "golden",
            lambda c, w: flow.run(c, w).power.total,
        )

    def _run_model(self, flow, configs, workloads) -> list[dict] | None:
        import repro.api as api

        model = api.fit(
            self.spec["method"],
            flow=flow,
            train_configs=self.spec["train"],
            workloads=workloads,
            n_jobs=self.spec["jobs"],
        )
        self._record_flow(flow)
        service = api.PredictionService(model)
        totals: dict[tuple[str, str], float] = {}
        chunk = self.spec["chunk"]
        for start in range(0, len(configs), chunk):
            if self.cancelled():
                return None
            batch = configs[start : start + chunk]
            requests = [
                api.PredictRequest(
                    config=c, events=flow.perf.run(c, w), workload=w
                )
                for c in batch
                for w in workloads
            ]
            for request, response in zip(requests, service.stream(requests)):
                totals[(request.config.name, request.workload.name)] = (
                    response.total
                )
            self._update(
                pairs_done=min(
                    (start + len(batch)) * len(workloads),
                    len(configs) * len(workloads),
                )
            )
        return self._rank(
            configs, workloads, "predicted", lambda c, w: totals[(c.name, w.name)]
        )

    def _rank(self, configs, workloads, kind, total_of) -> list[dict]:
        axis_rows = list(self.spec["axes"])
        entries = []
        for config in configs:
            per_workload = {w.name: float(total_of(config, w)) for w in workloads}
            raw = raw_rows_of(config)
            entries.append(
                {
                    "config": config.name,
                    "point": {row: raw[row] for row in axis_rows},
                    "params": raw,
                    "kind": kind,
                    "mean_total_mw": sum(per_workload.values())
                    / len(per_workload),
                    "per_workload": per_workload,
                }
            )
        entries.sort(key=lambda e: e["mean_total_mw"])
        for rank, entry in enumerate(entries, start=1):
            entry["rank"] = rank
        return entries

    # -- gateway-facing side --------------------------------------------
    def cancel(self) -> None:
        self._cancel.set()

    def snapshot(self) -> dict:
        with self._lock:
            progress = dict(self._progress)
            flow_stats = dict(self._flow_stats) if self._flow_stats else None
            state, error = self.state, self.error
            runtime = self.runtime_s
        if runtime is None and self.started_monotonic is not None:
            runtime = time.monotonic() - self.started_monotonic
        total = progress.get("pairs_total")
        done = progress.get("pairs_done", 0)
        progress["percent"] = (
            round(100.0 * done / total, 2) if total else None
        )
        return {
            "id": self.id,
            "state": state,
            "method": self.spec["method"],
            "library": self.spec["library"],
            "base": self.spec["base"].name,
            "workloads": [w.name for w in self.spec["workloads"]],
            "axes": self.spec["axes"],
            "submitted_unix": self.submitted_unix,
            "runtime_s": runtime,
            "progress": progress,
            "flow": flow_stats,
            "error": error,
        }

    def results_payload(self, top: int | None = None) -> dict:
        with self._lock:
            state, results = self.state, self.results
        if state != "done" or results is None:
            raise DseError(
                409,
                f"job {self.id} is {state}; results are available once it "
                "is done",
            )
        ranked = results if top is None else results[: max(0, top)]
        return {
            "id": self.id,
            "state": state,
            "method": self.spec["method"],
            "library": self.spec["library"],
            "configs": len(results),
            "returned": len(ranked),
            "ranked": ranked,
        }


class DseJobManager:
    """Submit, track, cancel and reap DSE jobs (thread-safe).

    ``max_finished`` bounds retention: once more than that many jobs
    have finished, the oldest finished jobs are forgotten (running jobs
    are never evicted).  ``max_running`` sheds submissions with 429
    while that many sweeps are already in flight — a DSE sweep is many
    flow runs, and an unbounded thread pile-up would starve serving.

    Job ids are ``dse-<prefix>-<n>``: a random per-manager prefix and a
    counter.  A restarted server therefore never reissues an old
    ticket, and a client polling one gets 404 instead of another
    sweep's results.  Every submission is a new job, even of a spec
    seen before.
    """

    def __init__(self, max_finished: int = 64, max_running: int = 4) -> None:
        self.max_finished = max_finished
        self.max_running = max_running
        self._jobs: dict[str, DseJob] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._prefix = os.urandom(6).hex()
        self._counter = 0  # guarded-by: _lock
        self.submitted = 0  # guarded-by: _lock

    def submit(self, spec: dict) -> DseJob:
        normalized = normalize_spec(spec)
        with self._lock:
            running = [
                j for j in self._jobs.values()
                if j.state in ("pending", "running")
            ]
            if len(running) >= self.max_running:
                raise DseError(
                    429,
                    f"{len(running)} DSE jobs already running "
                    f"(limit {self.max_running}); retry after one finishes",
                )
            self._counter += 1
            self.submitted += 1
            job = DseJob(f"dse-{self._prefix}-{self._counter}", normalized)
            self._jobs[job.id] = job
            self._reap_locked()
        job.thread = threading.Thread(
            target=job.run, name=f"repro-{job.id}", daemon=True
        )
        job.thread.start()
        return job

    def _reap_locked(self) -> None:
        finished = [
            j
            for j in self._jobs.values()
            if j.state in ("done", "failed", "cancelled")
        ]
        overflow = len(finished) - self.max_finished
        for job in finished[:max(0, overflow)]:
            del self._jobs[job.id]

    def get(self, job_id: str) -> DseJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise DseError(404, f"no DSE job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> dict:
        job = self.get(job_id)
        job.cancel()
        return {"id": job.id, "state": job.state, "cancel_requested": True}

    def list_payload(self) -> dict:
        with self._lock:
            jobs = list(self._jobs.values())
        return {"jobs": [job.snapshot() for job in jobs]}

    def snapshot(self) -> dict:
        """The ``/stats`` DSE block: job counts by state."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return {
            "submitted": self.submitted,
            "tracked": len(jobs),
            "by_state": counts,
        }

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel every running job and wait (bounded) for the threads."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.cancel()
        deadline = time.monotonic() + timeout
        for job in jobs:
            thread = job.thread
            if thread is not None and thread.is_alive():
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
