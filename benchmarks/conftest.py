"""Benchmark fixtures: one shared flow so label generation is cached.

``--jobs N`` (benchmarks only) sets the worker count the fit-scaling
benchmarks run with, so CI can exercise the serial and parallel paths
from the same test file:

    PYTHONPATH=src python -m pytest benchmarks -m perf_smoke
    PYTHONPATH=src python -m pytest benchmarks -m perf_smoke --jobs 2

``--bench-json PATH`` (or ``REPRO_BENCH_JSON=PATH``) writes the run's
benchmark stats as JSON (test -> mean/min ms, git sha, date) at session
end — see ``benchmarks/export.py``; CI uploads it as the per-PR perf
trajectory artifact and gates on the committed baseline.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.env import get_path
from repro.vlsi.flow import VlsiFlow


def _load_export():
    path = pathlib.Path(__file__).with_name("export.py")
    spec = importlib.util.spec_from_file_location("repro_bench_export", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker count of the fit-scaling benchmark's thread pool",
    )
    parser.addoption(
        "--bench-json",
        default=get_path("REPRO_BENCH_JSON"),
        help="write benchmark stats (mean/min ms + git sha + date) to this JSON file",
    )


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    export = _load_export()
    export.write_bench_json(path, export.collect_stats(bench_session.benchmarks))


@pytest.fixture(scope="session")
def bench_jobs(request) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session", autouse=True)
def _hermetic_flow_cache(tmp_path_factory):
    """Point the flow disk cache at a per-session temp dir.

    Benchmark timings must not depend on whatever a previous run left
    in ``~/.cache/repro/flow-cache`` — every session starts cold.
    """
    root = tmp_path_factory.mktemp("flow-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_FLOW_CACHE_DIR", str(root))
    yield str(root)
    mp.undo()


@pytest.fixture(scope="session")
def flow(_hermetic_flow_cache) -> VlsiFlow:
    return VlsiFlow()
