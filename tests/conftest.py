"""Shared fixtures.

The expensive artifacts — the flow (which caches all runs) and a fully
trained AutoPower model on the paper's 2-config split — are session-scoped
so the whole suite pays for them once.
"""

from __future__ import annotations

import pytest

from repro.arch.config import BOOM_CONFIGS, config_by_name
from repro.arch.workloads import WORKLOADS
from repro.core.autopower import AutoPower
from repro.vlsi.flow import VlsiFlow

# The shared GBM reference's helpers assert; report their operands.
pytest.register_assert_rewrite("gbm_reference")


@pytest.fixture(scope="session", autouse=True)
def _hermetic_flow_cache(tmp_path_factory):
    """Point the flow disk cache at a per-session temp dir.

    Keeps the suite hermetic: tests never read stale entries from (or
    pollute) the user's ``~/.cache/repro/flow-cache``.
    """
    root = tmp_path_factory.mktemp("flow-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_FLOW_CACHE_DIR", str(root))
    yield str(root)
    mp.undo()


@pytest.fixture(scope="session")
def flow(_hermetic_flow_cache) -> VlsiFlow:
    return VlsiFlow()


@pytest.fixture(scope="session")
def train_configs():
    return [config_by_name("C1"), config_by_name("C15")]


@pytest.fixture(scope="session")
def test_configs():
    return [c for c in BOOM_CONFIGS if c.name not in ("C1", "C15")]


@pytest.fixture(scope="session")
def workloads():
    return list(WORKLOADS)


@pytest.fixture(scope="session")
def autopower2(flow, train_configs, workloads) -> AutoPower:
    """AutoPower trained on the paper's 2-config few-shot split."""
    return AutoPower(library=flow.library).fit(flow, train_configs, workloads)


@pytest.fixture(scope="session")
def c1():
    return config_by_name("C1")


@pytest.fixture(scope="session")
def c8():
    return config_by_name("C8")


@pytest.fixture(scope="session")
def c15():
    return config_by_name("C15")


@pytest.fixture(scope="session")
def dhrystone():
    from repro.arch.workloads import workload_by_name

    return workload_by_name("dhrystone")


@pytest.fixture(scope="session")
def baselines2(flow, train_configs, workloads) -> dict:
    """The three learned baselines, fitted on the 2-config few-shot split."""
    import repro.api as api

    return {
        name: api.fit(
            name, flow=flow, train_configs=train_configs, workloads=workloads
        )
        for name in ("autopower-minus", "mcpat-calib", "mcpat-calib-component")
    }
