"""Tests for ``repro.dse``: flow cache, grid generation, DSE jobs.

The core contracts under test:

* warm flow results — from the disk cache, from worker merges, or both
  — are *byte-identical* (``pickle.dumps`` equality) to the cold run,
* the canonical key encoder is process-stable and order-insensitive,
* a repeated sweep performs zero flow executions,
* the async job manager validates synchronously, ranks deterministically
  and cancels cleanly, end-to-end through the HTTP gateway.
"""

from __future__ import annotations

import http.client
import json
import pickle

import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.dse.cache import FLOW_CACHE_VERSION, FlowDiskCache, content_key
from repro.dse.grid import generate_grid, grid_size, raw_rows_of
from repro.dse.jobs import DseError, DseJobManager, normalize_spec
from repro.library.stdcell import extended_library
from repro.parallel import get_executor
from repro.serving import GatewayThread
from repro.serving.client import ServingClient
from repro.vlsi.flow import VlsiFlow

# A tiny grid every sweep test shares: 2x2 points on C8, all valid.
AXES = {"RobEntry": [64, 96], "FetchBufferEntry": [16, 24]}


def _http(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    decoded = json.loads(response.read().decode("utf-8"))
    conn.close()
    return response.status, decoded


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------
class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        a = content_key({"x": 1, "y": [2.5, "z"]}, {"p", "q"})
        b = content_key({"y": [2.5, "z"], "x": 1}, {"q", "p"})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_distinguishes_values_and_types(self):
        assert content_key(1) != content_key(2)
        assert content_key(1) != content_key(1.0)
        assert content_key("1") != content_key(1)
        assert content_key([1, 2]) != content_key([2, 1])
        assert content_key(None) != content_key(False)

    def test_covers_configs_and_workloads(self):
        c8 = config_by_name("C8")
        assert content_key(c8) == content_key(config_by_name("C8"))
        assert content_key(c8) != content_key(config_by_name("C9"))
        assert content_key(workload_by_name("qsort")) != content_key(
            workload_by_name("gemm")
        )

    def test_rejects_unencodable_objects(self):
        with pytest.raises(TypeError, match="canonically encode"):
            content_key(object())


# ---------------------------------------------------------------------------
# The disk store
# ---------------------------------------------------------------------------
class TestFlowDiskCache:
    def test_round_trip_and_counters(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        key = content_key("entry")
        assert store.get(key) is None
        store.put(key, {"power": 1.5})
        assert store.get(key) == {"power": 1.5}
        snap = store.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["stores"] == 1 and snap["errors"] == 0
        assert store.entry_count() == 1
        assert store.size_bytes() > 0

    def test_version_skew_reads_as_miss(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        key = content_key("skew")
        store.put(key, "payload")
        path = store.path_for(key)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["version"] = FLOW_CACHE_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle)
        assert store.get(key) is None
        assert store.stats.errors == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        key = content_key("corrupt")
        store.put(key, "payload")
        with open(store.path_for(key), "wb") as handle:
            handle.write(b"\x80garbage")
        assert store.get(key) is None
        assert store.stats.errors == 1

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        # A renamed/copied entry file must not serve the wrong payload.
        store = FlowDiskCache(str(tmp_path))
        source, target = content_key("source"), content_key("target")
        store.put(source, "payload")
        import os
        os.makedirs(os.path.dirname(store.path_for(target)), exist_ok=True)
        os.replace(store.path_for(source), store.path_for(target))
        assert store.get(target) is None

    def test_eviction_is_lru_and_size_bounded(self, tmp_path):
        store = FlowDiskCache(str(tmp_path), max_bytes=1)
        old, new = content_key("old"), content_key("new")
        store.put(old, "x" * 100)
        store.put(new, "y" * 100)
        # The bound is 1 byte: the older entry must be gone.
        assert store.stats.evictions >= 1
        assert store.size_bytes() <= 200

    def test_clear_removes_everything(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        for i in range(3):
            store.put(content_key("clear", i), i)
        assert store.clear() == 3
        assert store.entry_count() == 0

    def test_handle_pickles_to_directory_reference(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        store.put(content_key("travel"), "payload")
        store.stats.hits = 7
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.max_bytes == store.max_bytes
        assert clone.stats.hits == 0  # counters do not travel
        assert clone.get(content_key("travel")) == "payload"


# ---------------------------------------------------------------------------
# Grid generation
# ---------------------------------------------------------------------------
class TestGrid:
    def test_raw_rows_round_trip(self):
        for name in ("C1", "C8", "C15"):
            config = config_by_name(name)
            rows = raw_rows_of(config)
            assert len(rows) == 14
            regenerated, dropped = generate_grid(
                config, {row: [value] for row, value in rows.items()}, None
            )
            assert dropped == 0 and len(regenerated) == 1
            assert dict(regenerated[0].params) == dict(config.params)

    def test_deterministic_names_and_order(self):
        first, _ = generate_grid("C8", AXES, None)
        second, _ = generate_grid("C8", AXES, None)
        assert [c.name for c in first] == [c.name for c in second]
        assert all(c.name.startswith("dse-") for c in first)
        assert len(first) == grid_size(AXES) == 4

    def test_reaches_a_thousand_valid_points(self):
        axes = {
            "RobEntry": [48, 64, 96, 128, 160],
            "FetchBufferEntry": [8, 16, 24, 32],
            "IntPhyRegister": [64, 80, 96, 112],
            "LDQ/STQEntry": [8, 16, 24],
            "DCache/ICacheWay": [2, 4, 8],
            "MSHREntry": [2, 4, 8],
        }
        configs, dropped = generate_grid("C8", axes, None)
        assert len(configs) >= 1000
        assert len(configs) + dropped <= grid_size(axes)

    @pytest.mark.parametrize(
        "axes, match",
        [
            ({}, "at least one axis"),
            ({"NoSuchRow": [1]}, "unknown parameter rows"),
            ({"RobEntry": []}, "no values"),
            ({"RobEntry": [0]}, "positive"),
        ],
    )
    def test_rejects_bad_axes(self, axes, match):
        with pytest.raises(ValueError, match=match):
            generate_grid("C8", axes, None)

    def test_enforces_max_configs(self):
        with pytest.raises(ValueError, match="more than the 3 allowed"):
            generate_grid("C8", AXES, 3)


# ---------------------------------------------------------------------------
# Flow integration: byte-identity across every cache path (satellite 3)
# ---------------------------------------------------------------------------
class TestFlowCacheMerge:
    """`run_many` merges — worker- or disk-produced — equal the serial run."""

    CONFIGS = ["C3", "C8"]
    WORKLOADS = ["qsort", "towers"]

    def _pairs(self):
        configs = [config_by_name(n) for n in self.CONFIGS]
        workloads = [workload_by_name(n) for n in self.WORKLOADS]
        return configs, workloads

    def _sweep(self, flow):
        configs, workloads = self._pairs()
        return flow.run_many(configs, workloads)

    def test_parallel_merges_byte_identical_to_serial(self, tmp_path):
        configs, workloads = self._pairs()
        serial = VlsiFlow(disk_cache=None).run_many(configs, workloads)
        for backend in ("thread", "process"):
            flow = VlsiFlow(disk_cache=None)
            merged = flow.run_many(
                configs, workloads, executor=get_executor(2, backend)
            )
            assert [pickle.dumps(r) for r in merged] == [
                pickle.dumps(r) for r in serial
            ], f"{backend} merge diverged from the serial sweep"

    def test_disk_warm_results_byte_identical_to_cold(self, tmp_path):
        store = FlowDiskCache(str(tmp_path))
        cold_flow = VlsiFlow(disk_cache=store)
        cold = self._sweep(cold_flow)
        assert cold_flow.executions == len(cold)
        warm_flow = VlsiFlow(disk_cache=FlowDiskCache(str(tmp_path)))
        warm = self._sweep(warm_flow)
        assert warm_flow.executions == 0
        assert warm_flow.disk_cache.stats.misses == 0
        assert warm_flow.disk_cache.stats.hits == len(cold)
        assert [pickle.dumps(r) for r in warm] == [
            pickle.dumps(r) for r in cold
        ]

    def test_disabled_cache_produces_equal_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FLOW_CACHE", "1")
        bare_flow = VlsiFlow()  # "auto" resolves to no disk cache
        assert bare_flow.disk_cache is None
        bare = self._sweep(bare_flow)
        monkeypatch.delenv("REPRO_NO_FLOW_CACHE")
        cached_flow = VlsiFlow(disk_cache=FlowDiskCache(str(tmp_path)))
        cached = self._sweep(cached_flow)
        assert [pickle.dumps(r) for r in bare] == [
            pickle.dumps(r) for r in cached
        ]

    def test_distinct_fingerprints_partition_the_store(self):
        assert VlsiFlow().fingerprint() == VlsiFlow().fingerprint()
        assert (
            VlsiFlow().fingerprint()
            != VlsiFlow(library=extended_library()).fingerprint()
        )


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
class TestNormalizeSpec:
    def test_fills_defaults(self):
        spec = normalize_spec({"axes": AXES})
        assert spec["base"].name == "C8"
        assert spec["method"] == "golden"
        assert [c.name for c in spec["train"]] == ["C1", "C15"]
        from repro.arch.workloads import WORKLOADS

        assert len(spec["workloads"]) == len(WORKLOADS)
        assert spec["library"] == "default"

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"axes": None}, "axes"),
            ({"axes": {"NoSuchRow": [1]}}, "unknown parameter rows"),
            ({"axes": {"RobEntry": [0]}}, "positive ints"),
            ({"base": "C999"}, "C999"),
            ({"workloads": ["whetstone"]}, "whetstone"),
            ({"method": "oracle"}, "unknown method"),
            ({"library": "tsmc7"}, "unknown library"),
            ({"max_configs": 0}, "max_configs"),
            ({"chunk": 0}, "chunk"),
            (
                {"axes": {"RobEntry": [2, 4, 8]}, "max_configs": 2},
                "more than the 2 allowed",
            ),
        ],
    )
    def test_rejects_bad_specs_synchronously(self, mutation, match):
        spec = {"axes": dict(AXES)}
        spec.update(mutation)
        with pytest.raises(DseError, match=match) as excinfo:
            normalize_spec(spec)
        assert excinfo.value.status == 400


class TestDseJobs:
    SPEC = {"axes": AXES, "workloads": ["qsort"], "chunk": 2}

    def _finish(self, job, timeout=60.0):
        job.thread.join(timeout=timeout)
        assert not job.thread.is_alive()
        return job

    def test_golden_job_ranks_ascending(self):
        manager = DseJobManager()
        job = self._finish(manager.submit(dict(self.SPEC)))
        assert job.state == "done"
        payload = job.results_payload()
        assert payload["configs"] == 4
        ranked = payload["ranked"]
        means = [entry["mean_total_mw"] for entry in ranked]
        assert means == sorted(means)
        assert [entry["rank"] for entry in ranked] == [1, 2, 3, 4]
        # Every entry names its grid point on the submitted axes.
        assert set(ranked[0]["point"]) == set(AXES)
        assert ranked[0]["per_workload"].keys() == {"qsort"}
        snapshot = job.snapshot()
        assert snapshot["progress"]["percent"] == 100.0
        assert snapshot["flow"]["executions"] >= 0

    def test_warm_resubmission_runs_zero_flows(self):
        manager = DseJobManager()
        cold = self._finish(manager.submit(dict(self.SPEC)))
        warm = self._finish(manager.submit(dict(self.SPEC)))
        assert warm.state == "done"
        stats = warm.snapshot()["flow"]
        assert stats["executions"] == 0
        assert stats["cache"]["misses"] == 0
        # Byte-identical ranked results, not merely equal.
        assert json.dumps(warm.results) == json.dumps(cold.results)

    def test_model_method_predicts_without_flow_runs(self):
        manager = DseJobManager()
        spec = dict(self.SPEC, method=api.method_names()[0], train=["C1", "C15"])
        job = self._finish(manager.submit(spec))
        assert job.state == "done", job.error
        assert all(e["kind"] == "predicted" for e in job.results)

    def test_results_before_done_answer_409(self):
        manager = DseJobManager()
        job = self._finish(manager.submit(dict(self.SPEC)))
        pending = manager.get(job.id)
        pending.state = "running"  # simulate an in-flight poll
        with pytest.raises(DseError) as excinfo:
            pending.results_payload()
        assert excinfo.value.status == 409
        pending.state = "done"

    def test_unknown_job_answers_404(self):
        with pytest.raises(DseError) as excinfo:
            DseJobManager().get("dse-999")
        assert excinfo.value.status == 404

    def test_max_running_sheds_with_429(self):
        manager = DseJobManager(max_running=0)
        with pytest.raises(DseError) as excinfo:
            manager.submit(dict(self.SPEC))
        assert excinfo.value.status == 429

    def test_cancel_and_stop(self):
        manager = DseJobManager()
        # A wide-but-cheap sweep with chunk=1 leaves room to cancel.
        spec = {
            "axes": {"RobEntry": list(range(32, 160, 2))},
            "workloads": ["qsort"],
            "chunk": 1,
        }
        job = manager.submit(spec)
        manager.cancel(job.id)
        self._finish(job)
        assert job.state in ("cancelled", "done")
        manager.stop(timeout=5.0)
        assert manager.snapshot()["submitted"] == 1


# ---------------------------------------------------------------------------
# Gateway end-to-end
# ---------------------------------------------------------------------------
class TestGatewayDse:
    @pytest.fixture(scope="class")
    def gateway(self, autopower2):
        with GatewayThread(api.PredictionService(autopower2)) as handle:
            yield handle

    @pytest.fixture(scope="class")
    def client(self, gateway):
        return ServingClient(port=gateway.port, max_retries=0)

    SPEC = {"axes": AXES, "workloads": ["qsort"], "chunk": 2}

    def test_submit_poll_results_cycle(self, client):
        ticket = client.submit_dse(self.SPEC)
        assert ticket["state"] in ("pending", "running", "done")
        assert ticket["poll"] == f"/dse/{ticket['id']}"
        final = client.wait_dse(ticket["id"], timeout=60.0)
        assert final["state"] == "done"
        results = client.dse_results(ticket["id"])
        assert results["configs"] == 4
        top = client.dse_results(ticket["id"], top=2)
        assert top["returned"] == 2
        assert top["ranked"] == results["ranked"][:2]
        listing = client.dse_jobs()
        assert any(j["id"] == ticket["id"] for j in listing["jobs"])

    def test_warm_http_resubmission_is_all_hits(self, client):
        cold = client.submit_dse(self.SPEC)
        client.wait_dse(cold["id"], timeout=60.0)
        warm = client.submit_dse(self.SPEC)
        status = client.wait_dse(warm["id"], timeout=60.0)
        assert status["flow"]["executions"] == 0
        assert status["flow"]["cache"]["misses"] == 0
        assert (
            client.dse_results(warm["id"])["ranked"]
            == client.dse_results(cold["id"])["ranked"]
        )

    def test_bad_submissions_answer_400(self, gateway):
        for payload in (
            [1, 2],  # not an object
            {"axes": AXES, "shoe_size": 43},  # unknown field
            {"base": "C8"},  # missing axes
            {"axes": {"NoSuchRow": [1]}},  # semantic: unknown row
            {"axes": AXES, "method": "oracle"},  # semantic: unknown method
        ):
            status, body = _http(gateway.port, "POST", "/dse", payload)
            assert status == 400, body
            assert "error" in body

    def test_unknown_job_and_method_statuses(self, gateway):
        assert _http(gateway.port, "GET", "/dse/dse-999")[0] == 404
        assert _http(gateway.port, "GET", "/dse/dse-999/results")[0] == 404
        assert _http(gateway.port, "PUT", "/dse", {})[0] == 405
        status, body = _http(
            gateway.port, "GET", "/dse/dse-1/results?top=banana"
        )
        assert status == 400

    def test_cancel_over_http(self, client):
        spec = {
            "axes": {"RobEntry": list(range(32, 160, 2))},
            "workloads": ["qsort"],
            "chunk": 1,
        }
        ticket = client.submit_dse(spec)
        answer = client.cancel_dse(ticket["id"])
        assert answer["cancel_requested"] is True
        final = client.wait_dse(ticket["id"], timeout=60.0)
        assert final["state"] in ("cancelled", "done")

    def test_stats_carry_the_dse_block(self, client):
        stats = client.stats()
        assert "dse" in stats
        assert stats["dse"]["submitted"] >= 1
        assert "by_state" in stats["dse"]
