"""Unit tests for the executor subsystem (repro.parallel)."""

from __future__ import annotations

import time

import pytest

import repro.parallel.executor as executor_mod
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_default_jobs,
    get_executor,
    parse_jobs_spec,
    resolve_jobs,
    set_default_jobs,
)


def _square(x):
    return x * x


def _slow_identity(pair):
    # Later submissions finish first; order must still be submission order.
    index, delay = pair
    time.sleep(delay)
    return index


@pytest.fixture(autouse=True)
def _clean_jobs_state(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    set_default_jobs(None)
    yield
    set_default_jobs(None)


class TestParseJobsSpec:
    def test_bare_count(self):
        assert parse_jobs_spec("4") == 4
        assert parse_jobs_spec(" -1 ") == -1

    def test_backend_and_count(self):
        # The pool kind is not a setting: a ``backend:count`` spec is an
        # error that names the variable.
        for spec in ("thread:4", " process:2 "):
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                parse_jobs_spec(spec)

    def test_bare_backend(self):
        for spec in ("serial", "process", "auto"):
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                parse_jobs_spec(spec)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            parse_jobs_spec("fiber:4")

    def test_rejects_garbage_count(self):
        with pytest.raises(ValueError, match="invalid worker count"):
            parse_jobs_spec("lots")


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_malformed_env_rejected_even_with_explicit_count(self, monkeypatch):
        # A stale ``thread:8`` must not be silently ignored.
        monkeypatch.setenv("REPRO_JOBS", "thread:8")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(3)

    def test_session_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        set_default_jobs(2)
        assert resolve_jobs(None) == 2
        assert get_default_jobs() == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "cpu_count", lambda: 7)
        assert resolve_jobs(0) == 7
        assert resolve_jobs(-1) == 7


class TestGetExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(get_executor(1, "thread"), SerialExecutor)
        assert isinstance(get_executor(1, "process"), SerialExecutor)
        assert isinstance(get_executor(None, "process"), SerialExecutor)

    def test_one_core_is_serial_for_both_kinds(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "cpu_count", lambda: 1)
        assert isinstance(get_executor(4, "thread"), SerialExecutor)
        assert isinstance(get_executor(4, "process"), SerialExecutor)

    def test_kind_picks_the_pool_on_multicore(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "cpu_count", lambda: 4)
        thread, process = get_executor(3, "thread"), get_executor(3, "process")
        assert isinstance(thread, ThreadExecutor) and thread.n_jobs == 3
        assert isinstance(process, ProcessExecutor) and process.n_jobs == 3

    def test_env_count_reaches_the_pool(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "cpu_count", lambda: 4)
        monkeypatch.setenv("REPRO_JOBS", "3")
        ex = get_executor(None, "thread")
        assert isinstance(ex, ThreadExecutor)
        assert ex.n_jobs == 3

    def test_rejects_unknown_backend(self):
        for kind in ("fiber", "auto", "serial"):
            with pytest.raises(ValueError, match="unknown executor kind"):
                get_executor(2, kind)


class TestExecutorMap:
    def test_serial_map(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_thread_map_preserves_submission_order(self):
        ex = ThreadExecutor(4)
        pairs = [(0, 0.05), (1, 0.0), (2, 0.02), (3, 0.0)]
        assert ex.map(_slow_identity, pairs) == [0, 1, 2, 3]

    def test_process_map_preserves_submission_order(self):
        ex = ProcessExecutor(2)
        assert ex.map(_square, list(range(6))) == [0, 1, 4, 9, 16, 25]
        assert ex.fallback_reason is None

    def test_process_unpicklable_task_falls_back_to_serial(self):
        ex = ProcessExecutor(2)
        assert ex.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert ex.fallback_reason is not None
        assert "not picklable" in ex.fallback_reason

    def test_process_unpicklable_payload_falls_back_to_serial(self):
        ex = ProcessExecutor(2)
        items = [(1, lambda: None), (2, lambda: None)]
        assert ex.map(_first_of, items) == [1, 2]
        assert ex.fallback_reason is not None

    def test_single_item_runs_inline(self):
        ex = ProcessExecutor(2)
        assert ex.map(_square, [3]) == [9]

    def test_pool_is_reused_across_maps_and_released_on_close(self):
        # Chunked fan-outs (run_many batches, DSE jobs) call map many
        # times; the pool must persist between calls, not re-fork.
        with ThreadExecutor(2) as ex:
            assert ex.map(_square, [1, 2]) == [1, 4]
            pool = ex._pool
            assert pool is not None
            assert ex.map(_square, [3, 4]) == [9, 16]
            assert ex._pool is pool
        assert ex._pool is None
        # A closed executor transparently builds a fresh pool.
        assert ex.map(_square, [5, 6]) == [25, 36]
        ex.close()

    def test_process_pool_is_reused_across_maps(self):
        with ProcessExecutor(2) as ex:
            assert ex.map(_square, [1, 2]) == [1, 4]
            pool = ex._pool
            assert ex.map(_square, [3, 4]) == [9, 16]
            assert ex._pool is pool
        assert ex._pool is None

    def test_serial_close_is_a_no_op(self):
        ex = SerialExecutor()
        ex.close()
        assert ex.map(_square, [2]) == [4]


def _first_of(pair):
    return pair[0]
