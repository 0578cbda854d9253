"""Supervisor tests: crash recovery, journal replay, degraded control plane.

Two layers:

* Unit tests for the supervision primitives — :class:`RestartBackoff`,
  :class:`CrashLoopBreaker` (driven by :class:`ManualClock`),
  :class:`AdminJournal`, foreign-pid reaps — no processes involved.
* Integration tests that really ``fork``: a :class:`Supervisor` over
  tiny *toy workers* (a loopback control listener plus an in-memory
  ``name -> generation`` model map, no gateway) exercises SIGKILL
  recovery, journal-replay convergence, the crash-loop breaker, the
  startup deadline, degraded/partial control-plane answers, and the
  stop-vs-death race, all with real processes and real reaping.

The integration tests run the supervisor on a background thread
(signal-handler installation is skipped off the main thread;
``request_stop()`` is the programmatic drain), with aggressive timings
so the whole file stays fast.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serving.faults import ManualClock, ProcessChaos
from repro.serving.fleet import reuse_port_supported, write_worker_announce
from repro.serving.supervisor import (
    AdminJournal,
    CrashLoopBreaker,
    RestartBackoff,
    Supervisor,
)


# ---------------------------------------------------------------------------
# Unit: the supervision primitives.


class TestRestartBackoff:
    def test_doubles_from_base_and_caps(self):
        backoff = RestartBackoff(base_ms=100, cap_ms=5000)
        assert backoff.delay_s(0) == 0.0
        assert backoff.delay_s(1) == pytest.approx(0.1)
        assert backoff.delay_s(2) == pytest.approx(0.2)
        assert backoff.delay_s(5) == pytest.approx(1.6)
        assert backoff.delay_s(7) == pytest.approx(5.0)
        assert backoff.delay_s(100) == pytest.approx(5.0)  # no overflow

    def test_zero_base_means_immediate_restart(self):
        assert RestartBackoff(base_ms=0).delay_s(3) == 0.0

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            RestartBackoff(base_ms=-1)
        with pytest.raises(ValueError):
            RestartBackoff(base_ms=1, cap_ms=-1)


class TestCrashLoopBreaker:
    def test_trips_past_max_restarts_within_window(self):
        clock = ManualClock()
        breaker = CrashLoopBreaker(max_restarts=2, window_s=30.0, clock=clock)
        assert breaker.record() is False  # crash 1
        assert breaker.record() is False  # crash 2: restarts still funded
        assert breaker.record() is True  # crash 3: > max_restarts -> trip
        assert breaker.tripped

    def test_crashes_age_out_of_the_window(self):
        clock = ManualClock()
        breaker = CrashLoopBreaker(max_restarts=1, window_s=10.0, clock=clock)
        breaker.record()
        clock.advance(11.0)
        assert breaker.record() is False  # the first crash aged out
        assert breaker.snapshot()["crashes_in_window"] == 1

    def test_zero_max_restarts_trips_on_first_crash(self):
        breaker = CrashLoopBreaker(max_restarts=0, clock=ManualClock())
        assert breaker.record() is True

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            CrashLoopBreaker(max_restarts=-1)
        with pytest.raises(ValueError):
            CrashLoopBreaker(window_s=0)


class TestAdminJournal:
    def test_append_since_ordering(self):
        journal = AdminJournal()
        assert len(journal) == 0
        s0 = journal.append("PUT", "/models/a", b"{}", {"H": "1"})
        s1 = journal.append("DELETE", "/models/a", None, {})
        assert (s0, s1) == (0, 1)
        assert [op["seq"] for op in journal.since(0)] == [0, 1]
        tail = journal.since(1)
        assert len(tail) == 1 and tail[0]["method"] == "DELETE"
        assert journal.since(2) == []

    def test_snapshot_never_exposes_bodies_or_headers(self):
        # Bearer tokens ride in admin headers; the /stats journal view
        # must stay method/path/seq only.
        journal = AdminJournal()
        journal.append(
            "PUT", "/models/a", b'{"secret": 1}',
            {"Authorization": "Bearer hunter2"},
        )
        snap = json.dumps(journal.snapshot())
        assert "hunter2" not in snap
        assert "secret" not in snap
        assert journal.snapshot()["entries"] == 1
        assert journal.snapshot()["tail"][0]["path"] == "/models/a"


class TestAdminJournalCompaction:
    def test_keeps_only_the_last_put_per_model(self):
        journal = AdminJournal()
        for generation in range(5):
            journal.append("PUT", "/models/a", f"g{generation}".encode(), {})
        journal.append("PUT", "/models/b", b"only", {})
        summary = journal.compact()
        assert summary == {"kept": 2, "dropped": 4}
        ops = journal.since(0)
        assert [(op["path"], op["body"]) for op in ops] == [
            ("/models/a", b"g4"),
            ("/models/b", b"only"),
        ]
        # Replay numbering is contiguous from zero again.
        assert [op["seq"] for op in ops] == [0, 1]

    def test_trailing_delete_keeps_its_put_so_replay_never_404s(self):
        journal = AdminJournal()
        journal.append("PUT", "/models/a", b"1", {})
        journal.append("PUT", "/models/a", b"2", {})
        journal.append("DELETE", "/models/a", None, {})
        journal.compact()
        ops = journal.since(0)
        # A fresh worker replays PUT-then-DELETE: the DELETE lands on a
        # model that exists, exactly like the uncompacted history.
        assert [op["method"] for op in ops] == ["PUT", "DELETE"]
        assert ops[0]["body"] == b"2"

    def test_bare_delete_of_a_preloaded_model_is_kept(self):
        # CLI-preloaded models have no journaled PUT; their DELETE must
        # survive compaction or replay would resurrect them.
        journal = AdminJournal()
        journal.append("DELETE", "/models/preloaded", None, {})
        journal.append("PUT", "/models/b", b"x", {})
        assert journal.compact() == {"kept": 2, "dropped": 0}
        assert [op["method"] for op in journal.since(0)] == ["DELETE", "PUT"]

    def test_compaction_is_counted_in_the_snapshot(self):
        journal = AdminJournal()
        for _ in range(3):
            journal.append("PUT", "/models/a", b"x", {})
        journal.compact()
        snap = journal.snapshot()
        assert snap["entries"] == 1
        assert snap["compactions"] == 1
        assert snap["dropped_ops"] == 2

    def test_replay_after_compaction_is_state_equivalent(self):
        journal = AdminJournal()
        models: dict[str, bytes] = {}
        script = [
            ("PUT", "/models/a", b"a1"),
            ("PUT", "/models/b", b"b1"),
            ("PUT", "/models/a", b"a2"),
            ("DELETE", "/models/b", None),
            ("PUT", "/models/c", b"c1"),
        ]
        for method, path, body in script:
            journal.append(method, path, body, {})
            if method == "PUT":
                models[path] = body
            else:
                models.pop(path, None)
        journal.compact()
        replayed: dict[str, bytes] = {}
        for op in journal.since(0):
            if op["method"] == "PUT":
                replayed[op["path"]] = op["body"]
            else:
                replayed.pop(op["path"], None)
        assert replayed == models

    def test_supervisor_threshold_gates_compaction(self):
        supervisor = Supervisor(
            "127.0.0.1", 0, 1, lambda *_: 0, journal_compact_threshold=4
        )
        for _ in range(3):
            supervisor.journal.append("PUT", "/models/a", b"x", {})
        supervisor._maybe_compact_journal()
        assert len(supervisor.journal) == 3  # below threshold: untouched
        supervisor.journal.append("PUT", "/models/a", b"x", {})
        supervisor._maybe_compact_journal()
        assert len(supervisor.journal) == 1
        assert supervisor.journal.compactions == 1

    def test_compaction_skipped_while_any_slot_replays(self):
        supervisor = Supervisor(
            "127.0.0.1", 0, 1, lambda *_: 0, journal_compact_threshold=2
        )
        for _ in range(4):
            supervisor.journal.append("PUT", "/models/a", b"x", {})
        supervisor.slots[0].state = "replaying"
        supervisor._maybe_compact_journal()
        assert len(supervisor.journal) == 4  # old numbering still in use
        supervisor.slots[0].state = "ready"
        supervisor._maybe_compact_journal()
        assert len(supervisor.journal) == 1

    def test_zero_threshold_disables_compaction(self):
        supervisor = Supervisor(
            "127.0.0.1", 0, 1, lambda *_: 0, journal_compact_threshold=0
        )
        for _ in range(10):
            supervisor.journal.append("PUT", "/models/a", b"x", {})
        supervisor._maybe_compact_journal()
        assert len(supervisor.journal) == 10


class TestSupervisorUnit:
    def test_knob_validation(self):
        for kwargs in (
            {"startup_timeout_s": 0},
            {"call_timeout_s": 0},
        ):
            with pytest.raises(ValueError):
                Supervisor("127.0.0.1", 0, 1, lambda *_: 0, **kwargs)
        with pytest.raises(ValueError):
            Supervisor("127.0.0.1", 0, 0, lambda *_: 0)

    def test_foreign_pid_reap_is_counted_and_ignored(self):
        # A reparented grandchild's exit must not disturb any slot.
        sup = Supervisor("127.0.0.1", 0, 2, lambda *_: 0)
        sup.slots[0].pid = 11
        sup.slots[1].pid = 22
        sup._handle_exit(99999, 0)
        assert sup.foreign_reaps == 1
        assert [s.state for s in sup.slots] == ["starting", "starting"]
        assert not sup.crash_log

    def test_admin_with_no_ready_workers_is_503(self):
        sup = Supervisor("127.0.0.1", 0, 1, lambda *_: 0)
        status, body = sup.admin("PUT", "/models/x", b"{}", {})
        assert status == 503
        assert len(sup.journal) == 0  # nothing accepted, nothing journaled


# ---------------------------------------------------------------------------
# Integration: real forked toy workers under a live supervisor.


def _toy_worker(
    announce_fd: int,
    bound_port: int,
    exit_code: int = 0,
    drain_delay_s: float = 0.0,
    chaos_dir: str | None = None,
    healthz_hang_file: str | None = None,
) -> int:
    """A minimal supervised worker: control listener + model-gen map.

    Mirrors the real worker contract (announce, admin generations that
    are a pure function of the op sequence, SIGTERM drain) without a
    gateway, so supervisor tests stay fast.
    """
    if chaos_dir is not None:
        ProcessChaos(chaos_dir).enact("startup")
    models = {"default": 1}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *_args) -> None:
            pass

        def _reply(self, status: int, payload: dict) -> None:
            raw = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self) -> None:
            if self.path == "/healthz":
                # The hang file names one target pid, so a test can hang
                # exactly one worker out of the pool.
                if healthz_hang_file and os.path.exists(healthz_hang_file):
                    with open(healthz_hang_file) as fh:
                        if fh.read().strip() == str(os.getpid()):
                            time.sleep(30.0)
                self._reply(200, {"status": "ok", "pid": os.getpid()})
            elif self.path == "/stats":
                self._reply(200, {"requests": 1, "pid": os.getpid()})
            elif self.path == "/models":
                self._reply(
                    200,
                    {
                        "models": {
                            name: {"name": name, "generation": gen}
                            for name, gen in models.items()
                        }
                    },
                )
            else:
                self._reply(404, {})

        def do_PUT(self) -> None:
            name = self.path.removeprefix("/models/")
            length = int(self.headers.get("Content-Length", "0") or "0")
            if length:
                self.rfile.read(length)
            models[name] = models.get(name, 0) + 1
            self._reply(200, {"name": name, "generation": models[name]})

        def do_DELETE(self) -> None:
            name = self.path.removeprefix("/models/")
            if models.pop(name, None) is None:
                self._reply(404, {})
            else:
                self._reply(200, {"unloaded": True})

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    write_worker_announce(announce_fd, bound_port, server.server_address[1])
    stop.wait(60.0)
    if drain_delay_s:
        time.sleep(drain_delay_s)
    server.shutdown()
    server.server_close()
    return exit_code


def _crashing_worker(_announce_fd: int, _bound_port: int) -> int:
    return 3  # dies before announcing, every time


class _Run:
    """A supervisor running on a background thread, with its result."""

    def __init__(self, sup: Supervisor):
        self.sup = sup
        self.result: int | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()

    def _main(self) -> None:
        self.result = self.sup.run()

    def wait_for(self, predicate, timeout: float = 20.0, what: str = ""):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = predicate()
            if value:
                return value
            time.sleep(0.01)
        raise AssertionError(
            f"timed out waiting for {what or predicate}: "
            f"{self.sup.snapshot()}"
        )

    def wait_all_ready(self, timeout: float = 20.0) -> None:
        self.wait_for(
            lambda: self.sup.snapshot()["ready"] == self.sup.n_workers,
            timeout,
            "all workers ready",
        )

    def stop(self, timeout: float = 30.0) -> int:
        self.sup.request_stop()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "supervisor failed to exit"
        return self.result

    def join(self, timeout: float = 30.0) -> int:
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "supervisor failed to exit"
        return self.result


@pytest.fixture
def launch():
    """Launch supervisors and guarantee their children die at teardown."""
    runs: list[_Run] = []

    def _launch(worker_main, n_workers: int = 2, **kwargs) -> _Run:
        kwargs.setdefault("restart_backoff_ms", 10.0)
        kwargs.setdefault("startup_timeout_s", 20.0)
        kwargs.setdefault("poll_interval_s", 0.01)
        run = _Run(
            Supervisor("127.0.0.1", 0, n_workers, worker_main, **kwargs)
        )
        runs.append(run)
        return run

    yield _launch
    for run in runs:
        run.sup.request_stop()
        run.thread.join(10.0)
        for slot in run.sup.slots:  # belt and braces: no stray children
            if slot.pid is not None:
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass


def _control_get(port: int, path: str, timeout: float = 10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _generations(sup: Supervisor) -> list[dict]:
    results = sup.fan_out_get("/models", {})
    return [
        {m["name"]: m["generation"] for m in r["body"]["models"].values()}
        for r in results
        if r.get("status") == 200
    ]


needs_fork = pytest.mark.skipif(
    not reuse_port_supported(),
    reason="needs os.fork and SO_REUSEPORT",
)


@needs_fork
class TestSupervisedPool:
    def test_sigkill_restart_and_journal_replay_convergence(self, launch):
        run = launch(_toy_worker)
        run.wait_all_ready()

        # Admin ops enter the journal once accepted.
        status, body = run.sup.admin("PUT", "/models/extra", b"{}", {})
        assert status == 200
        assert body["accepted"] == 2 and body["journal_seq"] == 0
        status, _b = run.sup.admin("PUT", "/models/default", b"{}", {})
        assert status == 200  # default -> generation 2

        victim = run.sup.slots[0].pid
        os.kill(victim, signal.SIGKILL)
        run.wait_for(
            lambda: run.sup.snapshot()["ready"] == 2
            and run.sup.snapshot()["restarts"] == 1,
            what="heal after SIGKILL",
        )
        assert run.sup.slots[0].pid != victim

        # The replacement replayed the journal: same names, same gens.
        gens = _generations(run.sup)
        assert len(gens) == 2
        assert gens[0] == gens[1] == {"default": 2, "extra": 1}
        snap = run.sup.snapshot()
        assert snap["crashes"] == 1
        assert snap["slots"][0]["replayed"] == 2

        # Ops after the heal fan out to both (including the newcomer).
        status, body = run.sup.admin("DELETE", "/models/extra", None, {})
        assert status == 200 and body["accepted"] == 2
        gens = _generations(run.sup)
        assert gens[0] == gens[1] == {"default": 2}
        assert run.stop() == 0

    def test_degraded_capacity_keeps_serving_and_reports(self, launch):
        # A long backoff freezes the pool in degraded mode so the
        # control-plane answers are deterministic.
        run = launch(_toy_worker, restart_backoff_ms=60_000.0)
        run.wait_all_ready()
        victim = run.sup.slots[1].pid
        os.kill(victim, signal.SIGKILL)
        run.wait_for(
            lambda: run.sup.snapshot()["ready"] == 1, what="degraded state"
        )

        status, body = _control_get(run.sup.control_port, "/healthz")
        assert status == 200  # degraded, NOT an error: probes must pass
        assert body["status"] == "degraded"
        assert body["supervisor"]["degraded"] is True

        # Partial observability: the survivor's stats still merge.
        status, body = _control_get(run.sup.control_port, "/stats")
        assert status == 200
        assert body["partial"] is True
        assert body["merged"]["requests"] == 1
        assert len(body["workers"]) == 1
        assert body["supervisor"]["slots"][1]["state"] == "backoff"

        # Admin ops keep landing on the survivor (and the journal), so
        # the eventual replacement still converges.
        status, admin_body = run.sup.admin("PUT", "/models/x", b"{}", {})
        assert status == 200 and admin_body["accepted"] == 1
        assert len(run.sup.journal) == 1
        assert run.stop() == 0

    def test_hung_worker_degrades_fanout_instead_of_stalling(
        self, launch, tmp_path
    ):
        # Satellite: a hung worker must cost call_timeout_s, answered as
        # degraded — not a 60s stall or a whole-fan-out 502.
        hang_file = str(tmp_path / "hang")
        run = launch(
            lambda fd, port: _toy_worker(
                fd, port, healthz_hang_file=hang_file
            ),
            call_timeout_s=0.3,
        )
        run.wait_all_ready()
        victim = run.sup.slots[0].pid
        with open(hang_file, "w") as fh:
            fh.write(str(victim))
        start = time.monotonic()
        status, body = _control_get(run.sup.control_port, "/healthz")
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "short per-worker timeout must bound the fan-out"
        assert status == 200 and body["status"] == "degraded"
        errored = [w for w in body["workers"] if "error" in w]
        assert len(errored) == 1 and errored[0]["pid"] == victim
        os.unlink(hang_file)
        status, body = _control_get(run.sup.control_port, "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert run.stop() == 0

    def test_crash_loop_gives_up_with_diagnostics(self, launch, capfd):
        run = launch(
            _crashing_worker,
            max_restarts=2,
            restart_window_s=30.0,
        )
        assert run.join(timeout=30.0) == 1
        err = capfd.readouterr().err
        assert "crash-loop" in err
        assert "exited 3 before announcing" in err
        assert "(slot" in err  # per-pid, per-slot diagnostics
        snap = run.sup.snapshot()
        assert snap["gave_up"] is True
        assert snap["breaker"]["tripped"] is True

    def test_startup_hang_is_killed_and_replaced(
        self, launch, tmp_path, capfd
    ):
        chaos_dir = str(tmp_path / "chaos")
        ProcessChaos(chaos_dir).arm("hang-startup", 1, hang_s=60)
        run = launch(
            lambda fd, port: _toy_worker(fd, port, chaos_dir=chaos_dir),
            startup_timeout_s=0.5,
        )
        run.wait_all_ready(timeout=30.0)
        snap = run.sup.snapshot()
        assert snap["restarts"] >= 1
        assert any(
            "startup deadline" in (entry["exit"] or "")
            for entry in run.sup.crash_log
        )
        assert "did not announce within" in capfd.readouterr().err
        assert run.stop() == 0

    def test_clean_drain_exits_zero_without_restarts(self, launch, capfd):
        run = launch(_toy_worker)
        run.wait_all_ready()
        assert run.stop() == 0
        out = capfd.readouterr().out
        assert "all workers drained" in out
        assert run.sup.snapshot()["restarts"] == 0

    def test_nonzero_exit_during_requested_stop_is_failure(
        self, launch, capfd
    ):
        run = launch(lambda fd, port: _toy_worker(fd, port, exit_code=7))
        run.wait_all_ready()
        assert run.stop() == 1
        assert "workers exited non-zero" in capfd.readouterr().err

    def test_death_during_stop_does_not_restart(self, launch):
        # The stop-vs-unexpected-death race: a worker SIGKILLed while
        # the pool is draining is a failed exit, never a restart.
        run = launch(
            lambda fd, port: _toy_worker(fd, port, drain_delay_s=1.0)
        )
        run.wait_all_ready()
        victim = run.sup.slots[0].pid
        run.sup.request_stop()
        os.kill(victim, signal.SIGKILL)
        assert run.join(timeout=30.0) == 1
        snap = run.sup.snapshot()
        assert snap["restarts"] == 0
        assert snap["crashes"] == 0  # death during stop is not a crash
