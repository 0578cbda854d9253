"""Self-healing supervision for the ``SO_REUSEPORT`` worker pool.

A fail-fast worker pool, where any worker dying unexpectedly drains the
rest and exits non-zero, lets a single segfaulting worker take the
whole fleet down — the opposite of what shared-nothing workers should
buy.  :class:`Supervisor` runs the pool's parent loop with a
supervision discipline instead:

* **Crash recovery.**  A reaped worker is respawned with exponential
  backoff (``restart_backoff_ms`` doubling per consecutive failure of
  the same slot, capped).  While the replacement comes up the pool
  keeps serving on the survivors — the kernel simply stops routing new
  connections to the dead listener — and the control plane's
  ``/healthz`` answers ``200 {"status": "degraded"}`` instead of
  failing probes.
* **Crash-loop breaker.**  More than ``max_restarts`` worker crashes
  within ``restart_window_s`` means restarting is not helping
  (:class:`CrashLoopBreaker`): the supervisor gives up, prints per-pid
  crash diagnostics, drains the survivors and exits non-zero instead
  of thrashing forever.
* **Startup deadline.**  A worker that never writes its announce line
  (hung in startup) is killed after ``startup_timeout_s`` and treated
  as a crash — the parent no longer blocks forever on the announce
  pipe.
* **Fleet-state reconciliation.**  Hot reloads mutate per-worker
  state, so the parent keeps an append-only :class:`AdminJournal` of
  every *accepted* ``PUT``/``DELETE /models/<name>`` and replays it, in
  order, to each restarted worker over its loopback control listener
  *before* marking the worker ready — a replacement converges to the
  survivors' exact model names and generations (generations are a pure
  function of the op sequence).  A ready worker that fails an op the
  fleet accepted is killed and restarted through the same journal path
  rather than left divergent.
* **Partial observability.**  ``GET /stats`` / ``GET /models``
  fan-outs return per-worker results and merge only the healthy
  snapshots — a dead or hung worker (bounded by the short
  ``call_timeout_s``) degrades the view instead of blinding it.

:func:`repro.serving.fleet.run_worker_pool` is a thin wrapper over this
class; ``serve --workers N`` is always supervised.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections.abc import Callable
from typing import Any

from repro.serving.fleet import (
    _read_announce,
    _worker_call,
    format_announce,
    merge_stats,
    reserve_port,
    reuse_port_supported,
)

__all__ = [
    "AdminJournal",
    "CrashLoopBreaker",
    "RestartBackoff",
    "Supervisor",
    "WorkerSlot",
]

import json


class RestartBackoff:
    """Exponential restart backoff: ``base * 2**(failures-1)``, capped."""

    def __init__(self, base_ms: float = 100.0, cap_ms: float = 5000.0) -> None:
        if base_ms < 0 or cap_ms < 0:
            raise ValueError("backoff knobs must be non-negative")
        self.base_ms = float(base_ms)
        self.cap_ms = float(max(base_ms, cap_ms))

    def delay_s(self, consecutive_failures: int) -> float:
        if consecutive_failures <= 0:
            return 0.0
        exponent = min(consecutive_failures - 1, 32)  # no float overflow
        return min(self.cap_ms, self.base_ms * 2**exponent) / 1e3


class CrashLoopBreaker:
    """Give up once more than ``max_restarts`` crashes land in a window.

    Restarting only helps transient failures; a worker that keeps dying
    (bad model file, poisoned state, broken host) must eventually take
    the pool down *with diagnostics* instead of thrashing.  Every crash
    is :meth:`record`-ed; the breaker trips when the rolling
    ``window_s`` holds strictly more than ``max_restarts`` of them —
    i.e. ``max_restarts`` is the number of restarts the supervisor will
    fund per window.  ``max_restarts=0`` means the first crash trips.
    """

    def __init__(
        self,
        max_restarts: int = 5,
        window_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.max_restarts = int(max_restarts)
        self.window_s = float(window_s)
        self._clock = clock
        self._crashes: list[float] = []

    def record(self) -> bool:
        """Record one crash; returns True when the breaker just tripped."""
        now = self._clock()
        self._crashes.append(now)
        self._prune(now)
        return self.tripped

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        self._crashes = [t for t in self._crashes if t > cutoff]

    @property
    def tripped(self) -> bool:
        self._prune(self._clock())
        return len(self._crashes) > self.max_restarts

    def snapshot(self) -> dict:
        self._prune(self._clock())
        return {
            "max_restarts": self.max_restarts,
            "window_s": self.window_s,
            "crashes_in_window": len(self._crashes),
            "tripped": self.tripped,
        }


class AdminJournal:
    """Append-only log of *accepted* model-admin operations.

    The parent is the pool's source of truth for which hot reloads and
    unloads the fleet has accepted: every ``PUT``/``DELETE
    /models/<name>`` that at least one worker acknowledged is appended
    (method, path, raw body, and the headers it was accepted with —
    including ``Authorization``, so replay can authenticate) and
    replayed in order to every restarted worker before the supervisor
    marks it ready.  Replaying the full ordered journal on top of the
    CLI-preloaded models reproduces the survivors' exact model set and
    generations, because generation counting is a pure function of the
    op sequence.

    :meth:`snapshot` never exposes bodies or headers (bearer tokens
    ride in them) — it lists ``seq``/``method``/``path`` only.

    Long-running pools accumulate ops linearly in hot reloads, so a
    restarted worker would replay every reload ever accepted.
    :meth:`compact` rewrites the journal to its state-equivalent
    minimum — the last ``PUT`` per model path, plus trailing ``DELETE``\\s
    (paired with their preceding ``PUT`` where one exists, so the replay
    never ``DELETE``\\s a model that was never loaded) — making replay
    O(models), not O(ops).  Compaction trades generation-counter
    fidelity for that bound (a replayed worker counts one PUT where the
    survivors saw many), which is why the supervisor only compacts past
    ``journal_compact_threshold`` and never mid-replay.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: list[dict] = []  # guarded-by: _lock
        self.compactions = 0  # guarded-by: _lock
        self.dropped_ops = 0  # guarded-by: _lock

    def append(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> int:
        with self._lock:
            seq = len(self._ops)
            self._ops.append(
                {
                    "seq": seq,
                    "method": method,
                    "path": path,
                    "body": body,
                    "headers": dict(headers),
                }
            )
            return seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._ops)

    def since(self, seq: int) -> list[dict]:
        with self._lock:
            return list(self._ops[seq:])

    def compact(self) -> dict:
        """Rewrite the journal to its state-equivalent minimum.

        Kept, in original relative order, then renumbered from 0:

        * the *last* ``PUT`` of every path whose final op is a ``PUT``
          (earlier reloads of the same model are shadowed),
        * for every path whose final op is a ``DELETE``: its last
          ``PUT`` (if the journal holds one) followed by that
          ``DELETE`` — so the replayed ``DELETE`` always targets a
          loaded model.  A bare ``DELETE`` with no earlier ``PUT``
          removed a CLI-preloaded model and is kept alone.

        Returns ``{"kept": ..., "dropped": ...}``.  Callers must
        guarantee no replay is consuming the old numbering (the
        supervisor skips compaction while any slot is replaying).
        """
        with self._lock:
            last_put: dict[str, dict] = {}
            last_op: dict[str, dict] = {}
            for op in self._ops:
                last_op[op["path"]] = op
                if op["method"] == "PUT":
                    last_put[op["path"]] = op
            keep_ids = set()
            for path, final in last_op.items():
                keep_ids.add(id(final))
                if final["method"] != "PUT" and path in last_put:
                    keep_ids.add(id(last_put[path]))
            kept = [op for op in self._ops if id(op) in keep_ids]
            dropped = len(self._ops) - len(kept)
            self._ops = [dict(op, seq=seq) for seq, op in enumerate(kept)]
            self.compactions += 1
            self.dropped_ops += dropped
            return {"kept": len(self._ops), "dropped": dropped}

    def snapshot(self, tail: int = 20) -> dict:
        with self._lock:
            return {
                "entries": len(self._ops),
                "compactions": self.compactions,
                "dropped_ops": self.dropped_ops,
                "tail": [
                    {"seq": o["seq"], "method": o["method"], "path": o["path"]}
                    for o in self._ops[-tail:]
                ],
            }


class WorkerSlot:
    """One supervised worker position and its lifecycle bookkeeping.

    ``state`` walks ``starting`` (forked, announce pending) →
    ``replaying`` (announced; journal replay in progress) → ``ready``
    (serving, counted healthy) and, on a crash, ``backoff`` (respawn
    scheduled) or ``exited`` (pool stopping / given up).
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.pid: int | None = None
        self.read_fd: int | None = None
        self.control_port: int | None = None
        self.data_port: int | None = None
        self.state = "starting"
        self.started_at: float | None = None
        self.startup_timed_out = False
        self.replay_failed = False
        self.replayed = 0  # journal ops replayed to the current process
        self.restarts = 0  # respawns of this slot
        self.consecutive_failures = 0
        self.last_exit: str | None = None
        self.exit_code: int | None = None
        self.restart_due: float | None = None

    def snapshot(self) -> dict:
        return {
            "slot": self.index,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "control_port": self.control_port,
            "replayed": self.replayed,
            "last_exit": self.last_exit,
        }


class Supervisor:
    """The self-healing parent of a forked ``SO_REUSEPORT`` worker pool.

    Parameters
    ----------
    host / port / n_workers / worker_main / control_host:
        As :func:`repro.serving.fleet.run_worker_pool` —
        ``worker_main(announce_fd, bound_port)`` runs in each forked
        child and must bind the shared data port with ``SO_REUSEPORT``,
        bind a loopback control listener, report both through
        :func:`~repro.serving.fleet.write_worker_announce`, serve until
        ``SIGTERM``/``SIGINT``, drain, and return its exit code.
    max_restarts / restart_window_s:
        The crash-loop breaker (:class:`CrashLoopBreaker`).
    restart_backoff_ms / restart_backoff_cap_ms:
        Respawn backoff (:class:`RestartBackoff`), doubling per
        consecutive failure of the same slot and reset when the slot
        becomes ready.
    startup_timeout_s:
        Deadline for a forked worker to write its announce line; a
        worker hung in startup is killed and treated as a crash.
    call_timeout_s:
        Per-worker timeout for control-plane ``GET`` fan-outs
        (``/healthz``, ``/stats``, ``/models``) — short, so one hung
        worker degrades the view instead of stalling it.  Admin
        fan-outs and journal replay use ``max(call_timeout_s, 30)``
        (model loads are slower than stats reads).
    poll_interval_s:
        Supervision loop tick.
    journal_compact_threshold:
        Once the admin journal holds at least this many ops, it is
        compacted (:meth:`AdminJournal.compact`) after the next accepted
        admin op — replay stays O(models) instead of O(ops).  Compaction
        is skipped while any worker is mid-replay and collapses
        per-model generation counters, so keep the threshold well above
        any test that asserts cross-worker generations.  ``0`` disables.
    clock / sleep:
        Injectable time sources (tests).

    :meth:`run` blocks until the pool exits and returns the pool exit
    code; :meth:`request_stop` is the programmatic SIGTERM (what the
    signal handlers call, and what tests running the supervisor on a
    non-main thread use).
    """

    def __init__(
        self,
        host: str,
        port: int,
        n_workers: int,
        worker_main: Callable[[int, int], int],
        *,
        control_host: str = "127.0.0.1",
        max_restarts: int = 5,
        restart_window_s: float = 30.0,
        restart_backoff_ms: float = 100.0,
        restart_backoff_cap_ms: float = 5000.0,
        startup_timeout_s: float = 60.0,
        call_timeout_s: float = 5.0,
        poll_interval_s: float = 0.05,
        give_up_grace_s: float = 30.0,
        journal_compact_threshold: int = 64,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if n_workers < 1:
            raise ValueError("Supervisor needs n_workers >= 1")
        if startup_timeout_s <= 0:
            raise ValueError("startup_timeout_s must be positive")
        if call_timeout_s <= 0:
            raise ValueError("call_timeout_s must be positive")
        self.host = host
        self.port = port
        self.n_workers = n_workers
        self.worker_main = worker_main
        self.control_host = control_host
        self.backoff = RestartBackoff(restart_backoff_ms, restart_backoff_cap_ms)
        self.breaker = CrashLoopBreaker(max_restarts, restart_window_s, clock)
        self.journal = AdminJournal()
        self.startup_timeout_s = float(startup_timeout_s)
        self.call_timeout_s = float(call_timeout_s)
        self.admin_timeout_s = max(float(call_timeout_s), 30.0)
        self.poll_interval_s = float(poll_interval_s)
        self.give_up_grace_s = float(give_up_grace_s)
        self.journal_compact_threshold = int(journal_compact_threshold)
        self._clock = clock
        self._sleep = sleep
        self.slots = [WorkerSlot(i) for i in range(n_workers)]
        self._lock = threading.RLock()
        self._admin_lock = threading.Lock()
        self._stop_requested = False
        self._gave_up = False
        self._give_up_deadline = float("inf")
        self._hard_killed = False
        self._announced = False
        self._failures: dict[int, int] = {}
        self.crash_log: list[dict] = []
        self.total_restarts = 0
        self.foreign_reaps = 0
        self.bound_port: int | None = None
        self.control_port: int | None = None
        self._child_close: list[Any] = []

    # -- lifecycle ------------------------------------------------------
    def run(self) -> int:
        """Bring the pool up and supervise it until exit; returns the code."""
        if not reuse_port_supported():
            raise RuntimeError(
                "--workers > 1 needs os.fork and SO_REUSEPORT "
                "(unavailable on this platform)"
            )
        reservation, self.bound_port = reserve_port(self.host, self.port)
        # The reservation socket stays bound (never listening) for the
        # whole run: even with every worker momentarily dead during a
        # crash storm, no other process can steal the port.
        control = ThreadingHTTPServer(
            (self.control_host, 0), _control_handler(self)
        )
        control.daemon_threads = True
        self.control_port = control.server_address[1]
        threading.Thread(
            target=control.serve_forever,
            name="repro-fleet-control",
            daemon=True,
        ).start()
        # Forked children inherit these parent-side listening/reserved
        # fds; close them in the child so the parent's teardown actually
        # releases the ports.
        self._child_close = [reservation, control.socket]
        previous = self._install_signal_handlers()
        try:
            for slot in self.slots:
                self._spawn(slot)
            return self._supervise_loop()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            control.shutdown()
            control.server_close()
            reservation.close()

    def request_stop(self, signum: int = signal.SIGTERM) -> None:
        """Begin pool shutdown: relay ``signum`` to every live worker."""
        with self._lock:
            self._stop_requested = True
            for slot in self.slots:
                if slot.pid is None or slot.state == "backoff":
                    slot.state = "exited"  # no process to drain
        self._signal_live(signum)

    def _install_signal_handlers(self) -> dict:
        if threading.current_thread() is not threading.main_thread():
            return {}  # tests drive request_stop() directly

        def relay(signum, _frame) -> None:
            self.request_stop(signum)

        return {
            signum: signal.signal(signum, relay)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }

    # -- process management ---------------------------------------------
    def _spawn(self, slot: WorkerSlot) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: run the worker, never return
            os.close(read_fd)
            for obj in self._child_close:
                try:
                    obj.close()
                except OSError:
                    pass
            code = 1
            try:
                code = self.worker_main(write_fd, self.bound_port)
            finally:
                os._exit(code if isinstance(code, int) else 1)
        os.close(write_fd)
        with self._lock:
            slot.pid = pid
            slot.read_fd = read_fd
            slot.state = "starting"
            slot.started_at = self._clock()
            slot.startup_timed_out = False
            slot.replay_failed = False
            slot.restart_due = None

    @staticmethod
    def _kill_pid(pid: int | None, signum: int) -> None:
        if pid is None:
            return
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def _signal_live(self, signum: int) -> None:
        with self._lock:
            pids = [
                s.pid
                for s in self.slots
                if s.pid is not None and s.state != "exited"
            ]
        for pid in pids:
            self._kill_pid(pid, signum)

    # -- the supervision loop -------------------------------------------
    def _supervise_loop(self) -> int:
        while True:
            self._reap()
            if self._stop_requested or self._gave_up:
                if self._all_exited():
                    break
                if (
                    self._gave_up
                    and not self._hard_killed
                    and self._clock() > self._give_up_deadline
                ):
                    # Drain budget exhausted after giving up: stop
                    # waiting on wedged workers.
                    self._hard_killed = True
                    self._signal_live(signal.SIGKILL)
            else:
                self._progress_startups()
                self._progress_replays()
                self._progress_restarts()
            self._sleep(self.poll_interval_s)
        if self._gave_up:
            return 1
        if self._failures:
            print(
                f"error: workers exited non-zero: {self._failures}",
                file=sys.stderr,
            )
            return 1
        print("all workers drained; exiting", flush=True)
        return 0

    def _all_exited(self) -> bool:
        with self._lock:
            return all(s.state == "exited" for s in self.slots)

    def _reap(self) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            except InterruptedError:  # pre-3.5 semantics guard; harmless
                continue
            if pid == 0:
                return
            self._handle_exit(pid, status)

    def _handle_exit(self, pid: int, status: int) -> None:
        """One reaped child: route to stop or crash recovery."""
        code = os.waitstatus_to_exitcode(status)
        with self._lock:
            slot = next((s for s in self.slots if s.pid == pid), None)
            if slot is None:
                # Not ours (satellite: foreign-pid reap) — e.g. a
                # grandchild reparented onto us.  Count it, touch nothing.
                self.foreign_reaps += 1
                return
            starting = slot.state == "starting"
            if slot.read_fd is not None:
                os.close(slot.read_fd)
                slot.read_fd = None
            desc = self._describe_exit(code, slot)
            slot.last_exit = desc
            slot.exit_code = code
            if self._stop_requested or self._gave_up:
                slot.state = "exited"
                relayed = (-signal.SIGTERM, -signal.SIGINT)
                if code != 0 and not (starting and code in relayed):
                    # A worker signalled before it installed its drain
                    # handlers dies by the signal itself — that is our
                    # doing, not a worker failure.
                    self._failures[pid] = code
                return
            self._record_crash(slot, pid, desc)

    def _describe_exit(self, code: int, slot: WorkerSlot) -> str:
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            base = f"killed by {name}"
        else:
            base = f"exited {code}"
        if slot.startup_timed_out:
            return (
                f"{base} (no announce within {self.startup_timeout_s:g}s "
                "startup deadline)"
            )
        if slot.state == "starting":
            return f"{base} before announcing"
        if slot.replay_failed:
            return f"{base} (journal replay failed)"
        if slot.state == "replaying":
            return f"{base} during journal replay"
        return base

    def _record_crash(self, slot: WorkerSlot, pid: int, desc: str) -> None:
        self.crash_log.append(
            {"slot": slot.index, "pid": pid, "exit": desc, "restarts": slot.restarts}
        )
        slot.pid = None
        tripped = self.breaker.record()
        if tripped:
            # This slot's process is already gone — without a restart it
            # is exited, or _all_exited() would wait on it forever.
            slot.state = "exited"
            self._give_up()
            return
        slot.consecutive_failures += 1
        delay = self.backoff.delay_s(slot.consecutive_failures)
        slot.state = "backoff"
        slot.restart_due = self._clock() + delay
        window = self.breaker.snapshot()
        print(
            f"warning: worker pid {pid} (slot {slot.index}) {desc}; "
            f"restarting in {delay * 1e3:.0f}ms "
            f"(crash {window['crashes_in_window']}, "
            f"breaker at {window['max_restarts'] + 1} "
            f"within {window['window_s']:g}s)",
            file=sys.stderr,
            flush=True,
        )

    def _give_up(self) -> None:
        """Crash-loop breaker tripped: diagnostics, drain survivors, exit 1."""
        self._gave_up = True
        self._give_up_deadline = self._clock() + self.give_up_grace_s
        lines = [
            "error: crash-loop breaker tripped: more than "
            f"{self.breaker.max_restarts} worker crashes within "
            f"{self.breaker.window_s:g}s; giving up and draining survivors"
        ]
        for entry in self.crash_log:
            lines.append(
                f"  pid {entry['pid']} (slot {entry['slot']}, "
                f"restarts={entry['restarts']}): {entry['exit']}"
            )
        with self._lock:
            for slot in self.slots:
                if slot.pid is None or slot.state == "backoff":
                    slot.state = "exited"
                else:
                    lines.append(
                        f"  pid {slot.pid} (slot {slot.index}): "
                        f"surviving in state {slot.state!r}, draining"
                    )
        print("\n".join(lines), file=sys.stderr, flush=True)
        self._signal_live(signal.SIGTERM)

    def _progress_startups(self) -> None:
        """Collect announces; kill workers past the startup deadline."""
        now = self._clock()
        with self._lock:
            starting = [
                s
                for s in self.slots
                if s.state == "starting" and s.read_fd is not None
            ]
        for slot in starting:
            readable, _, _ = select.select([slot.read_fd], [], [], 0)
            if readable:
                try:
                    announce = _read_announce(slot.read_fd, timeout=5.0)
                except TimeoutError:  # partial line never completed
                    announce = None
                with self._lock:
                    os.close(slot.read_fd)
                    slot.read_fd = None
                    if announce is None:
                        # EOF before a full announce: the worker died in
                        # startup; the reap records the crash.
                        self._kill_pid(slot.pid, signal.SIGKILL)
                        continue
                    slot.control_port = announce["control_port"]
                    slot.data_port = announce["port"]
                    slot.state = "replaying"
                    slot.replayed = 0
            elif (
                slot.started_at is not None
                and now - slot.started_at > self.startup_timeout_s
            ):
                # Startup deadline (the old _read_announce blocked here
                # forever): kill and report; the reap records the crash.
                with self._lock:
                    slot.startup_timed_out = True
                print(
                    f"warning: worker pid {slot.pid} (slot {slot.index}) "
                    f"did not announce within {self.startup_timeout_s:g}s; "
                    "killing it",
                    file=sys.stderr,
                    flush=True,
                )
                self._kill_pid(slot.pid, signal.SIGKILL)

    def _progress_replays(self) -> None:
        with self._lock:
            replaying = [s for s in self.slots if s.state == "replaying"]
        for slot in replaying:
            self._replay_slot(slot)

    def _replay_slot(self, slot: WorkerSlot) -> None:
        """Catch a restarted worker up on the journal, then mark it ready.

        The catch-up loop closes the race with concurrent admin ops:
        ops fan out only to *ready* workers (under the admin lock), so
        this slot is marked ready under that same lock only once no
        unreplayed op remains — an op is either replayed here or fanned
        out after the slot is ready, never lost in between.
        """
        while True:
            ops = self.journal.since(slot.replayed)
            if not ops:
                with self._admin_lock:
                    if len(self.journal) == slot.replayed:
                        with self._lock:
                            slot.state = "ready"
                            slot.consecutive_failures = 0
                        self._maybe_announce()
                        return
                continue
            for op in ops:
                ok = False
                detail = ""
                try:
                    status, _body = _worker_call(
                        slot.control_port,
                        op["method"],
                        op["path"],
                        op["body"],
                        op["headers"],
                        timeout=self.admin_timeout_s,
                    )
                    ok = 200 <= status < 300
                    detail = f"HTTP {status}"
                except OSError as exc:
                    detail = f"{type(exc).__name__}: {exc}"
                if not ok:
                    print(
                        f"warning: journal replay of {op['method']} "
                        f"{op['path']} (seq {op['seq']}) failed on worker "
                        f"pid {slot.pid} ({detail}); restarting it",
                        file=sys.stderr,
                        flush=True,
                    )
                    with self._lock:
                        slot.replay_failed = True
                    self._kill_pid(slot.pid, signal.SIGKILL)
                    return  # the reap records the crash
                slot.replayed = op["seq"] + 1

    def _maybe_announce(self) -> None:
        with self._lock:
            if self._announced or any(s.state != "ready" for s in self.slots):
                return
            self._announced = True
        print(
            format_announce(
                self.host,
                self.bound_port,
                workers=self.n_workers,
                control=f"http://{self.control_host}:{self.control_port}",
            ),
            flush=True,
        )

    def _progress_restarts(self) -> None:
        now = self._clock()
        with self._lock:
            due = [
                s
                for s in self.slots
                if s.state == "backoff"
                and s.restart_due is not None
                and now >= s.restart_due
            ]
        for slot in due:
            self.total_restarts += 1
            slot.restarts += 1
            self._spawn(slot)

    # -- control-plane surface ------------------------------------------
    def ready_targets(self) -> list[tuple[int, int, int]]:
        """(slot, pid, control_port) of every ready worker."""
        with self._lock:
            return [
                (s.index, s.pid, s.control_port)
                for s in self.slots
                if s.state == "ready" and s.pid is not None
            ]

    def fan_out_get(self, path: str, headers: dict) -> list[dict]:
        """``GET`` fan-out to every ready worker, short per-call timeout.

        A worker that errors or times out yields an ``error`` entry
        instead of failing the whole fan-out (the callers merge only the
        healthy bodies) — a dead worker cannot blind fleet
        observability, and a hung one costs ``call_timeout_s``, not 60s.
        """
        results = []
        for index, pid, control_port in self.ready_targets():
            entry: dict[str, Any] = {"slot": index, "pid": pid}
            try:
                status, decoded = _worker_call(
                    control_port,
                    "GET",
                    path,
                    None,
                    headers,
                    timeout=self.call_timeout_s,
                )
                entry["status"] = status
                entry["body"] = decoded
            except OSError as exc:
                entry["status"] = None
                entry["error"] = f"{type(exc).__name__}: {exc}"
            results.append(entry)
        return results

    def admin(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, dict]:
        """Fan an admin op out to the ready workers; journal it if accepted.

        Accepted means at least one worker acknowledged with 2xx — the
        fleet's state moved, so the op must reach every current and
        future worker.  A ready worker that *failed* an accepted op is
        now divergent: it is killed here and restarted through the
        journal so it reconverges instead of serving stale models.
        """
        with self._admin_lock:
            targets = self.ready_targets()
            if not targets:
                return 503, {
                    "error": {
                        "status": 503,
                        "message": "no ready workers (pool degraded); "
                        "retry after the supervisor restarts one",
                    }
                }
            results = []
            for index, pid, control_port in targets:
                try:
                    status, decoded = _worker_call(
                        control_port,
                        method,
                        path,
                        body,
                        headers,
                        timeout=self.admin_timeout_s,
                    )
                except OSError as exc:
                    status, decoded = 502, {
                        "error": {"status": 502, "message": str(exc)}
                    }
                results.append(
                    {"slot": index, "pid": pid, "status": status, "body": decoded}
                )
            accepted = [r for r in results if 200 <= r["status"] < 300]
            payload: dict[str, Any] = {
                "workers": results,
                "accepted": len(accepted),
                "targets": len(targets),
            }
            if accepted:
                payload["journal_seq"] = self.journal.append(
                    method, path, body, headers
                )
                for r in results:
                    if not (200 <= r["status"] < 300):
                        print(
                            f"warning: worker pid {r['pid']} "
                            f"(slot {r['slot']}) failed accepted admin op "
                            f"{method} {path} (HTTP {r['status']}); "
                            "killing it to reconverge through the journal",
                            file=sys.stderr,
                            flush=True,
                        )
                        self._kill_pid(r["pid"], signal.SIGKILL)
                self._maybe_compact_journal()
            status = 200 if len(accepted) == len(targets) else 502
            return status, payload

    def _maybe_compact_journal(self) -> None:
        """Compact the journal once it crosses the threshold.

        Runs under the admin lock (no concurrent append) and under the
        slot lock *across* the replaying-check and the rewrite, so no
        slot can enter replay mid-compaction — a slot that starts replay
        afterwards begins at seq 0 of the compacted journal, which is
        exactly the state-equivalent sequence.
        """
        threshold = self.journal_compact_threshold
        if threshold <= 0 or len(self.journal) < threshold:
            return
        with self._lock:
            if any(s.state == "replaying" for s in self.slots):
                return  # old numbering in use; try after the next op
            self.journal.compact()

    def snapshot(self) -> dict:
        """The ``/stats`` supervisor block: worker counts + restart state."""
        with self._lock:
            ready = sum(1 for s in self.slots if s.state == "ready")
            return {
                "workers": self.n_workers,
                "ready": ready,
                "degraded": ready < self.n_workers,
                "restarts": self.total_restarts,
                "crashes": len(self.crash_log),
                "foreign_reaps": self.foreign_reaps,
                "stop_requested": self._stop_requested,
                "gave_up": self._gave_up,
                "breaker": self.breaker.snapshot(),
                "journal": self.journal.snapshot(),
                "slots": [s.snapshot() for s in self.slots],
            }


def _control_handler(supervisor: Supervisor) -> type:
    """The parent's control-plane HTTP handler over the live supervisor.

    The parent holds no model and answers no predictions — it forwards
    admin operations to the ready workers' loopback control listeners
    (forwarding ``Authorization`` untouched, so the workers enforce
    auth), aggregates ``GET /stats`` / ``/models`` over the *healthy*
    responses only, and reports ``degraded`` (HTTP 200) while a
    replacement worker comes up.
    """

    class ControlHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # quiet: parent is headless
            pass

        def _reply(self, status: int, payload: Any) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _forward_headers(self) -> dict:
            headers = {"Content-Type": "application/json"}
            auth = self.headers.get("Authorization")
            if auth is not None:
                headers["Authorization"] = auth
            return headers

        def do_GET(self) -> None:
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._healthz()
                return
            if path in ("/stats", "/models"):
                self._observe(path)
                return
            self._reply(
                404,
                {
                    "error": {
                        "status": 404,
                        "message": (
                            "the control plane serves GET /healthz, /stats, "
                            "/models and PUT/DELETE /models/<name>; "
                            "predictions go to the shared data port"
                        ),
                    }
                },
            )

        def _healthz(self) -> None:
            sup = supervisor.snapshot()
            results = supervisor.fan_out_get("/healthz", self._forward_headers())
            healthy = [
                r
                for r in results
                if r.get("status") == 200
                and isinstance(r.get("body"), dict)
                and r["body"].get("status") in ("ok", "draining")
            ]
            if (
                sup["ready"] == sup["workers"]
                and len(healthy) == len(results) == sup["workers"]
            ):
                status_str, http_status = "ok", 200
            elif healthy:
                # Degraded capacity: the survivors keep serving while
                # the supervisor brings a replacement up — probes must
                # not fail the whole pool.
                status_str, http_status = "degraded", 200
            else:
                status_str, http_status = "down", 503
            self._reply(
                http_status,
                {
                    "status": status_str,
                    "role": "fleet-parent",
                    "workers": results,
                    "supervisor": sup,
                },
            )

        def _observe(self, path: str) -> None:
            results = supervisor.fan_out_get(path, self._forward_headers())
            healthy = [
                r["body"]
                for r in results
                if r.get("status") == 200 and isinstance(r.get("body"), dict)
            ]
            payload = {
                "workers": results,
                "merged": merge_stats(healthy),
                "partial": len(healthy) < supervisor.n_workers,
            }
            if path == "/stats":
                payload["supervisor"] = supervisor.snapshot()
            if not healthy:
                payload["error"] = {
                    "status": 502,
                    "message": "no worker answered the fan-out",
                }
                self._reply(502, payload)
                return
            self._reply(200, payload)

        def _admin(self, method: str) -> None:
            path = self.path.split("?", 1)[0]
            if not path.startswith("/models/"):
                self._reply(
                    404,
                    {
                        "error": {
                            "status": 404,
                            "message": f"no control route for {path!r}",
                        }
                    },
                )
                return
            length = int(self.headers.get("Content-Length", "0") or "0")
            body = self.rfile.read(length) if length else None
            status, payload = supervisor.admin(
                method, path, body, self._forward_headers()
            )
            self._reply(status, payload)

        def do_PUT(self) -> None:
            self._admin("PUT")

        def do_DELETE(self) -> None:
            self._admin("DELETE")

    return ControlHandler
