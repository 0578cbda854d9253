"""Process-level chaos smoke: the self-healing worker pool under fire.

The acceptance check for supervised serving, against the real
``python -m repro serve`` artifact on ephemeral ports.  Three scenarios:

**Scenario A — SIGKILL under load, replay convergence, startup hang.**
Serve ``--workers 2`` with chaos armed through ``REPRO_CHAOS_DIR``.
Under continuous concurrent load (the retrying :class:`ServingClient`),
SIGKILL one ready worker: no accepted request may be lost — every
client call must eventually answer 200 with a bitwise-expected body
(retries land on the surviving worker, then the replacement).  While
the pool is degraded, hot-reload a model through the parent control
plane; once healed, both workers must report the *same model names and
generations* (the restarted worker converged through the admin
journal).  Then arm a ``hang-startup`` fault and SIGKILL another
worker: its replacement hangs in startup, the supervisor must kill it
at the startup deadline and bring up a second replacement.  Finally
SIGTERM: clean drain, exit 0.

**Scenario B — crash during drain.**  Arm ``crash-drain``; SIGTERM the
pool.  One worker dies mid-drain with a scripted exit code; the pool
must exit non-zero and report ``workers exited non-zero`` — a failed
drain is not a clean exit.

**Scenario C — crash loop.**  Arm more ``crash-startup`` faults than
``--max-restarts`` allows.  The pool must give up: exit non-zero within
bounded time with per-pid crash diagnostics (no hang, no thrash).

Skips cleanly where ``os.fork``/``SO_REUSEPORT`` is unavailable.

Usage::

    python scripts/smoke_chaos.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from smoke_common import (
    ServeProcess,
    check,
    fit_model,
    http_call,
    repro_env,
    wait_until,
)


def _control_addr(serve: ServeProcess) -> tuple[str, int]:
    host, port = serve.control.removeprefix("http://").rsplit(":", 1)
    return host, int(port)


def _healthz(chost: str, cport: int) -> dict:
    status, _h, body = http_call(chost, cport, "GET", "/healthz", timeout=10.0)
    check(status in (200, 503), f"control /healthz answered {status}", body)
    return body


def _ready_pids(chost: str, cport: int) -> list[int]:
    body = _healthz(chost, cport)
    return [
        w["body"]["pid"]
        for w in body["workers"]
        if w.get("status") == 200 and isinstance(w.get("body"), dict)
    ]


def _pool_state(chost: str, cport: int) -> tuple[str, int]:
    body = _healthz(chost, cport)
    sup = body["supervisor"]
    return body["status"], sup["ready"]


class _Spray:
    """Continuous concurrent load through the retrying client.

    Uses the default model only, so responses stay comparable across
    hot reloads of other names.  Collects every response body and every
    terminal error; ``stop()`` joins the threads.
    """

    def __init__(self, host: str, port: int, payload: dict, n_threads: int = 4):
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from repro.serving import ServingClient

        self._stop = threading.Event()
        self.bodies: list = []
        self.errors: list = []
        self._lock = threading.Lock()

        def worker() -> None:
            client = ServingClient(
                host, port, timeout=10.0, max_retries=8, backoff_base_s=0.05
            )
            while not self._stop.is_set():
                try:
                    body = client.predict(payload)
                except Exception as exc:  # noqa: BLE001 - collected, asserted
                    with self._lock:
                        self.errors.append(f"{type(exc).__name__}: {exc}")
                    return
                with self._lock:
                    self.bodies.append(body)

        self.threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(n_threads)
        ]
        for t in self.threads:
            t.start()

    def stop(self) -> None:
        self._stop.set()
        for t in self.threads:
            t.join(timeout=30)


def _model_generations(chost: str, cport: int) -> list[dict]:
    """Per-worker ``{name: generation}`` from the control /models fan-out."""
    status, _h, body = http_call(chost, cport, "GET", "/models", timeout=10.0)
    check(status == 200, "control GET /models", body)
    return [
        {name: m["generation"] for name, m in w["body"]["models"].items()}
        for w in body["workers"]
        if w.get("status") == 200
    ]


def scenario_kill_and_heal(paths, payload, expected, chaos_dir) -> None:
    from repro.serving.faults import ProcessChaos

    chaos = ProcessChaos(chaos_dir)
    serve = ServeProcess(
        [
            "--model", f"default={paths['ap']}",
            "--model", f"mcpat={paths['mcpat']}",
            "--port", "0",
            "--workers", "2",
            "--startup-timeout", "10",
            "--restart-backoff-ms", "50",
            "--max-restarts", "10",
        ],
        env_extra={ProcessChaos.ENV: chaos_dir},
    )
    try:
        serve.wait_healthy()
        chost, cport = _control_addr(serve)
        print(f"[A] pool on {serve.host}:{serve.port}, control {serve.control}",
              flush=True)

        spray = _Spray(serve.host, serve.port, payload)
        time.sleep(0.5)  # let load establish on both workers

        # SIGKILL one ready worker mid-load.
        victims = _ready_pids(chost, cport)
        check(len(victims) == 2, "two ready workers before the kill", victims)
        os.kill(victims[0], signal.SIGKILL)
        print(f"[A] SIGKILLed worker pid {victims[0]}", flush=True)

        # While degraded (or already healed on a fast machine), hot
        # reload mcpat through the control plane; >=1 acceptance moves
        # fleet state and enters the journal.
        status, _h, body = http_call(
            chost, cport, "PUT", "/models/mcpat",
            {"path": paths["mcpat"]}, timeout=30.0,
        )
        check(status in (200, 502), "mid-chaos control-plane PUT", body)
        check(body.get("accepted", 0) >= 1,
              "mid-chaos PUT accepted by >= 1 worker", body)

        # The supervisor must heal: 2 ready again, victim replaced.
        wait_until(
            lambda: _pool_state(chost, cport) == ("ok", 2), timeout=30.0
        )
        healed = _ready_pids(chost, cport)
        check(victims[0] not in healed, "victim pid was replaced", healed)
        print(f"[A] healed: ready workers {healed}", flush=True)

        # Journal-replay convergence: both workers must hold the same
        # model names at the same generations (mcpat reloaded -> gen 2).
        gens = _model_generations(chost, cport)
        check(len(gens) == 2 and gens[0] == gens[1],
              "restarted worker must converge to the survivors' models",
              gens)
        check(gens[0].get("mcpat") == 2,
              "mid-chaos reload must reach generation 2 everywhere", gens)

        # Now a replacement that hangs in startup: the supervisor must
        # kill it at the deadline and bring up a second replacement.
        chaos.arm("hang-startup", 1, hang_s=120)
        os.kill(healed[0], signal.SIGKILL)
        print(f"[A] SIGKILLed worker pid {healed[0]} (replacement will hang)",
              flush=True)
        wait_until(
            lambda: _pool_state(chost, cport) == ("ok", 2), timeout=60.0
        )
        check("did not announce within" in serve.output,
              "supervisor must report the startup-hung worker", serve.output)
        gens = _model_generations(chost, cport)
        check(len(gens) == 2 and gens[0] == gens[1],
              "post-hang replacement must converge too", gens)

        # Stop the spray: zero client errors, every body bitwise.
        spray.stop()
        check(not spray.errors,
              "no accepted request may be lost across worker deaths",
              spray.errors[:3])
        check(len(spray.bodies) > 0, "spray must have served requests")
        for body in spray.bodies:
            check(body["total"] in expected,
                  "every response must stay bitwise under chaos", body)
        print(f"[A] {len(spray.bodies)} sprayed requests, 0 errors, "
              "all bitwise", flush=True)
    except BaseException:
        serve.kill()
        print(serve.output)
        raise
    code = serve.terminate_and_wait()
    check(code == 0, f"pool must drain and exit 0, got {code}", serve.output)
    check("all workers drained" in serve.output, "pool drain message",
          serve.output)
    print("[A] ok: kill/heal/replay-convergence/startup-hang/drain", flush=True)


def scenario_crash_drain(paths, chaos_dir) -> None:
    from repro.serving.faults import ProcessChaos

    ProcessChaos(chaos_dir).arm("crash-drain", 1, exit_code=7)
    serve = ServeProcess(
        [
            "--model", f"default={paths['ap']}",
            "--port", "0",
            "--workers", "2",
        ],
        env_extra={ProcessChaos.ENV: chaos_dir},
    )
    try:
        serve.wait_healthy()
    except BaseException:
        serve.kill()
        print(serve.output)
        raise
    start = time.monotonic()
    code = serve.terminate_and_wait(timeout=60.0)
    elapsed = time.monotonic() - start
    check(code != 0, "a crash mid-drain must fail the pool exit",
          serve.output)
    check("workers exited non-zero" in serve.output,
          "crash-drain diagnostics", serve.output)
    check(elapsed < 60.0, "crash-drain exit must be bounded", elapsed)
    print(f"[B] ok: crash-drain -> exit {code} in {elapsed:.1f}s", flush=True)


def scenario_crash_loop(paths, chaos_dir) -> None:
    from repro.serving.faults import ProcessChaos

    ProcessChaos(chaos_dir).arm("crash-startup", 8, exit_code=3)
    # Raw Popen, not ServeProcess: this pool never announces (it crash
    # -loops on startup), so waiting for the announce would be wrong.
    env = repro_env()
    env[ProcessChaos.ENV] = chaos_dir
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--model", f"default={paths['ap']}",
            "--port", "0",
            "--workers", "2",
            "--max-restarts", "2",
            "--restart-backoff-ms", "10",
            "--startup-timeout", "5",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    output = proc.stdout + proc.stderr
    check(proc.returncode == 1,
          f"crash loop must exit 1, got {proc.returncode}", output)
    check("crash-loop" in output, "crash-loop diagnostics header", output)
    check("(slot" in output and "pid" in output,
          "per-pid crash diagnostics", output)
    print(f"[C] ok: crash loop -> exit 1 in {elapsed:.1f}s "
          "with per-pid diagnostics", flush=True)


def main() -> int:
    from repro.serving.fleet import reuse_port_supported

    if not reuse_port_supported():
        print("chaos smoke skipped: no os.fork/SO_REUSEPORT on this platform",
              flush=True)
        return 0

    import repro.api as api
    from repro.arch.config import config_by_name
    from repro.arch.workloads import workload_by_name
    from repro.serving import wire
    from repro.sim.perf import PerfSimulator

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        paths = {"ap": f"{tmp}/ap.json", "mcpat": f"{tmp}/mcpat.json"}
        print("fitting autopower + mcpat ...", flush=True)
        fit_model("autopower", paths["ap"])
        fit_model("mcpat", paths["mcpat"])

        config = config_by_name("C8")
        workload = workload_by_name("dhrystone")
        request = api.PredictRequest(
            config, PerfSimulator().run(config, workload), workload
        )
        payload = wire.encode_request(request)
        service = api.PredictionService(api.load_model(paths["ap"]))
        expected = {float(r.total) for r in service.submit_many([request])}

        scenario_kill_and_heal(
            paths, payload, expected, os.path.join(tmp, "chaos-a")
        )
        scenario_crash_drain(paths, os.path.join(tmp, "chaos-b"))
        scenario_crash_loop(paths, os.path.join(tmp, "chaos-c"))

    print("chaos smoke ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
