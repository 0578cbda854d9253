"""Shared plumbing for the serving smoke scripts.

The smoke scripts (``smoke_gateway.py``, ``smoke_drain.py``,
``smoke_fleet.py``, ``smoke_dse.py``) run the *installed artifact the user runs* — a real
``python -m repro serve`` subprocess — and talk to it over real HTTP.
They run identically locally and in CI: every serve binds ``--port 0``
and the scripts parse the machine-parseable ``REPRO-SERVING addr=...``
announce line instead of racing on a hardcoded port.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.serving.fleet import parse_announce  # noqa: E402


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fit_model(method: str, out: str, **fit_kwargs) -> None:
    """Fit a registered method in-process and save it to ``out``."""
    import repro.api as api

    api.save_model(api.fit(method, **fit_kwargs), out)


def http_call(
    host: str,
    port: int,
    method: str,
    path: str,
    payload=None,
    token: str | None = None,
    timeout: float = 60.0,
):
    """One HTTP round trip; returns (status, lowercase headers, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    body = None if payload is None else json.dumps(payload)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        lowered = {k.lower(): v for k, v in response.getheaders()}
        decoded = json.loads(raw.decode()) if raw else None
        return response.status, lowered, decoded
    finally:
        conn.close()


class ServeProcess:
    """A live ``python -m repro serve`` subprocess plus its announce.

    Captures stdout on a pump thread (so the child never blocks on a
    full pipe), waits for the ``REPRO-SERVING`` announce line, and
    exposes ``host`` / ``port`` parsed from it.  ``env_extra`` adds
    environment variables (e.g. a private ``REPRO_FLOW_CACHE_DIR``).
    """

    def __init__(
        self,
        serve_args: list[str],
        come_up_timeout: float = 120.0,
        env_extra: dict | None = None,
    ):
        env = repro_env()
        if env_extra:
            env.update(env_extra)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self._terminated = False
        self._announced = threading.Event()
        self.announce: dict | None = None
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()
        if not self._announced.wait(come_up_timeout):
            self.proc.kill()
            raise SystemExit(
                "serve never announced within "
                f"{come_up_timeout:g}s; output so far:\n" + self.output
            )
        if self.announce is None:  # stdout closed without an announce
            raise SystemExit(
                f"serve exited before coming up; output:\n{self.output}"
            )
        self.host = self.announce["host"]
        self.port = self.announce["port"]

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.announce is None:
                self.announce = parse_announce(line)
                if self.announce is not None:
                    self._announced.set()
        self._announced.set()  # EOF: unblock the waiter either way

    @property
    def output(self) -> str:
        return "".join(self.lines)

    def wait_healthy(self, timeout: float = 30.0, token=None) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _h, body = http_call(
                    self.host, self.port, "GET", "/healthz", timeout=2.0
                )
            except OSError:
                time.sleep(0.1)
                continue
            if status == 200 and body.get("status") == "ok":
                return
            time.sleep(0.1)
        raise SystemExit(f"gateway never became healthy:\n{self.output}")

    def terminate(self) -> None:
        """Send exactly one SIGTERM (a second one force-quits a drain)."""
        if not self._terminated and self.proc.poll() is None:
            self._terminated = True
            self.proc.terminate()

    def terminate_and_wait(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain, at most once) and wait for exit."""
        self.terminate()
        code = self.proc.wait(timeout=timeout)
        self._pump.join(timeout=10)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def check(condition: bool, message: str, context=None) -> None:
    """Assert that survives ``python -O`` (CI may strip asserts)."""
    if not condition:
        raise SystemExit(
            f"SMOKE FAILURE: {message}"
            + ("" if context is None else f"\ncontext: {context!r}")
        )
