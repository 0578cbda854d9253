"""``serve-open``: a real ``python -m repro serve`` process over HTTP.

The server runs with one worker and default settings, serving an
AutoPower model fitted on C1 and C15 during setup.  This process is the
load generator: one asyncio loop over two keep-alive connections,
sending 1-row ``total`` predicts drawn uniformly from the 15 Table II
configurations x 8 workloads.

* Phase 1, open loop: Poisson arrivals at ``RATE`` per second, seeded.
  Latency runs from each request's due time, so a stall also charges
  the requests queued behind it.  Its median and tail are reported, not
  gated: on a 2-vCPU VM a server that idles between requests wakes up
  slowly by a varying amount, and the phase-1 median of one 10 s window
  ranged 22.7 to 41.7 ms within one server process.
* Phase 2, closed loop on the same two connections: the server never
  idles.  ``op_ms`` is its median latency (31.3 to 41.8 ms over the same
  windows, and 31.3 to 34.7 ms without the one window where everything
  ran slow); completed requests per second is the capacity.

Every response must be 200 and bitwise equal to an in-process
``PredictionService`` answering the same request.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time

import common

RATE = 20.0  # requests per second in phase 1
PHASE1_SHARE = 0.4  # of --seconds; phase 2 gets the rest
CONNECTIONS = 2
TRAIN = ("C1", "C15")
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0
# The generator counts as behind schedule when its p99 lateness in
# waking for a due request exceeds this: half the ~30 ms median request.
# Measured p99 lateness ranged 2.2 to 10.7 ms over six runs.
LATE_LIMIT_MS = 15.0


def arrival_schedule(seed: int, rate: float, n: int, choices: int):
    """``n`` Poisson arrivals: (offset seconds, request index) pairs."""
    rng = random.Random(seed)
    t = 0.0
    schedule = []
    for _ in range(n):
        t += rng.expovariate(rate)
        schedule.append((t, rng.randrange(choices)))
    return schedule


class Connection:
    """One HTTP/1.1 keep-alive connection speaking the gateway's JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def post(self, body: bytes) -> tuple[int, bytes]:
        self.writer.write(
            b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass


class Bench:
    def __init__(self, seed: int, temp_root: str, traced: bool = False) -> None:
        self.seed = seed
        self.temp_root = temp_root
        self.traced = traced
        self.detail: dict = {}
        self.server = None
        self.trace_path = os.path.join(temp_root, "server-spans.json")

    # -- setup -------------------------------------------------------------
    def setup(self) -> None:
        self.prepare()
        self.start_server()
        # Warm-up: one request per configuration, untimed.
        per_config = len(self.bodies) // 15
        asyncio.run(self.closed_loop(None, order=list(range(0, len(self.bodies), per_config))))

    def prepare(self) -> None:
        """Fit and save the served model; build every request body."""
        import repro.api as api
        from repro.arch.config import BOOM_CONFIGS
        from repro.arch.workloads import WORKLOADS
        from repro.vlsi.flow import VlsiFlow

        flow = VlsiFlow(disk_cache=None)
        flow.run_many(list(BOOM_CONFIGS), list(WORKLOADS))
        self.detail["kernel"] = common.build_kernel()
        model = api.fit("autopower", flow=flow, train_configs=list(TRAIN), n_jobs=1)
        self.model_path = os.path.join(self.temp_root, "model.json")
        api.save_model(model, self.model_path)
        self.pairs = []
        self.bodies = []
        self.requests = []
        for config in BOOM_CONFIGS:
            for workload in WORKLOADS:
                events = flow.run(config, workload).events
                self.pairs.append(f"{config.name}/{workload.name}")
                self.bodies.append(
                    json.dumps(
                        {
                            "config": config.name,
                            "workload": workload.name,
                            "kind": "total",
                            "events": dict(events.counts),
                        }
                    ).encode()
                )
                self.requests.append(api.PredictRequest(config, events, workload))

    def expected_totals(self) -> list[float]:
        """The in-process service's answer to every request, one request
        per call like the server's 1-row requests.  Computed after the
        timed phases, so it adds to neither set-up nor op time."""
        import repro.api as api

        service = api.PredictionService(api.load_model(self.model_path))
        return [service.submit_many([r])[0].total for r in self.requests]

    def pin(self) -> None:
        """Server on one CPU, this generator on another, when there are two."""
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            cpus = []
        if len(cpus) >= 2:
            os.sched_setaffinity(self.server.pid, {cpus[1]})
            os.sched_setaffinity(0, {cpus[0]})
            self.detail["pinned"] = {"server": cpus[1], "generator": cpus[0]}
        else:
            self.detail["pinned"] = None

    def start_server(self) -> None:
        serve = ["serve", "--model", self.model_path, "--host", "127.0.0.1", "--port", "0"]
        if self.traced:
            launcher = os.path.join(common.BENCH_DIR, "serve_traced.py")
            cmd = [sys.executable, launcher, self.trace_path, *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        self.stderr = open(os.path.join(self.temp_root, "server.stderr"), "wb")
        self.server = subprocess.Popen(
            cmd, cwd=common.ROOT, stdout=subprocess.PIPE, stderr=self.stderr
        )
        self.pin()
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        stdout = self.server.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                break
            line = stdout.readline().decode()
            if not line:
                break
            if line.startswith("REPRO-SERVING "):
                fields = dict(p.split("=", 1) for p in line.split()[1:])
                host_port = fields["addr"].rsplit("/", 1)[1]
                self.host, port = host_port.rsplit(":", 1)
                self.port = int(port)
                return
        self.stderr.flush()
        with open(self.stderr.name, "rb") as handle:
            tail = handle.read()[-2000:].decode(errors="replace")
        raise RuntimeError(f"server did not announce itself:\n{tail}")

    # -- load generation ---------------------------------------------------
    def check(self, result, expected) -> bool:
        _elapsed, index, status, body = result
        if status != 200:
            return False
        try:
            obj = json.loads(body)
        except ValueError:
            return False
        config, workload = self.pairs[index].split("/")
        return (
            obj.get("config") == config
            and obj.get("workload") == workload
            and obj.get("total") == expected[index]
        )

    async def _send(self, conn, index, results, t_ref) -> None:
        """One request; appends (seconds since t_ref, index, status, body)."""
        try:
            status, body = await asyncio.wait_for(
                conn.post(self.bodies[index]), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            status, body = None, b""
            await conn.close()
            await conn.open()
        results.append((time.perf_counter() - t_ref, index, status, body))

    async def open_loop(self, schedule):
        """Phase 1: send on schedule; latency from each due time."""
        conns = [Connection(self.host, self.port) for _ in range(CONNECTIONS)]
        for conn in conns:
            await conn.open()
        queue: asyncio.Queue = asyncio.Queue()
        results: list = []
        late: list = []

        async def worker(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, index = item
                await self._send(conn, index, results, due)

        workers = [asyncio.ensure_future(worker(c)) for c in conns]
        start = time.perf_counter()
        for offset, index in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((due, index))
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        for conn in conns:
            await conn.close()
        return results, late

    async def closed_loop(self, seconds, order=None, rng=None):
        """Phase 2 (and warm-up): each connection sends its next request
        as soon as the previous one completes.  With ``order`` the loop
        sends exactly those requests; otherwise it draws from ``rng``
        until ``seconds`` pass."""
        conns = [Connection(self.host, self.port) for _ in range(CONNECTIONS)]
        for conn in conns:
            await conn.open()
        results: list = []
        pending = list(order) if order is not None else None
        stop_at = None if seconds is None else time.perf_counter() + seconds

        async def worker(conn):
            while True:
                if pending is not None:
                    if not pending:
                        return
                    index = pending.pop()
                elif time.perf_counter() >= stop_at:
                    return
                else:
                    index = rng.randrange(len(self.bodies))
                await self._send(conn, index, results, time.perf_counter())

        start = time.perf_counter()
        await asyncio.gather(*(worker(c) for c in conns))
        elapsed = time.perf_counter() - start
        for conn in conns:
            await conn.close()
        return results, elapsed

    def signal_server(self, signum) -> None:
        self.server.send_signal(signum)
        time.sleep(0.2)  # let the server's main thread run the handler

    # -- measurement -------------------------------------------------------
    def measure(self, seconds: float, reference: dict, tracer=None) -> dict:
        n1 = max(20, round(RATE * PHASE1_SHARE * seconds))
        schedule = arrival_schedule(self.seed, RATE, n1, len(self.bodies))
        rng = random.Random(self.seed + 1)
        phase2_s = (1.0 - PHASE1_SHARE) * seconds
        if self.traced:
            self.signal_server(signal.SIGUSR1)
        results1, late = asyncio.run(self.open_loop(schedule))
        results2, elapsed2 = asyncio.run(self.closed_loop(phase2_s, rng=rng))
        if self.traced:
            self.signal_server(signal.SIGUSR2)
            untraced, _ = asyncio.run(self.closed_loop(phase2_s / 2, rng=rng))
        self.detail["server_peak_rss_mb"] = common.vm_hwm_mb(self.server.pid)
        expected = self.expected_totals()
        # The in-process service must itself agree with the recorded
        # reference, or the bitwise comparison would prove nothing.
        ref = reference["serve"]["totals"]
        mismatched = [
            pair for pair, value in zip(self.pairs, expected)
            if not common.close(value, ref[pair])
        ]
        if mismatched:
            self.detail["mismatches"] = mismatched
        attempted = len(expected) + len(results1) + len(results2)
        failed = len(mismatched) + sum(
            not self.check(r, expected) for r in results1 + results2
        )
        lat1 = [1000.0 * r[0] for r in results1]
        lat2 = [1000.0 * r[0] for r in results2]
        late_ms = [1000.0 * t for t in late]
        q = common.tail_percentile(len(lat1))
        late_p99 = common.percentile(late_ms, 99)
        self.detail.update(
            requests_phase1=len(lat1),
            requests_phase2=len(lat2),
            closed_latency_p50_ms=common.median(lat2),
            latency_p50_ms=common.median(lat1),
            tail_percentile=q,
            latency_tail_ms=common.percentile(lat1, q) if q else None,
            capacity_rps=len(lat2) / elapsed2,
            late_p99_ms=late_p99,
            valid=late_p99 <= LATE_LIMIT_MS,
        )
        out = {
            "attempted": attempted,
            "failed": failed,
            "op_ms": common.median(lat2),
        }
        if self.traced:
            closed_traced = common.median(lat2)
            closed_plain = common.median([1000.0 * r[0] for r in untraced])
            out["ops_traced"] = len(lat1) + len(lat2)
            out["overhead_pct"] = 100.0 * (closed_traced / closed_plain - 1.0)
            out["extra"] = {
                "loadgen.late_p99_ms": late_p99,
                "serve.latency_p50_ms": self.detail["latency_p50_ms"],
                "serve.latency_tail_ms": self.detail["latency_tail_ms"] or 0.0,
                "serve.capacity_rps": self.detail["capacity_rps"],
            }
        return out

    def server_spans(self) -> dict | None:
        try:
            with open(self.trace_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
                try:
                    server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
            server.stdout.close()
            self.stderr.close()
