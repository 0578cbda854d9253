"""Pluggable execution backends for the embarrassingly parallel fan-outs.

AutoPower's training decomposes into ~90 independent sub-model fits (three
power groups x ~30 components/positions), and label generation decomposes
into independent (configuration, workload) flow runs.  This module gives
those fan-outs a single, deterministic execution surface:

* :class:`SerialExecutor` — plain in-process loop (the reference),
* :class:`ThreadExecutor` — a thread pool; useful when tasks release the
  GIL (large numpy kernels) or to exercise the parallel paths cheaply,
* :class:`ProcessExecutor` — a process pool for true multi-core fitting;
  requires picklable task functions and results and transparently falls
  back to the serial loop when they are not.

Determinism contract: ``Executor.map`` submits tasks in iteration order
and returns results in that same order, and every task payload carries its
own seeds (``random_state`` fields), so the fitted state is numerically
identical regardless of backend or worker count.

Worker-count resolution (first match wins):

1. an explicit ``n_jobs`` argument,
2. the session default installed by ``python -m repro --jobs N``
   (:func:`set_default_jobs`),
3. the ``REPRO_JOBS`` environment variable — either a worker count
   (``REPRO_JOBS=4``) or a ``backend:count`` spec (``REPRO_JOBS=thread:4``),
4. serial (one worker).

``n_jobs <= 0`` means "all cores".  The ``auto`` backend picks a process
pool when more than one worker is requested and the machine actually has
more than one core; on a single-core machine it falls back to serial
(the pools would only add overhead).  Explicitly requested ``thread`` /
``process`` backends are honoured even on one core, which is what the
backend-equivalence tests rely on.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.env import get_str

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "cpu_count",
    "get_default_jobs",
    "get_executor",
    "parse_jobs_spec",
    "resolve_jobs",
    "set_default_jobs",
]

BACKENDS = ("auto", "serial", "thread", "process")

ENV_JOBS = "REPRO_JOBS"

# Session-wide default installed by the CLI's --jobs flag; None = unset.
_default_jobs: int | None = None


def cpu_count() -> int:
    """Usable core count (always >= 1)."""
    return os.cpu_count() or 1


def set_default_jobs(n_jobs: int | None) -> None:
    """Install (or clear, with ``None``) the session-wide worker default."""
    global _default_jobs
    _default_jobs = None if n_jobs is None else int(n_jobs)


def get_default_jobs() -> int | None:
    """The session-wide worker default, or ``None`` when unset."""
    return _default_jobs


def parse_jobs_spec(spec: str) -> tuple[int, str | None]:
    """Parse a ``REPRO_JOBS`` value into ``(n_jobs, backend_or_None)``.

    Accepts a bare count (``"4"``), a bare backend (``"serial"``), or a
    ``backend:count`` pair (``"thread:4"``).
    """
    text = spec.strip().lower()
    backend: str | None = None
    if ":" in text:
        backend, _, text = text.partition(":")
        backend = backend.strip()
        text = text.strip()
    elif text in BACKENDS:
        backend, text = text, ""
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r} in {ENV_JOBS}={spec!r}; "
            f"expected one of {BACKENDS}"
        )
    if not text:
        n_jobs = 1 if backend in (None, "serial") else 0
    else:
        try:
            n_jobs = int(text)
        except ValueError:
            raise ValueError(
                f"invalid worker count {text!r} in {ENV_JOBS}={spec!r}"
            ) from None
    return n_jobs, backend


def resolve_jobs(n_jobs: int | None = None) -> tuple[int, str | None]:
    """Resolve the effective worker count and optional backend hint.

    Count precedence: explicit argument > session default (CLI
    ``--jobs``) > ``REPRO_JOBS`` > serial.  Non-positive counts mean
    "all cores".  A backend named in ``REPRO_JOBS`` (``thread:4``) is
    returned as the hint even when the *count* comes from a higher-
    precedence source, so the env var keeps forcing the backend unless a
    caller passes one explicitly.
    """
    env_backend: str | None = None
    env_jobs: int | None = None
    spec = get_str(ENV_JOBS)
    if spec:
        env_jobs, env_backend = parse_jobs_spec(spec)
    if n_jobs is None:
        if _default_jobs is not None:
            n_jobs = _default_jobs
        elif env_jobs is not None:
            n_jobs = env_jobs
        else:
            n_jobs = 1
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        n_jobs = cpu_count()
    return n_jobs, env_backend


class Executor:
    """Ordered task execution over ``n_jobs`` workers.

    ``map`` consumes the iterable eagerly, submits tasks in order and
    returns their results in submission order — the contract every caller
    relies on for backend-independent determinism.

    Pooled backends keep their worker pool alive *across* ``map``
    calls, so chunked fan-outs (``VlsiFlow.run_many`` batches, the DSE
    job loop) pay the pool spin-up once, not per chunk.  The pool's
    lifetime is tied to the executor: ``close()`` (or use as a context
    manager) releases it deterministically, and dropping the last
    reference releases it via ``__del__``.
    """

    backend = "serial"

    def __init__(self, n_jobs: int = 1) -> None:
        self.n_jobs = max(int(n_jobs), 1)
        #: Human-readable reason when a parallel backend degraded to the
        #: serial loop (unpicklable tasks, broken pool); ``None`` otherwise.
        self.fallback_reason: str | None = None

    @property
    def is_serial(self) -> bool:
        return self.backend == "serial"

    def map(self, fn, iterable) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker pool (no-op for the serial backend)."""

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    backend = "serial"

    def __init__(self, n_jobs: int = 1) -> None:
        super().__init__(1)

    def map(self, fn, iterable) -> list:
        return [fn(item) for item in iterable]


class _PooledExecutor(Executor):
    """Shared pool lifecycle for the thread and process backends."""

    _pool_factory = ThreadPoolExecutor

    def __init__(self, n_jobs: int = 1) -> None:
        super().__init__(n_jobs)
        # One executor may be mapped from several threads (a service's).
        self._pool_lock = threading.Lock()
        self._pool = None  # guarded-by: _pool_lock

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._pool_factory(max_workers=self.n_jobs)
            return self._pool

    def close(self) -> None:
        self._discard_pool(wait=True)

    def _discard_pool(self, wait: bool = False) -> None:
        """Drop the pool; by default a (possibly broken) one, unwaited."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait)
            except Exception:  # pragma: no cover - interpreter teardown
                pass

    def __del__(self) -> None:  # pragma: no cover - gc timing
        self._discard_pool()


class ThreadExecutor(_PooledExecutor):
    """Thread-pool backend (shared memory, no pickling requirements)."""

    backend = "thread"
    _pool_factory = ThreadPoolExecutor

    def map(self, fn, iterable) -> list:
        items = list(iterable)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))


class ProcessExecutor(_PooledExecutor):
    """Process-pool backend for true multi-core execution.

    Task functions, payloads and results must be picklable; when the
    function or payloads are not, the whole map degrades to the serial
    loop (recorded in :attr:`Executor.fallback_reason`) instead of
    raising, so callers never have to special-case exotic tasks.
    """

    backend = "process"
    _pool_factory = ProcessPoolExecutor

    def map(self, fn, iterable) -> list:
        items = list(iterable)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Cheap probe — the function and one representative payload — so
        # the common unpicklable cases (lambdas, closures) degrade before
        # a pool is forked, without serializing every payload twice.
        try:
            pickle.dumps(fn)
            pickle.dumps(items[0])
        except Exception as exc:
            self.fallback_reason = f"tasks not picklable ({exc!r}); ran serially"
            return [fn(item) for item in items]
        # Tasks are pure functions of their payloads, so rerunning the
        # whole map serially after a mid-pool failure is safe — a genuine
        # task error reproduces identically on the serial rerun.  CPython
        # raises TypeError/AttributeError (not just PicklingError) for
        # most unpicklable payloads and results.  Either way the pool is
        # discarded: a fresh one is forked on the next map.
        try:
            return list(self._ensure_pool().map(fn, items))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            self._discard_pool()
            self.fallback_reason = f"tasks not picklable ({exc!r}); ran serially"
            return [fn(item) for item in items]
        except BrokenProcessPool as exc:
            self._discard_pool()
            self.fallback_reason = f"process pool broke ({exc!r}); ran serially"
            return [fn(item) for item in items]


def get_executor(
    n_jobs: int | None = None, backend: str | None = None
) -> Executor:
    """Build the executor for a worker request.

    ``backend=None``/``"auto"`` resolves to serial for one worker or on a
    single-core machine, and to a process pool otherwise.  An explicit
    ``"thread"``/``"process"`` backend is honoured whenever more than one
    worker is requested, even on one core.
    """
    jobs, hint = resolve_jobs(n_jobs)
    if backend is None:
        backend = hint or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; expected one of {BACKENDS}"
        )
    if jobs <= 1 or backend == "serial":
        return SerialExecutor()
    if backend == "auto":
        if cpu_count() <= 1:
            return SerialExecutor()
        return ProcessExecutor(jobs)
    if backend == "thread":
        return ThreadExecutor(jobs)
    return ProcessExecutor(jobs)
