"""Deterministic executors for the embarrassingly parallel fan-outs.

AutoPower's training decomposes into ~90 independent sub-model fits (three
power groups x ~30 components/positions), and label generation decomposes
into independent (configuration, workload) flow runs.  This module gives
those fan-outs a single, deterministic execution surface:

* :class:`SerialExecutor` — plain in-process loop (the reference),
* :class:`ThreadExecutor` — a thread pool, for fan-outs whose tasks run
  in the compiled fit kernel or in numpy, both of which release the GIL
  (the sub-model fits, fig6's budget sweep, ``PredictionService``),
* :class:`ProcessExecutor` — a process pool, for the pure-Python flow
  runs (``VlsiFlow.run_many``), which hold the GIL; it requires picklable
  task functions and results and transparently falls back to the serial
  loop when they are not.

The pool kind is not a setting: each fan-out names the kind its tasks
need, as a literal, in its ``get_executor(n_jobs, kind)`` call.  The only
setting is the worker count.

Determinism contract: ``Executor.map`` submits tasks in iteration order
and returns results in that same order, and every task is a pure
function of its payload (the fits draw no random numbers), so the fitted
state is numerically identical regardless of pool kind or worker count.

Worker-count resolution (first match wins):

1. an explicit ``n_jobs`` argument,
2. the session default installed by ``python -m repro --jobs N``
   (:func:`set_default_jobs`),
3. the ``REPRO_JOBS`` environment variable, a worker count
   (``REPRO_JOBS=4``),
4. serial (one worker).

``n_jobs <= 0`` means "all cores".  One worker, or a machine with one
core, runs serially: there a pool would only add overhead.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.env import get_str

__all__ = [
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


def parse_jobs_spec(spec: str) -> int:
    """Parse a ``REPRO_JOBS`` value: a worker count such as ``"4"``."""
    try:
        return int(spec.strip())
    except ValueError:
        raise ValueError(
            f"invalid worker count in {ENV_JOBS}={spec!r}; expected an integer"
        ) from None


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve the effective worker count.

    Precedence: explicit argument > session default (CLI ``--jobs``) >
    ``REPRO_JOBS`` > serial.  Non-positive counts mean "all cores".  A
    malformed ``REPRO_JOBS`` raises even when a higher-precedence count
    is given, so a stale setting never goes unnoticed.
    """
    spec = get_str(ENV_JOBS)
    env_jobs = None if spec is None else parse_jobs_spec(spec)
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
    return n_jobs


class Executor:
    """Ordered task execution over ``n_jobs`` workers.

    ``map`` consumes the iterable eagerly, submits tasks in order and
    returns their results in submission order — the contract every caller
    relies on for determinism whatever the pool.

    Pooled executors keep their worker pool alive *across* ``map``
    calls, so chunked fan-outs (``VlsiFlow.run_many`` batches, the DSE
    job loop) pay the pool spin-up once, not per chunk.  The pool's
    lifetime is tied to the executor: ``close()`` (or use as a context
    manager) releases it deterministically, and dropping the last
    reference releases it via ``__del__``.
    """

    kind = "serial"

    def __init__(self, n_jobs: int = 1) -> None:
        self.n_jobs = max(int(n_jobs), 1)
        #: Human-readable reason when a pool degraded to the
        #: serial loop (unpicklable tasks, broken pool); ``None`` otherwise.
        self.fallback_reason: str | None = None

    @property
    def is_serial(self) -> bool:
        return self.kind == "serial"

    def map(self, fn, iterable) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker pool (no-op for the serial executor)."""

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class SerialExecutor(Executor):
    """The reference executor: a plain in-process loop."""

    kind = "serial"

    def __init__(self, n_jobs: int = 1) -> None:
        super().__init__(1)

    def map(self, fn, iterable) -> list:
        return [fn(item) for item in iterable]


class _PooledExecutor(Executor):
    """Shared pool lifecycle for the thread and process executors."""

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
    """Thread-pool executor (shared memory, no pickling requirements)."""

    kind = "thread"
    _pool_factory = ThreadPoolExecutor

    def map(self, fn, iterable) -> list:
        items = list(iterable)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))


class ProcessExecutor(_PooledExecutor):
    """Process-pool executor for true multi-core execution.

    Task functions, payloads and results must be picklable; when the
    function or payloads are not, the whole map degrades to the serial
    loop (recorded in :attr:`Executor.fallback_reason`) instead of
    raising, so callers never have to special-case exotic tasks.
    """

    kind = "process"
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


def get_executor(n_jobs: int | None, kind: str) -> Executor:
    """The executor of one fan-out: ``kind`` is ``"thread"`` or
    ``"process"``, fixed by the caller for its tasks; ``n_jobs`` resolves
    through :func:`resolve_jobs`.  One worker, or one core, is serial."""
    if kind not in ("thread", "process"):
        raise ValueError(
            f"unknown executor kind {kind!r}; expected 'thread' or 'process'"
        )
    jobs = resolve_jobs(n_jobs)
    if jobs <= 1 or cpu_count() <= 1:
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(jobs)
    return ProcessExecutor(jobs)
