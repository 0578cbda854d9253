"""Deterministic parallel execution for fits, flows and sweeps."""

from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    cpu_count,
    get_default_jobs,
    get_executor,
    parse_jobs_spec,
    resolve_jobs,
    set_default_jobs,
)

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
