"""Shared plumbing: environment, statistics, run metadata and output.

:func:`prepare_environment` must run before numpy or the program is
imported, because BLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# Single-threaded BLAS in every process the benchmark starts.  With the
# default two threads the first few-shot fit of a process spent 0.29 to
# 1.56 s in its first lstsq calls (later fits 0.22 to 0.34 s); with one
# thread it held 0.32 to 0.38 s over six processes.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A reference value matches when |got - want| <= REL_TOL * |want|.
# Predictions are held to 1e-12 relative; the accuracy statistics over
# many predictions get the same bound.
REL_TOL = 1e-12


# Fixed before the interpreter starts, so :func:`reexec_if_needed`
# restarts the process with them.  With glibc's default per-thread
# malloc arenas the peak RSS of one dse-sweep run was 81 MB in eight
# runs and 96 MB in two; with one arena it read 76.6 to 76.7 MB.
FIXED_ENV = {"MALLOC_ARENA_MAX": "1"}


def reexec_if_needed() -> None:
    """Replace this process by the same command with :data:`FIXED_ENV`
    (same PID, so whoever waits for it still does)."""
    fixed = FIXED_ENV.items()
    if all(os.environ.get(k) == v for k, v in fixed):  # repro: noqa[ENV002] -- not REPRO_* knobs
        return
    os.environ.update(FIXED_ENV)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def prepare_environment() -> str:
    """Pin BLAS threads, keep every cache inside the checkout, and put
    the program on ``sys.path``.  Returns a fresh temp root, which the
    caller removes at exit."""
    for var in _BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # The compiled GBM kernel is built under $XDG_CACHE_HOME.
    os.environ["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "xdg-cache")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The C compiler and every child process write temp files here too.
    os.environ["TMPDIR"] = tmp
    temp_root = tempfile.mkdtemp(prefix="run-", dir=tmp)
    # Never the user's ~/.cache/repro: every flow cache lives here.
    os.environ["REPRO_FLOW_CACHE_DIR"] = os.path.join(temp_root, "flow-cache")
    # The caller's switches must not change the program measured.
    os.environ.pop("REPRO_NO_FLOW_CACHE", None)  # repro: noqa[ENV001] -- cleared, not read
    os.environ.pop("REPRO_NO_KERNEL", None)  # repro: noqa[ENV001] -- cleared, not read
    os.environ.pop("REPRO_JOBS", None)  # repro: noqa[ENV001] -- cleared, not read
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return temp_root


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def build_kernel() -> bool:
    """Build (or load) the compiled GBM kernel before any timed op.

    A run on the numpy fallback is a different program; the run records
    ``kernel: false`` and is flagged as not comparable."""
    from repro.ml._kernel import get_kernel

    return get_kernel() is not None


# -- statistics ------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it.

    p99 needs 1,000 samples; fewer samples give a lower percentile, and
    fewer than 20 give none (not even the median has ten beyond it)."""
    if n < 20:
        return None
    return min(99, math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at ``tail_percentile(n)`` at least ten
    samples lie strictly beyond the returned one."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


# -- metadata --------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float | None:
    """Peak RSS of another live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_meta(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def emit(meta: dict, detail: dict, attempted: int, failed: int, metrics: dict) -> None:
    """Print the detail line, then the result object as the last line."""
    detail = dict(detail)
    detail["error_rate"] = failed / attempted if attempted else 1.0
    print("perfbench-detail " + json.dumps({"meta": meta, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
