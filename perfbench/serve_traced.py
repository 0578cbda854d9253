"""Run ``python -m repro serve`` with the server's layers wrapped in spans.

Usage: ``python perfbench/serve_traced.py SPANS.json serve --model ...``

Tracing starts disabled.  SIGUSR1 clears the spans and enables tracing,
SIGUSR2 disables it, and the spans are written to SPANS.json once the
normal SIGTERM drain has finished.  Besides the spans of
``spans.LAYER_TARGETS`` and ``spans.SERVING_TARGETS`` it records the
batcher wait: the time ``MicroBatcher.submit`` took minus the
``PredictionService.submit_many`` call that served the request.
"""

from __future__ import annotations

import functools
import signal
import sys
import time

import spans


def main(argv: list[str]) -> int:
    out_path, serve_argv = argv[0], argv[1:]

    import repro.cli
    import repro.serving.gateway  # noqa: F401  (targets must be loaded)
    from repro.api.service import PredictionService
    from repro.serving.batcher import MicroBatcher

    tracer = spans.Tracer()
    tracer.enabled = False
    spans.install(tracer, spans.LAYER_TARGETS + spans.SERVING_TARGETS)

    served_in: dict[int, float] = {}  # id(request) -> its service call, s
    submit_many = PredictionService.submit_many
    submit = MicroBatcher.submit

    @functools.wraps(submit_many)
    def timed_submit_many(self, requests):
        requests = list(requests)
        start = time.perf_counter()
        try:
            return submit_many(self, requests)
        finally:
            elapsed = time.perf_counter() - start
            for request in requests:
                served_in[id(request)] = elapsed

    @functools.wraps(submit)
    async def timed_submit(self, request, deadline_ms=None):
        start = time.perf_counter()
        try:
            return await submit(self, request, deadline_ms)
        finally:
            service = served_in.pop(id(request), 0.0)
            tracer.count("serving.batcher.wait.s", time.perf_counter() - start - service)
            tracer.count("serving.batcher.wait.n")

    PredictionService.submit_many = timed_submit_many
    MicroBatcher.submit = timed_submit

    def enable(_signum, _frame):
        tracer.reset()
        tracer.enabled = True

    def disable(_signum, _frame):
        tracer.enabled = False

    signal.signal(signal.SIGUSR1, enable)
    signal.signal(signal.SIGUSR2, disable)
    try:
        return repro.cli.main(serve_argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
