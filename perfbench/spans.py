"""In-memory spans around the public calls of each layer.

The benchmark wraps public functions and methods of the program from
outside (nothing inside ``src/`` changes).  Each wrapped call is one
span; per span name the tracer keeps the call count, the total time and
the self time (total minus the time of direct child spans on the same
thread).  A call whose span name is already open on the thread (for
example ``PerfSimulator.run`` calling ``.distort``) folds into the outer
span, so counts mean "calls into the layer", not internal recursion.

Coroutine spans (the serving layer's ``async`` methods) interleave on
one event-loop thread, so they cannot nest on a stack: they record count
and total only, and their self time equals their total.

Everything stays in memory; :meth:`Tracer.dump` writes it out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Aggregated span statistics, toggled by :attr:`enabled`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.enabled = True
        self.clock = clock
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        # name -> summed value (rows, bytes, ...)
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame | None:
        stack = self._stack()
        if any(frame.name == name for frame in stack):
            return None
        frame = _Frame(name, self.clock())
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        elapsed = self.clock() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += elapsed
        self.record(frame.name, elapsed, elapsed - frame.child)
        return elapsed

    def record(self, name: str, total_s: float, self_s: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += total_s
            entry[2] += self_s

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0.0) + value

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()

    # -- wrapping ----------------------------------------------------------
    def _wrapper(self, name: str, fn, rows=None):
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                start = tracer.clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = tracer.clock() - start
                    tracer.record(name, elapsed, elapsed)

            return async_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            if frame is None:
                return fn(*args, **kwargs)
            if rows is not None:
                tracer.count(name + ".rows", rows(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return span

    def wrap_method(self, cls, attr: str, name: str, rows=None):
        """Replace ``cls.attr`` with a span; returns the original."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, rows))
        self._undo.append((cls, attr, original))
        return original

    def wrap_function(self, module_name: str, attr: str, name: str):
        """Wrap a module-level function everywhere it was imported.

        ``from m import f`` copies the reference, so every loaded module
        of the program holding the same function object is patched too.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
        return original

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {
                    k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                    for k, v in self.spans.items()
                },
                "counters": dict(self.counters),
            }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


def _len_of(index: int, keyword: str):
    def rows(*args, **kwargs):
        value = kwargs[keyword] if keyword in kwargs else args[index]
        try:
            return len(value)
        except TypeError:
            return 1

    return rows


# (span name, module, class or None, attribute, rows counter)
# Rows are counted from the ``events`` batch of predict_totals and the
# request list of submit_many.
LAYER_TARGETS = [
    ("api.fit", "repro.api.registry", None, "fit", None),
    ("core.clock.fit", "repro.core.clock", "ClockPowerModel", "fit", None),
    ("core.sram.fit", "repro.core.sram", "SramPowerModel", "fit", None),
    ("core.logic.fit", "repro.core.logic", "LogicPowerModel", "fit", None),
    ("baselines.fit", "repro.baselines.autopower_minus", "AutoPowerMinus", "fit", None),
    ("baselines.fit", "repro.baselines.mcpat_calib", "McPatCalib", "fit", None),
    (
        "baselines.fit",
        "repro.baselines.mcpat_calib_component",
        "McPatCalibComponent",
        "fit",
        None,
    ),
    ("ml.gbm.fit", "repro.ml.gbm", "GradientBoostingRegressor", "fit", None),
    ("ml.linear.fit", "repro.ml.linear", "RidgeRegression", "fit", None),
    ("core.predict", "repro.core.autopower", "AutoPower", "predict_totals", (2, "events")),
    (
        "core.predict",
        "repro.baselines.autopower_minus",
        "AutoPowerMinus",
        "predict_totals",
        (2, "events"),
    ),
    (
        "core.predict",
        "repro.baselines.mcpat_calib",
        "McPatCalib",
        "predict_totals",
        (2, "events"),
    ),
    (
        "core.predict",
        "repro.baselines.mcpat_calib_component",
        "McPatCalibComponent",
        "predict_totals",
        (2, "events"),
    ),
    ("ml.gbm.predict", "repro.ml.gbm", "GradientBoostingRegressor", "predict", None),
    (
        "api.service",
        "repro.api.service",
        "PredictionService",
        "submit_many",
        (1, "requests"),
    ),
    ("rtl.generate", "repro.rtl.generator", "RtlGenerator", "generate", None),
    ("synthesis.synthesize", "repro.synthesis.synthesizer", "Synthesizer", "synthesize", None),
    ("sim.execute", "repro.sim.uarch", None, "execute", None),
    ("sim.perf", "repro.sim.perf", "PerfSimulator", "run", None),
    ("sim.perf", "repro.sim.perf", "PerfSimulator", "distort", None),
    ("sim.activity", "repro.sim.activity", "ActivitySimulator", "simulate", None),
    ("power.analyze", "repro.power.analysis", "PowerAnalyzer", "analyze", None),
    ("vlsi.flow.run", "repro.vlsi.flow", "VlsiFlow", "run", None),
    ("dse.grid", "repro.dse.grid", None, "generate_grid", None),
    ("dse.cache.key", "repro.dse.cache", None, "content_key", None),
    ("dse.cache.put", "repro.dse.cache", "FlowDiskCache", "put", None),
    ("dse.cache.get", "repro.dse.cache", "FlowDiskCache", "get", None),
]

# Installed only in the server process (see serve_traced.py).
SERVING_TARGETS = [
    ("serving.wire.decode", "repro.serving.wire", None, "decode_request", None),
    ("serving.wire.encode", "repro.serving.wire", None, "encode_response", None),
    ("serving.batcher.submit", "repro.serving.batcher", "MicroBatcher", "submit", None),
    # The only per-request seam of the gateway; private, but it is the
    # call that spans decode, admission, batching and encode.
    ("serving.gateway", "repro.serving.gateway", "Gateway", "_dispatch", None),
]

SPAN_NAMES = sorted({t[0] for t in LAYER_TARGETS + SERVING_TARGETS})


def install(tracer: Tracer, targets=LAYER_TARGETS) -> None:
    """Wrap every target; the program must be importable."""
    for name, module_name, cls_name, attr, rows in targets:
        if cls_name is None:
            tracer.wrap_function(module_name, attr, name)
        else:
            cls = getattr(importlib.import_module(module_name), cls_name)
            tracer.wrap_method(
                cls, attr, name, _len_of(*rows) if rows is not None else None
            )
