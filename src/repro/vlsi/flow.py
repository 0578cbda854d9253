"""End-to-end VLSI flow orchestration with caching.

One call runs the full label-generation pipeline for a (configuration,
workload) pair:

    RTL generation -> synthesis -> true execution -> perf simulation
    (gem5-like events) -> activity extraction (golden) -> power analysis

Designs and netlists are per-configuration and cached; runs are cached per
(configuration, workload).  Everything downstream (dataset building, the
experiment harness, benchmarks) goes through this class, the way the
paper's scripts go through their EDA flow.

Completed runs additionally persist in a content-addressed disk cache
shared across processes and runs (:mod:`repro.dse.cache`), keyed by the
flow version, the library and simulator state, and the (config,
workload) content — so a repeated sweep is a pure cache hit returning
in milliseconds, byte-identical to the cold run.  ``REPRO_NO_FLOW_CACHE=1``
disables it; :attr:`VlsiFlow.executions` counts the real pipeline
computations a flow performed (cache hits of either kind don't count).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial

from repro.arch.config import BoomConfig
from repro.arch.events import EventParams
from repro.arch.workloads import Workload
from repro.dse.cache import FLOW_CACHE_VERSION, FlowDiskCache, content_key, default_flow_cache
from repro.library.stdcell import TechLibrary, default_library
from repro.parallel import Executor, get_executor
from repro.power.analysis import PowerAnalyzer
from repro.power.report import PowerReport
from repro.rtl.design import RtlDesign
from repro.rtl.generator import RtlGenerator
from repro.rtl.sram_plan import SRAM_POSITION_PLANS
from repro.sim.activity import ActivitySimulator, DesignActivity
from repro.sim.perf import PerfSimulator
from repro.sim.uarch import TrueExecution, execute
from repro.synthesis.netlist import Netlist
from repro.synthesis.synthesizer import Synthesizer
from repro.vlsi.macro_mapping import MacroMapper

__all__ = ["FlowResult", "VlsiFlow"]


@dataclass(frozen=True)
class FlowResult:
    """Everything the flow produces for one (config, workload) pair."""

    config: BoomConfig
    workload: Workload
    design: RtlDesign
    netlist: Netlist
    true: TrueExecution
    events: EventParams
    activity: DesignActivity
    power: PowerReport


def _config_key(config: BoomConfig) -> tuple:
    """In-process cache identity of a configuration: its name *and* its
    parameters.  The name alone would hand a second config that reuses it
    the first one's design and results; the name stays in the key because
    the perf simulator's noise and the activity quirks are seeded by it."""
    return (config.name, config.params_key)


def _run_config_task(
    flow: VlsiFlow, task: tuple[BoomConfig, tuple[Workload, ...]]
) -> list["FlowResult"]:
    """One configuration's flow runs over its missing workloads.

    The parallel unit of :meth:`VlsiFlow.run_many`: per-config grouping
    means each worker elaborates and synthesizes the design exactly once,
    and every stage is a deterministic function of its inputs, so the
    results are identical to the serial path.
    """
    config, workloads = task
    return [flow.run(config, workload) for workload in workloads]


class VlsiFlow:
    """The full synthetic EDA flow, with per-stage caching.

    Parameters
    ----------
    library:
        Technology library; defaults to the repository-wide synthetic
        40 nm-class library.
    perf:
        Performance simulator; replaceable to study simulator-error
        sensitivity (e.g. a zero-error simulator for ablations).
    activity:
        Golden activity simulator.
    disk_cache:
        The persistent cross-process result store.  The default
        (``"auto"``) resolves through
        :func:`repro.dse.cache.default_flow_cache` — a shared on-disk
        cache unless ``REPRO_NO_FLOW_CACHE=1``.  Pass ``None`` to force
        a purely in-process flow, or a :class:`FlowDiskCache` to use a
        specific store.
    """

    def __init__(
        self,
        library: TechLibrary | None = None,
        perf: PerfSimulator | None = None,
        activity: ActivitySimulator | None = None,
        disk_cache: FlowDiskCache | None | str = "auto",
    ) -> None:
        self.library = library if library is not None else default_library()
        self.mapper = MacroMapper(self.library.sram)
        self.generator = RtlGenerator()
        self.synthesizer = Synthesizer(self.library)
        self.perf = perf if perf is not None else PerfSimulator()
        self.activity_sim = activity if activity is not None else ActivitySimulator()
        self.analyzer = PowerAnalyzer(self.library, self.mapper)
        self.disk_cache = (
            default_flow_cache() if disk_cache == "auto" else disk_cache
        )
        # Real pipeline computations this flow performed; neither the
        # in-process caches nor disk hits increment it.
        self.executions = 0
        self._fingerprint: str | None = None
        self._designs: dict[tuple, RtlDesign] = {}
        self._netlists: dict[tuple, Netlist] = {}
        self._runs: dict[tuple, FlowResult] = {}
        self._executions: dict[tuple, TrueExecution] = {}

    # ------------------------------------------------------------------
    def design(self, config: BoomConfig) -> RtlDesign:
        """Elaborated RTL for a configuration (cached)."""
        key = _config_key(config)
        if key not in self._designs:
            self._designs[key] = self.generator.generate(config)
        return self._designs[key]

    def netlist(self, config: BoomConfig) -> Netlist:
        """Synthesized netlist for a configuration (cached)."""
        key = _config_key(config)
        if key not in self._netlists:
            self._netlists[key] = self.synthesizer.synthesize(self.design(config))
        return self._netlists[key]

    def true_execution(self, config: BoomConfig, workload: Workload) -> TrueExecution:
        """True execution for a (config, workload) pair (cached).

        ``execute`` is deterministic in its inputs, so one run serves both
        the full flow and every scale point of a windowed-trace sweep.
        """
        key = (*_config_key(config), workload.name)
        if key not in self._executions:
            self._executions[key] = execute(config, workload)
        return self._executions[key]

    # -- the persistent result store ------------------------------------
    def fingerprint(self) -> str:
        """Content hash of everything that determines a flow result
        besides the (config, workload) pair: the flow version, the
        technology library (including its SRAM compiler) and both
        simulators.  Two flows with the same fingerprint produce
        byte-identical results, so they may share disk-cache entries;
        a custom simulator (e.g. a zero-error ablation stand-in) gets
        its own key space automatically.
        """
        if self._fingerprint is None:
            self._fingerprint = content_key(
                "vlsi-flow", FLOW_CACHE_VERSION, SRAM_POSITION_PLANS,
                self.library, self.perf, self.activity_sim,
            )
        return self._fingerprint

    def _disk_key(self, config: BoomConfig, workload: Workload) -> str | None:
        """The pair's disk-cache key, or ``None`` without a disk cache."""
        if self.disk_cache is None:
            return None
        return content_key(self.fingerprint(), config, workload)

    def _disk_get(self, disk_key: str | None) -> FlowResult | None:
        if disk_key is None:
            return None
        cached = self.disk_cache.get(disk_key)
        return cached if isinstance(cached, FlowResult) else None

    def run(self, config: BoomConfig, workload: Workload) -> FlowResult:
        """Full flow for one (config, workload) pair (cached)."""
        key = (*_config_key(config), workload.name)
        if key not in self._runs:
            disk_key = self._disk_key(config, workload)
            cached = self._disk_get(disk_key)
            if cached is not None:
                self._merge_result(config, workload, cached)
                return self._runs[key]
            design = self.design(config)
            netlist = self.netlist(config)
            true = self.true_execution(config, workload)
            events = self.perf.distort(true, config)
            activity = self.activity_sim.simulate(design, config, workload, true=true)
            power = self.analyzer.analyze(netlist, activity)
            self.executions += 1
            result = FlowResult(
                config=config,
                workload=workload,
                design=design,
                netlist=netlist,
                true=true,
                events=events,
                activity=activity,
                power=power,
            )
            # One pickle round-trip canonicalizes the object graph.
            # Freshly built results are not a pickle fixed point: the
            # unpickler interns instance-__dict__ keys, so string-identity
            # sharing between attribute names and data-dict keys differs
            # between a fresh graph and a round-tripped one, and their
            # pickles differ by a few memo references.  After one
            # round-trip the bytes are stable, which is what makes warm
            # (disk / worker-merged) results byte-identical to cold ones.
            result = pickle.loads(pickle.dumps(result))
            self._runs[key] = result
            if disk_key is not None:
                self.disk_cache.put(disk_key, result)
        return self._runs[key]

    def run_many(
        self,
        configs: list[BoomConfig],
        workloads: list[Workload],
        n_jobs: int | None = None,
        executor: Executor | None = None,
    ) -> list[FlowResult]:
        """Cross product of configurations and workloads.

        With more than one worker, ground-truth generation fans out one
        task per *configuration* (each runs all workloads, so designs and
        netlists are elaborated once per worker) and the results are
        merged back into this flow's caches in deterministic (config,
        workload) order — byte-for-byte what the serial loop produces.
        Configurations whose runs are already fully cached never leave
        this process.  The stages are pure Python and hold the GIL, so
        the fan-out runs on a process pool: ``executor`` when given (one
        kept alive across a chunked sweep), else one opened and closed
        here for ``n_jobs`` workers.
        """
        if executor is None:
            with get_executor(n_jobs, "process") as executor:
                return self.run_many(configs, workloads, executor=executor)
        workloads = list(workloads)
        if not executor.is_serial:
            # Ship only the (config, workload) pairs missing from both
            # the in-process and the disk cache — disk hits resolve
            # inline here instead of round-tripping through a worker —
            # still grouped per config so each worker elaborates and
            # synthesizes a design at most once.
            pending: list[tuple[BoomConfig, tuple[Workload, ...]]] = []
            seen: set[tuple] = set()
            for c in configs:
                config_key = _config_key(c)
                if config_key in seen:
                    continue
                seen.add(config_key)
                missing = []
                for w in workloads:
                    if (*config_key, w.name) in self._runs:
                        continue
                    cached = self._disk_get(self._disk_key(c, w))
                    if cached is not None:
                        self._merge_result(c, w, cached)
                    else:
                        missing.append(w)
                if missing:
                    pending.append((c, tuple(missing)))
            if len(pending) > 1:
                worker = self.worker_copy()
                per_config = executor.map(
                    partial(_run_config_task, worker), pending
                )
                for (config, missing), results in zip(pending, per_config):
                    for workload, res in zip(missing, results):
                        self._merge_result(config, workload, res)
        return [self.run(c, w) for c in configs for w in workloads]

    def worker_copy(self) -> VlsiFlow:
        """A fresh flow sharing this one's simulators but not its caches.

        What ``run_many`` ships to worker processes: pickling the
        in-process caches would ship every previously computed run along
        with each task.  The disk cache handle *does* travel (it pickles
        to a directory reference), so worker-computed results persist
        for every later run on the machine.
        """
        return VlsiFlow(
            library=self.library,
            perf=self.perf,
            activity=self.activity_sim,
            disk_cache=self.disk_cache,
        )

    def _merge_result(
        self, config: BoomConfig, workload: Workload, res: FlowResult
    ) -> None:
        """Adopt a worker-produced run into this flow's caches."""
        config_key = _config_key(config)
        key = (*config_key, workload.name)
        self._designs.setdefault(config_key, res.design)
        self._netlists.setdefault(config_key, res.netlist)
        self._executions.setdefault(key, res.true)
        self._runs.setdefault(key, res)

    # ------------------------------------------------------------------
    def power_at_scale(
        self, config: BoomConfig, workload: Workload, scale: float
    ) -> PowerReport:
        """Golden power with all activity scaled (windowed-trace support)."""
        design = self.design(config)
        netlist = self.netlist(config)
        true = self.true_execution(config, workload)
        activity = self.activity_sim.simulate(
            design, config, workload, true=true, scale=scale
        )
        return self.analyzer.analyze(netlist, activity)
