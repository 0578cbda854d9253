"""Command-line entry point: ``python -m repro``.

Three command families:

* ``python -m repro <experiment>`` — regenerate the paper's tables and
  figures by name (``all`` runs everything),
* ``python -m repro fit <method> --out model.json`` — train any
  registered method through :mod:`repro.api` and write a format-v3 model
  file (the flow-side half of the paper's hand-off),
* ``python -m repro predict --model model.json`` — load a model file and
  predict configurations from performance-simulator events alone via the
  batched :class:`repro.api.PredictionService` (the architect's half; no
  EDA flow involved),
* ``python -m repro serve --model model.json --port N`` — the same
  hand-off as a long-running asyncio HTTP/JSON gateway
  (:mod:`repro.serving`) with cross-request micro-batching,
* ``python -m repro cache stats|path|clear`` — inspect or reset the
  persistent flow result cache (:mod:`repro.dse.cache`),
* ``python -m repro lint [paths...]`` — the project-invariant static
  analysis (:mod:`repro.analysis`); exit 1 when findings,
* ``python -m repro env [--markdown]`` — the ``REPRO_*`` environment
  variable reference, generated from :mod:`repro.env`.

Bare ``python -m repro`` lists the experiments and registered methods.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

import repro.api as api
from repro.experiments import (
    ablation_program_features,
    extension_workload_holdout,
    fig1_breakdown,
    fig45_accuracy,
    fig6_sweep,
    fig7_clock,
    fig8_sram,
    submodels,
    table1_example,
    table4_trace,
)
from repro.parallel import get_default_jobs, resolve_jobs, set_default_jobs

__all__ = ["EXPERIMENTS", "main"]

EXPERIMENTS = {
    "fig1": (fig1_breakdown.main, "Observation 1 — power-group breakdown"),
    "fig4": (fig45_accuracy.main, "Figs. 4 & 5 — accuracy with 2 / 3 configs"),
    "fig5": (fig45_accuracy.main, "alias of fig4 (both figures printed)"),
    "fig6": (fig6_sweep.main, "Fig. 6 — accuracy vs training budget"),
    "fig7": (fig7_clock.main, "Fig. 7 — clock group vs AutoPower-"),
    "fig8": (fig8_sram.main, "Fig. 8 — SRAM group vs AutoPower-"),
    "submodels": (submodels.main, "Sec. III-B3/B4 — sub-model accuracy"),
    "table1": (table1_example.main, "Table I — meta scaling-law walk-through"),
    "table4": (table4_trace.main, "Table IV — time-based power traces"),
    "ablation": (
        ablation_program_features.main,
        "Ablation — program features vs simulator error",
    ),
    "holdout": (
        extension_workload_holdout.main,
        "Extension — unseen-workload generalization",
    ),
}


def _print_overview() -> None:
    print("available experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name:10s} {EXPERIMENTS[name][1]}")
    print("\nregistered methods (repro.api):")
    for spec in api.list_methods():
        print(f"  {spec.name:24s} {spec.description}")
    print(
        "\nmodel commands:"
        "\n  fit <method> --out model.json [--train C1,C15] [--jobs N]"
        "\n  predict --model model.json [--config C8[,C9]] [--workload dhrystone]"
        "\n  serve --model [NAME=]model.json [--port 8000]"
        "\n        [--auth-token T | --auth-token-env VAR | --auth-token-file F]"
        "\n        [--rate-limit R --rate-burst B] [--max-batch-size B]"
        "\n        [--queue-depth N] [--default-deadline-ms MS]"
        " [--drain-timeout S]"
        "\n  cache {stats|path|clear}  inspect / reset the flow disk cache"
        "\n\ntooling commands:"
        "\n  lint [--format text|json|github] [--rules] [PATH...]"
        "  project-invariant static analysis"
        "\n  env [--markdown]  REPRO_* environment-variable reference"
    )


def _cmd_fit(argv: list[str]) -> int:
    """``python -m repro fit <method> --out model.json``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fit",
        description=(
            "Train a registered method on known configurations and write a "
            "format-v3 model file (repro.api.save_model)."
        ),
    )
    parser.add_argument("method", help="registry name, e.g. autopower / mcpat-calib")
    parser.add_argument(
        "--out", required=True, metavar="PATH", help="model JSON file to write"
    )
    parser.add_argument(
        "--train",
        default="C1,C15",
        metavar="NAMES",
        help="comma-separated training configurations (default: C1,C15)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel workers for flow runs and sub-model fits",
    )
    args = parser.parse_args(argv)
    try:
        spec = api.get_method(args.method)
    except KeyError:
        known = ", ".join(api.method_names())
        print(
            f"error: unknown method {args.method!r} (choose from: {known})",
            file=sys.stderr,
        )
        return 2
    train_names = [n.strip() for n in args.train.split(",") if n.strip()]
    if not train_names:
        print("error: --train needs at least one configuration", file=sys.stderr)
        return 2
    start = time.time()
    try:
        model = api.fit(spec.name, train_configs=train_names, n_jobs=args.jobs)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    api.save_model(model, args.out)
    print(
        f"fitted {spec.display_name} on {', '.join(train_names)} "
        f"in {time.time() - start:.1f}s -> {args.out}"
    )
    return 0


def _format_prediction_row(response) -> str:
    """One prediction table row; workload-free responses print ``-``."""
    workload = response.workload_name or "-"
    return (
        f"{response.config_name:>8s} {workload:>12s} {response.total:13.2f}"
    )


def _cmd_predict(argv: list[str]) -> int:
    """``python -m repro predict --model model.json``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description=(
            "Load a saved model and predict total power from hardware "
            "parameters and performance-simulator events alone (no EDA flow)."
        ),
    )
    parser.add_argument(
        "--model", required=True, metavar="PATH", help="model JSON file to load"
    )
    parser.add_argument(
        "--config",
        default="C8",
        metavar="NAMES",
        help="comma-separated configurations to predict (default: C8)",
    )
    parser.add_argument(
        "--workload",
        default="dhrystone",
        metavar="NAMES",
        help="comma-separated workloads (default: dhrystone)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the per-group power breakdown (methods with reports)",
    )
    args = parser.parse_args(argv)
    from repro.arch.config import config_by_name
    from repro.arch.workloads import workload_by_name
    from repro.power.report import POWER_GROUPS
    from repro.sim.perf import PerfSimulator

    try:
        model = api.load_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.model}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = api.spec_for(model)
    except KeyError:
        print(
            f"error: {args.model} holds an unregistered model class "
            f"({type(model).__name__}); register its method before predicting",
            file=sys.stderr,
        )
        return 2
    try:
        configs = [
            config_by_name(n.strip()) for n in args.config.split(",") if n.strip()
        ]
        workload_list = [
            workload_by_name(n.strip()) for n in args.workload.split(",") if n.strip()
        ]
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report and not api.supports_reports(model):
        print(
            f"error: {type(model).__name__} does not produce power-group reports",
            file=sys.stderr,
        )
        return 2

    # Architecture-level prediction: events come from the performance
    # simulator only — exactly the hand-off the paper targets.
    perf = PerfSimulator()
    kind = "report" if args.report else "total"
    requests = [
        api.PredictRequest(
            config=c, events=perf.run(c, w), workload=w, kind=kind
        )
        for c in configs
        for w in workload_list
    ]
    service = api.PredictionService(model)
    print(f"model: {spec.display_name} ({args.model})")
    print(f"{'config':>8s} {'workload':>12s} {'predicted mW':>13s}")
    for response in service.stream(requests):
        print(_format_prediction_row(response))
        if response.report is not None:
            for group in POWER_GROUPS:
                print(f"{'':>21s} {group:>9s}: {response.report.group_total(group):9.2f}")
    return 0


def _parse_model_specs(
    specs: list[str], default_name: str
) -> dict[str, str]:
    """``[NAME=]PATH`` args into an ordered ``{name: path}`` map.

    A bare ``PATH`` takes the default-model name; duplicate names and
    invalid name syntax are errors (:class:`ValueError`).
    """
    from repro.serving.fleet import FleetError, validate_model_name

    named: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = default_name, spec
        if not path:
            raise ValueError(f"--model {spec!r} has an empty path")
        try:
            validate_model_name(name)
        except FleetError as exc:
            raise ValueError(str(exc)) from None
        if name in named:
            raise ValueError(f"duplicate model name {name!r} in --model")
        named[name] = path
    return named


def _cmd_serve(argv: list[str]) -> int:
    """``python -m repro serve --model model.json --port N``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve saved models over HTTP/JSON (repro.serving): concurrent "
            "POST /predict and /models/<name>/predict requests coalesce into "
            "batched model calls; PUT/DELETE /models/<name> hot-reload and "
            "unload models; GET /healthz and GET /stats expose liveness and "
            "serving counters.  Once up, one machine-parseable line is "
            "printed: 'REPRO-SERVING addr=http://HOST:PORT pid=PID'."
        ),
    )
    parser.add_argument(
        "--model",
        required=True,
        action="append",
        metavar="[NAME=]PATH",
        help=(
            "model JSON file to serve; repeatable, NAME= routes it at "
            "POST /models/NAME/predict (a bare PATH is the default model)"
        ),
    )
    parser.add_argument(
        "--default-model",
        default=None,
        metavar="NAME",
        help=(
            "which model legacy POST /predict routes to (default: the "
            "model named 'default', else the first --model)"
        ),
    )
    parser.add_argument(
        "--max-models",
        type=int,
        default=8,
        metavar="N",
        help=(
            "LRU bound on concurrently loaded models; PUT beyond it "
            "evicts the least-recently-routed non-default model "
            "(default: 8)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8000, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help=(
            "static bearer token clients must send as "
            "'Authorization: Bearer <token>' (401/403 otherwise); "
            "prefer --auth-token-env/--auth-token-file over a literal"
        ),
    )
    parser.add_argument(
        "--auth-token-env",
        default=None,
        metavar="VAR",
        help="read a bearer token from this environment variable",
    )
    parser.add_argument(
        "--auth-token-file",
        default=None,
        metavar="PATH",
        help="read bearer tokens from a file, one per line (# comments)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="R",
        help=(
            "per-client rate limit in requests/second; an "
            "exhausted client answers 429 + Retry-After while other "
            "clients keep being served (default: unlimited)"
        ),
    )
    parser.add_argument(
        "--rate-burst",
        type=int,
        default=None,
        metavar="B",
        help=(
            "per-client burst ceiling for --rate-limit "
            "(default: ceil(R))"
        ),
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=64,
        metavar="B",
        help=(
            "the most requests one flush takes; a flush starts whenever "
            "the model is idle (default: 64)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel fan-out of the per-configuration model calls",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "admission bound: shed with 429 + Retry-After once this many "
            "requests are queued (0 = unbounded; default: 1024)"
        ),
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "server-side deadline for requests without their own "
            "deadline_ms; expired requests answer 504 (default: none)"
        ),
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help=(
            "on SIGTERM/SIGINT, how long to wait for in-flight requests "
            "to complete before exiting (default: 10.0)"
        ),
    )
    args = parser.parse_args(argv)
    if args.max_batch_size < 1:
        print("error: --max-batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.queue_depth < 0 or args.drain_timeout < 0 or (
        args.default_deadline_ms is not None and args.default_deadline_ms <= 0
    ):
        print(
            "error: --queue-depth and --drain-timeout must be >= 0 and "
            "--default-deadline-ms > 0",
            file=sys.stderr,
        )
        return 2
    if args.max_models < 1:
        print("error: --max-models must be >= 1", file=sys.stderr)
        return 2
    if args.rate_limit is not None and not args.rate_limit > 0:
        print("error: --rate-limit must be > 0", file=sys.stderr)
        return 2
    if args.rate_burst is not None and args.rate_burst < 1:
        print("error: --rate-burst must be >= 1", file=sys.stderr)
        return 2
    if args.rate_burst is not None and args.rate_limit is None:
        print(
            "error: --rate-burst needs --rate-limit", file=sys.stderr
        )
        return 2

    from repro.serving import (
        Authenticator,
        Gateway,
        ModelFleet,
        RateLimiter,
        ResilienceConfig,
    )
    from repro.serving.fleet import format_announce

    try:
        auth = Authenticator.from_sources(
            token=args.auth_token,
            env=args.auth_token_env,
            file=args.auth_token_file,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Resolve model names before touching any file, so name errors are
    # cheap.  A bare PATH takes the default-model name; with named
    # models only, the first one becomes the default unless
    # --default-model picks another.
    try:
        specs = _parse_model_specs(
            args.model, args.default_model or "default"
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.default_model is not None:
        default_name = args.default_model
        if default_name not in specs:
            print(
                f"error: --default-model {default_name!r} is not among the "
                f"--model names {sorted(specs)}",
                file=sys.stderr,
            )
            return 2
    else:
        default_name = (
            "default" if "default" in specs else next(iter(specs))
        )

    models: dict[str, tuple[str, object]] = {}
    for name, path in specs.items():
        try:
            models[name] = (path, api.load_model(path))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 2

    def describe(model) -> str:
        try:
            return api.spec_for(model).display_name
        except KeyError:
            return type(model).__name__

    label = ", ".join(
        f"{name}={describe(model)}" for name, (_path, model) in models.items()
    )
    resilience = ResilienceConfig(
        queue_depth=args.queue_depth or None,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
    )

    fleet = ModelFleet(
        max_models=args.max_models,
        default_model=default_name,
        max_batch_size=args.max_batch_size,
        resilience=resilience,
        service_kwargs={"n_jobs": args.jobs},
    )
    for name, (path, model) in models.items():
        fleet.add_model(name, model, source=f"path:{path}")
    gateway = Gateway(
        fleet,
        host=args.host,
        port=args.port,
        resilience=resilience,
        auth=auth,
        rate_limiter=RateLimiter(args.rate_limit, args.rate_burst),
    )

    async def run() -> None:
        import signal

        await gateway.start()
        print(format_announce(args.host, gateway.port), flush=True)
        print(f"serving {label} on http://{args.host}:{gateway.port}", flush=True)
        print(
            "endpoints: POST /predict, POST /models/<name>/predict, "
            "PUT/DELETE/GET /models/<name>, GET /models, GET /healthz, "
            "GET /stats (SIGTERM/Ctrl-C drains and exits)",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        handled_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                continue  # platform without loop signal handlers
            handled_signals.append(signum)
        try:
            if handled_signals:
                await shutdown.wait()
            else:
                await gateway.serve_forever()
        finally:
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            print(
                f"draining (up to {args.drain_timeout:g}s) ...", flush=True
            )
            await gateway.stop(drain=True, drain_timeout=args.drain_timeout)
            print("drained; exiting", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # e.g. the port is already bound
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_cache(argv: list[str]) -> int:
    """``python -m repro cache {stats|path|clear}``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description=(
            "Inspect or reset the persistent flow-result cache "
            "(repro.dse.cache).  Honors REPRO_FLOW_CACHE_DIR, "
            "REPRO_NO_FLOW_CACHE and REPRO_FLOW_CACHE_MAX_MB."
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "path", "clear"),
        help=(
            "stats: entry count / size / bound; path: print the cache "
            "root; clear: remove every cached entry"
        ),
    )
    args = parser.parse_args(argv)

    from repro.dse import cache as flow_cache

    root = flow_cache.flow_cache_root()
    if args.action == "path":
        print(root)
        return 0

    store = flow_cache.FlowDiskCache(root)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached flow result(s) from {root}")
        return 0

    count = store.entry_count()
    size = store.size_bytes()
    enabled = flow_cache.cache_enabled()
    print(f"root:     {root}")
    print(f"enabled:  {'yes' if enabled else 'no (REPRO_NO_FLOW_CACHE)'}")
    print(f"entries:  {count}")
    print(f"size:     {size / (1024 * 1024):.2f} MiB ({size} bytes)")
    print(f"bound:    {store.max_bytes / (1024 * 1024):.0f} MiB")
    print(f"version:  {flow_cache.FLOW_CACHE_VERSION}")
    return 0


def _cmd_lint(argv: list[str]) -> int:
    """``python -m repro lint [--format text|json|github] [paths...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Run the project-invariant static analysis (repro.analysis): "
            "determinism (DET), event-loop discipline (ASYNC), lock "
            "discipline (LOCK), env-registry (ENV) and layering (LAYER) "
            "rules.  Exit 0 when clean, 1 when findings, 2 on usage "
            "errors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github = Actions inline annotations)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="list every rule id and description, then exit",
    )
    args = parser.parse_args(argv)

    from repro import analysis

    if args.rules:
        print(analysis.rule_table())
        return 0
    paths = args.paths or ["src"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    findings = analysis.lint_paths(paths)
    print(analysis.format_findings(findings, args.format))
    return 1 if findings else 0


def _cmd_env(argv: list[str]) -> int:
    """``python -m repro env [--markdown]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro env",
        description=(
            "Show every REPRO_* environment variable the project reads "
            "(from the repro.env registry): type, default, and effect. "
            "--markdown emits the table embedded in the README."
        ),
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a GitHub-markdown table instead of plain text",
    )
    args = parser.parse_args(argv)

    from repro import env

    print(env.markdown_table() if args.markdown else env.plain_table())
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "fit":
        return _cmd_fit(argv[1:])
    if argv and argv[0] == "predict":
        return _cmd_predict(argv[1:])
    if argv and argv[0] == "serve":
        return _cmd_serve(argv[1:])
    if argv and argv[0] == "cache":
        return _cmd_cache(argv[1:])
    if argv and argv[0] == "lint":
        return _cmd_lint(argv[1:])
    if argv and argv[0] == "env":
        return _cmd_env(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the AutoPower paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment to run (omit to list experiments and methods)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "parallel workers for flow runs and sub-model fits "
            "(0 or negative = all cores; overrides REPRO_JOBS; "
            "results are identical regardless of worker count)"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment is None:
        _print_overview()
        return 0

    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS) + ["all"])
        print(
            f"error: unknown experiment {args.experiment!r} "
            f"(choose from: {known})",
            file=sys.stderr,
        )
        return 2

    try:
        resolve_jobs(args.jobs)  # a malformed REPRO_JOBS fails here, not mid-run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted(set(EXPERIMENTS) - {"fig5"}) if args.experiment == "all" else [args.experiment]
    previous_jobs = get_default_jobs()
    if args.jobs is not None:
        set_default_jobs(args.jobs)
    try:
        for name in names:
            runner, description = EXPERIMENTS[name]
            print(f"=== {name}: {description} ===")
            start = time.time()
            runner()
            print(f"[{name} finished in {time.time() - start:.1f}s]\n")
    finally:
        if args.jobs is not None:
            set_default_jobs(previous_jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
