"""Tests for the ``repro.api`` façade: protocol, registry, versioned
persistence, and the batched prediction service."""

import json

import numpy as np
import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.core.autopower import AutoPower

ALL_METHODS = (
    "autopower",
    "autopower-minus",
    "mcpat",
    "mcpat-calib",
    "mcpat-calib-component",
)


@pytest.fixture(scope="module")
def fitted(flow, train_configs, workloads):
    """Every registered method, fitted on the shared 2-config split."""
    return {
        name: api.fit(name, flow=flow, train_configs=train_configs,
                      workloads=workloads)
        for name in ALL_METHODS
    }


@pytest.fixture(scope="module")
def eval_cells(flow, test_configs, workloads):
    """(config, workload, events) for a slice of the test split."""
    return [
        (c, w, flow.run(c, w).events) for c in test_configs[:4] for w in workloads
    ]


class TestRegistry:
    def test_lists_all_five_methods(self):
        assert api.method_names() == ALL_METHODS

    def test_display_name_aliases_resolve(self):
        # The historical experiment names keep working.
        assert api.get_method("AutoPower").name == "autopower"
        assert api.get_method("AutoPower-").name == "autopower-minus"
        assert api.get_method("McPAT-Calib").name == "mcpat-calib"
        assert api.get_method("McPAT-Calib+Comp").name == "mcpat-calib-component"

    def test_normalization(self):
        assert api.get_method("AUTOPOWER_MINUS").name == "autopower-minus"

    def test_unknown_method_lists_known(self):
        with pytest.raises(KeyError, match="autopower"):
            api.get_method("xgboost")

    def test_duplicate_registration_rejected(self):
        spec = api.get_method("autopower")
        with pytest.raises(ValueError, match="already registered"):
            api.register(spec)

    def test_rejected_replace_leaves_registry_intact(self):
        # A colliding alias must fail before any mutation.
        import dataclasses

        original = api.get_method("autopower")
        bad = dataclasses.replace(original, aliases=("mcpat",))
        with pytest.raises(ValueError, match="collides"):
            api.register(bad, replace=True)
        assert api.get_method("autopower") is original
        assert api.get_method("mcpat").name == "mcpat"

    def test_spec_for_instances(self, fitted):
        for name, model in fitted.items():
            assert api.spec_for(model).name == name

    def test_create_returns_unfitted_instances(self, flow):
        model = api.create("autopower", library=flow.library, n_jobs=2)
        assert isinstance(model, AutoPower)
        assert model.n_jobs == 2
        assert not model._fitted

    def test_every_method_satisfies_protocol(self, fitted):
        for model in fitted.values():
            assert isinstance(model, api.PowerModel)

    def test_supports_reports_flag_matches_models(self, fitted):
        for name, model in fitted.items():
            assert api.get_method(name).supports_reports == api.supports_reports(model)


class TestProtocolPredictions:
    def test_predict_totals_matches_scalar_loop(self, fitted, eval_cells):
        # A scalar call is a batch of one: every method's predict_total
        # equals the matching row of predict_totals bit for bit.
        for name, model in fitted.items():
            for config in {c.name for c, _, _ in eval_cells}:
                cells = [cell for cell in eval_cells if cell[0].name == config]
                cfg = cells[0][0]
                scalar = np.array(
                    [model.predict_total(cfg, e, w) for _, w, e in cells]
                )
                batched = np.asarray(
                    model.predict_totals(
                        cfg, [e for _, _, e in cells], [w for _, w, _ in cells]
                    ),
                    dtype=float,
                )
                assert batched.tobytes() == scalar.tobytes(), (name, config)

    def test_fit_results_accepts_precomputed_results(self, flow, train_configs,
                                                     workloads):
        results = flow.run_many(train_configs, workloads)
        model = api.create("mcpat-calib", library=flow.library).fit_results(results)
        c8 = config_by_name("C8")
        events = flow.run(c8, workloads[0]).events
        assert model.predict_total(c8, events) > 0


class TestPersistenceV2:
    def test_round_trip_every_method(self, fitted, eval_cells, tmp_path):
        for name, model in fitted.items():
            path = tmp_path / f"{name}.json"
            api.save_model(model, path)
            envelope = json.loads(path.read_text())
            assert envelope["format_version"] == 3
            assert envelope["method"] == name
            clone = api.load_model(path)
            assert type(clone) is type(model)
            for config, w, events in eval_cells[:6]:
                assert clone.predict_total(config, events, w) == (
                    model.predict_total(config, events, w)
                )

    def test_envelope_library_field(self, fitted, flow, tmp_path):
        api.save_model(fitted["autopower"], tmp_path / "ap.json")
        assert json.loads((tmp_path / "ap.json").read_text())["library"] == (
            flow.library.name
        )
        api.save_model(fitted["mcpat-calib"], tmp_path / "mc.json")
        assert json.loads((tmp_path / "mc.json").read_text())["library"] is None

    def test_unfitted_save_rejected(self, flow, tmp_path):
        with pytest.raises(ValueError):
            api.save_model(api.create("mcpat-calib"), tmp_path / "x.json")

    def test_unregistered_class_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="registered"):
            api.save_model(object(), tmp_path / "x.json")

    def test_bad_version_rejected(self, fitted, tmp_path):
        path = tmp_path / "m.json"
        api.save_model(fitted["mcpat"], path)
        envelope = json.loads(path.read_text())
        envelope["format_version"] = 99
        path.write_text(json.dumps(envelope))
        with pytest.raises(ValueError, match="version"):
            api.load_model(path)


def _as_v1_file(model: AutoPower, path) -> None:
    """Write the pre-registry format-v1 AutoPower layout (flat envelope)."""
    payload = model.to_state()
    state = {
        "format_version": 1,
        "library": model.library.name,
        "train_config_names": payload["train_config_names"],
        "clock": payload["clock"],
        "sram": payload["sram"],
        "logic": payload["logic"],
    }
    path.write_text(json.dumps(state))


class TestLegacyV1Compat:
    def test_v1_file_loads_and_upgrades_byte_identically(
        self, autopower2, flow, eval_cells, tmp_path
    ):
        # A format-v1 file written before the repro.api redesign must
        # still load through load_model, and re-serializing it must produce
        # the same file (and therefore byte-identical predictions) as
        # saving the original model.
        v1_path = tmp_path / "model_v1.json"
        _as_v1_file(autopower2, v1_path)

        from_v1 = api.load_model(v1_path)
        assert isinstance(from_v1, AutoPower)

        direct = tmp_path / "direct.json"
        upgraded = tmp_path / "upgraded.json"
        api.save_model(autopower2, direct)
        api.save_model(from_v1, upgraded)
        assert direct.read_bytes() == upgraded.read_bytes()

        reloaded = api.load_model(upgraded)
        for config, w, events in eval_cells[:8]:
            expected = autopower2.predict_total(config, events, w)
            assert from_v1.predict_total(config, events, w) == expected
            assert reloaded.predict_total(config, events, w) == expected


class TestPredictionService:
    @pytest.fixture(scope="class")
    def requests(self, eval_cells):
        return [
            api.PredictRequest(config=c, events=e, workload=w)
            for c, w, e in eval_cells
        ]

    def test_names_resolve_in_requests(self, flow, dhrystone):
        events = flow.run(config_by_name("C8"), dhrystone).events
        req = api.PredictRequest("C8", events, "dhrystone")
        assert req.config.name == "C8"
        assert req.workload.name == "dhrystone"

    def test_invalid_kind_rejected(self, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        with pytest.raises(ValueError, match="kind"):
            api.PredictRequest(c8, events, dhrystone, kind="group")

    def test_trace_requires_scales(self, flow, c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        with pytest.raises(ValueError, match="scales"):
            api.PredictRequest(c8, events, dhrystone, kind="trace")

    @pytest.mark.parametrize(
        "scales", [[], [0.0], [-1.0], [1.0, float("nan")]],
        ids=["empty", "zero", "negative", "nan"],
    )
    def test_trace_rejects_unusable_scales_at_construction(
        self, flow, c8, dhrystone, scales
    ):
        # Regression: empty or non-positive scale arrays used to survive
        # construction and fail deep inside predict_trace, after other
        # requests in the same submission had already run.
        events = flow.run(c8, dhrystone).events
        with pytest.raises(ValueError, match="scale"):
            api.PredictRequest(
                c8, events, dhrystone, kind="trace", scales=scales
            )

    @pytest.mark.parametrize("window_cycles", [0, -50])
    def test_trace_rejects_nonpositive_window_at_construction(
        self, flow, c8, dhrystone, window_cycles
    ):
        events = flow.run(c8, dhrystone).events
        with pytest.raises(ValueError, match="window_cycles"):
            api.PredictRequest(
                c8, events, dhrystone, kind="trace",
                scales=[0.9, 1.1], window_cycles=window_cycles,
            )

    def test_batched_equals_single_bitwise(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        batched = [r.total for r in service.submit_many(requests)]
        single = [service.predict(r).total for r in requests]
        assert batched == single  # bitwise: coalescing must not change results

    def test_responses_in_request_order(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        responses = service.submit_many(requests)
        assert [r.config_name for r in responses] == [
            r.config.name for r in requests
        ]
        assert [r.workload_name for r in responses] == [
            r.workload.name for r in requests
        ]

    def test_matches_model_loop_closely(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        batched = [r.total for r in service.submit_many(requests)]
        loop = [
            autopower2.predict_total(r.config, r.events, r.workload)
            for r in requests
        ]
        np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=0)

    def test_max_batch_size_chunks_without_changing_results(
        self, autopower2, requests
    ):
        unbounded = api.PredictionService(autopower2)
        bounded = api.PredictionService(autopower2, max_batch_size=3)
        assert [r.total for r in bounded.submit_many(requests)] == [
            r.total for r in unbounded.submit_many(requests)
        ]
        assert bounded.stats.model_calls > unbounded.stats.model_calls

    def test_works_for_every_method(self, fitted, requests):
        for name, model in fitted.items():
            service = api.PredictionService(model)
            responses = service.submit_many(requests[:6])
            assert all(r.total >= 0.0 for r in responses), name

    def test_mixed_kinds_one_submission(self, autopower2, requests, flow,
                                        c8, dhrystone):
        events = flow.run(c8, dhrystone).events
        mixed = [
            requests[0],
            api.PredictRequest(c8, events, dhrystone, kind="report"),
            api.PredictRequest(
                c8, events, dhrystone, kind="trace",
                scales=np.linspace(0.6, 1.4, 9),
            ),
            requests[1],
        ]
        service = api.PredictionService(autopower2)
        responses = service.submit_many(mixed)
        assert responses[0].total == service.predict(requests[0]).total
        assert responses[1].report is not None
        assert responses[1].total == pytest.approx(responses[1].report.total)
        assert responses[2].trace.shape == (9,)
        assert responses[3].kind == "total"

    def test_report_batching_matches_scalar_reports(self, autopower2, eval_cells):
        service = api.PredictionService(autopower2)
        reqs = [
            api.PredictRequest(c, e, w, kind="report")
            for c, w, e in eval_cells[:6]
        ]
        responses = service.submit_many(reqs)
        for (c, w, e), resp in zip(eval_cells[:6], responses):
            assert resp.report.total == pytest.approx(
                autopower2.predict_report(c, e, w).total, rel=1e-12
            )

    def test_report_unsupported_method_raises(self, fitted, requests):
        service = api.PredictionService(fitted["mcpat-calib"])
        req = api.PredictRequest(
            requests[0].config, requests[0].events, requests[0].workload,
            kind="report",
        )
        with pytest.raises(TypeError, match="report"):
            service.submit_many([req])

    def test_rejected_submission_runs_no_work_and_keeps_stats_clean(
        self, fitted, requests
    ):
        # An unservable kind is rejected before any model call, so a
        # mixed submission can't discard completed totals or leave the
        # counters claiming phantom in-flight requests.
        service = api.PredictionService(fitted["mcpat-calib"])
        trace_req = api.PredictRequest(
            requests[0].config, requests[0].events, requests[0].workload,
            kind="trace", scales=np.linspace(0.8, 1.2, 5),
        )
        with pytest.raises(TypeError, match="trace"):
            service.submit_many([requests[0], trace_req])
        assert service.stats.snapshot() == {
            "requests": 0, "responses": 0, "model_calls": 0,
            "batched_intervals": 0,
        }

    def test_stream_preserves_order_across_chunks(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        streamed = list(service.stream(iter(requests), chunk_size=5))
        batched = service.submit_many(requests)
        assert [r.total for r in streamed] == [r.total for r in batched]

    def test_stream_bad_buffer_keeps_prior_responses_and_stats(
        self, fitted, requests
    ):
        # Pins the stream error semantics (documented on stream()): a bad
        # request in buffer N surfaces at that buffer's yield point; the
        # responses of earlier buffers were already yielded and stay
        # valid, the failing buffer runs no model work and contributes
        # nothing to stats, and later requests are never consumed.
        service = api.PredictionService(fitted["mcpat-calib"])
        bad = api.PredictRequest(
            requests[0].config, requests[0].events, requests[0].workload,
            kind="trace", scales=np.linspace(0.8, 1.2, 5),
        )  # mcpat-calib has no predict_trace -> TypeError
        consumed: list = []

        def feed():
            for request in requests[:4] + [bad] + requests[4:8]:
                consumed.append(request)
                yield request

        stream = service.stream(feed(), chunk_size=4)
        first_buffer = [next(stream) for _ in range(4)]
        direct = api.PredictionService(fitted["mcpat-calib"]).submit_many(
            requests[:4]
        )
        assert [r.total for r in first_buffer] == [r.total for r in direct]
        with pytest.raises(TypeError, match="trace"):
            next(stream)
        # Only the good first buffer is on the books ...
        expected_calls = len({r.config.name for r in requests[:4]})
        assert service.stats.snapshot() == {
            "requests": 4, "responses": 4, "model_calls": expected_calls,
            "batched_intervals": 4,
        }
        # ... and nothing past the failing buffer was pulled from the
        # iterable (4 good + 4 of the second buffer incl. the bad one).
        assert len(consumed) == 8

    def test_stats_count_coalescing(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        service.submit_many(requests)
        n_configs = len({r.config.name for r in requests})
        assert service.stats.requests == len(requests)
        assert service.stats.responses == len(requests)
        assert service.stats.model_calls == n_configs
        assert service.stats.batched_intervals == len(requests)

    def test_concurrent_submit_many_keeps_stats_consistent(
        self, autopower2, requests
    ):
        # The re-entrancy contract the async gateway relies on: results
        # are per-call and the stats counters are applied atomically per
        # submission, so concurrent submitter threads can't drop or tear
        # increments.
        import threading

        service = api.PredictionService(autopower2)
        expected = [r.total for r in service.submit_many(requests)]
        results: dict[int, list] = {}

        def submit(slot: int) -> None:
            results[slot] = [r.total for r in service.submit_many(requests)]

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in range(4):
            assert results[slot] == expected
        snapshot = service.stats_snapshot()
        assert snapshot["requests"] == 5 * len(requests)
        assert snapshot["responses"] == 5 * len(requests)
        assert snapshot["batched_intervals"] == 5 * len(requests)

    @pytest.mark.parametrize("kind", ["total", "report"])
    def test_same_name_different_params_not_coalesced(
        self, autopower2, flow, dhrystone, kind
    ):
        # Regression: requests used to be grouped by config *name*, so a
        # second config sharing the name was predicted with the first
        # one's parameters.
        from repro.arch.config import BoomConfig

        c8 = config_by_name("C8")
        wide = BoomConfig("C8", {**c8.params, "RobEntry": 2 * c8["RobEntry"]})
        events = flow.run(c8, dhrystone).events
        service = api.PredictionService(autopower2)
        pair = service.submit_many(
            [
                api.PredictRequest(c8, events, dhrystone, kind=kind),
                api.PredictRequest(wide, events, dhrystone, kind=kind),
            ]
        )
        alone = service.predict(api.PredictRequest(wide, events, dhrystone, kind=kind))
        assert pair[1].total == alone.total
        assert pair[1].total != pair[0].total

    def test_parallel_fanout_matches_serial(self, autopower2, requests):
        # The thread pool is built once per service: a second multi-config
        # submission reuses the first one's, and both equal the serial run.
        assert len({r.config.params_key for r in requests}) > 1
        serial = api.PredictionService(autopower2, n_jobs=1)
        threaded = api.PredictionService(autopower2, n_jobs=2)
        want = np.array([r.total for r in serial.submit_many(requests)])
        first = np.array([r.total for r in threaded.submit_many(requests)])
        pool = threaded._executor._pool
        second = np.array([r.total for r in threaded.submit_many(requests)])
        assert pool is not None and threaded._executor._pool is pool
        assert first.tobytes() == want.tobytes()
        assert second.tobytes() == want.tobytes()

    def test_mixing_workload_presence_rejected(self, autopower2, requests):
        service = api.PredictionService(autopower2)
        bad = api.PredictRequest(requests[0].config, requests[0].events, None)
        with pytest.raises(ValueError, match="workload"):
            service.submit_many([requests[0], bad])

    def test_report_chunk_workload_mix_rejected_before_any_model_call(
        self, autopower2, requests
    ):
        # Regression: a workload mix inside a *report* chunk used to
        # surface only while building report chunks — after every totals
        # chunk had already run and mutated the stats, discarding the
        # completed results.  The reject-before-work contract says the
        # whole submission fails up front with the stats untouched.
        service = api.PredictionService(autopower2)
        request = requests[0]
        mixed = [
            request,  # a totals request that would have run first
            api.PredictRequest(
                request.config, request.events, request.workload, kind="report"
            ),
            api.PredictRequest(request.config, request.events, None, kind="report"),
        ]
        with pytest.raises(ValueError, match="workload"):
            service.submit_many(mixed)
        assert service.stats.snapshot() == {
            "requests": 0, "responses": 0, "model_calls": 0,
            "batched_intervals": 0,
        }

    def test_max_batch_size_split_that_separates_a_mix_stays_accepted(
        self, fitted, requests
    ):
        # The mix check follows the exact chunks execution will use: when
        # max_batch_size happens to split the workload-carrying and
        # workload-free rows into different chunks, the submission is
        # servable and must stay accepted (semantics unchanged by moving
        # the check into _validate).
        service = api.PredictionService(fitted["mcpat"], max_batch_size=1)
        request = requests[0]
        bare = api.PredictRequest(request.config, request.events, None)
        responses = service.submit_many([request, bare])
        assert responses[0].total == service.predict(request).total
        assert responses[1].workload_name is None


class TestRunnerRegistryIntegration:
    def test_fit_method_resolves_display_names(self, flow, train_configs,
                                               workloads):
        from repro.experiments.runner import fit_method

        model = fit_method("McPAT-Calib", flow, train_configs, workloads)
        assert api.spec_for(model).name == "mcpat-calib"

    def test_runner_has_no_method_branches(self):
        import inspect

        from repro.experiments import runner

        source = inspect.getsource(runner)
        assert "if name ==" not in source
        assert "isinstance(model" not in source

    def test_evaluate_methods_matches_scalar_reference(self, flow, workloads):
        from repro.experiments.runner import evaluate_methods

        result = evaluate_methods(
            flow=flow, n_train=2, methods=("AutoPower", "McPAT-Calib"),
            workloads=tuple(workloads),
        )
        acc = result.methods["McPAT-Calib"]
        model = api.fit("mcpat-calib", flow=flow,
                        train_configs=[config_by_name(n) for n in result.train_names],
                        workloads=list(workloads))
        scalar = []
        for (cfg_name, wl_name), _ in zip(acc.labels, acc.y_pred):
            events = flow.run(
                config_by_name(cfg_name), workload_by_name(wl_name)
            ).events
            scalar.append(model.predict_total(config_by_name(cfg_name), events))
        np.testing.assert_allclose(acc.y_pred, scalar, rtol=1e-12, atol=0)
