"""The compiled predict program of a fitted AutoPower model.

Pins the program bit for bit: against the scalar ``predict_component``
family (the reference each sub-model defines), between the compiled
kernel and the numpy fallback, across save/load and pickling, after a
refit, and under concurrent prediction.  The hardware memo's LRU bound is
checked too.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

import repro.api as api
import repro.ml.gbm as gbm_module
from repro.arch.config import BOOM_CONFIGS, BoomConfig, config_by_name
from repro.arch.events import EventBatch
from repro.arch.workloads import WORKLOADS
from repro.core.autopower import AutoPower, events_at_scale
from repro.core.program import _MEMO_SIZE
from repro.ml._kernel import get_kernel
from repro.parallel import get_executor

_FAST_GBM = {"n_estimators": 12, "learning_rate": 0.3, "max_depth": 3}


def _scalar_groups(model, config, batch, workload):
    """(clock, sram, register, comb) rows from the scalar sub-model calls."""
    out = []
    for i in range(len(batch)):
        events = batch[i]
        row = []
        for name in model.compile().components:
            register, comb = model.logic_model.predict_component(name, config, events)
            sram = (
                model.sram_model.predict_component(name, config, events, workload)
                if name in model.sram_model._component_positions
                else 0.0
            )
            clock = model.clock_model.predict_component(name, config, events)
            row.append((clock, sram, register, comb))
        out.append(row)
    return np.array(out)  # (rows, components, 4)


def _scalar_total(row) -> float:
    """``predict_totals``' combination order over one scalar row."""
    total = 0.0
    for clock, sram, register, comb in row:
        total += clock + register + comb
        total += sram
    return total


def _program_groups(model, config, batch, workload):
    return np.stack(model.compile().groups(config, batch, workload), axis=-1)


def _anchors(flow, config, workload, n):
    events = flow.run(config, workload).events
    if n == 1:
        return EventBatch.from_events(events)
    return events_at_scale(events, np.linspace(0.5, 1.5, n), 50)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMatchesScalarPath:
    def test_one_row_every_config_and_workload(self, autopower2, flow):
        for config in BOOM_CONFIGS:
            for workload in WORKLOADS:
                batch = _anchors(flow, config, workload, 1)
                want = _scalar_groups(autopower2, config, batch, workload)
                got = _program_groups(autopower2, config, batch, workload)
                assert _same_bits(got, want), (config.name, workload.name)
                totals = autopower2.predict_totals(config, batch, workload)
                assert _same_bits(totals, [_scalar_total(want[0])])
                report = autopower2.predict_report(config, batch[0], workload)
                assert report.total == sum(
                    c.clock + c.sram + c.register + c.comb
                    for c in report.components
                )

    @pytest.mark.parametrize("n", [8, 65])
    def test_batches_match_scalar_rows(self, autopower2, flow, n):
        # Every config at the predict_trace anchor counts; the scalar
        # reference is sampled every few rows, and every row must equal
        # the program's own one-row answer (pinned above to the scalar).
        step = 1 if n == 8 else 8
        for k, config in enumerate(BOOM_CONFIGS):
            workload = WORKLOADS[k % len(WORKLOADS)]
            batch = _anchors(flow, config, workload, n)
            got = _program_groups(autopower2, config, batch, workload)
            rows = list(range(0, n, step))
            sample = EventBatch(batch.matrix[rows])
            want = _scalar_groups(autopower2, config, sample, workload)
            assert _same_bits(got[rows], want), config.name
            for i in range(n):
                one = EventBatch(batch.matrix[i : i + 1])
                assert _same_bits(
                    got[i], _program_groups(autopower2, config, one, workload)[0]
                )
            totals = autopower2.predict_totals(config, batch, workload)
            assert _same_bits(totals[rows], [_scalar_total(r) for r in want])

    def test_reports_carry_the_groups(self, autopower2, flow, c8, dhrystone):
        batch = _anchors(flow, c8, dhrystone, 8)
        groups = _program_groups(autopower2, c8, batch, dhrystone)
        reports = autopower2.predict_reports(c8, batch, dhrystone)
        for i, report in enumerate(reports):
            assert report.config_name == "C8"
            assert report.workload_name == "dhrystone"
            got = [(c.clock, c.sram, c.register, c.comb) for c in report.components]
            assert _same_bits(got, groups[i])
        assert autopower2.predict_total(c8, batch[3], dhrystone) == (
            autopower2.predict_totals(c8, batch, dhrystone)[3]
        )
        assert autopower2.predict_group(
            c8, batch[3], dhrystone, "sram"
        ) == reports[3].group_total("sram")

    def test_predict_does_not_call_per_gbm_predict(
        self, autopower2, flow, c8, dhrystone, monkeypatch
    ):
        def forbidden(self, X):
            raise AssertionError("per-GBM predict on the program path")

        monkeypatch.setattr(gbm_module.GradientBoostingRegressor, "predict", forbidden)
        autopower2.predict_totals(c8, _anchors(flow, c8, dhrystone, 8), dhrystone)


@pytest.mark.skipif(get_kernel() is None, reason="compiled kernel unavailable")
class TestKernelMatchesFallback:
    def _predict_all(self, model, flow):
        out = []
        for k, config in enumerate(BOOM_CONFIGS):
            workload = WORKLOADS[k % len(WORKLOADS)]
            for n in (1, 8, 65):
                batch = _anchors(flow, config, workload, n)
                out.append(_program_groups(model, config, batch, workload))
                out.append(model.predict_totals(config, batch, workload))
        return out

    def test_program_outputs(self, autopower2, flow, monkeypatch):
        compiled = self._predict_all(autopower2, flow)
        monkeypatch.setattr(gbm_module, "get_kernel", lambda: None)
        fallback = self._predict_all(autopower2, flow)
        assert all(_same_bits(a, b) for a, b in zip(compiled, fallback))

    def test_forest_on_adversarial_rows(self, autopower2, monkeypatch):
        # Rows whose every value is some split threshold (exact ties take
        # the ``<=`` branch), plus NaNs and infinities.
        forest = autopower2.compile().forest
        rng = np.random.default_rng(0)
        thresholds = np.concatenate([e.threshold for e in forest.segments])
        thresholds = thresholds[np.isfinite(thresholds)]
        X = rng.choice(thresholds, size=(40, forest.n_cols))
        X[0, ::7] = np.nan
        X[1, ::5] = np.inf
        X[2, ::3] = -np.inf
        compiled = forest.predict(X)
        monkeypatch.setattr(gbm_module, "get_kernel", lambda: None)
        assert _same_bits(compiled, forest.predict(X))

    def test_pickled_program_rebuilds_its_forest_layout(self, autopower2, flow, c8, dhrystone):
        # The packed layout is per process: a pickle leaves it out, and the
        # copy builds its own on first use, equal to each segment's
        # reference descent.
        program = autopower2.compile()
        batch = _anchors(flow, c8, dhrystone, 8)
        program.totals(c8, batch, dhrystone)
        assert program.forest._layout is not None
        clone = pickle.loads(pickle.dumps(program))
        assert clone.forest._layout is None
        X = clone.layout.features(clone.plan(c8).hardware, batch, dhrystone)
        got = clone.forest.sum_values(X)
        assert clone.forest._layout is not None
        for s, ens in enumerate(clone.forest.segments):
            want = ens.sum_values(X[:, clone.forest.seg_col[s] :])
            assert _same_bits(got[:, s], want)


def _models(model):
    """The 94 GBMs in the program's segment order."""
    program = model.compile()
    clock = model.clock_model._models
    register = model.logic_model.register_model._f_act
    comb = model.logic_model.comb_model._f_var
    positions = model.sram_model._positions
    return [
        m
        for name in program.components
        for m in (clock[name].f_alpha, register[name], comb[name])
    ] + [
        m
        for pos in program.position_names
        for m in (positions[pos].f_read, positions[pos].f_write)
    ]


class TestForest:
    def test_segments_equal_each_models_predict(self, autopower2, flow, c8, dhrystone):
        program = autopower2.compile()
        forest = program.forest
        batch = _anchors(flow, c8, dhrystone, 8)
        X = program.layout.features(program.plan(c8).hardware, batch, dhrystone)
        got = forest.predict(X)
        models = _models(autopower2)
        assert len(models) == forest.n_segments == 94
        for s, model in enumerate(models):
            base = forest.seg_col[s]
            want = model.predict(X[:, base : base + model.n_features_])
            assert _same_bits(got[:, s], want)

    def test_segments_are_the_models_own_ensembles(self, autopower2):
        forest = autopower2.compile().forest
        for ens, model in zip(forest.segments, _models(autopower2)):
            assert ens is model._flat_ensemble()

    def test_pickle_keeps_one_copy_of_the_nodes(self, autopower2, flow, c8, dhrystone):
        autopower2.compile()
        clone = pickle.loads(pickle.dumps(autopower2))
        forest = clone._program.forest
        for ens, model in zip(forest.segments, _models(clone)):
            assert ens is model._flat_ensemble()
        batch = _anchors(flow, c8, dhrystone, 8)
        assert _same_bits(
            clone.predict_totals(c8, batch, dhrystone),
            autopower2.predict_totals(c8, batch, dhrystone),
        )
        assert len(clone._program._memo) == 1


class TestLifecycle:
    def test_save_load_round_trip(self, autopower2, flow, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        api.save_model(autopower2, first)
        loaded = api.load_model(first)
        api.save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        # The program is derived state: never serialized.
        assert set(autopower2.to_state()) == {
            "train_config_names", "clock", "sram", "logic"
        }
        for k, config in enumerate(BOOM_CONFIGS):
            workload = WORKLOADS[k % len(WORKLOADS)]
            for n in (1, 8, 65):
                batch = _anchors(flow, config, workload, n)
                assert _same_bits(
                    loaded.predict_totals(config, batch, workload),
                    autopower2.predict_totals(config, batch, workload),
                )
                assert _same_bits(
                    _program_groups(loaded, config, batch, workload),
                    _program_groups(autopower2, config, batch, workload),
                )

    def test_refit_rebuilds_the_program(self, flow, c8, dhrystone):
        c = [config_by_name(n) for n in ("C1", "C8", "C15")]
        workloads = list(WORKLOADS[:4])
        model = AutoPower(library=flow.library, gbm_params=_FAST_GBM)
        model.fit(flow, c[:2], workloads, n_jobs=1)
        batch = _anchors(flow, c8, dhrystone, 8)
        model.predict_totals(c8, batch, dhrystone)
        before = model.compile()
        model.fit(flow, c[1:], workloads, n_jobs=1)
        fresh = AutoPower(library=flow.library, gbm_params=_FAST_GBM)
        fresh.fit(flow, c[1:], workloads, n_jobs=1)
        assert _same_bits(
            model.predict_totals(c8, batch, dhrystone),
            fresh.predict_totals(c8, batch, dhrystone),
        )
        assert model.compile() is not before
        assert model.compile().forest.segments[0] is (
            model.clock_model._models["BPTAGE"].f_alpha._flat_ensemble()
        )

    def test_memo_is_keyed_by_content_and_evicts_at_its_bound(
        self, autopower2, flow, c8, dhrystone
    ):
        program = pickle.loads(pickle.dumps(autopower2)).compile()
        batch = _anchors(flow, c8, dhrystone, 1)
        variants = [
            BoomConfig("C8", {**c8.params, "RobEntry": 16 + k})
            for k in range(_MEMO_SIZE + 6)
        ]
        first = program.totals(variants[0], batch, dhrystone)
        for config in variants:
            program.totals(config, batch, dhrystone)
        assert len(program._memo) == _MEMO_SIZE
        assert variants[0].params_key not in program._memo
        assert variants[-1].params_key in program._memo
        # An evicted config is rebuilt to the same answer.
        assert _same_bits(program.totals(variants[0], batch, dhrystone), first)
        assert len(program._memo) == _MEMO_SIZE
        # Same content under another name is a memo hit, not a new entry.
        renamed = BoomConfig("renamed", dict(variants[-1].params))
        program.totals(renamed, batch, dhrystone)
        assert len(program._memo) == _MEMO_SIZE
        assert next(reversed(program._memo)) == renamed.params_key


def _predict_totals_task(payload: dict) -> np.ndarray:
    """One totals call; module-level, so a process pool can pickle it."""
    return payload["model"].predict_totals(
        payload["config"], payload["batch"], payload["workload"]
    )


class TestConcurrency:
    @pytest.fixture(scope="class")
    def payloads(self, autopower2, flow):
        out = []
        for k, config in enumerate(BOOM_CONFIGS):
            workload = WORKLOADS[k % len(WORKLOADS)]
            out.append(
                {
                    "model": autopower2,
                    "config": config,
                    "batch": _anchors(flow, config, workload, 1 + k % 9),
                    "workload": workload,
                }
            )
        return out

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_match_serial(self, payloads, backend):
        # Each process task pickles the whole model, so keep that one small.
        if backend == "process":
            payloads = payloads[::5]
        serial = [_predict_totals_task(p) for p in payloads]
        executor = get_executor(2, backend)
        try:
            got = executor.map(_predict_totals_task, payloads)
        finally:
            executor.close()
        assert executor.fallback_reason is None
        assert all(_same_bits(a, b) for a, b in zip(got, serial))

    def test_threads_racing_on_cold_memo(self, autopower2, payloads):
        model = pickle.loads(pickle.dumps(autopower2))
        serial = [_predict_totals_task(p) for p in payloads]
        model.compile()._memo.clear()
        results: dict[int, list] = {}

        def run(slot: int) -> None:
            results[slot] = [
                model.predict_totals(p["config"], p["batch"], p["workload"])
                for p in payloads[slot:] + payloads[:slot]
            ]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in range(4):
            rotated = serial[slot:] + serial[:slot]
            assert all(_same_bits(a, b) for a, b in zip(results[slot], rotated))
