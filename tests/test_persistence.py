"""Tests for model serialization (repro.ml.serialize, repro.api persistence)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.core.autopower import AutoPower
from repro.library.stdcell import TechLibrary
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.serialize import (
    gbm_from_dict,
    gbm_to_dict,
    ridge_from_dict,
    ridge_to_dict,
)

DATA = Path(__file__).parent / "data"

# sha256 of saved models, pinned so any change to the saved bytes is a
# deliberate, reviewed format change.
AUTOPOWER2_SHA256 = "d9150ce48d9cc77dde6425b67f4acdc560ac7482c170d7f12e313fc6168ea1e0"
SEEDED_GBM_SHA256 = "3bddb515f1b016a48283a79339de03b334ed7f394ed5176a0a48c22d1e1d8ad9"
# sha256 of ``json.dumps(model.to_state())`` for the learned baselines
# fitted on the 2-config split.
BASELINE2_STATE_SHA256 = {
    "autopower-minus": "d88af7d6b5dd2c2eb0ef2994f29237139fff795919596a9f2b4f563749b131c3",
    "mcpat-calib": "51416cfe6ade564dd5ce27835aea9f819beefbf11e265972abec395dbafb9e4c",
    "mcpat-calib-component": (
        "ce58b0aaae0cbc5c819c528732b30957ac26356a8edce0ffa31fd78955f70991"
    ),
}


def _data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    y = 3.0 * X[:, 0] - X[:, 1] ** 2 + 0.5 * X[:, 2]
    return X, y


class TestRidgeRoundTrip:
    def test_predictions_identical(self):
        X, y = _data()
        model = RidgeRegression(alpha=0.1, nonnegative=True).fit(X, y)
        clone = ridge_from_dict(ridge_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            ridge_to_dict(RidgeRegression())

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            ridge_from_dict({"kind": "tree"})


class TestGbmRoundTrip:
    def test_predictions_identical(self):
        X, y = _data()
        model = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            gbm_to_dict(GradientBoostingRegressor())

    def test_json_serializable(self):
        X, y = _data(n=20)
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        text = json.dumps(gbm_to_dict(model))
        clone = gbm_from_dict(json.loads(text))
        assert np.allclose(model.predict(X), clone.predict(X))


class TestAutoPowerRoundTrip:
    def test_save_load_identical_predictions(self, autopower2, flow, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        clone = api.load_model(path)

        for cname in ("C5", "C9"):
            config = config_by_name(cname)
            for wname in ("dhrystone", "spmv"):
                w = workload_by_name(wname)
                events = flow.run(config, w).events
                assert clone.predict_total(config, events, w) == pytest.approx(
                    autopower2.predict_total(config, events, w)
                )

    def test_metadata_preserved(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        clone = api.load_model(path)
        assert clone.train_config_names == autopower2.train_config_names
        assert clone.sram_model.c_constant_mw == pytest.approx(
            autopower2.sram_model.c_constant_mw
        )

    def test_unfitted_save_rejected(self, flow, tmp_path):
        with pytest.raises(ValueError):
            api.save_model(AutoPower(library=flow.library), tmp_path / "x.json")

    def test_library_mismatch_rejected(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        other = TechLibrary(name="synth28")
        with pytest.raises(ValueError, match="library"):
            api.load_model(path, library=other)

    def test_bad_version_rejected(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        state = json.loads(path.read_text())
        state["format_version"] = 99
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="version"):
            api.load_model(path)


def _seeded_gbm():
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.0, 4.0, size=(24, 6))
    y = 3.0 * X[:, 0] - X[:, 1] * X[:, 2] + rng.uniform(-0.5, 0.5, size=24)
    return GradientBoostingRegressor(
        n_estimators=40, learning_rate=0.1, max_depth=3, reg_lambda=0.5
    ).fit(X, y)


class TestSavedBytes:
    """Saved models keep their exact bytes, and loading then saving again
    writes the same bytes."""

    def test_autopower_file_bytes_pinned(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        saved = path.read_bytes()
        assert hashlib.sha256(saved).hexdigest() == AUTOPOWER2_SHA256
        again = tmp_path / "again.json"
        api.save_model(api.load_model(path), again)
        assert again.read_bytes() == saved

    def test_gbm_state_bytes_pinned(self):
        text = json.dumps(gbm_to_dict(_seeded_gbm()))
        assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_GBM_SHA256
        assert json.dumps(gbm_to_dict(gbm_from_dict(json.loads(text)))) == text

    @pytest.mark.parametrize("name", sorted(BASELINE2_STATE_SHA256))
    def test_baseline_state_bytes_pinned(self, baselines2, name):
        text = json.dumps(baselines2[name].to_state())
        assert hashlib.sha256(text.encode()).hexdigest() == BASELINE2_STATE_SHA256[name]
        clone = api.get_method(name).cls.from_state(json.loads(text))
        assert json.dumps(clone.to_state()) == text


class TestLegacyFiles:
    """GBMs an earlier release saved with column/row subsampling or
    histogram split search (``tests/data/legacy_gbm.json``: the states and
    their predictions, written by that release) load and predict the
    same."""

    @pytest.mark.parametrize("kind", ["colsample", "hist"])
    def test_loads_and_predicts_the_same(self, kind):
        legacy = json.loads((DATA / "legacy_gbm.json").read_text())
        model = gbm_from_dict(legacy[kind]["model"])
        got = model.predict(np.array(legacy["X"])).tolist()
        assert got == legacy[kind]["predict"]


def _tamper_bad_column(trees):
    trees[0]["columns"] = [4000] * len(trees[0]["columns"])


def _split_root(trees) -> dict:
    return next(
        e["tree"]["nodes"] for e in trees if e["tree"]["nodes"]["feature"][0] >= 0
    )


def _tamper_child_out_of_range(trees):
    nodes = _split_root(trees)
    nodes["left"][0] = len(nodes["left"]) + 5


def _tamper_child_before_parent(trees):
    _split_root(trees)["right"][0] = 0


def _tamper_shared_child(trees):
    nodes = _split_root(trees)
    nodes["right"][0] = nodes["left"][0]


def _tamper_mismatched_lengths(trees):
    trees[0]["tree"]["nodes"]["threshold"].pop()


class TestTamperedFiles:
    """A saved GBM is validated on load, before any descent walks it."""

    @pytest.fixture(scope="class")
    def envelope(self, flow, train_configs, workloads):
        model = api.fit(
            "mcpat-calib", flow=flow, train_configs=train_configs, workloads=workloads
        )
        return api.model_to_envelope(model)

    @pytest.mark.parametrize(
        "tamper",
        [
            _tamper_bad_column,
            _tamper_child_out_of_range,
            _tamper_child_before_parent,
            _tamper_shared_child,
            _tamper_mismatched_lengths,
        ],
    )
    def test_load_rejects(self, envelope, tamper, tmp_path):
        state = json.loads(json.dumps(envelope))
        tamper(state["state"]["model"]["trees"])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError):
            api.load_model(path)

    def test_untampered_loads(self, envelope, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(envelope))
        assert api.load_model(path) is not None
