"""Tests for model serialization (repro.ml.serialize, repro.api persistence)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
import repro.ml._kernel as kernel_mod
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
from repro.serving import wire

DATA = Path(__file__).parent / "data"
V2_METHODS = ("autopower", "autopower-minus", "mcpat-calib", "mcpat-calib-component")

# sha256 of saved models, pinned so any change to the saved bytes is a
# deliberate, reviewed format change.
AUTOPOWER2_SHA256 = "e294a3cec0f70c6f88ada8350854bcbeb1b0a26d183a28a415ba7756cb1d47a8"
SEEDED_GBM_SHA256 = "c9d3db85a8f8755cd03372a31585d55bba1d241c0916b3061b8bcb0f7eb59b9f"
# sha256 of ``json.dumps(model.to_state())`` for the learned baselines
# fitted on the 2-config split.
BASELINE2_STATE_SHA256 = {
    "autopower-minus": "d614c1c6fa2332d0f840dbd73fd9bd7ae485aa9be268e9666d597ab4e033bcaa",
    "mcpat-calib": "5dd3cbb1ef9b7a67221313e19b56be16e940acb5792db592af02c4890b9e9212",
    "mcpat-calib-component": (
        "b5e33b59a99b23bab6c6dbb4b502eb397a539f42b54ede2d342ce1432974540f"
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


class TestV2Files:
    """Models the last format-v2 release saved (``tests/data/v2_models.json``,
    written by ``tests/data/make_v2_models.py``: each learned method's
    envelope and its ``predict_total`` on held-out requests) load, predict
    bit for bit with and without the compiled kernel, and re-save as v3."""

    @pytest.fixture(scope="class")
    def saved(self):
        return json.loads((DATA / "v2_models.json").read_text())

    def _check(self, saved, name, monkeypatch=None):
        entry = saved["models"][name]
        assert entry["envelope"]["format_version"] == 2
        if monkeypatch is not None:
            monkeypatch.setattr(kernel_mod, "_kernel", None)
            monkeypatch.setattr(kernel_mod, "_kernel_tried", True)
        model = api.model_from_envelope(json.loads(json.dumps(entry["envelope"])))
        requests = [wire.decode_request(obj) for obj in saved["requests"]]
        got = [model.predict_total(r.config, r.events, r.workload) for r in requests]
        assert got == entry["predict_total"]
        return model, requests

    @pytest.mark.parametrize("name", V2_METHODS)
    def test_loads_and_predicts_the_same(self, saved, name):
        self._check(saved, name)

    @pytest.mark.parametrize("name", V2_METHODS)
    def test_predicts_the_same_without_kernel(self, saved, name, monkeypatch):
        self._check(saved, name, monkeypatch)

    @pytest.mark.parametrize("name", V2_METHODS)
    def test_resaves_as_v3(self, saved, name):
        model, requests = self._check(saved, name)
        text = json.dumps(api.model_to_envelope(model))
        assert '"trees"' not in text and '"random_state"' not in text
        envelope = json.loads(text)
        assert envelope["format_version"] == 3
        clone = api.model_from_envelope(envelope)
        got = [clone.predict_total(r.config, r.events, r.workload) for r in requests]
        assert got == saved["models"][name]["predict_total"]
        assert json.dumps(api.model_to_envelope(clone)) == text


# -- format-v3 tampers, on one saved gbm state ---------------------------------
def _split_root(gbm) -> int:
    return next(r for r in gbm["roots"] if gbm["feature"][r] >= 0)


def _tamper_bad_column(gbm):
    # A node's feature is the model column it reads.
    gbm["feature"][_split_root(gbm)] = gbm["n_features"]


def _tamper_feature_below_leaf(gbm):
    gbm["feature"][_split_root(gbm)] = -2


def _tamper_child_out_of_range(gbm):
    gbm["left"][_split_root(gbm)] = len(gbm["left"]) + 5


def _tamper_child_before_parent(gbm):
    gbm["right"][_split_root(gbm)] = 0


def _tamper_shared_child(gbm):
    root = _split_root(gbm)
    gbm["right"][root] = gbm["left"][root]


def _tamper_mismatched_lengths(gbm):
    gbm["threshold"].pop()


def _tamper_roots_not_increasing(gbm):
    gbm["roots"][1] = gbm["roots"][0]


def _tamper_root_out_of_range(gbm):
    gbm["roots"][-1] = len(gbm["feature"])


def _tamper_first_root_not_zero(gbm):
    gbm["roots"][0] = 1


def _tamper_no_trees(gbm):
    gbm["roots"] = []


def _tamper_wrong_type(gbm):
    gbm["feature"] = [float(f) for f in gbm["feature"]]


def _tamper_not_a_list(gbm):
    gbm["value"] = {"0": 1.0}


# -- the same tampers on a format-v2 gbm state's per-tree entries ---------------
def _v2_split_tree(trees) -> dict:
    return next(e for e in trees if e["tree"]["nodes"]["feature"][0] >= 0)


def _v2_tamper_bad_column(trees):
    trees[0]["columns"] = [4000] * len(trees[0]["columns"])


def _v2_tamper_bad_feature(trees):
    entry = _v2_split_tree(trees)
    entry["tree"]["nodes"]["feature"][0] = len(entry["columns"])


def _v2_tamper_child_out_of_range(trees):
    nodes = _v2_split_tree(trees)["tree"]["nodes"]
    nodes["left"][0] = len(nodes["left"]) + 5


def _v2_tamper_child_before_parent(trees):
    _v2_split_tree(trees)["tree"]["nodes"]["right"][0] = 0


def _v2_tamper_shared_child(trees):
    nodes = _v2_split_tree(trees)["tree"]["nodes"]
    nodes["right"][0] = nodes["left"][0]


def _v2_tamper_mismatched_lengths(trees):
    trees[0]["tree"]["nodes"]["threshold"].pop()


def _v2_tamper_empty_tree(trees):
    trees[0]["tree"]["nodes"] = {key: [] for key in trees[0]["tree"]["nodes"]}


def _v2_tamper_no_trees(trees):
    trees.clear()


def _v2_tamper_wrong_type(trees):
    trees[0]["columns"] = "0123"


class TestTamperedFiles:
    """A saved GBM is validated on load, before any descent walks it; a
    format-v2 GBM goes through the legacy converter into the same checks."""

    @pytest.fixture(scope="class")
    def v3_envelope(self, flow, train_configs, workloads):
        model = api.fit(
            "mcpat-calib", flow=flow, train_configs=train_configs, workloads=workloads
        )
        return api.model_to_envelope(model)

    @pytest.fixture(scope="class")
    def v2_envelope(self):
        saved = json.loads((DATA / "v2_models.json").read_text())
        return saved["models"]["mcpat-calib"]["envelope"]

    def _rejects(self, envelope, tamper, path):
        state = json.loads(json.dumps(envelope))
        tamper(state["state"]["model"])
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError):
            api.load_model(path)

    @pytest.mark.parametrize(
        "tamper",
        [
            _tamper_bad_column,
            _tamper_feature_below_leaf,
            _tamper_child_out_of_range,
            _tamper_child_before_parent,
            _tamper_shared_child,
            _tamper_mismatched_lengths,
            _tamper_roots_not_increasing,
            _tamper_root_out_of_range,
            _tamper_first_root_not_zero,
            _tamper_no_trees,
            _tamper_wrong_type,
            _tamper_not_a_list,
        ],
    )
    def test_load_rejects(self, v3_envelope, tamper, tmp_path):
        self._rejects(v3_envelope, tamper, tmp_path / "tampered.json")

    @pytest.mark.parametrize(
        "tamper",
        [
            _v2_tamper_bad_column,
            _v2_tamper_bad_feature,
            _v2_tamper_child_out_of_range,
            _v2_tamper_child_before_parent,
            _v2_tamper_shared_child,
            _v2_tamper_mismatched_lengths,
            _v2_tamper_empty_tree,
            _v2_tamper_no_trees,
            _v2_tamper_wrong_type,
        ],
    )
    def test_v2_load_rejects(self, v2_envelope, tamper, tmp_path):
        self._rejects(v2_envelope, lambda gbm: tamper(gbm["trees"]), tmp_path / "t.json")

    def _loads(self, envelope, path):
        path.write_text(json.dumps(envelope))
        assert api.load_model(path) is not None

    def test_untampered_loads(self, v3_envelope, tmp_path):
        self._loads(v3_envelope, tmp_path / "model.json")

    def test_v2_untampered_loads(self, v2_envelope, tmp_path):
        self._loads(v2_envelope, tmp_path / "model.json")
