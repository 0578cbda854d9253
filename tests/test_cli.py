"""Tests for the CLI experiment runner."""

import pytest

import repro.api as api
from repro.cli import EXPERIMENTS, _format_prediction_row, main
from repro.parallel import get_default_jobs


class TestCli:
    def test_listing_returns_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "table4" in out

    def test_listing_includes_methods_and_model_commands(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "autopower" in out
        assert "mcpat-calib" in out
        assert "fit <method>" in out
        assert "predict --model" in out

    def test_unknown_experiment_exits_nonzero_with_message(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert "fig4" in err  # the message lists the valid names

    def test_jobs_flag_parses_and_propagates(self, monkeypatch, capsys):
        seen = {}

        def probe():
            seen["jobs"] = get_default_jobs()

        monkeypatch.setitem(EXPERIMENTS, "probe", (probe, "test probe"))
        assert main(["--jobs", "3", "probe"]) == 0
        assert seen["jobs"] == 3
        # The session default is restored once the run finishes.
        assert get_default_jobs() is None

    def test_jobs_flag_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["--jobs", "two", "fig1"])

    def test_jobs_default_is_unset(self, monkeypatch):
        seen = {}

        def probe():
            seen["jobs"] = get_default_jobs()

        monkeypatch.setitem(EXPERIMENTS, "probe", (probe, "test probe"))
        assert main(["probe"]) == 0
        assert seen["jobs"] is None

    def test_registry_covers_paper_artifacts(self):
        for name in ("fig1", "fig4", "fig6", "fig7", "fig8", "table1", "table4"):
            assert name in EXPERIMENTS

    def test_fig1_runs_end_to_end(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "power-group breakdown" in out
        assert "clock + SRAM share" in out

    def test_table1_runs_end_to_end(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "240" in out
        assert "all shapes exact: True" in out


class TestModelCommands:
    def test_fit_then_predict_round_trip(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["fit", "mcpat-calib", "--out", str(model_path)]) == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "McPAT-Calib" in out

        assert main(
            [
                "predict",
                "--model",
                str(model_path),
                "--config",
                "C8,C9",
                "--workload",
                "dhrystone,qsort",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("C8") == 2  # one row per (config, workload)
        assert out.count("qsort") == 2

    def test_fit_unknown_method_exits_two(self, tmp_path, capsys):
        assert main(["fit", "xgboost", "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'xgboost'" in err
        assert "autopower" in err  # the message lists the registry

    def test_fit_unknown_train_config_exits_two(self, tmp_path, capsys):
        assert main(
            ["fit", "mcpat", "--out", str(tmp_path / "x.json"), "--train", "C99"]
        ) == 2
        assert "C99" in capsys.readouterr().err

    def test_predict_missing_model_exits_two(self, tmp_path, capsys):
        assert main(["predict", "--model", str(tmp_path / "absent.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_predict_report_flag(self, tmp_path, capsys):
        model_path = tmp_path / "ap.json"
        assert main(["fit", "autopower", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(
            ["predict", "--model", str(model_path), "--report"]
        ) == 0
        out = capsys.readouterr().out
        assert "clock" in out
        assert "sram" in out

    def test_predict_report_unsupported_exits_two(self, tmp_path, capsys):
        model_path = tmp_path / "mc.json"
        assert main(["fit", "mcpat", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--report"]) == 2
        assert "reports" in capsys.readouterr().err

    def test_predict_unregistered_model_class_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        # Regression: a loaded model whose class is not registered used to
        # escape as a raw KeyError traceback from api.spec_for.
        class Unregistered:
            pass

        monkeypatch.setattr(api, "load_model", lambda path: Unregistered())
        model_path = tmp_path / "m.json"
        model_path.write_text("{}")
        assert main(["predict", "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert "unregistered" in err
        assert "Unregistered" in err

    def test_prediction_row_prints_dash_for_missing_workload(self):
        # Regression: f"{None:>12s}" used to raise TypeError for
        # workload-free responses.
        response = api.PredictResponse(
            config_name="C8", workload_name=None, kind="total", total=123.456
        )
        row = _format_prediction_row(response)
        assert "C8" in row
        assert "-" in row
        assert "123.46" in row

    def test_serve_missing_model_exits_two(self, tmp_path, capsys):
        assert main(["serve", "--model", str(tmp_path / "absent.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_serve_rejects_bad_batching_knobs(self, tmp_path, capsys):
        model_path = tmp_path / "mc.json"
        assert main(["fit", "mcpat", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--model", str(model_path), "--max-batch-size", "0"]
        ) == 2
        assert "max-batch-size" in capsys.readouterr().err

    def test_serve_rejects_bad_resilience_knobs_before_model_load(
        self, tmp_path, capsys
    ):
        # Knob validation runs before the model file is touched: a bad
        # flag with an absent model reports the flag, not "cannot load".
        absent = str(tmp_path / "absent.json")
        for flags in (
            ["--queue-depth", "-1"],
            ["--default-deadline-ms", "0"],
            ["--drain-timeout", "-0.5"],
        ):
            assert main(["serve", "--model", absent, *flags]) == 2
            err = capsys.readouterr().err
            assert "queue-depth" in err
            assert "cannot load" not in err

    def test_serve_rejects_bad_fleet_knobs_before_model_load(
        self, tmp_path, capsys
    ):
        absent = str(tmp_path / "absent.json")
        for flags, expect in (
            (["--workers", "0"], "--workers"),
            (["--max-models", "0"], "--max-models"),
            (["--rate-limit", "0"], "--rate-limit"),
            (["--rate-limit", "1", "--rate-burst", "0"], "--rate-burst"),
            (["--rate-burst", "2"], "--rate-burst needs --rate-limit"),
        ):
            assert main(["serve", "--model", absent, *flags]) == 2
            err = capsys.readouterr().err
            assert expect in err
            assert "cannot load" not in err

    def test_serve_rejects_bad_supervision_knobs_before_fork(
        self, tmp_path, capsys
    ):
        # Validated before any model load or fork: a bad knob must fail
        # fast with exit 2, not bring up half a pool first.
        absent = str(tmp_path / "absent.json")
        for flags, expect in (
            (["--max-restarts", "-1"], "--max-restarts"),
            (["--restart-backoff-ms", "-5"], "--restart-backoff-ms"),
            (["--startup-timeout", "0"], "--startup-timeout"),
            (["--startup-timeout", "-3"], "--startup-timeout"),
        ):
            assert main(["serve", "--model", absent, *flags]) == 2
            err = capsys.readouterr().err
            assert expect in err
            assert "cannot load" not in err

    def test_serve_rejects_empty_auth_sources(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(
            ["serve", "--model", absent, "--auth-token-env",
             "REPRO_NO_SUCH_TOKEN_VAR"]
        ) == 2
        assert "unset or empty" in capsys.readouterr().err
        empty = tmp_path / "tokens.txt"
        empty.write_text("# comments only\n")
        assert main(
            ["serve", "--model", absent, "--auth-token-file", str(empty)]
        ) == 2
        assert "no tokens" in capsys.readouterr().err

    def test_serve_rejects_bad_model_specs(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(
            ["serve", "--model", f"a={absent}", "--model", f"a={absent}"]
        ) == 2
        assert "duplicate model name" in capsys.readouterr().err
        assert main(["serve", "--model", f"bad/name={absent}"]) == 2
        assert "model names" in capsys.readouterr().err
        assert main(
            ["serve", "--model", f"a={absent}", "--default-model", "b"]
        ) == 2
        assert "--default-model" in capsys.readouterr().err

    def test_listing_includes_serve_command(self, capsys):
        assert main([]) == 0
        assert "serve --model" in capsys.readouterr().out


class TestCacheCommand:
    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "flow-cache"
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", str(root))
        return root

    def test_path_prints_the_root(self, cache_dir, capsys):
        assert main(["cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == str(cache_dir)

    def test_stats_on_an_empty_store(self, cache_dir, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:  0" in out
        assert "enabled:  yes" in out

    def test_stats_reports_the_disable_flag(self, cache_dir, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_NO_FLOW_CACHE", "1")
        assert main(["cache", "stats"]) == 0
        assert "REPRO_NO_FLOW_CACHE" in capsys.readouterr().out

    def test_clear_empties_a_populated_store(self, cache_dir, capsys):
        from repro.dse.cache import FlowDiskCache, content_key

        store = FlowDiskCache(str(cache_dir))
        store.put(content_key("a"), "x")
        store.put(content_key("b"), "y")
        assert main(["cache", "stats"]) == 0
        assert "entries:  2" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_unknown_action_exits_nonzero(self, cache_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "shrink"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_listing_includes_cache_command(self, capsys):
        assert main([]) == 0
        assert "cache {stats|path|clear}" in capsys.readouterr().out


class TestLintCommand:
    @pytest.fixture()
    def dirty_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "ml" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nstamp = time.time()\n")
        return tmp_path / "src"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "src" / "repro" / "ml" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n")
        assert main(["lint", str(tmp_path / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "bad.py:2" in out

    def test_json_format(self, dirty_tree, capsys):
        import json

        assert main(["lint", "--format", "json", str(dirty_tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"DET002": 1}

    def test_github_format(self, dirty_tree, capsys):
        assert main(["lint", "--format", "github", str(dirty_tree)]) == 1
        assert capsys.readouterr().out.startswith("::error file=")

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "ASYNC001", "LOCK001", "ENV001", "LAYER001"):
            assert rule_id in out

    def test_bad_format_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "xml"])
        assert excinfo.value.code == 2

    def test_repo_src_is_clean_through_the_cli(self, capsys):
        # The acceptance criterion: `python -m repro lint src` on this
        # repo exits 0 (run from the repo root, as CI does).
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        assert main(["lint", str(root / "src")]) == 0


class TestEnvCommand:
    def test_plain_table_lists_every_knob(self, capsys):
        assert main(["env"]) == 0
        out = capsys.readouterr().out
        for name in (
            "REPRO_JOBS",
            "REPRO_NO_KERNEL",
            "REPRO_NO_FLOW_CACHE",
            "REPRO_FLOW_CACHE_DIR",
            "REPRO_FLOW_CACHE_MAX_MB",
            "REPRO_CHAOS_DIR",
            "REPRO_BENCH_JSON",
        ):
            assert name in out

    def test_markdown_table(self, capsys):
        assert main(["env", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| Variable ")
        assert "`REPRO_JOBS`" in out

    def test_listing_includes_tooling_commands(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "lint [--format" in out
        assert "env [--markdown]" in out
