"""Tests for the central REPRO_* environment-variable registry."""

import os

import pytest

from repro import env


class TestRegistry:
    def test_every_knob_is_declared_with_doc(self):
        assert set(env.REGISTRY) == {
            "REPRO_JOBS",
            "REPRO_NO_FLOW_CACHE",
            "REPRO_FLOW_CACHE_DIR",
            "REPRO_FLOW_CACHE_MAX_MB",
            "REPRO_BENCH_JSON",
        }
        for var in env.REGISTRY.values():
            assert var.doc.strip(), f"{var.name} has no docstring"

    def test_unknown_name_is_a_programming_error(self):
        with pytest.raises(KeyError):
            env.get_str("REPRO_NOT_DECLARED")

    def test_reads_are_live_for_monkeypatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert env.get_str("REPRO_JOBS") == "4"
        monkeypatch.delenv("REPRO_JOBS")
        assert env.get_str("REPRO_JOBS") is None

    def test_blank_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert env.get_str("REPRO_JOBS") is None
        assert not env.is_set("REPRO_JOBS")


class TestTypedAccessors:
    def test_bool_truthy_spellings(self, monkeypatch):
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv("REPRO_NO_FLOW_CACHE", value)
            assert env.get_bool("REPRO_NO_FLOW_CACHE") is True
        for value in ("0", "false", "no", "off"):
            monkeypatch.setenv("REPRO_NO_FLOW_CACHE", value)
            assert env.get_bool("REPRO_NO_FLOW_CACHE") is False
        monkeypatch.delenv("REPRO_NO_FLOW_CACHE")
        assert env.get_bool("REPRO_NO_FLOW_CACHE") is False

    def test_float_with_default_and_malformed(self, monkeypatch):
        assert env.get_float("REPRO_FLOW_CACHE_MAX_MB") == 512.0
        monkeypatch.setenv("REPRO_FLOW_CACHE_MAX_MB", "64")
        assert env.get_float("REPRO_FLOW_CACHE_MAX_MB") == 64.0
        monkeypatch.setenv("REPRO_FLOW_CACHE_MAX_MB", "lots")
        assert env.get_float("REPRO_FLOW_CACHE_MAX_MB") == 512.0

    def test_path_is_absolute_and_user_expanded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", str(tmp_path / "c"))
        assert env.get_path("REPRO_FLOW_CACHE_DIR") == str(tmp_path / "c")
        monkeypatch.setenv("REPRO_FLOW_CACHE_DIR", "~/cache")
        resolved = env.get_path("REPRO_FLOW_CACHE_DIR")
        assert os.path.isabs(resolved)
        assert "~" not in resolved

    def test_explicit_environ_mapping_wins(self):
        value = env.get_path(
            "REPRO_BENCH_JSON", environ={"REPRO_BENCH_JSON": "/tmp/bench.json"}
        )
        assert value == "/tmp/bench.json"
        assert env.get_path("REPRO_BENCH_JSON", environ={}) is None


class TestTables:
    def test_markdown_table_has_one_row_per_knob(self):
        table = env.markdown_table()
        lines = table.strip().splitlines()
        assert lines[0].startswith("| Variable ")
        assert len(lines) == 2 + len(env.REGISTRY)  # header + rule + rows

    def test_plain_table_mentions_defaults(self):
        text = env.plain_table()
        assert "512.0" in text
        assert "REPRO_NO_FLOW_CACHE" in text
