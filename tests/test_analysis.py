"""Tests for the project-invariant static analysis (repro.analysis).

Each rule gets a positive fixture (a snippet that must be flagged), a
negative fixture (the compliant idiom, which must stay clean), and a
suppression fixture.  Snippets are written under a temp dir shaped like
the real tree (``<tmp>/src/repro/<package>/mod.py``) so the module
inference — and with it the per-layer rule scoping — is exercised for
real.  The suite ends with the self-check: the repo's own ``src/`` tree
must lint clean.
"""

import pathlib

from repro.analysis import (
    PARSE_RULE_ID,
    RULES,
    SUPPRESSION_RULE_ID,
    format_findings,
    lint_file,
    lint_paths,
    module_for_path,
    rule_table,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``<tmp>/<relpath>`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(str(path))


def rule_ids(findings):
    return [f.rule for f in findings]


class TestEngine:
    def test_module_inference_from_fixture_paths(self, tmp_path):
        assert module_for_path("src/repro/ml/gbm.py") == "repro.ml.gbm"
        assert module_for_path("src/repro/__init__.py") == "repro"
        assert (
            module_for_path(str(tmp_path / "src/repro/core/x.py"))
            == "repro.core.x"
        )
        assert module_for_path("scripts/smoke_serve.py") is None

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        findings = lint_snippet(tmp_path, "src/repro/ml/bad.py", "def f(:\n")
        assert rule_ids(findings) == [PARSE_RULE_ID]

    def test_suppression_drops_the_finding(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/s.py",
            "import numpy as np\n"
            "rng = np.random.default_rng()"
            "  # repro: noqa[DET001] -- test fixture\n",
        )
        assert findings == []

    def test_unused_suppression_is_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/u.py",
            "x = 1  # repro: noqa[DET001] -- nothing here triggers DET001\n",
        )
        assert rule_ids(findings) == [SUPPRESSION_RULE_ID]
        assert "unused suppression" in findings[0].message

    def test_unknown_rule_id_in_noqa_is_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/ml/t.py", "x = 1  # repro: noqa[DET999]\n"
        )
        assert rule_ids(findings) == [SUPPRESSION_RULE_ID]
        assert "unknown rule id" in findings[0].message

    def test_suppression_on_wrong_line_does_not_apply(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/w.py",
            "# repro: noqa[DET001] -- wrong line: the read is below\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n",
        )
        assert sorted(rule_ids(findings)) == ["DET001", SUPPRESSION_RULE_ID]

    def test_lint_paths_walks_and_sorts(self, tmp_path):
        (tmp_path / "src/repro/ml").mkdir(parents=True)
        (tmp_path / "src/repro/ml/a.py").write_text("import time\ntime.time()\n")
        (tmp_path / "src/repro/ml/b.py").write_text("x = 1\n")
        findings = lint_paths([str(tmp_path / "src")])
        assert rule_ids(findings) == ["DET002"]

    def test_rule_table_lists_every_rule(self):
        table = rule_table()
        for rule_id in (*RULES, PARSE_RULE_ID, SUPPRESSION_RULE_ID):
            assert rule_id in table


class TestDeterminismRules:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/r.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert rule_ids(findings) == ["DET001"]

    def test_seeded_default_rng_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/r.py",
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "rng2 = np.random.default_rng(seed=7)\n",
        )
        assert findings == []

    def test_global_rng_state_flagged_even_with_args(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/core/g.py",
            "import numpy as np\nnoise = np.random.rand(3)\n",
        )
        assert rule_ids(findings) == ["DET001"]

    def test_random_module_and_aliased_import_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/baselines/a.py",
            "import random\n"
            "from numpy.random import default_rng as mk\n"
            "r = random.Random()\n"
            "g = mk()\n",
        )
        assert rule_ids(findings) == ["DET001", "DET001"]

    def test_wall_clock_flagged_monotonic_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/core/t.py",
            "import time\n"
            "stamp = time.time()\n"
            "start = time.monotonic()\n"
            "lap = time.perf_counter()\n",
        )
        assert rule_ids(findings) == ["DET002"]
        assert findings[0].line == 2

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/dse/cache.py",
            "from datetime import datetime\nwhen = datetime.now()\n",
        )
        assert rule_ids(findings) == ["DET002"]

    def test_set_into_ordered_product_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/s.py",
            "names = list({'a', 'b'})\n"
            "for n in set(names):\n"
            "    pass\n"
            "pairs = [x for x in frozenset(names)]\n",
        )
        assert rule_ids(findings) == ["DET003", "DET003", "DET003"]

    def test_sorted_set_is_the_blessed_idiom(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/s.py",
            "names = sorted({'a', 'b'})\n"
            "for n in sorted(set(names)):\n"
            "    pass\n"
            "members = {'x', 'y'}\n"
            "ok = 'x' in members\n",
        )
        assert findings == []

    def test_set_assigned_alias_is_tracked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/al.py",
            "seen = set()\nitems = list(seen)\n",
        )
        assert rule_ids(findings) == ["DET003"]

    def test_flow_stages_are_in_scope(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/sim/p.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert rule_ids(findings) == ["DET001"]

    def test_scope_excludes_serving_and_scripts(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        assert lint_snippet(tmp_path, "src/repro/serving/t.py", source) == []
        assert lint_snippet(tmp_path, "scripts/t.py", source) == []


class TestAsyncRules:
    def test_blocking_call_in_async_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/g.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n",
        )
        assert rule_ids(findings) == ["ASYNC001"]
        assert "handler" in findings[0].message

    def test_nested_sync_def_is_the_executor_idiom(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/g.py",
            "import asyncio, time\n"
            "async def handler():\n"
            "    def work():\n"
            "        time.sleep(1)\n"
            "        return open('x').read()\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, work)\n",
        )
        assert findings == []

    def test_open_in_async_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/g.py",
            "async def handler():\n"
            "    with open('model.json') as fh:\n"
            "        return fh.read()\n",
        )
        assert rule_ids(findings) == ["ASYNC001"]

    def test_direct_model_call_in_async_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/b.py",
            "async def flush(self, batch):\n"
            "    return self.service.submit_many(batch)\n",
        )
        assert rule_ids(findings) == ["ASYNC002"]

    def test_partial_reference_into_executor_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/b.py",
            "from functools import partial\n"
            "async def flush(self, loop, batch):\n"
            "    fn = partial(self.service.submit_many, batch)\n"
            "    return await loop.run_in_executor(None, fn)\n",
        )
        assert findings == []

    def test_blocking_in_sync_code_is_fine(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/w.py",
            "import time\n"
            "def worker_loop():\n"
            "    time.sleep(0.01)\n",
        )
        assert findings == []

    def test_scope_is_serving_only(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/dse/j.py",
            "import time\n"
            "async def poll():\n"
            "    time.sleep(1)\n",
        )
        assert findings == []


LOCKED_CLASS = """\
import threading

class Service:
    def __init__(self):
        self.count = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    def {name}(self):
{body}
"""


class TestLockRules:
    def test_mutation_outside_lock_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/s.py",
            LOCKED_CLASS.format(name="bump", body="        self.count += 1\n"),
        )
        assert rule_ids(findings) == ["LOCK001"]
        assert "_lock" in findings[0].message

    def test_mutation_under_lock_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/s.py",
            LOCKED_CLASS.format(
                name="bump",
                body="        with self._lock:\n            self.count += 1\n",
            ),
        )
        assert findings == []

    def test_locked_suffix_method_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/s.py",
            LOCKED_CLASS.format(
                name="bump_locked", body="        self.count += 1\n"
            ),
        )
        assert findings == []

    def test_field_of_guarded_attribute_is_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/s.py",
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.stats = object()  # guarded-by: _lock\n"
            "        self._lock = threading.Lock()\n"
            "    def record(self):\n"
            "        self.stats.requests += 1\n",
        )
        assert rule_ids(findings) == ["LOCK001"]

    def test_loop_sentinel_requires_async(self, tmp_path):
        source = (
            "class B:\n"
            "    def __init__(self):\n"
            "        self.flushes = 0  # guarded-by: loop\n"
            "    {kind} bump(self):\n"
            "        self.flushes += 1\n"
        )
        assert rule_ids(
            lint_snippet(
                tmp_path, "src/repro/serving/b.py", source.format(kind="def")
            )
        ) == ["LOCK001"]
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/serving/b2.py",
                source.format(kind="async def"),
            )
            == []
        )

    def test_dangling_annotation_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/d.py",
            "class S:\n"
            "    # guarded-by: _lock\n"
            "    def method(self):\n"
            "        pass\n",
        )
        assert rule_ids(findings) == ["LOCK002"]

    def test_init_and_setstate_are_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/p.py",
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.n = 0  # guarded-by: _lock\n"
            "        self._lock = threading.Lock()\n"
            "    def __setstate__(self, state):\n"
            "        self.n = 0\n"
            "        self._lock = threading.Lock()\n",
        )
        assert findings == []


class TestEnvRules:
    def test_literal_repro_read_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/k.py",
            "import os\n"
            "a = os.environ.get('REPRO_NO_KERNEL')\n"
            "b = os.getenv('REPRO_JOBS')\n"
            "c = os.environ['REPRO_FLOW_CACHE_DIR']\n",
        )
        assert rule_ids(findings) == ["ENV001", "ENV001", "ENV001"]

    def test_non_repro_literals_are_third_party_contracts(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/k.py",
            "import os\n"
            "cc = os.environ.get('CC', 'cc')\n"
            "xdg = os.getenv('XDG_CACHE_HOME')\n",
        )
        assert findings == []

    def test_dynamic_key_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/a.py",
            "import os\n"
            "def read(name):\n"
            "    return os.environ.get(name, '')\n",
        )
        assert rule_ids(findings) == ["ENV002"]

    def test_registry_module_itself_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/env.py",
            "import os\nvalue = os.environ.get('REPRO_JOBS')\n",
        )
        assert findings == []

    def test_environ_writes_are_not_reads(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/w.py",
            "import os\nos.environ['REPRO_NO_KERNEL'] = '1'\n",
        )
        assert findings == []


class TestLayerRule:
    def test_upward_import_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/m.py",
            "from repro.serving.gateway import Gateway\n",
        )
        assert rule_ids(findings) == ["LAYER001"]
        assert "layer" in findings[0].message

    def test_downward_and_lateral_imports_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/serving/g.py",
            "import repro.api as api\n"
            "from repro.ml import gbm\n"
            "from repro.serving.batcher import MicroBatcher\n",
        )
        assert findings == []

    def test_module_overrides_sit_below_their_package(self, tmp_path):
        # dse.cache is layer 1 storage: importable from vlsi (layer 3)...
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/vlsi/f.py",
                "from repro.dse.cache import FlowDiskCache\n",
            )
            == []
        )
        # ...while the rest of dse (layer 5) stays off-limits.
        findings = lint_snippet(
            tmp_path,
            "src/repro/vlsi/f.py",
            "from repro.dse.jobs import DseJobManager\n",
        )
        assert rule_ids(findings) == ["LAYER001"]

    def test_root_package_import_is_upward_from_core(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/core/c.py", "import repro\n"
        )
        assert rule_ids(findings) == ["LAYER001"]

    def test_stdlib_and_third_party_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ml/m.py",
            "import os\nimport numpy as np\nfrom collections import Counter\n",
        )
        assert findings == []


class TestFormats:
    def _one_finding(self, tmp_path):
        return lint_snippet(
            tmp_path,
            "src/repro/ml/f.py",
            "import time\nstamp = time.time()\n",
        )

    def test_text_format(self, tmp_path):
        text = format_findings(self._one_finding(tmp_path), "text")
        assert "DET002" in text
        assert "1 finding (DET002 x1)" in text

    def test_json_format_is_machine_readable(self, tmp_path):
        import json

        payload = json.loads(
            format_findings(self._one_finding(tmp_path), "json")
        )
        assert payload["count"] == 1
        assert payload["counts_by_rule"] == {"DET002": 1}
        assert payload["findings"][0]["rule"] == "DET002"
        assert payload["findings"][0]["line"] == 2

    def test_github_format_emits_workflow_commands(self, tmp_path):
        out = format_findings(self._one_finding(tmp_path), "github")
        assert out.startswith("::error file=")
        assert "title=DET002" in out

    def test_empty_run_says_clean(self):
        assert "clean" in format_findings([], "text")
        assert format_findings([], "github") == ""


class TestSelfClean:
    def test_repo_source_tree_is_lint_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], format_findings(findings, "text")

    def test_scripts_and_benchmarks_are_lint_clean(self):
        findings = lint_paths(
            [str(REPO_ROOT / "scripts"), str(REPO_ROOT / "benchmarks")]
        )
        assert findings == [], format_findings(findings, "text")
