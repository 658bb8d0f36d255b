"""The interprocedural passes end-to-end: corpus detection, precision
exclusions, suppression accounting, diff/baseline report shaping."""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import analyze_paths
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.dataflow import analyze_project
from repro.analysis.driver import (
    baseline_key,
    changed_files,
    load_baseline,
    write_baseline,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CODE = os.path.join(FIXTURES, "code")

sys.path.insert(0, FIXTURES)
from regen import CODE_CORPUS_SEEDED  # noqa: E402

sys.path.pop(0)


def interproc(*mods: tuple[str, str]):
    items = [(path, src, ast.parse(src)) for path, src in mods]
    index = ProjectIndex.build(items)
    return analyze_project(index, CallGraph.build(index))


class TestSeededCorpus:
    def test_every_seeded_defect_is_detected(self):
        report = analyze_paths([CODE])
        by_file: dict[str, dict[str, int]] = {}
        for f in report.findings:
            rel = os.path.relpath(f.file, FIXTURES).replace(os.sep, "/")
            by_file.setdefault(rel, {}).setdefault(f.rule, 0)
            by_file[rel][f.rule] += 1
        for name, (rule, count) in CODE_CORPUS_SEEDED.items():
            assert by_file.get(name, {}).get(rule, 0) == count, name

    def test_good_twins_are_finding_free(self):
        report = analyze_paths([CODE])
        offenders = {
            os.path.basename(f.file)
            for f in report.findings
            if os.path.basename(f.file).startswith("good_")
        }
        assert offenders == set()

    def test_bad_files_carry_only_their_seeded_rule(self):
        report = analyze_paths([CODE])
        for f in report.findings:
            rel = os.path.relpath(f.file, FIXTURES).replace(os.sep, "/")
            assert rel in CODE_CORPUS_SEEDED
            assert f.rule == CODE_CORPUS_SEEDED[rel][0]


class TestRPR009:
    def test_finding_renders_the_call_chain(self):
        res = interproc(
            (
                "svc.py",
                "import time\n"
                "def _flush():\n    time.sleep(1)\n"
                "def _save():\n    _flush()\n"
                "async def handle():\n    _save()\n",
            )
        )
        (f,) = [x for x in res.findings if x.rule == "RPR009"]
        assert "_save" in f.message and "_flush" in f.message

    def test_awaited_async_callee_does_not_propagate(self):
        res = interproc(
            (
                "ok.py",
                "import asyncio, time\n"
                "def _flush():\n    time.sleep(1)\n"
                "async def _save():\n"
                "    await asyncio.to_thread(_flush)\n"
                "async def handle():\n    await _save()\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR009"] == []

    def test_spawn_edges_do_not_propagate_blocking(self):
        res = interproc(
            (
                "sp.py",
                "import time\n"
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def _work():\n    time.sleep(1)\n"
                "async def handle():\n"
                "    pool = ThreadPoolExecutor(1)\n"
                "    pool.submit(_work)\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR009"] == []


class TestBuiltinOpen:
    def test_open_chain_from_async_def_is_rpr009(self):
        res = interproc(
            (
                "io_chain.py",
                "def _load(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.read()\n"
                "def _config(path):\n    return _load(path)\n"
                "async def handle(path):\n    return _config(path)\n",
            )
        )
        (f,) = [x for x in res.findings if x.rule == "RPR009"]
        assert "_config -> _load -> open" in f.message
        assert f.line == 7

    def test_open_directly_in_async_def_is_rpr008(self):
        res = interproc(
            (
                "direct.py",
                "async def handle(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.read()\n",
            )
        )
        (f,) = [x for x in res.findings if x.rule == "RPR008"]
        assert f.message == "blocking call open(...) inside async def 'handle'"
        assert (f.line, f.col) == (2, 9)

    def test_a_rebound_open_is_not_the_builtin(self):
        res = interproc(
            (
                "shadow.py",
                "def make():\n    return print\n"
                "async def by_param(path, open):\n    return open(path)\n"
                "async def by_local(path):\n"
                "    open = make()\n"
                "    return open(path)\n",
            ),
            (
                "glob.py",
                "def make():\n    return print\n"
                "open = make()\n"
                "async def by_global(path):\n    return open(path)\n",
            ),
        )
        assert res.findings == []


class TestOneVerdictPerShape:
    def test_leaked_local_segment_is_rpr012_alone(self, tmp_path):
        (tmp_path / "leak.py").write_text(
            "from multiprocessing import shared_memory\n"
            "def scratch(n):\n"
            "    seg = shared_memory.SharedMemory(create=True, size=n)\n"
            "    return n\n"
        )
        report = analyze_paths([str(tmp_path)])
        assert [(f.rule, f.line) for f in report.findings] == [("RPR012", 3)]

    def test_escaped_segment_without_unlink_is_rpr005_alone(self):
        res = interproc(
            (
                "esc.py",
                "from multiprocessing import shared_memory\n"
                "class Block:\n"
                "    def __init__(self, n):\n"
                "        self.seg = shared_memory.SharedMemory(\n"
                "            create=True, size=n)\n"
                "def make(n):\n"
                "    seg = shared_memory.SharedMemory(create=True, size=n)\n"
                "    return seg\n",
            )
        )
        assert [(f.rule, f.line) for f in res.findings] == [
            ("RPR005", 4),
            ("RPR005", 7),
        ]

    def test_off_lock_worker_mutation_is_rpr002_and_rpr011(self):
        res = interproc(
            (
                "both.py",
                "from concurrent.futures import ProcessPoolExecutor\n"
                "_DONE = {}\n"
                "def _work(key):\n"
                "    _DONE[key] = True\n"
                "def run(keys):\n"
                "    pool = ProcessPoolExecutor(2)\n"
                "    try:\n"
                "        return list(pool.map(_work, keys))\n"
                "    finally:\n"
                "        pool.shutdown()\n"
                "def report():\n"
                "    return dict(_DONE)\n",
            )
        )
        assert [(f.rule, f.line) for f in res.findings] == [
            ("RPR002", 4),
            ("RPR011", 4),
        ]

    def test_bare_global_rebind_is_not_rpr002(self):
        res = interproc(
            (
                "memo.py",
                "_TABLE = None\n"
                "def table():\n"
                "    global _TABLE\n"
                "    _TABLE = [1, 2]\n"
                "    return _TABLE\n",
            )
        )
        assert res.findings == []


class TestNestedDefs:
    def test_both_bodies_of_a_repeated_nested_name_are_walked(self):
        res = interproc(
            (
                "closures.py",
                "_HITS = {}\n"
                "def make(flag):\n"
                "    if flag:\n"
                "        def h(k):\n"
                "            _HITS[k] = 1\n"
                "    else:\n"
                "        def h(k):\n"
                "            return k\n"
                "    return h\n",
            )
        )
        assert [(f.rule, f.line) for f in res.findings] == [("RPR002", 5)]


class TestRPR010:
    def test_inversion_across_a_call_edge(self):
        res = interproc(
            (
                "lk.py",
                "import threading\n"
                "_A = threading.Lock()\n"
                "_B = threading.Lock()\n"
                "def _inner():\n"
                "    with _B:\n"
                "        pass\n"
                "def forward():\n"
                "    with _A:\n"
                "        _inner()\n"
                "def backward():\n"
                "    with _B:\n"
                "        with _A:\n"
                "            pass\n",
            )
        )
        assert len([x for x in res.findings if x.rule == "RPR010"]) == 1

    def test_consistent_order_is_silent(self):
        res = interproc(
            (
                "ok.py",
                "import threading\n"
                "_A = threading.Lock()\n"
                "_B = threading.Lock()\n"
                "def one():\n"
                "    with _A:\n"
                "        with _B:\n"
                "            pass\n"
                "def two():\n"
                "    with _A:\n"
                "        with _B:\n"
                "            pass\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR010"] == []


class TestRPR011Precision:
    def test_memo_cache_fill_is_not_a_lost_update(self):
        res = interproc(
            (
                "memo.py",
                "from concurrent.futures import ProcessPoolExecutor\n"
                "_CACHE = {}\n"
                "def _get(key):\n"
                "    val = _CACHE.get(key)\n"
                "    if val is None:\n"
                "        val = object()\n"
                "        _CACHE[key] = val\n"
                "    return val\n"
                "def _work(key):\n"
                "    return _get(key)\n"
                "def run(keys):\n"
                "    pool = ProcessPoolExecutor(2)\n"
                "    try:\n"
                "        return list(pool.map(_work, keys))\n"
                "    finally:\n"
                "        pool.shutdown()\n"
                "def peek(key):\n"
                "    return _CACHE.get(key)\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR011"] == []

    def test_atexit_hook_is_not_a_parent_side_reader(self):
        res = interproc(
            (
                "ax.py",
                "import atexit, threading\n"
                "from concurrent.futures import ProcessPoolExecutor\n"
                "_LIVE = {}\n"
                "_GUARD_LOCK = threading.Lock()\n"
                "def _work(key):\n"
                "    with _GUARD_LOCK:\n"
                "        _LIVE[key] = True\n"
                "def run(keys):\n"
                "    pool = ProcessPoolExecutor(2)\n"
                "    try:\n"
                "        return list(pool.map(_work, keys))\n"
                "    finally:\n"
                "        pool.shutdown()\n"
                "@atexit.register\n"
                "def drain():\n"
                "    _LIVE.clear()\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR011"] == []


class TestRPR012Precision:
    def test_guarded_release_inside_finally_counts(self):
        res = interproc(
            (
                "fin.py",
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def run(jobs, parallel):\n"
                "    pool = None\n"
                "    if parallel:\n"
                "        pool = ThreadPoolExecutor(4)\n"
                "    try:\n"
                "        return [j() for j in jobs]\n"
                "    finally:\n"
                "        if pool is not None:\n"
                "            pool.shutdown()\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR012"] == []

    def test_rebinding_an_unreleased_resource_leaks(self):
        res = interproc(
            (
                "rb.py",
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def churn(n):\n"
                "    pool = ThreadPoolExecutor(2)\n"
                "    pool = ThreadPoolExecutor(n)\n"
                "    pool.shutdown()\n",
            )
        )
        assert len([x for x in res.findings if x.rule == "RPR012"]) == 1

    def test_returning_the_resource_is_an_escape(self):
        res = interproc(
            (
                "esc.py",
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def make():\n"
                "    pool = ThreadPoolExecutor(2)\n"
                "    return pool\n",
            )
        )
        assert [x for x in res.findings if x.rule == "RPR012"] == []


class TestRPR004Interprocedural:
    def test_polling_helper_called_in_loop_exempts_it(self, tmp_path):
        src = (
            "class Searcher:\n"
            "    def __init__(self, deadline):\n"
            "        self._deadline = deadline\n"
            "    def _should_stop(self):\n"
            "        if self._deadline is None:\n"
            "            return False\n"
            "        return self._deadline.expired()\n"
            "    def run(self, heap, deadline):\n"
            "        while heap:\n"
            "            if self._should_stop():\n"
            "                return None\n"
            "            heap.pop()\n"
        )
        p = tmp_path / "srch.py"
        p.write_text(src)
        report = analyze_paths([str(tmp_path)])
        assert [f for f in report.findings if f.rule == "RPR004"] == []

    def test_loop_with_no_poll_anywhere_still_fires(self, tmp_path):
        src = (
            "def run(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        p = tmp_path / "noploll.py"
        p.write_text(src)
        report = analyze_paths([str(tmp_path)])
        assert len([f for f in report.findings if f.rule == "RPR004"]) == 1


class TestSuppressionAccounting:
    def test_unused_directive_is_flagged_rpr013(self, tmp_path):
        p = tmp_path / "clean.py"
        p.write_text("def f():\n    return 1  # repro: noqa RPR001\n")
        report = analyze_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == ["RPR013"]
        assert report.findings[0].line == 2

    def test_used_directive_stays_suppressed_not_flagged(self, tmp_path):
        p = tmp_path / "used.py"
        p.write_text(
            "_SEEN = {}\n"
            "def f(k, v):\n"
            "    _SEEN[id(k)] = v  # repro: noqa RPR001,RPR002\n"
        )
        report = analyze_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == []
        assert {f.rule for f in report.suppressed} == {"RPR001", "RPR002"}

    def test_directive_stacked_after_pragma_works(self, tmp_path):
        p = tmp_path / "stack.py"
        p.write_text(
            "_SEEN = {}\n"
            "def f(k, v):\n"
            "    _SEEN[id(k)] = v  # pragma: no cover  "
            "# repro: noqa RPR001,RPR002\n"
        )
        report = analyze_paths([str(tmp_path)])
        assert [f.rule for f in report.findings] == []

    def test_backquoted_mention_is_not_a_directive(self, tmp_path):
        p = tmp_path / "doc.py"
        p.write_text(
            "# suppress with an inline ``# repro: noqa`` comment\n"
            "def f():\n    return 1\n"
        )
        report = analyze_paths([str(tmp_path)])
        assert report.findings == []  # in particular: no RPR013


class TestDiffAndBaseline:
    def _seed_repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
                env={
                    **os.environ,
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                },
            )

        git("init", "-q", "-b", "main")
        (tmp_path / "old.py").write_text(
            "def f(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        git("add", "old.py")
        git("commit", "-q", "-m", "seed")
        (tmp_path / "new.py").write_text(
            "def g(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        return tmp_path

    def test_changed_files_lists_only_new_paths(self, tmp_path):
        repo = self._seed_repo(tmp_path)
        changed = changed_files("HEAD", cwd=str(repo))
        names = {os.path.basename(p) for p in changed}
        assert names == {"new.py"}

    def test_changed_only_filters_the_report(self, tmp_path):
        repo = self._seed_repo(tmp_path)
        changed = changed_files("HEAD", cwd=str(repo))
        report = analyze_paths([str(repo)], changed_only=changed)
        files = {os.path.basename(f.file) for f in report.findings}
        assert files == {"new.py"}  # old.py's RPR004 is pre-existing

    def test_unknown_ref_raises_value_error(self, tmp_path):
        repo = self._seed_repo(tmp_path)
        with pytest.raises(ValueError):
            changed_files("no-such-ref", cwd=str(repo))

    def test_baseline_round_trip_suppresses_known_findings(self, tmp_path):
        p = tmp_path / "drift.py"
        p.write_text(
            "def f(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        first = analyze_paths([str(tmp_path)])
        assert len(first.findings) == 1
        bl = tmp_path / "findings.json"
        assert write_baseline(first, str(bl)) == 1
        body = json.loads(bl.read_text())
        assert body["version"] == 1

        second = analyze_paths(
            [str(tmp_path)], baseline=load_baseline(str(bl))
        )
        assert [f for f in second.findings if f.file.endswith("drift.py")] == []
        assert any(
            baseline_key(f) in load_baseline(str(bl))
            for f in second.suppressed
        )

    def test_new_findings_survive_the_baseline(self, tmp_path):
        p = tmp_path / "drift.py"
        p.write_text(
            "def f(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        first = analyze_paths([str(tmp_path)])
        bl = tmp_path / "findings.json"
        write_baseline(first, str(bl))
        p.write_text(
            "def f(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
            "def g(heap, deadline):\n"
            "    while heap:\n"
            "        heap.pop()\n"
        )
        report = analyze_paths(
            [str(tmp_path)], baseline=load_baseline(str(bl))
        )
        # one old finding suppressed, one new finding reported
        assert len([f for f in report.findings if f.rule == "RPR004"]) == 1
        assert len([f for f in report.suppressed if f.rule == "RPR004"]) == 1
