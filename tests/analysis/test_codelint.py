"""The code rules on one-file snippets: each rule fires on bad and stays
silent on good, and ``# repro: noqa`` suppression is honoured and
accounted.  Every snippet runs through the driver, so a rule is checked
whichever pass owns it."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.codelint import parse_noqa


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _lint(src: str, path: str = "snippet.py"):
    Path(path).write_text(textwrap.dedent(src))
    report = analyze_paths([path])
    return report.findings, report.suppressed


def rules_of(src: str) -> list[str]:
    kept, _ = _lint(src)
    return [f.rule for f in kept]


class TestRPR001IdKeyedCache:
    def test_fires_on_subscript_store(self):
        assert "RPR001" in rules_of(
            """
            cache = {}
            def f(g):
                cache[id(g)] = 1
            """
        )

    def test_fires_on_subscript_load(self):
        assert "RPR001" in rules_of(
            """
            def f(cache, g):
                return cache[id(g)]
            """
        )

    def test_fires_on_get_and_setdefault_keys(self):
        assert rules_of(
            """
            def f(cache, g):
                cache.setdefault(id(g), []).append(1)
                return cache.get(id(g))
            """
        ).count("RPR001") == 2

    def test_fires_on_tuple_key_containing_id(self):
        assert "RPR001" in rules_of(
            """
            def f(cache, g, n):
                return cache[(id(g), n)]
            """
        )

    def test_silent_on_visited_sets(self):
        # identity sets over live objects are legitimate (traversal guards)
        assert rules_of(
            """
            def f(ep):
                seen = {id(ep)}
                return id(ep) in seen
            """
        ) == []

    def test_silent_on_stable_keys(self):
        assert rules_of(
            """
            def f(cache, g):
                return cache[g.token]
            """
        ) == []


class TestRPR002GlobalMutation:
    def test_fires_on_item_assign_update_and_pop(self):
        found = rules_of(
            """
            STATS = {}
            def f():
                STATS['x'] = 1
                STATS.update(a=1)
                STATS.pop('x')
            """
        )
        assert found.count("RPR002") == 3

    def test_fires_on_aug_assign(self):
        assert "RPR002" in rules_of(
            """
            COUNT = 0
            def f():
                global COUNT
                COUNT += 1
            """
        )

    def test_silent_under_a_lock_guard(self):
        assert rules_of(
            """
            import threading
            _LOCK = threading.Lock()
            STATS = {}
            def f():
                with _LOCK:
                    STATS['x'] = 1
            """
        ) == []

    def test_silent_on_locals_and_module_level_init(self):
        assert rules_of(
            """
            TABLE = {}
            TABLE['seed'] = 1
            def f():
                local = {}
                local['x'] = 1
            """
        ) == []


class TestRPR003PoolInLoop:
    def test_fires_inside_for_loop(self):
        assert "RPR003" in rules_of(
            """
            from concurrent.futures import ProcessPoolExecutor
            def f(items):
                for i in items:
                    with ProcessPoolExecutor() as ex:
                        ex.submit(print, i)
            """
        )

    def test_fires_inside_while_loop(self):
        assert "RPR003" in rules_of(
            """
            from concurrent.futures import ThreadPoolExecutor
            def f():
                while True:
                    ex = ThreadPoolExecutor()
            """
        )

    def test_silent_when_hoisted(self):
        assert rules_of(
            """
            from concurrent.futures import ProcessPoolExecutor
            def f(items):
                with ProcessPoolExecutor() as ex:
                    for i in items:
                        ex.submit(print, i)
            """
        ) == []


class TestRPR004DeadlinePoll:
    def test_fires_on_unpolled_search_loop(self):
        assert "RPR004" in rules_of(
            """
            def search(heap, deadline):
                while heap:
                    heap.pop()
            """
        )

    def test_silent_when_loop_polls(self):
        assert rules_of(
            """
            def search(heap, deadline):
                n = 0
                while heap:
                    n += 1
                    if deadline is not None and not n & 1023:
                        deadline.poll()
                    heap.pop()
            """
        ) == []

    def test_silent_when_guarded_by_deadline_is_none(self):
        # the compiled-kernel fast-path shape
        assert rules_of(
            """
            def search(heap, deadline):
                if deadline is None:
                    while heap:
                        heap.pop()
            """
        ) == []

    def test_silent_without_a_deadline_parameter(self):
        assert rules_of(
            """
            def search(heap):
                while heap:
                    heap.pop()
            """
        ) == []

    def test_bounded_loops_are_not_flagged(self):
        assert rules_of(
            """
            def search(items, deadline):
                for i in items:
                    pass
                while len(items) > 2:
                    items.pop()
            """
        ) == []


class TestRPR005SharedMemory:
    def test_fires_without_unlink_anywhere(self):
        assert "RPR005" in rules_of(
            """
            from multiprocessing import shared_memory
            def f():
                return shared_memory.SharedMemory(create=True, size=64)
            """
        )

    def test_silent_when_module_unlinks(self):
        assert rules_of(
            """
            import atexit
            from multiprocessing import shared_memory
            def f():
                shm = shared_memory.SharedMemory(create=True, size=64)
                atexit.register(shm.unlink)
                return shm
            """
        ) == []

    def test_silent_on_attach(self):
        assert rules_of(
            """
            from multiprocessing import shared_memory
            def f(name):
                return shared_memory.SharedMemory(name=name)
            """
        ) == []


class TestRPR006SwallowedException:
    def test_fires_on_bare_except(self):
        assert "RPR006" in rules_of(
            """
            def f():
                try:
                    g()
                except:
                    pass
            """
        )

    def test_fires_on_broad_except_without_reraise(self):
        assert "RPR006" in rules_of(
            """
            def f():
                try:
                    g()
                except Exception as e:
                    log(e)
            """
        )

    def test_silent_on_broad_except_with_reraise(self):
        assert rules_of(
            """
            def f():
                try:
                    g()
                except Exception:
                    cleanup()
                    raise
            """
        ) == []

    def test_fires_on_silently_dropped_routing_failure(self):
        assert "RPR006" in rules_of(
            """
            from repro import errors
            def f(nets):
                for n in nets:
                    try:
                        route(n)
                    except errors.RoutingFailure:
                        continue
            """
        )

    def test_silent_when_failure_is_handled(self):
        assert rules_of(
            """
            from repro import errors
            def f():
                try:
                    g()
                except errors.RoutingFailure as e:
                    log(e.context())
            """
        ) == []

    def test_silent_on_narrow_exceptions(self):
        assert rules_of(
            """
            def f(d):
                try:
                    return d['k']
                except KeyError:
                    return None
            """
        ) == []


class TestRPR007PerElementArrayLoop:
    def test_fires_on_direct_iteration(self):
        assert "RPR007" in rules_of(
            """
            import numpy as np
            def f(xs):
                arr = np.asarray(xs)
                total = 0.0
                for x in arr:
                    total += x
                return total
            """
        )

    def test_fires_on_range_indexing(self):
        assert "RPR007" in rules_of(
            """
            import numpy as np
            def f(n):
                cost = np.zeros(n)
                for i in range(n):
                    cost[i] = i * 2.0
                return cost
            """
        )

    def test_fires_on_soa_column_bundles(self):
        # tuple-unpacking graph.np_columns() marks every column
        assert "RPR007" in rules_of(
            """
            def f(graph, o, n):
                off, deg, e_to, e_cost = graph.np_columns()
                acc = 0.0
                for e in range(o, o + n):
                    acc += e_cost[e]
                return acc
            """
        )

    def test_fires_on_array_views(self):
        # a row view of a tracked 2-D array is still an array
        assert "RPR007" in rules_of(
            """
            import numpy as np
            def f(k, n, lane):
                cost2d = np.zeros((k, n))
                row = cost2d[lane]
                for i in range(n):
                    row[i] = 0.0
            """
        )

    def test_fires_in_nested_function_over_enclosing_array(self):
        assert "RPR007" in rules_of(
            """
            import numpy as np
            def outer(n):
                dist = np.zeros(n)
                def drain():
                    for i in range(n):
                        dist[i] += 1.0
                return drain
            """
        )

    def test_silent_on_vectorized_code(self):
        assert rules_of(
            """
            import numpy as np
            def f(xs, idx):
                arr = np.asarray(xs)
                arr[idx] = arr[idx] * 2.0
                return float(arr.sum())
            """
        ) == []

    def test_silent_on_plain_lists_and_tolist(self):
        assert rules_of(
            """
            import numpy as np
            def f(items):
                arr = np.asarray(items)
                out = []
                for x in items:
                    out.append(x)
                for y in arr.tolist():
                    out.append(y)
                return out
            """
        ) == []

    def test_silent_on_zip_and_enumerate(self):
        assert rules_of(
            """
            import numpy as np
            def f(xs, ys):
                a = np.asarray(xs)
                b = np.asarray(ys)
                return [i * x for i, x in enumerate(zip(a, b))]
            """
        ) == []

    def test_noqa_marks_the_scalar_oracle(self):
        kept, suppressed = _lint(
            """
            import numpy as np
            def oracle(n):
                dist = np.zeros(n)
                for i in range(n):  # repro: noqa RPR007
                    dist[i] = i
                return dist
            """
        )
        assert kept == []
        assert [f.rule for f in suppressed] == ["RPR007"]


class TestRPR008BlockingCallInAsync:
    def test_fires_on_time_sleep_in_async_def(self):
        assert "RPR008" in rules_of(
            """
            import time
            async def handler():
                time.sleep(0.1)
            """
        )

    def test_fires_on_open_and_subprocess_in_async_def(self):
        found = rules_of(
            """
            import subprocess
            async def handler(path):
                with open(path) as fh:
                    data = fh.read()
                subprocess.run(["ls"])
                return data
            """
        )
        assert found.count("RPR008") == 2

    def test_fires_in_async_method_bodies(self):
        assert "RPR008" in rules_of(
            """
            import time
            class Service:
                async def drain(self):
                    time.sleep(1.0)
            """
        )

    def test_silent_on_sync_def(self):
        assert "RPR008" not in rules_of(
            """
            import time
            def worker():
                time.sleep(0.1)
                return open("/dev/null")
            """
        )

    def test_silent_on_nested_sync_def_inside_async(self):
        # the nested def presumably runs via to_thread/run_in_executor;
        # only the innermost enclosing function's kind matters
        assert "RPR008" not in rules_of(
            """
            import time
            async def handler():
                def blocking_part():
                    time.sleep(0.1)
                    return open("/dev/null")
                return blocking_part
            """
        )

    def test_silent_on_async_equivalents(self):
        assert "RPR008" not in rules_of(
            """
            import asyncio
            async def handler():
                await asyncio.sleep(0.1)
                data = await asyncio.to_thread(load_blob)
                return data
            """
        )


class TestNoqaSuppression:
    def test_bare_noqa_suppresses_all_rules_on_the_line(self):
        kept, suppressed = _lint(
            """
            cache = {}
            def f(g):
                cache[id(g)] = 1  # repro: noqa
            """
        )
        assert kept == []
        assert sorted(f.rule for f in suppressed) == ["RPR001", "RPR002"]

    def test_listed_ids_suppress_only_those_rules(self):
        kept, suppressed = _lint(
            """
            cache = {}
            def f(g):
                cache[id(g)] = 1  # repro: noqa RPR001
            """
        )
        assert [f.rule for f in kept] == ["RPR002"]
        assert [f.rule for f in suppressed] == ["RPR001"]

    def test_non_matching_id_keeps_the_finding(self):
        kept, suppressed = _lint(
            """
            def search(heap, deadline):
                while heap:  # repro: noqa RPR006
                    heap.pop()
            """
        )
        # the directive suppressed nothing, so it is reported as unused
        assert sorted(f.rule for f in kept) == ["RPR004", "RPR013"]
        assert suppressed == []

    def test_comma_separated_id_list(self):
        noqa = parse_noqa("x = 1  # repro: noqa RPR001, RPR004\n")
        assert noqa == {1: frozenset({"RPR001", "RPR004"})}

    def test_plain_flake8_noqa_is_ignored(self):
        # only the repro-namespaced directive counts
        kept, suppressed = _lint(
            """
            def search(heap, deadline):
                while heap:  # noqa
                    heap.pop()
            """
        )
        assert [f.rule for f in kept] == ["RPR004"]
        assert suppressed == []


class TestDiagnostics:
    def test_syntax_error_becomes_a_finding(self):
        kept, suppressed = _lint("def broken(:\n", "bad.py")
        assert len(kept) == 1
        assert kept[0].severity.value == "error"
        assert kept[0].file == "bad.py"

    def test_findings_carry_file_line_and_column(self):
        kept, _ = _lint(
            """
            def f(cache, g):
                return cache[id(g)]
            """
        )
        (f,) = kept
        assert f.file == "snippet.py"
        assert f.line == 3
        assert f.col is not None
