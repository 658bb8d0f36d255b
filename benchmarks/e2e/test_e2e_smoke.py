"""Tests of the end-to-end benchmark itself.

Seeded traffic, the span recorder, the compare verdicts, and a tiny run
of all four workloads with their output checks.  Collected by the
``pytest benchmarks/`` CI step; needs ``repro`` importable (an installed
package or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import run
import spans
import traffic

from repro.core.endpoints import Pin
from repro.core.router import JRouter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _streams(seed: int) -> bytes:
    return json.dumps([
        traffic.rtr_candidates(seed, n=50),
        traffic.auto_cycles(seed, n_cycles=2),
        traffic.crowded_traffic(seed, prefill=200, calls=4),
        traffic.service_traffic(seed, phase="light", warmup=5, jobs=50,
                                rate=50.0),
    ]).encode()


def test_one_seed_gives_byte_identical_streams() -> None:
    assert _streams(7) == _streams(7)
    assert _streams(7) != _streams(8)


def test_deck_never_hands_out_a_pin_twice() -> None:
    # 2300 prefill pairs on XCV50: past where a per-tile pin pool runs dry
    stream = traffic.crowded_traffic(3)
    sources = {tuple(s) for s, _ in stream["prefill"]}
    sinks = {tuple(k) for _, k in stream["prefill"]}
    assert len(sources) == len(sinks) == len(stream["prefill"]) == 2300
    for call in stream["calls"]:
        call_sources = {tuple(s) for s, _ in call}
        call_sinks = {tuple(k) for _, k in call}
        assert len(call_sources) == len(call_sinks) == len(call)
        assert not call_sources & sources and not call_sinks & sinks


# -- span recorder ------------------------------------------------------------


def _routing(router: JRouter):
    """Level-4 routes, a batch, traces and unroutes; returns the results."""
    pairs = [
        (Pin(*s), Pin(*k))
        for s, k in traffic.crowded_traffic(5, prefill=36, calls=0)["prefill"]
    ]
    for s, k in pairs[:20]:
        router.route(s, k)
    outs = router.route_p2p_batch(pairs[20:])
    plans = [router.trace(s).pips for s, _ in pairs[:20]]
    fingerprint = router.device.state.fingerprint()
    for s, _ in pairs[:20]:
        router.unroute(s)
    return plans, [(o.success, o.method, o.pips_added) for o in outs], fingerprint


def _bindings() -> dict:
    out = {}
    for ns in spans._repro_namespaces():
        label = id(ns)
        items = ns.items() if isinstance(ns, dict) else vars(ns).items()
        for key, value in list(items):
            out[(label, key)] = value
    return out


def test_traced_calls_return_the_same_results() -> None:
    plain = _routing(JRouter(part="XCV50"))
    rec = spans.Recorder()
    rec.install()
    try:
        traced = _routing(JRouter(part="XCV50"))
    finally:
        rec.uninstall()
    assert traced == plain
    assert rec.spans_of("api.route") and rec.spans_of("router.p2p_batch")


def test_uninstall_restores_every_binding() -> None:
    for target in spans.TARGETS:
        importlib.import_module(target.module)
    before = _bindings()
    kernel = importlib.import_module("repro.core.kernel")
    maze = importlib.import_module("repro.routers.maze")
    original = kernel.dijkstra
    rec = spans.Recorder()
    rec.install()
    try:
        # the importing module's binding is rebound too, to the same wrapper
        assert maze.dijkstra is kernel.dijkstra is not original
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) >= len(spans.TARGETS)
    finally:
        rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_of_nested_spans_sum_to_the_root_total() -> None:
    rec = spans.Recorder()
    rec.install()
    try:
        _routing(JRouter(part="XCV50"))
    finally:
        rec.uninstall()
    n = len(rec)
    dur = [rec.end_ns[i] - rec.start_ns[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child[rec.parent[i]] += dur[i]
    self_by_root: dict[int, int] = {}
    for i in range(n):
        self_by_root[rec.root[i]] = self_by_root.get(rec.root[i], 0) + (
            dur[i] - child[i]
        )
    roots = [i for i in range(n) if rec.parent[i] < 0]
    assert roots and any(child[r] for r in roots)
    for r in roots:
        assert self_by_root[r] == dur[r]
    metrics, coverage = spans.span_metrics(rec, spans.span_names(), ("api.route",))
    assert 0.0 < coverage <= 1.0
    assert metrics["api.route.calls"] == len(rec.spans_of("api.route"))


# -- compare ------------------------------------------------------------------


def test_compare_verdicts() -> None:
    # about 4.5% spread: a 1% change is within it, a 20% change is not
    base = [100.0, 104.0, 97.0, 102.0, 98.0, 101.0, 99.0, 103.0, 96.0, 100.0]
    assert run.verdict(base, [x * 0.99 for x in base], "lower", 0.1) == "within bound"
    assert run.verdict(base, [x * 1.2 for x in base], "lower", 0.1) == "regressed"
    assert run.verdict(base, [x * 0.8 for x in base], "lower", 0.1) == "improved"
    assert run.verdict(base, [x * 0.8 for x in base], "higher", 0.1) == "regressed"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert run.verdict(noisy, noisy, "lower", 0.1) == "unresolved"


# -- the workloads ------------------------------------------------------------


def _bench(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--check", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_all_workloads_pass_their_output_checks() -> None:
    result = _bench()
    assert result["correct"] and result["failed"] == 0
    catalog = run.load_catalog()
    for workload in run.WORKLOADS:
        for m in catalog["end_to_end"]:
            assert result["metrics"][f"{workload}.{m['name']}"]["value"] > 0


def test_traced_run_reports_every_layer_metric() -> None:
    result = _bench("--workload", "rtr_explicit", "--trace")
    names = {m["name"] for m in run.load_catalog()["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["api.route.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_untraced_run_never_imports_spans(tmp_path: Path) -> None:
    code = (
        "import sys, workloads\n"
        "workloads.main(['--workload', 'rtr_explicit', '--seed', '1',\n"
        "                '--seconds', '0.2', '--data-dir', sys.argv[1],\n"
        "                '--setups', '1', '--smoke'])\n"
        "assert 'spans' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
