"""E17: search-kernel speedup over the pre-kernel reference routers.

Measures the compiled-graph kernel (:mod:`repro.core.kernel` over
:mod:`repro.arch.graph`) against the preserved dict-Dijkstra reference
implementations (``tests/routers/_reference.py``) on three workload
families:

* **E10-style point-to-point scaling** — cross-chip and medium-span A*
  maze routes per part, XCV50 up to XCV800;
* **E3-style fanout** — one high-fanout net routed sink-by-sink with
  tree reuse;
* **PathFinder** — negotiated congestion over a batch of random nets,
  serial and on partition-tree worker processes (OS workers over the
  shared-memory graph export); the serial run is asserted
  plan-identical to the reference, and every process row is asserted
  to converge and to repeat its plans *and* stats exactly on a second
  run at the same worker count — across *different* worker counts the
  partition tree legitimately negotiates along a different trajectory,
  so only convergence is asserted there.  Process rows also report
  ``speedup_vs_serial`` (wall-clock gain over the serial kernel run on
  this machine) and the tree's effective leaf concurrency
  (``workers_effective``);
* **Batched p2p** — ``route_maze_batch`` lockstepping 64 independent
  point-to-point searches through the vectorized SoA kernel against the
  same 64 searches run one scalar kernel call at a time; reports
  routes/s for both and is asserted plan- and stats-identical before
  timing.  ``--check`` enforces an absolute throughput floor
  (``BATCH_SPEEDUP_FLOOR``) on this workload.

Every timed rival of a row runs in rotation and keeps its best of
``reps`` wall times (``_interleaved_best_times``); a speedup is the
ratio of two such times.  The rows keep their historical
``median_new_s``/``median_ref_s`` keys for those times.

Run as a script to (re)generate ``BENCH_routing.json`` at the repo
root, under the interpreter flags the CI check uses::

    PYTHONPATH=src python -X dev benchmarks/bench_e17_kernel.py           # full
    PYTHONPATH=src python -X dev benchmarks/bench_e17_kernel.py --smoke   # CI
    PYTHONPATH=src python -X dev benchmarks/bench_e17_kernel.py --smoke --check

``-X dev`` lowers the kernel-vs-reference ratios, so a baseline
recorded without it sits above what the check measures.
``--check`` compares freshly measured speedups against the committed
baseline instead of overwriting it, failing (exit 1) on a >25%
regression; because it compares kernel-vs-reference *ratios* measured in
the same process, it is largely insensitive to the absolute speed of the
CI machine.  Under pytest only the (timing-free) parity shape tests run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.bench.workloads import high_fanout_net, random_p2p_nets
from repro.device.fabric import Device
from repro.routers import NetSpec, route_maze, route_maze_batch, route_pathfinder
from repro.routers.pathfinder import shutdown_process_pools

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the reference routers live in the test tree
from tests.routers._reference import (
    route_maze_reference,
    route_pathfinder_reference,
)

BASELINE = ROOT / "BENCH_routing.json"

#: speedups may drop to this fraction of the committed baseline before
#: the --check mode fails (CI perf-smoke tolerance)
TOLERANCE = 0.25

#: minimum wall-clock speedup PathFinder at >= 4 workers must show over
#: the serial run — enforced by --check only on machines with at least
#: 4 CPUs (a 1- or 2-core box cannot demonstrate it)
PROCESS_SPEEDUP_FLOOR = 1.5

#: minimum routes/s gain the batched SoA kernel must show over the
#: scalar kernel loop on the 64-request p2p workload — an absolute
#: same-process ratio, so --check enforces it on any machine
BATCH_SPEEDUP_FLOOR = 3.0

#: minimum wall-clock speedup the partition-tree scaling row (8
#: workers) must show over serial — enforced by --check only on
#: machines with at least 8 CPUs
TREE_SPEEDUP_FLOOR = 3.0


def _canon_nets(device, workloads):
    out = []
    for net in workloads:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        out.append(NetSpec.of(src, sinks))
    return out


def _interleaved_best_times(*fns, reps: int) -> list[float]:
    """Best-of-``reps`` wall time for each rival, run in rotation.

    Every gated speedup is a ratio of two of these times.  Rotating the
    rivals inside one loop exposes all of them to the same noise
    windows — timing one rival's reps and then the other's lets a load
    burst on a shared host land on one side only — and taking each
    side's best observed time (timeit's convention: noise only ever
    adds) discards scheduler spikes that a median over a handful of reps
    can still absorb.
    """
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _route_batch(router_fn, device, pairs):
    for src, sink in pairs:
        router_fn(device, [src], {sink}, heuristic_weight=0.8)


def _route_fanout(router_fn, device, arch, net):
    """Sink-by-sink fanout with tree reuse (the greedy-router pattern)."""
    tree: set[int] = set()
    for sink in net.sinks:
        res = router_fn(device, [net.source], {sink}, reuse=tree)
        for row, col, _fn, to_name in res.plan:
            w = arch.canonicalize(row, col, to_name)
            tree.add(w)


def e10_workload(part: str, spans):
    """Point-to-point A* pairs: one cross-chip plus medium spans."""
    device = Device(part)
    arch = device.arch
    from repro.arch import wires

    pairs = [
        (
            device.resolve(1, 1, wires.S0_X),
            device.resolve(arch.rows - 2, arch.cols - 2, wires.S1G[2]),
        )
    ]
    for i, span in enumerate(spans):
        r = 1 + (i * 3) % max(1, arch.rows - span - 2)
        c = 1 + (i * 5) % max(1, arch.cols - span - 2)
        pairs.append(
            (
                device.resolve(r, c, wires.S0_Y),
                device.resolve(r + span, c + span, wires.S0F[1]),
            )
        )
    return device, pairs


def measure_e10(part: str, *, reps: int, spans) -> dict:
    device, pairs = e10_workload(part, spans)
    _route_batch(route_maze, device, pairs)  # warm shared graph + state
    new, ref = _interleaved_best_times(
        lambda: _route_batch(route_maze, device, pairs),
        lambda: _route_batch(route_maze_reference, device, pairs),
        reps=reps,
    )
    return {
        "name": f"e10_p2p_{part}",
        "kind": "maze_astar",
        "part": part,
        "routes": len(pairs),
        "median_new_s": new,
        "median_ref_s": ref,
        "speedup": ref / new,
    }


def measure_fanout(part: str, fanout: int, *, reps: int) -> dict:
    device = Device(part)
    arch = device.arch
    net_pins = high_fanout_net(arch, fanout, seed=7)
    src = device.resolve(
        net_pins.source.row, net_pins.source.col, net_pins.source.wire
    )
    sinks = [device.resolve(p.row, p.col, p.wire) for p in net_pins.sinks]
    net = NetSpec.of(src, sinks)
    _route_fanout(route_maze, device, arch, net)  # warm
    new, ref = _interleaved_best_times(
        lambda: _route_fanout(route_maze, device, arch, net),
        lambda: _route_fanout(route_maze_reference, device, arch, net),
        reps=reps,
    )
    return {
        "name": f"e3_fanout{fanout}_{part}",
        "kind": "maze_fanout",
        "part": part,
        "fanout": fanout,
        "median_new_s": new,
        "median_ref_s": ref,
        "speedup": ref / new,
    }


def measure_pathfinder(
    part: str,
    n_nets: int,
    *,
    reps: int,
    process_workers=(),
    tree_workers=(),
) -> list[dict]:
    device = Device(part)
    nets = _canon_nets(
        device, random_p2p_nets(device.arch, n_nets, seed=3, min_span=2, max_span=10)
    )
    oracle = route_pathfinder_reference(device, nets, apply=False).plans
    warm = route_pathfinder(device, nets, apply=False)
    assert warm.plans == oracle, "workers=1 diverged from the reference"
    # (name, workers); the tree_w row is the partition-tree scaling row,
    # named apart so --check can gate its absolute floor on big hosts
    stem = f"pathfinder_{n_nets}nets_{part}"
    rows = [(stem, 1)]
    rows += [(f"{stem}_proc_w{w}", w) for w in process_workers]
    rows += [(f"{stem}_tree_w{w}", w) for w in tree_workers]
    runs = [warm]
    for _name, w in rows[1:]:
        # the first run forks the worker pool and attaches the shm graph,
        # so the timed reps see the cached steady state; with a second
        # run it is the run-to-run determinism oracle at this worker count
        res = route_pathfinder(device, nets, apply=False, workers=w)
        again = route_pathfinder(device, nets, apply=False, workers=w)
        assert res.converged, f"workers={w} failed to converge"
        assert res.plans == again.plans and (
            res.stats.as_dict() == again.stats.as_dict()
        ), f"two runs at workers={w} differed"
        runs.append(res)
    ref, *times = _interleaved_best_times(
        lambda: route_pathfinder_reference(device, nets, apply=False),
        *(
            lambda w=w: route_pathfinder(device, nets, apply=False, workers=w)
            for _name, w in rows
        ),
        reps=reps,
    )
    return [
        {
            "name": name,
            "kind": "pathfinder",
            "part": part,
            "nets": n_nets,
            "workers": w,
            "workers_effective": res.workers,
            "median_new_s": new,
            "median_ref_s": ref,
            "speedup": ref / new,
            "speedup_vs_serial": times[0] / new,
        }
        for (name, w), res, new in zip(rows, runs, times)
    ]


def batched_p2p_workload(part: str, n_requests: int):
    device = Device(part)
    nets = random_p2p_nets(
        device.arch, n_requests, seed=11, min_span=2, max_span=10
    )
    reqs = []
    for net in nets:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sink = device.resolve(
            net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire
        )
        reqs.append(([src], {sink}))
    return device, reqs


def measure_batched_p2p(part: str, n_requests: int, *, reps: int) -> dict:
    """Lockstepped batch vs the same searches run one kernel call at a
    time.  ``heuristic_weight=0`` because only plain-Dijkstra batches run
    the vectorized wavefront: an A*-weighted batch runs the scalar
    kernel once per request (see ``route_maze_batch``)."""
    device, reqs = batched_p2p_workload(part, n_requests)
    kw = dict(heuristic_weight=0.0)
    batch = route_maze_batch(device, reqs, **kw)  # warm + parity oracle
    for (srcs, targets), got in zip(reqs, batch.results):
        want = route_maze(device, srcs, targets, **kw)
        assert got.plan == want.plan and got.cost == want.cost, (
            f"batch diverged from scalar kernel on {part}"
        )
    t_scalar, t_batch = _interleaved_best_times(
        lambda: [route_maze(device, s, t, **kw) for s, t in reqs],
        lambda: route_maze_batch(device, reqs, **kw),
        reps=reps,
    )
    return {
        "name": f"batched_p2p_{part}",
        "kind": "batched_p2p",
        "part": part,
        "routes": n_requests,
        "median_new_s": t_batch,
        "median_ref_s": t_scalar,
        "routes_per_s_scalar": n_requests / t_scalar,
        "routes_per_s_batched": n_requests / t_batch,
        "speedup": t_scalar / t_batch,
    }


def run(smoke: bool) -> dict:
    reps = 5
    workloads: list[dict] = []
    if smoke:
        workloads.append(measure_e10("XCV50", reps=reps, spans=(6, 10)))
        workloads.append(measure_fanout("XCV50", 6, reps=reps))
        workloads.extend(
            measure_pathfinder("XCV50", 6, reps=reps, process_workers=(2,))
        )
        workloads.append(measure_batched_p2p("XCV50", 64, reps=reps))
    else:
        for part in ("XCV50", "XCV300", "XCV800"):
            workloads.append(measure_e10(part, reps=reps, spans=(6, 10, 14)))
        workloads.append(measure_fanout("XCV50", 8, reps=reps))
        workloads.extend(
            measure_pathfinder(
                "XCV50", 12, reps=reps, process_workers=(2, 4), tree_workers=(8,)
            )
        )
        workloads.append(measure_batched_p2p("XCV50", 64, reps=reps))
    e10 = [w["speedup"] for w in workloads if w["kind"] == "maze_astar"]
    return {
        "mode": "smoke" if smoke else "full",
        "reps": reps,
        "cpus": os.cpu_count(),
        "workloads": workloads,
        "e10_median_speedup": statistics.median(e10),
    }


def check(results: dict, baseline: dict) -> int:
    """Compare measured speedups to the committed baseline section."""
    base = {w["name"]: w["speedup"] for w in baseline["workloads"]}
    failures = []
    for w in results["workloads"]:
        ref = base.get(w["name"])
        if ref is None:
            continue
        floor = ref * (1.0 - TOLERANCE)
        status = "ok" if w["speedup"] >= floor else "REGRESSED"
        print(
            f"{w['name']:32s} speedup {w['speedup']:5.2f}x "
            f"(baseline {ref:5.2f}x, floor {floor:5.2f}x) {status}"
        )
        if status != "ok":
            failures.append(w["name"])
    # absolute gate: on a machine with real parallelism, PathFinder at
    # >= 4 workers must actually be faster than serial
    if (results.get("cpus") or 0) >= 4:
        for w in results["workloads"]:
            gain = w.get("speedup_vs_serial")
            if (
                w.get("workers", 0) >= 4
                and gain is not None
                and gain < PROCESS_SPEEDUP_FLOOR
            ):
                print(
                    f"{w['name']:32s} only {gain:.2f}x over serial "
                    f"(floor {PROCESS_SPEEDUP_FLOOR}x on "
                    f"{results['cpus']}-cpu host) REGRESSED"
                )
                failures.append(w["name"])
    # absolute gate: the partition-tree scaling row must show real gain
    # on a host wide enough to run its 8 leaves concurrently
    if (results.get("cpus") or 0) >= 8:
        for w in results["workloads"]:
            gain = w.get("speedup_vs_serial")
            if (
                "_tree_w" in w.get("name", "")
                and gain is not None
                and gain < TREE_SPEEDUP_FLOOR
            ):
                print(
                    f"{w['name']:32s} only {gain:.2f}x over serial "
                    f"(tree floor {TREE_SPEEDUP_FLOOR}x on "
                    f"{results['cpus']}-cpu host) REGRESSED"
                )
                failures.append(w["name"])
    # absolute gate: the batched SoA kernel must beat the scalar kernel
    # loop by BATCH_SPEEDUP_FLOOR on the p2p throughput workload (a
    # same-process ratio, insensitive to the machine's absolute speed)
    for w in results["workloads"]:
        if w.get("kind") == "batched_p2p" and w["speedup"] < BATCH_SPEEDUP_FLOOR:
            print(
                f"{w['name']:32s} only {w['speedup']:.2f}x over the scalar "
                f"kernel (floor {BATCH_SPEEDUP_FLOOR}x) REGRESSED"
            )
            failures.append(w["name"])
    if failures:
        print(f"PERF REGRESSION in: {', '.join(failures)}")
        return 1
    print("perf check ok")
    return 0


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    checking = "--check" in argv
    results = run(smoke)
    for w in results["workloads"]:
        vs = w.get("speedup_vs_serial")
        extra = f"   {vs:5.2f}x vs serial" if vs is not None else ""
        print(
            f"{w['name']:32s} new {w['median_new_s']*1e3:8.1f} ms   "
            f"ref {w['median_ref_s']*1e3:8.1f} ms   {w['speedup']:5.2f}x"
            + extra
        )
    print(f"E10 median speedup: {results['e10_median_speedup']:.2f}x")
    if checking:
        if not BASELINE.exists():
            print(f"no baseline at {BASELINE}", file=sys.stderr)
            return 2
        committed = json.loads(BASELINE.read_text())
        section = committed.get("smoke" if smoke else "full")
        if section is None:
            print("baseline lacks the required section", file=sys.stderr)
            return 2
        return check(results, section)
    # (re)generate: keep the other mode's committed section if present
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    data["generated_by"] = "benchmarks/bench_e17_kernel.py"
    data[results["mode"]] = results
    BASELINE.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BASELINE}")
    return 0


# ---------------------------------------------------------------- shape tests
# Timing-free parity checks so the file stays green under pytest/CI.


def test_shape_e10_workload_parity():
    device, pairs = e10_workload("XCV50", (6,))
    for src, sink in pairs:
        a = route_maze(device, [src], {sink}, heuristic_weight=0.8)
        b = route_maze_reference(device, [src], {sink}, heuristic_weight=0.8)
        assert a.plan == b.plan
        assert a.cost == b.cost


def test_shape_pathfinder_parity():
    d1, d2 = Device("XCV50"), Device("XCV50")
    nets = _canon_nets(d1, random_p2p_nets(d1.arch, 5, seed=3, min_span=2, max_span=8))
    a = route_pathfinder(d1, nets, apply=False)
    b = route_pathfinder_reference(d2, nets, apply=False)
    assert a.converged == b.converged
    assert a.plans == b.plans


def test_shape_process_backend_parity():
    # two process runs, the first on a fresh pool, repeat each other
    d1, d2 = Device("XCV50"), Device("XCV50")
    nets = _canon_nets(d1, random_p2p_nets(d1.arch, 4, seed=3, min_span=2, max_span=8))
    shutdown_process_pools()
    a = route_pathfinder(d1, nets, apply=False, workers=2)
    b = route_pathfinder(d2, nets, apply=False, workers=2)
    assert a.workers > 1
    assert a.plans == b.plans
    assert a.stats.as_dict() == b.stats.as_dict()


def test_shape_smoke_run_reports_speedup():
    res = measure_e10("XCV50", reps=1, spans=(4,))
    assert res["speedup"] > 0


def test_shape_batched_p2p_parity():
    # timing-free: a small batch matches the scalar kernel bit-for-bit
    device, reqs = batched_p2p_workload("XCV50", 6)
    batch = route_maze_batch(device, reqs, heuristic_weight=0.0)
    for (srcs, targets), got in zip(reqs, batch.results):
        want = route_maze(device, srcs, targets, heuristic_weight=0.0)
        assert got.plan == want.plan
        assert got.cost == want.cost
        assert got.stats.as_dict() == want.stats.as_dict()


def test_shape_batched_p2p_row_reports_throughput():
    res = measure_batched_p2p("XCV50", 4, reps=1)
    assert res["kind"] == "batched_p2p"
    assert res["routes_per_s_batched"] > 0
    assert res["routes_per_s_scalar"] > 0
    assert res["speedup"] > 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
