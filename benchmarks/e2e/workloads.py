"""The four end-to-end workloads; one runs per fresh process.

``run.py`` starts this file once per workload with ``PYTHONPATH=src``::

    python benchmarks/e2e/workloads.py --workload NAME --seed N \
        --seconds S --data-dir DIR [--trace] [--setups K] [--smoke]

and reads the result, one JSON object, from the last line of stdout.
Each workload sets itself up ``--setups`` times (``setup_s`` is their
median), warms up, then runs a fixed amount of work over its seeded
inputs: whole passes, as many as take about ``--seconds`` on the
reference host.  Output checks run between timed stretches and never
count as timed time.  With ``--trace`` the layer spans of :mod:`spans`
are installed before anything is built; without it that module is
never imported.

Host speed.  On a shared host the CPU runs up to ~50% slower for
seconds to minutes at a time (other tenants on the same cores), and
that swing dwarfs the changes the benchmark exists to catch.  So a
fixed pure-Python probe loop, which runs no repro code, is timed at
every segment boundary, and CPU-bound timings are scaled by
``PROBE_REF_NS`` over the probe time around them: they read as if
measured on a host where the probe takes ``PROBE_REF_NS``.  The
unscaled values are reported alongside as ``raw``.  The service's work
runs in three processes and waits on the host's scheduler, which the
probe does not track; so its throughput is counted per CPU-second, and
only those CPU-seconds and its boot are scaled.  Its latencies are not
scaled; its light phase keeps every CPU awake instead (see
:func:`cpus_kept_awake`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import traffic

from repro import errors
from repro.arch import graph as graph_mod
from repro.arch.templates import template_value_of
from repro.arch.virtex import VirtexArch
from repro.core.endpoints import Pin
from repro.core.kernel import GLOBAL_STATS
from repro.core.path import Path as RoutePath
from repro.core.router import JRouter
from repro.core.template import Template
from repro.core.wal import DurableSession, recover
from repro.device.contention import audit_no_contention
from repro.device.faults import FaultModel
from repro.routers.pathfinder import shutdown_process_pools
from repro.routers.template_router import route_template

ROOT = Path(__file__).resolve().parents[2]

#: spans whose calls are the workload's operations (coverage roots)
API_ROOTS = (
    "api.route", "api.route_p2p_batch", "api.route_nets",
    "api.unroute", "api.reverse_unroute", "api.trace",
)

#: layer counters every traced workload reports (0 where the layer is idle)
COUNTERS = (
    "p2p.template_share", "search.nodes_expanded", "search.heap_pushes",
    "search.faults_avoided", "batch.rerouted", "graph.materialized_nodes",
    "pathfinder.iterations", "pathfinder.ipc_bytes",
    "svc.jobs_per_batch", "svc.requeued", "svc.gen_late_p99_ms",
    "svc.post_rtt_ms.p50", "svc.post_rtt_ms.p99",
    "svc.transport_ms.p50", "svc.transport_ms.p99",
    "svc.queue_wait_ms.p50", "svc.queue_wait_ms.p99",
    "svc.exec_ms.p50", "svc.exec_ms.p99",
    "svc.light_p99_ms", "svc.sat_p50_ms", "svc.sat_exec_p99_ms",
    "svc.sat_wall_rps",
)


#: iterations of the host-speed probe loop, and the loop's time on the
#: reference host (about this host when its CPU is not contended)
PROBE_LOOPS = 10_000
PROBE_REF_NS = 550_000
#: a workload's processes use at most about this many CPUs at once
PROBE_CPUS = 4


def probe_ns(every_cpu: bool = False) -> float:
    """Median time of three runs of the fixed probe loop, ns.

    The CPUs of a shared host slow down independently.  By default the
    probe runs where this thread does, as single-process work would.
    With ``every_cpu`` it runs pinned to each CPU this process may use
    (the first ``PROBE_CPUS``) in turn and averages them, for work that
    several processes spread over the CPUs.
    """
    if not every_cpu:
        return _probe_here()
    cpus = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in sorted(cpus)[:PROBE_CPUS]:
            os.sched_setaffinity(0, {cpu})  # this thread only
            per_cpu.append(_probe_here())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def _probe_here() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        x = 0
        for _ in range(PROBE_LOOPS):
            x = (x * 31 + 7) & 255
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


# -- shared harness -----------------------------------------------------------


@dataclass
class Run:
    """One workload process's settings and what it measured."""

    seed: int
    seconds: float
    setups: int
    smoke: bool
    data_dir: str
    rec: object | None = None  #: spans.Recorder when tracing
    attempted: int = 0
    failed: int = 0
    timed_ns: int = 0
    #: latency samples of the route-placing calls by kind of call, ns
    lat_ns: dict[str, list[int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: the same metrics without host-speed scaling
    raw: dict[str, float] = field(default_factory=dict)
    #: (attempted, timed_ns, samples per kind, probe ns) at each segment
    #: boundary of the timed phase
    marks: list[tuple[int, int, dict[str, int], float]] = field(
        default_factory=list)

    def mark(self) -> None:
        """Close a segment of timed work (the first call opens one)."""
        self.marks.append((self.attempted, self.timed_ns,
                           {k: len(v) for k, v in self.lat_ns.items()},
                           probe_ns()))

    def call(self, fn: Callable, *args, place: str | None = None):
        """One public call: counted, timed, failures caught and counted.

        ``place`` names the kind of a route-placing call; its latency is
        kept as a sample of that kind.
        """
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        except errors.JRouteError as e:
            self.failed += 1
            self.check(False, f"{getattr(fn, '__name__', fn)} failed: {e}")
            return None
        finally:
            t1 = time.perf_counter_ns()
            self.attempted += 1
            if place is not None:
                self.lat_ns.setdefault(place, []).append(t1 - t0)

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def untimed(self):
        """Context for checks: spans paused (a no-op when untraced)."""
        return self.rec.paused() if self.rec is not None else contextlib.nullcontext()

    def passes(self, pass_s: float) -> int:
        """How many passes of ``pass_s`` reference seconds fill the run."""
        return max(1, round(self.seconds / pass_s))

    def mark_peak_rss(self) -> None:
        """``peak_rss_mb``: peak RSS of this process plus that of its
        largest reaped child, taken before the final output checks."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metrics["peak_rss_mb"] = (own + kids) / 1024.0


def pct(xs: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(xs)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return float(ordered[int(k)])


def repeated_setup(run: Run, build: Callable[[int], object],
                   teardown: Callable[[object], None]) -> object:
    """Build ``run.setups`` times; the median time is ``setup_s`` and the
    last build is the one the workload measures."""
    raw, scaled = [], []
    ctx = None
    for i in range(run.setups):
        if ctx is not None:
            teardown(ctx)
            ctx = None
            gc.collect()
        p0 = probe_ns()
        t0 = time.perf_counter()
        ctx = build(i)
        seconds = time.perf_counter() - t0
        raw.append(seconds)
        scaled.append(seconds * 2 * PROBE_REF_NS / (p0 + probe_ns()))
    run.raw["setup_s"] = statistics.median(raw)
    run.metrics["setup_s"] = statistics.median(scaled)
    return ctx


def cold_graph(part: str) -> None:
    """Forget the process-wide compiled graph of ``part`` so the next
    setup pays the compile again, as a fresh process would."""
    graph_mod._GRAPH_CACHE.pop(part, None)


def pin(p) -> Pin:
    return Pin(int(p[0]), int(p[1]), int(p[2]))


class Stopwatch:
    """Accumulates timed stretches into ``run.timed_ns``."""

    def __init__(self, run: Run) -> None:
        self.run = run

    def __enter__(self) -> None:
        self.t0 = time.perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.run.timed_ns += time.perf_counter_ns() - self.t0


def library_metrics(run: Run, tail_q: float, p50_kind: str | None = None) -> None:
    """``ops_per_s`` over every public call of the timed segments;
    ``op_p50_us`` over the placing calls of ``p50_kind`` (default: all);
    ``op_tail_us``, the ``tail_q`` percentile over all placing calls.

    Each segment's time and latency samples are scaled by the host
    speed probed at its two ends.
    """
    scaled: dict[str, list[float]] = {}
    scaled_ns = 0.0
    for (_, t0, n0, p0), (_, t1, n1, p1) in zip(run.marks, run.marks[1:]):
        scale = 2 * PROBE_REF_NS / (p0 + p1)
        scaled_ns += (t1 - t0) * scale
        for kind, xs in run.lat_ns.items():
            scaled.setdefault(kind, []).extend(
                x * scale for x in xs[n0.get(kind, 0):n1.get(kind, 0)])
    ops = run.marks[-1][0] - run.marks[0][0]
    for out, lat, ns in ((run.metrics, scaled, scaled_ns),
                         (run.raw, run.lat_ns, run.timed_ns)):
        every = [x for xs in lat.values() for x in xs]
        out["ops_per_s"] = ops / (ns / 1e9)
        out["op_p50_us"] = pct(lat[p50_kind] if p50_kind else every, 50) / 1e3
        out["op_tail_us"] = pct(every, tail_q) / 1e3


def check_traces(run: Run, router: JRouter, nets) -> None:
    """Every routed net's trace reaches each of its requested sinks."""
    dev = router.device
    for src, sinks in nets:
        reached = set(router.trace(src).sinks)
        for s in sinks:
            run.check(dev.resolve(s.row, s.col, s.wire) in reached,
                      f"trace of {src} misses sink {s}")


def check_state(run: Run, router: JRouter, *, contention: bool) -> None:
    problems = router.device.state.check_invariants()
    run.check(not problems, f"state invariants: {problems[:3]}")
    if contention:
        bad = audit_no_contention(router.device)
        run.check(not bad, f"contention audit: {list(bad)[:3]}")


# -- rtr_explicit ---------------------------------------------------------------


@dataclass
class ExplicitNet:
    src: Pin
    sink: Pin
    sink_canon: int
    plan: list[tuple[int, int, int, int]]
    path: RoutePath
    template: Template
    removal: str


def _explicit_nets(run: Run, count: int) -> list[ExplicitNet]:
    """The first ``count`` candidate nets whose level 2, 3 and 4 routes
    all turn on exactly the same PIPs, given the nets before them.

    Then any mix of levels within a cycle meets the same device state,
    so every precomputed level-1 PIP list stays valid.
    """
    scratch = JRouter(part="XCV50", attach_jbits=False)
    dev = scratch.device
    nets: list[ExplicitNet] = []
    for cand in traffic.rtr_candidates(run.seed):
        src, sink = pin(cand["src"]), pin(cand["sink"])
        try:
            scratch.route(src, sink)
        except errors.JRouteError:
            continue
        plan = [(p.row, p.col, p.from_name, p.to_name)
                for p in scratch.trace(src).pips]
        path = RoutePath(src.row, src.col, [src.wire] + [p[3] for p in plan])
        template = Template([template_value_of(p[3]) for p in plan])
        scratch.unroute(src)
        try:
            same = path.resolve(dev) == plan and route_template(
                dev, dev.resolve(src.row, src.col, src.wire),
                template.values, end_wire=sink.wire,
            ) == plan
        except errors.JRouteError:
            same = False
        if not same:
            continue
        for p in plan:
            dev.turn_on(*p)
        nets.append(ExplicitNet(
            src, sink, dev.resolve(sink.row, sink.col, sink.wire), plan,
            path, template, cand["removal"],
        ))
        if len(nets) == count:
            return nets
    raise RuntimeError(f"only {len(nets)} of {count} candidate nets qualify")


def _explicit_cycle(run: Run, router: JRouter, nets: list[ExplicitNet],
                    cycle: int) -> None:
    for i, net in enumerate(nets):
        level = 1 + (i + cycle) % 4
        if level == 1:
            for p in net.plan:
                run.call(router.route, *p, place="pip")
        elif level == 2:
            run.call(router.route, net.path, place="path")
        elif level == 3:
            run.call(router.route, net.src, net.sink.wire, net.template,
                     place="template")
        else:
            run.call(router.route, net.src, net.sink, place="auto")
    for net in nets:
        tr = run.call(router.trace, net.src)
        run.check(tr is not None and net.sink_canon in tr.sinks,
                  f"trace of {net.src} misses {net.sink}")
        if net.removal == "unroute":
            run.call(router.unroute, net.src)
        else:
            run.call(router.reverse_unroute, net.sink)


#: reference seconds of one rtr_explicit segment: 4 cycles, every net
#: once at every level
RTR_BLOCK_S = 0.085


def rtr_explicit(run: Run) -> None:
    def build(i: int):
        cold_graph("XCV50")
        router = JRouter(part="XCV50")
        wal = os.path.join(run.data_dir, f"rtr{i}.wal")
        session = DurableSession(router, wal, checkpoint_every=256)
        session.__enter__()
        router.device.routing_graph().compile()
        nets = _explicit_nets(run, 48)
        _explicit_cycle(run, router, nets, 0)  # warm-up
        return router, session, nets, wal

    def teardown(ctx) -> None:
        ctx[1].close()

    router, session, nets, wal = repeated_setup(run, build, teardown)
    run.attempted = run.failed = 0
    run.lat_ns.clear()
    run.mark()
    cycle = 0
    for _ in range(run.passes(RTR_BLOCK_S)):
        for _ in range(4):
            cycle += 1
            with Stopwatch(run):
                _explicit_cycle(run, router, nets, cycle)
            run.check(router.device.state.n_pips_on == 0,
                      f"cycle {cycle} left {router.device.state.n_pips_on} "
                      f"PIPs on")
        run.mark()
    # The p50 is over level-1 calls: the level mix puts the median of all
    # placing calls on the edge between the level-1 and level-2 clusters,
    # where the seed decides which side it falls.  Checkpoints hit ~1% of
    # placing calls, so the tail is taken inside their cluster, at p99.5.
    library_metrics(run, 99.5, p50_kind="pip")
    _search_layers(run, router)
    run.mark_peak_rss()
    with run.untimed():
        check_state(run, router, contention=False)
        for net in nets:
            router.route(net.src, net.sink)
        recovered, _report = recover(wal)
        run.check(
            recovered.device.state.fingerprint()
            == router.device.state.fingerprint(),
            "recover(wal) fingerprint differs from the live session",
        )
        for net in nets:
            router.unroute(net.src)
        session.close()


# -- auto_levels ------------------------------------------------------------------


def _auto_cycle(run: Run, router: JRouter, cycle: dict) -> set[int]:
    """Route a cycle's ops and nets, check, unroute everything.

    Returns the indices of the ops that failed; ``len(ops)`` stands for
    the ``route_nets`` call.
    """
    routed = []  # (source pin, [sink pins]) of every successful route
    failed: set[int] = set()
    ops = cycle["ops"]
    with Stopwatch(run):
        for i, (kind, src, sink) in enumerate(ops):
            if run.call(router.route, src, sink, place=kind) is None:
                failed.add(i)
            elif kind == "bus":
                routed.extend((s, [k]) for s, k in zip(src, sink))
            else:
                routed.append((src, sink if kind == "fanout" else [sink]))
        if cycle["nets"]:
            res = run.call(router.route_nets, cycle["nets"], place="nets")
            if res is not None and res.converged:
                routed.extend((s, [k]) for s, k in cycle["nets"])
                run.layers["pathfinder.iterations"] += res.iterations
                run.layers["pathfinder.ipc_bytes"] += sum(res.ipc_bytes)
            else:
                failed.add(len(ops))
                if res is not None:
                    run.failed += 1
                    run.check(False, f"route_nets did not converge: {res}")
    with run.untimed():
        check_traces(run, router, routed)
        check_state(run, router, contention=True)
    with Stopwatch(run):
        for src, _ in routed:
            run.call(router.unroute, src)
    run.check(router.device.state.n_pips_on == 0,
              f"auto cycle left {router.device.state.n_pips_on} PIPs on")
    return failed


def _auto_pins(raw: dict) -> dict:
    """A traffic cycle with its pin triples turned into :class:`Pin`."""
    ops = []
    for kind, src, sink in raw["ops"]:
        if kind == "p2p":
            ops.append((kind, pin(src), pin(sink)))
        elif kind == "bus":
            ops.append((kind, [pin(p) for p in src], [pin(p) for p in sink]))
        else:
            ops.append((kind, pin(src), [pin(p) for p in sink]))
    return {"ops": ops, "nets": [(pin(s), pin(k)) for s, k in raw["nets"]]}


#: reference seconds of one auto_levels pass over its 12 cycles
AUTO_PASS_S = 5.0


def auto_levels(run: Run) -> None:
    cycles = [_auto_pins(c)
              for c in traffic.auto_cycles(run.seed, 2 if run.smoke else 12)]

    def build(i: int):
        cold_graph("XCV300")
        router = JRouter(part="XCV300", workers=2, backend="process")
        router.device.routing_graph().compile()
        _auto_cycle(run, router, cycles[0])  # warm-up: also starts the pool
        return router

    def teardown(router) -> None:
        shutdown_process_pools()
        graph_mod.release_shared_exports()

    run.layers.update(dict.fromkeys(("pathfinder.iterations",
                                     "pathfinder.ipc_bytes"), 0.0))
    known = len(run.problems)
    router = repeated_setup(run, build, teardown)
    # Validation pass: an op this seed's cycle cannot route (a fanout net
    # boxed in by the cycle's other nets, say) is dropped, so the timed
    # passes fail no operation.  Its failure messages are not problems.
    for cycle in cycles:
        bad = _auto_cycle(run, router, cycle)
        if len(cycle["ops"]) in bad:
            cycle["nets"] = []
        cycle["ops"] = [op for i, op in enumerate(cycle["ops"]) if i not in bad]
    del run.problems[known:]
    run.attempted = run.failed = 0
    run.timed_ns = 0
    run.lat_ns.clear()
    run.mark()
    for _ in range(run.passes(AUTO_PASS_S)):
        for cycle in cycles:
            _auto_cycle(run, router, cycle)
            run.mark()
    library_metrics(run, 99)
    _search_layers(run, router)
    shutdown_process_pools()
    graph_mod.release_shared_exports()
    run.mark_peak_rss()


def _search_layers(run: Run, router: JRouter) -> None:
    """Search counters of the whole process and of the measured router."""
    hits, miss = router.p2p_template_hits, router.p2p_maze_fallbacks
    run.layers["p2p.template_share"] = hits / (hits + miss) if hits + miss else 0.0
    stats = GLOBAL_STATS.as_dict()
    for key in ("nodes_expanded", "heap_pushes", "faults_avoided"):
        run.layers[f"search.{key}"] = float(stats[key])
    run.layers["graph.materialized_nodes"] = float(
        router.device.routing_graph().n_materialized
    )


# -- crowded_batch ----------------------------------------------------------------


#: reference seconds of one crowded_batch pass over its 64 calls
CROWDED_PASS_S = 7.0
#: the crowded device's fault map is the same for every seed
CROWDED_FAULT_SEED = 0


def crowded_batch(run: Run) -> None:
    stream = traffic.crowded_traffic(
        run.seed, **(dict(prefill=300, calls=4) if run.smoke else {})
    )
    arch = VirtexArch("XCV50")

    def build(i: int):
        cold_graph("XCV50")
        faults = FaultModel.random(arch, seed=CROWDED_FAULT_SEED,
                                   stuck_open_rate=0.005)
        router = JRouter(part="XCV50", faults=faults)
        router.device.routing_graph().compile()
        for s, k in stream["prefill"]:
            try:
                router.route(pin(s), pin(k))
            except errors.JRouteError:
                pass  # a crowded device refuses some prefill nets
        return router

    run.layers["batch.rerouted"] = 0.0
    router = repeated_setup(run, build, lambda router: None)
    dev = router.device
    prefilled = dev.state.fingerprint()

    def one_call(pairs) -> list:
        """Route one batch, check it, unroute its successes."""
        with Stopwatch(run):
            outs = run.call(router.route_p2p_batch, pairs, place="batch") or []
        ok = [o for o in outs if o.success]
        with run.untimed():
            run.layers["batch.rerouted"] += sum(o.rerouted for o in ok)
            check_traces(run, router, [(o.source, [o.sink]) for o in ok])
        with Stopwatch(run):
            for o in ok:
                run.call(router.unroute, o.source)
        with run.untimed():
            run.check(dev.state.fingerprint() == prefilled,
                      "a batch call did not return the device to its "
                      "prefill state")
        return outs

    # Warm-up pass.  The pairs a call cannot route on this crowded device
    # (about 7%) are dropped, so the timed passes fail no operation.
    calls = []
    for raw in stream["calls"]:
        pairs = [(pin(s), pin(k)) for s, k in raw]
        calls.append([pairs[o.index] for o in one_call(pairs) if o.success])
    run.attempted = run.failed = run.timed_ns = 0
    run.lat_ns.clear()
    run.mark()
    for _ in range(run.passes(CROWDED_PASS_S)):
        for pairs in calls:
            outs = one_call(pairs)
            if not all(o.success for o in outs):
                run.failed += 1
                run.check(False, "a pair that routed in the warm-up failed")
            run.mark()
    library_metrics(run, 80)
    _search_layers(run, router)
    run.mark_peak_rss()
    with run.untimed():
        check_state(run, router, contention=True)


# -- service ----------------------------------------------------------------------


#: light-phase arrival rate: one job every 25 ms, longer than the
#: dispatcher's 20 ms linger, so every job meets an idle service
LIGHT_RPS = 40.0
#: saturating jobs per timed segment: about 0.15 s between two probes
SAT_SEGMENT = 50

_AWAKE_LOOP = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    os.nice(19)
while True:
    pass
"""


@contextlib.contextmanager
def cpus_kept_awake():
    """Run one lowest-priority busy loop per CPU while the block runs.

    On a virtual machine an idle CPU halts, and waking it waits for the
    host's scheduler.  On a busy host that added milliseconds to each
    hop of a light job between the service's processes: the light
    phase's p90 spread over 25-36 ms in ten runs.  The loops keep every
    CPU awake.  They run at ``SCHED_IDLE``, so the kernel gives them a
    CPU only when nothing else wants it.
    """
    loops = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            loops.append(subprocess.Popen(
                [sys.executable, "-c", _AWAKE_LOOP, str(cpu)]))
        yield
    finally:
        for p in loops:
            p.kill()
        for p in loops:
            p.wait()


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds process ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _routable(config, stream: dict) -> dict:
    """Drop the jobs a worker-like router cannot route.

    The phase's jobs are routed in order on a private XCV50 router, one
    batch call per job as a worker makes them; warm-up and timed jobs it
    refuses (about one run in ten has one) are dropped, so the service
    fails no operation.  Workers see subsets of these nets, so what
    routes here routes there.
    """
    router = JRouter(part=config.part, attach_jbits=False,
                     max_nodes=config.worker_max_nodes)

    def routes(src, sink) -> bool:
        return router.route_p2p_batch([(pin(src), pin(sink))])[0].success

    for s, k in stream["pads"]:
        routes(s, k)
    stream["warmup"] = [(s, k) for s, k in stream["warmup"] if routes(s, k)]
    stream["jobs"] = [job for job in stream["jobs"] if routes(job[1], job[2])]
    return stream


def service(run: Run) -> None:
    from repro.service import ServiceConfig
    from repro.service.client import ServiceClient
    from repro.service.loadgen import audit_journal, running_service

    config = ServiceConfig(workers=2, journal_max_bytes=None)
    # Workers never unroute, so every job fills a device for good.  Past
    # ~650 jobs per service XCV50 starts refusing routes; one service
    # therefore takes at most 22 warm-up and 400 timed jobs, and the
    # saturating load is spread over two fresh services.
    warmup = 5 if run.smoke else 20
    sat_jobs, sat_services = (20, 1) if run.smoke else (400, 2)
    boots: list[float] = []
    scaled_boots: list[float] = []
    #: per timed job: due, send and response instants, and finished_at
    stamps: dict[str, dict] = {}
    sat = {"done": 0, "wall": 0.0, "cpu": 0.0, "scaled_cpu": 0.0,
           "accepted": 0, "batches": 0, "requeued": 0}
    sat_latency: list[float] = []

    def boot(name: str, body: Callable) -> None:
        data_dir = os.path.join(run.data_dir, name)
        p0 = probe_ns()
        t0 = time.perf_counter()
        with running_service(config, data_dir) as svc:
            sup = svc.supervisor
            while not all(w["ready"] for w in sup.stats()["workers"]):
                time.sleep(0.002)
            seconds = time.perf_counter() - t0
            boots.append(seconds)
            scaled_boots.append(seconds * 2 * PROBE_REF_NS / (p0 + probe_ns()))
            body(svc)
        audit = audit_journal(os.path.join(data_dir, "jobs.journal"))
        run.check(not audit["lost"] and not audit["duplicates"]
                  and audit["drained"], f"{name} journal audit: {audit}")

    def finished(sup, job_id: str) -> float | None:
        """``Job.finished_at`` of a succeeded job, None if it failed."""
        job = sup.get_job(job_id)
        while not job.state.terminal:
            time.sleep(0.002)
        if job.state.value == "succeeded":
            return job.finished_at
        run.failed += 1
        run.check(False, f"job {job_id}: {job.describe()}")
        return None

    def warm(svc, stream: dict) -> None:
        """Untimed jobs before a phase.

        A worker's first template miss compiles the whole routing graph
        (about a second), and pad-sourced jobs always miss.  The two pad
        jobs are sent further apart than the dispatcher's linger, so the
        second one finds the first worker busy and lands on the other:
        both workers pay the compile here rather than at a random point
        of the timed phase.
        """
        client = ServiceClient("127.0.0.1", svc.port)
        try:
            pads = []
            for s, k in stream["pads"]:
                status, doc = client.submit(s, k, wait=False)
                run.check(status == 202, f"pad job refused: {status} {doc}")
                pads.append(doc.get("job_id", ""))
                time.sleep(0.05)
            for job_id in pads:
                finished(svc.supervisor, job_id)
            for s, k in stream["warmup"]:
                status, doc = client.submit(s, k, wait=True)
                run.check(status == 200 and doc.get("state") == "succeeded",
                          f"warm-up job: {status} {doc}")
        finally:
            client.close()

    def light(svc) -> None:
        """Open loop: a job every 25 ms from one connection, wait=false."""
        with run.untimed():
            stream = _routable(config, traffic.service_traffic(
                run.seed, phase="light", warmup=warmup,
                jobs=int(LIGHT_RPS * run.seconds), rate=LIGHT_RPS,
            ))
        warm(svc, stream)
        client = ServiceClient("127.0.0.1", svc.port)
        sent = []
        latency = []
        with cpus_kept_awake():
            try:
                t0 = time.monotonic()
                for due, s, k in stream["jobs"]:
                    delay = t0 + due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    t_send = time.monotonic()
                    status, doc = client.submit(s, k, wait=False)
                    t_resp = time.monotonic()
                    run.attempted += 1
                    if status != 202:
                        run.failed += 1
                        run.check(False, f"light job refused: {status} {doc}")
                        continue
                    sent.append((doc["job_id"], t0 + due, t_send, t_resp))
            finally:
                client.close()
            for job_id, due, t_send, t_resp in sent:
                end = finished(svc.supervisor, job_id)
                if end is not None:
                    latency.append(end - due)
                    stamps[job_id] = dict(due=due, send=t_send, resp=t_resp,
                                          end=end, light=True)
        # p90, not higher: above it sit the jobs a worker checkpoint or a
        # host hiccup delays, and their count varies from run to run.
        run.metrics["op_p50_us"] = pct(latency, 50) * 1e6
        run.metrics["op_tail_us"] = pct(latency, 90) * 1e6
        run.layers["svc.light_p99_ms"] = pct(latency, 99) * 1e3
        late = [(v["send"] - v["due"]) * 1e3 for v in stamps.values()]
        run.layers["svc.gen_late_p99_ms"] = pct(late, 99)

    def closed_loop(clients: list, jobs: list) -> tuple[list, float]:
        """Each client sends its next job once the last one's result is
        back.  Returns (job id, send, response) per job and the client
        threads' own CPU seconds."""
        queue = iter(jobs)
        lock = threading.Lock()
        done: list[tuple[str, float, float]] = []
        clients_cpu: list[float] = []

        def client_loop(client) -> None:
            c0 = time.thread_time()
            try:
                while True:
                    with lock:
                        job = next(queue, None)
                    if job is None:
                        return
                    t0 = time.monotonic()
                    status, doc = client.submit(job[1], job[2], wait=True)
                    t1 = time.monotonic()
                    with lock:
                        done.append((doc.get("job_id", ""), t0, t1))
                        if status != 200:
                            run.failed += 1
                            run.check(False, f"saturate job: {status} {doc}")
            finally:
                with lock:
                    clients_cpu.append(time.thread_time() - c0)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return done, sum(clients_cpu)

    def saturate(svc, index: int) -> None:
        """Closed loop: two clients, each waiting for its job's result.

        Counts the service's CPU time: that of the worker processes, and
        that of this process less the client threads' own.  The jobs run
        in segments of ``SAT_SEGMENT``; between two, with the service
        idle, the host-speed probe is timed, and each segment's CPU time
        is scaled by the probe around it, taken on every CPU.
        """
        with run.untimed():
            stream = _routable(config, traffic.service_traffic(
                run.seed, phase=f"saturate{index}", warmup=warmup,
                jobs=sat_jobs,
            ))
        warm(svc, stream)
        pids = [w.proc.pid for w in svc.supervisor._workers]
        clients = [ServiceClient("127.0.0.1", svc.port) for _ in range(2)]
        done = []
        try:
            p0 = probe_ns(every_cpu=True)
            for start in range(0, len(stream["jobs"]), SAT_SEGMENT):
                workers_cpu = sum(_cpu_s(pid) for pid in pids)
                cpu0, t0 = time.process_time(), time.monotonic()
                seg, clients_cpu = closed_loop(
                    clients, stream["jobs"][start:start + SAT_SEGMENT])
                sat["wall"] += time.monotonic() - t0
                cpu = (time.process_time() - cpu0 - clients_cpu
                       + sum(_cpu_s(pid) for pid in pids) - workers_cpu)
                p1 = probe_ns(every_cpu=True)
                sat["cpu"] += cpu
                sat["scaled_cpu"] += cpu * 2 * PROBE_REF_NS / (p0 + p1)
                p0 = p1
                done += seg
        finally:
            for c in clients:
                c.close()
        run.attempted += len(done)
        sat["done"] += len(done)
        for job_id, t_send, t_resp in done:
            end = finished(svc.supervisor, job_id) if job_id else None
            if end is not None:
                sat_latency.append(t_resp - t_send)
                stamps[job_id] = dict(due=t_send, send=t_send, resp=t_resp,
                                      end=end, light=False)
        st = svc.supervisor.stats()
        for key in ("accepted", "batches", "requeued"):
            sat[key] += st[key]
        if index == sat_services - 1:
            run.mark_peak_rss()

    boot("light", light)
    for i in range(sat_services):
        boot(f"saturate{i}", lambda svc, i=i: saturate(svc, i))
    run.raw["setup_s"] = statistics.median(boots)
    run.metrics["setup_s"] = statistics.median(scaled_boots)
    # The closed loop keeps about one CPU busy: a job passes through the
    # supervisor and a worker in turn.  So jobs per CPU-second are the
    # jobs it completes per second on a host that gives it that CPU; the
    # waits for a CPU that a shared host adds stay out.  CPU-seconds
    # still stretch with the host's speed, so they are scaled like the
    # library workloads' timings.
    run.raw["ops_per_s"] = sat["done"] / sat["cpu"]
    run.metrics["ops_per_s"] = sat["done"] / sat["scaled_cpu"]
    run.layers["svc.sat_wall_rps"] = sat["done"] / sat["wall"]
    run.layers["svc.sat_p50_ms"] = pct(sat_latency, 50) * 1e3
    run.layers["svc.jobs_per_batch"] = sat["accepted"] / max(1, sat["batches"])
    run.layers["svc.requeued"] = float(sat["requeued"])
    if run.rec is not None:
        _service_stages(run, stamps)


def _service_stages(run: Run, stamps: dict[str, dict]) -> None:
    """Per-job stage times from the supervisor's spans.

    A job's latency runs from its due time to ``Job.finished_at``.  Its
    stages: the generator's lateness, the HTTP handler (``svc.http``,
    which contains admission, ``svc.submit``), the queue wait from
    admission to ``Job.mark_dispatched``, and execution from there to
    ``finished_at``.  Coverage is the share of total latency the union of
    these stages accounts for; the rest is the request's way from the
    client to the handler, reported as ``svc.transport_ms``.  Stage
    percentiles are over the open-loop (light) jobs; the execution tail
    is also reported for the saturating jobs.
    """
    rec = run.rec

    def by_job(name: str) -> dict:
        return {rec.request_of(i): (rec.start_ns[i] / 1e9, rec.end_ns[i] / 1e9)
                for i in rec.spans_of(name)}

    http, submit, dispatch = by_job("svc.http"), by_job("svc.submit"), \
        by_job("svc.dispatch")
    rtt, door, wait, execs, sat_execs = [], [], [], [], []
    covered = total = 0.0
    for job_id, v in stamps.items():
        if not (job_id in http and job_id in submit and job_id in dispatch):
            continue
        s1, d = submit[job_id][1], dispatch[job_id][1]
        stages = sorted([(v["due"], v["send"]), http[job_id], submit[job_id],
                         (s1, d), (d, v["end"])])
        reach = v["due"]
        for a, b in stages:
            a, b = max(a, reach), min(b, v["end"])
            if b > a:
                covered += b - a
                reach = b
        total += v["end"] - v["due"]
        if v["light"]:
            rtt.append((v["resp"] - v["send"]) * 1e3)
            door.append((http[job_id][0] - v["send"]) * 1e3)
            wait.append((d - s1) * 1e3)
            execs.append((v["end"] - d) * 1e3)
        else:
            sat_execs.append((v["end"] - d) * 1e3)
    for name, xs in (("post_rtt_ms", rtt), ("transport_ms", door),
                     ("queue_wait_ms", wait), ("exec_ms", execs)):
        run.layers[f"svc.{name}.p50"] = pct(xs, 50) if xs else 0.0
        run.layers[f"svc.{name}.p99"] = pct(xs, 99) if xs else 0.0
    run.layers["svc.sat_exec_p99_ms"] = pct(sat_execs, 99) if sat_execs else 0.0
    run.layers["trace.coverage"] = covered / total if total else 0.0


# -- entry point --------------------------------------------------------------------


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "rtr_explicit": rtr_explicit,
    "auto_levels": auto_levels,
    "crowded_batch": crowded_batch,
    "service": service,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--setups", type=int, default=3)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    run = Run(args.seed, args.seconds, args.setups, args.smoke, args.data_dir)
    if args.trace:
        import spans

        run.rec = spans.Recorder()
        run.rec.install()
    WORKLOADS[args.workload](run)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": run.metrics,
        "raw": run.raw,
    }
    if run.rec is not None:
        rec = run.rec
        rec.uninstall()
        spans_out, coverage = spans.span_metrics(
            rec, spans.span_names(), API_ROOTS
        )
        layers = dict.fromkeys(COUNTERS, 0.0)
        layers["trace.coverage"] = coverage
        layers.update(run.layers)
        layers.update(spans_out)
        result["layers"] = layers
        rec.save(os.path.join(args.data_dir, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
