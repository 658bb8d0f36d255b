"""Experiment harness: one runner per experiment of EXPERIMENTS.md.

The paper's evaluation is qualitative (one figure, no numeric tables);
each ``run_eN`` function here quantifies one of its claims and returns a
printable :class:`~repro.bench.metrics.Table`.  ``run_all`` regenerates
every table; the CLI (``python -m repro.bench``) drives it.
"""

from __future__ import annotations

import time

from .. import errors
from ..arch import connectivity, devices, wires
from ..arch.graph import RoutingGraph
from ..arch.virtex import VirtexArch
from ..arch.wires import WireClass
from ..core import JRouter, Path, Pin, Template
from ..arch.templates import TemplateValue as TV
from ..cores import (
    AdderCore,
    ConstantMultiplierCore,
    CounterCore,
    RegisterCore,
    replace_core,
    relocate_core,
)
from ..device.fabric import Device
from ..jbits import write_bitstream
from ..routers import (
    NetSpec,
    route_maze,
    route_pathfinder,
    route_point_to_point,
)
from .metrics import Table, best_of, time_call
from .workloads import (
    high_fanout_net,
    large_bbox_nets,
    random_p2p_nets,
)

__all__ = [
    "run_e1", "run_e2", "run_e3", "run_e4", "run_e5", "run_e6",
    "run_e7", "run_e8", "run_e9", "run_e10", "run_e11", "run_e12", "run_e13", "run_e14",
    "run_e15", "run_e16", "run_e18", "run_e19", "run_e20",
    "run_all", "EXPERIMENTS", "SMOKE_MATRIX",
]

_US = 1e6


# ---------------------------------------------------------------------------
# E1 / Figure 1: architecture census
# ---------------------------------------------------------------------------

def run_e1(parts: tuple[str, ...] = ("XCV50", "XCV300", "XCV1000")) -> Table:
    """Fabric census vs the paper's Section 2 / data-book numbers."""
    t = Table(
        "E1 (Fig. 1): Virtex-class fabric census",
        [
            "part", "CLB array", "singles/dir", "hexes/dir(acc)", "longs H+V",
            "globals", "wires (exist)", "PIP names/tile",
        ],
    )
    for name in parts:
        arch = VirtexArch(name)
        existing = sum(arch.wire_exists(c) for c in range(arch.n_wires))
        t.add(
            name,
            f"{arch.rows}x{arch.cols}",
            wires.N_SINGLES_PER_DIR,
            wires.N_HEXES_PER_DIR,
            f"{wires.N_LONGS}+{wires.N_LONGS}",
            wires.N_GCLK,
            existing,
            connectivity.N_PIP_SLOTS,
        )
    # drive-legality audit: Section 2's rules hold exactly
    cls_of = lambda n: wires.wire_info(n).wire_class  # noqa: E731
    violations = 0
    for (src, dst) in connectivity.PIP_LIST:
        cs, cd = cls_of(src), cls_of(dst)
        ok = (
            (cs is WireClass.SLICE_OUT and cd is WireClass.OUT)
            or (cs is WireClass.OUT)   # outputs drive all lengths + feedback
            or (cs is WireClass.DIRECT and cd in (WireClass.SLICE_IN, WireClass.CTL_IN))
            or (cs in (WireClass.LONG_H, WireClass.LONG_V) and cd is WireClass.HEX)
            or (cs is WireClass.HEX and cd in (WireClass.SINGLE, WireClass.HEX))
            or (
                cs is WireClass.SINGLE
                and cd in (WireClass.SLICE_IN, WireClass.CTL_IN,
                           WireClass.LONG_V, WireClass.SINGLE)
            )
            or (cs is WireClass.GCLK and cd is WireClass.CTL_IN)
            or (cs is WireClass.IOB_IN and cd in (WireClass.SINGLE, WireClass.HEX))
            or (cd is WireClass.IOB_OUT and cs in (WireClass.SINGLE, WireClass.OUT))
        )
        if not ok:
            violations += 1
    t.note(f"drive-legality violations vs Section 2 rules: {violations}")
    t.note("paper: 24 singles/dir, 12 accessible hexes/dir, 12 longs, 4 globals")
    return t


# ---------------------------------------------------------------------------
# E2: routing time vs level of control
# ---------------------------------------------------------------------------

def run_e2(repeats: int = 30) -> Table:
    """Execution-time cost of rising abstraction (Section 3.1's tradeoff)."""
    t = Table(
        "E2: routing time vs level of control (same net, XCV50)",
        ["level", "call form", "time/route (us)", "pips"],
    )
    router = JRouter(part="XCV50")
    src = Pin(5, 7, wires.S1_YQ)

    def lvl1():
        router.route(5, 7, wires.S1_YQ, wires.OUT[1])
        router.route(5, 7, wires.OUT[1], wires.SINGLE_E[5])
        router.route(5, 8, wires.SINGLE_W[5], wires.SINGLE_N[0])
        router.route(6, 8, wires.SINGLE_S[0], wires.S0F[3])
        n = router.device.state.n_pips_on
        router.unroute(src)
        return n

    path = Path(5, 7, [wires.S1_YQ, wires.OUT[1], wires.SINGLE_E[5],
                       wires.SINGLE_N[0], wires.S0F[3]])

    def lvl2():
        router.route(path)
        n = router.device.state.n_pips_on
        router.unroute(src)
        return n

    tmpl = Template([TV.OUTMUX, TV.EAST1, TV.NORTH1, TV.CLBIN])

    def lvl3():
        router.route(src, wires.S0F[3], tmpl)
        n = router.device.state.n_pips_on
        router.unroute(src)
        return n

    sink = Pin(6, 8, wires.S0F[3])

    def lvl4_template():
        router.route(src, sink)
        n = router.device.state.n_pips_on
        router.unroute(src)
        return n

    def lvl4_maze():
        router.try_templates = False
        router.route(src, sink)
        n = router.device.state.n_pips_on
        router.unroute(src)
        router.try_templates = True
        return n

    for label, form, fn in (
        ("1", "route(row,col,from,to) x4", lvl1),
        ("2", "route(Path)", lvl2),
        ("3", "route(Pin,wire,Template)", lvl3),
        ("4a", "route(src,sink) templates", lvl4_template),
        ("4b", "route(src,sink) maze only", lvl4_maze),
    ):
        dt, pips = best_of(fn, repeats=repeats)
        t.add(label, form, dt * _US, pips)
    t.note("paper: higher levels need no architecture knowledge; cost is time")
    return t


# ---------------------------------------------------------------------------
# E3: fanout call vs individual routes
# ---------------------------------------------------------------------------

def run_e3(fanouts: tuple[int, ...] = (2, 4, 8, 16), seed: int = 7) -> Table:
    """Resource usage: route(src, sinks[]) vs per-sink routes.

    Two per-sink baselines: ``individual`` searches each sink on its own
    (sharing only the source's OMUX stage), ``level-4 loop`` calls the
    API once per sink, in the net's sink order, so each call extends the
    routed net.  A row's time is the best of 3 runs, each on a fresh
    device built outside the timed region.
    """
    from functools import partial

    from ..timing import route_balanced_fanout

    def route_each(router: JRouter, src, sinks) -> None:
        for sink in sinks:
            router.route(src, sink)

    t = Table(
        "E3: fanout routing vs individual sink routing (XCV50)",
        ["fanout", "mode", "pips", "wirelength", "time (ms)"],
    )
    for fo in fanouts:
        for mode in ("individual", "level-4 loop", "fanout"):
            best = float("inf")
            for _ in range(3):
                device = Device("XCV50")
                net = high_fanout_net(device.arch, fo, seed=seed)
                if mode == "fanout":
                    router = JRouter(device=device, attach_jbits=False)
                    call = partial(router.route, net.source, list(net.sinks))
                elif mode == "level-4 loop":
                    router = JRouter(device=device, attach_jbits=False)
                    call = partial(route_each, router, net.source, net.sinks)
                else:
                    # each sink gets its own search, sharing the source's
                    # OMUX stage (same physical driver) but not the
                    # distribution tree
                    src = device.resolve(
                        net.source.row, net.source.col, net.source.wire
                    )
                    sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
                    call = partial(route_balanced_fanout, device, src, sinks)
                dt, _ = time_call(call)
                best = min(best, dt)
            arch = device.arch
            used = [int(w) for w in device.state.used_wires()]
            wl = sum(
                arch.wire_length(arch.primary_name(w)[2]) for w in used
            )
            t.add(fo, mode, device.state.n_pips_on, wl, best * 1e3)
    t.note("paper: the fanout call 'minimizes the routing resources used'")
    t.note("level-4 loop: one route(src, sink) call per sink, net's sink order")
    return t


# ---------------------------------------------------------------------------
# E4: bus routing between core port groups
# ---------------------------------------------------------------------------

def run_e4(width: int = 8) -> Table:
    """Port-to-port bus convenience (multiplier -> adder, Section 3.1)."""
    t = Table(
        "E4: bus routing between core ports (XCV100)",
        ["mode", "user route() calls", "pips", "time (ms)"],
    )

    def build(mode: str):
        router = JRouter(part="XCV100")
        kcm = ConstantMultiplierCore(router, "mult", 2, 2, width=width, constant=11)
        adder = AdderCore(router, "acc", 2, 6, width=width)
        outs = list(kcm.get_ports("out"))[:width]
        ins = list(adder.get_ports("a"))
        base_calls = router.call_count
        base_pips = router.device.state.n_pips_on
        t0 = time.perf_counter()
        if mode == "bus call":
            router.route(outs, ins)
        else:
            for o, i in zip(outs, ins):
                router.route(o, i)
        dt = time.perf_counter() - t0
        return (
            router.call_count - base_calls,
            router.device.state.n_pips_on - base_pips,
            dt,
        )

    for mode in ("per-bit loop", "bus call"):
        calls, pips, dt = build(mode)
        t.add(mode, calls, pips, dt * 1e3)
    t.note("paper: 'the user would not need to connect each bit of the bus'")
    return t


# ---------------------------------------------------------------------------
# E5: run-time core replacement (constant multiplier swap)
# ---------------------------------------------------------------------------

def run_e5(width: int = 4) -> Table:
    """RTR swap: unroute + replace + auto-reconnect vs full rebuild."""
    t = Table(
        "E5: constant-multiplier swap (Section 3.3, XCV100)",
        ["approach", "time (ms)", "pips changed", "frames shipped", "bytes"],
    )

    def fresh():
        router = JRouter(part="XCV100")
        kcm = ConstantMultiplierCore(router, "kcm", 2, 2, width=width, constant=5)
        reg = RegisterCore(router, "reg", 2, 6, width=kcm.out_width)
        router.route(list(kcm.get_ports("out")), list(reg.get_ports("d")))
        assert router.jbits is not None
        router.jbits.memory.clear_dirty()
        return router, kcm, reg

    # approach 1: RTR replace (remembered ports reconnect automatically)
    router, kcm, reg = fresh()
    before = router.device.state.n_pips_on
    t0 = time.perf_counter()
    replace_core(kcm, constant=7)
    dt_replace = time.perf_counter() - t0
    assert router.jbits is not None
    dirty = router.jbits.memory.dirty_frames
    partial = write_bitstream(router.jbits.memory, dirty)
    t.add("unroute+replace+reconnect", dt_replace * 1e3,
          router.device.state.n_pips_on, len(dirty), len(partial))

    # approach 2: full rebuild from scratch (traditional flow)
    t0 = time.perf_counter()
    router2 = JRouter(part="XCV100")
    kcm2 = ConstantMultiplierCore(router2, "kcm", 2, 2, width=width, constant=7)
    reg2 = RegisterCore(router2, "reg", 2, 6, width=kcm2.out_width)
    router2.route(list(kcm2.get_ports("out")), list(reg2.get_ports("d")))
    dt_rebuild = time.perf_counter() - t0
    assert router2.jbits is not None
    full = write_bitstream(router2.jbits.memory)
    t.add("full rebuild + full config", dt_rebuild * 1e3,
          router2.device.state.n_pips_on,
          router2.jbits.memory.n_frames, len(full))
    t.add("note: pips before swap", before, "", "", "")
    t.note("partial reconfiguration ships only dirty frames")
    return t


# ---------------------------------------------------------------------------
# E6: contention detection
# ---------------------------------------------------------------------------

def run_e6(n_nets: int = 30, seed: int = 3) -> Table:
    """Bidirectional-wire contention protection (Section 3.4)."""
    t = Table(
        "E6: contention detection on bidirectional wires (XCV50)",
        ["scenario", "attempts", "exceptions", "silent corruptions"],
    )
    device = Device("XCV50")
    nets = random_p2p_nets(device.arch, n_nets, seed=seed)
    from ..routers.base import apply_plan

    for net in nets:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sink = device.resolve(net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire)
        res = route_point_to_point(device, src, sink, try_templates=False)
        apply_plan(device, res.plan)

    # try to re-drive every used, drivable wire from every fan-in PIP
    attempts = caught = corrupt = 0
    used = [int(w) for w in device.state.used_wires()]
    for w in used:
        if not device.state.is_driven(w):
            continue
        for row, col, from_name, to_name, canon_from in device.fanin_pips(w):
            if canon_from == device.state.pip_of[w].canon_from:
                continue  # same driver: idempotent, not contention
            attempts += 1
            try:
                device.turn_on(row, col, from_name, to_name)
            except errors.ContentionError:
                caught += 1
            except errors.JRouteError:
                caught += 1  # loop protection also prevents double drive
            else:
                corrupt += 1
    t.add("re-drive routed wires", attempts, caught, corrupt)

    # is_on query throughput
    q = 0
    t0 = time.perf_counter()
    for w in used[:500]:
        r, c, n = device.arch.primary_name(w)
        device.is_on(r, c, n)
        q += 1
    dt = time.perf_counter() - t0
    t.note(f"isOn throughput: {q / dt:,.0f} queries/s")
    t.note("paper: 'an exception is thrown ... the router protects the device'")
    return t


# ---------------------------------------------------------------------------
# E7: JRoute vs raw JBits
# ---------------------------------------------------------------------------

def run_e7(width: int = 8) -> Table:
    """API-call burden: port-level JRoute vs PIP-level JBits (Section 4)."""
    t = Table(
        "E7: JRoute vs routing with raw JBits (XCV100)",
        ["interface", "user calls", "distinct wire names typed", "arch knowledge"],
    )
    router = JRouter(part="XCV100")
    kcm = ConstantMultiplierCore(router, "mult", 2, 2, width=width, constant=9)
    adder = AdderCore(router, "add", 2, 6, width=width)
    base_calls = router.call_count
    router.route(list(kcm.get_ports("out"))[:width], list(adder.get_ports("a")))
    jroute_calls = router.call_count - base_calls

    from ..debug.netlist import export_netlist

    netlist = export_netlist(router.device)
    # what the same connectivity costs through raw JBits: one set() per PIP
    pip_calls = sum(len(n["pips"]) for n in netlist)
    names_typed = set()
    for n in netlist:
        for p in n["pips"]:
            names_typed.add(p["from"])
            names_typed.add(p["to"])
    t.add("JRoute port bus", jroute_calls, 0, "none (ports only)")
    t.add("raw JBits PIPs", pip_calls, len(names_typed), "full routing arch")
    t.note("paper: 'a user can create designs without knowledge of the routing "
           "architecture by using port to port connections'")
    return t


# ---------------------------------------------------------------------------
# E8: router shoot-out
# ---------------------------------------------------------------------------

def run_e8(n_nets: int = 40, seed: int = 11) -> Table:
    """Greedy JRoute calls vs maze variants vs PathFinder baseline.

    A row's time is the best of 3 runs, each on a fresh device whose
    routing graph is compiled outside the timed region, so no row
    times the one-off compile.
    """
    t = Table(
        "E8: router comparison on random workloads (XCV50)",
        ["router", "nets routed", "failed", "pips", "time (ms)"],
    )
    arch = VirtexArch("XCV50")
    nets = random_p2p_nets(arch, n_nets, seed=seed)
    from ..routers.base import apply_plan

    def best_run(route):
        best = float("inf")
        for _ in range(3):
            device = Device("XCV50")
            device.routing_graph()  # built outside the timed routes
            pairs = [
                (
                    device.resolve(net.source.row, net.source.col, net.source.wire),
                    device.resolve(
                        net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire
                    ),
                )
                for net in nets
            ]
            dt, out = time_call(lambda: route(device, pairs))
            best = min(best, dt)
        return best, device, out

    def sequential(device, pairs, **kw):
        ok = fail = 0
        for src, sink in pairs:
            try:
                apply_plan(device, route_point_to_point(device, src, sink, **kw).plan)
                ok += 1
            except errors.JRouteError:
                fail += 1
        return ok, fail

    for label, kw in (
        ("greedy templates+maze", dict(try_templates=True)),
        ("greedy maze (Dijkstra)", dict(try_templates=False)),
        ("greedy A* (w=0.8)", dict(try_templates=False, heuristic_weight=0.8)),
        ("greedy maze, no longs", dict(try_templates=False, use_longs=False)),
    ):
        dt, device, (ok, fail) = best_run(
            lambda device, pairs, kw=kw: sequential(device, pairs, **kw)
        )
        t.add(label, ok, fail, device.state.n_pips_on, dt * 1e3)

    dt, device, res = best_run(
        lambda device, pairs: route_pathfinder(
            device, [NetSpec.of(src, [sink]) for src, sink in pairs]
        )
    )
    t.add(
        f"PathFinder ({res.iterations} iters)",
        len(nets) if res.converged else 0,
        0 if res.converged else len(nets),
        device.state.n_pips_on,
        dt * 1e3,
    )
    t.note("paper: 'in an RTR environment traditional routing algorithms "
           "require too much time'")
    return t


# ---------------------------------------------------------------------------
# E9: template hit rate vs displacement
# ---------------------------------------------------------------------------

def run_e9(samples_per_bucket: int = 12, seed: int = 23) -> Table:
    """Predefined-template success rate as a function of net span.

    Each net's template and maze times are the best of 3 calls on a
    device built outside the timed region.
    """
    t = Table(
        "E9: predefined templates vs maze fallback (XCV50, empty fabric)",
        ["span bucket", "nets", "template hits", "maze fallbacks",
         "template time (us)", "maze time (us)"],
    )
    arch = VirtexArch("XCV50")
    buckets = ((1, 3), (4, 7), (8, 12), (13, 20), (21, 30))
    for lo, hi in buckets:
        nets = random_p2p_nets(
            arch, samples_per_bucket, seed=seed + lo, min_span=lo, max_span=hi
        )
        hits = falls = 0
        t_tmpl = t_maze = 0.0
        for net in nets:
            device = Device("XCV50")
            src = device.resolve(net.source.row, net.source.col, net.source.wire)
            sink = device.resolve(net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire)
            # a plan is not applied, so every call sees the same empty device
            dt, res = best_of(
                lambda: route_point_to_point(device, src, sink, try_templates=True)
            )
            if res.method == "template":
                hits += 1
                t_tmpl += dt
            else:
                falls += 1
            dtm, _ = best_of(
                lambda: route_point_to_point(device, src, sink, try_templates=False)
            )
            t_maze += dtm
        n = len(nets)
        t.add(
            f"{lo}-{hi}",
            n,
            hits,
            falls,
            (t_tmpl / hits * _US) if hits else float("nan"),
            t_maze / n * _US,
        )
    t.note("paper: templates 'reduce the search space'; maze is the fallback")
    return t


# ---------------------------------------------------------------------------
# E10: scaling across the family
# ---------------------------------------------------------------------------

def run_e10(parts: tuple[str, ...] | None = None) -> Table:
    """Fabric scale, routing-graph build and cross-chip route cost."""
    t = Table(
        "E10: scaling across the Virtex family",
        ["part", "CLBs", "wires", "build (ms)", "graph build (ms)",
         "cross-chip route (ms)", "config frames", "full bitstream (KiB)"],
    )
    parts = parts if parts is not None else devices.part_names()
    for name in parts:
        dt_build, device = time_call(lambda: Device(name))
        arch = device.arch
        # a fresh build, whether or not this process holds the part's
        # graph; it is dropped at once, before the shared one is built
        dt_graph = time_call(lambda: RoutingGraph(arch))[0]
        device.routing_graph()  # the shared graph the route reads
        src = device.resolve(1, 1, wires.S0_X)
        sink = device.resolve(arch.rows - 2, arch.cols - 2, wires.S1G[2])
        dt_route, res = time_call(
            lambda: route_maze(device, [src], {sink}, heuristic_weight=0.8)
        )
        from ..jbits import ConfigMemory

        mem = ConfigMemory(arch)
        t.add(
            name,
            arch.n_tiles,
            arch.n_wires,
            dt_build * 1e3,
            dt_graph * 1e3,
            dt_route * 1e3,
            mem.n_frames,
            mem.n_frames * mem.frame_bits / 32 * 4 / 1024,
        )
    return t


# ---------------------------------------------------------------------------
# E11: long-line ablation
# ---------------------------------------------------------------------------

def run_e11(n_nets: int = 10, seed: int = 31) -> Table:
    """Long lines on large-bounding-box nets (Section 6 future work)."""
    t = Table(
        "E11: long-line ablation on large-bbox nets (XCV300)",
        ["mode", "nets routed", "pips", "route cost", "time (ms)"],
    )
    arch = VirtexArch("XCV300")
    nets = large_bbox_nets(arch, n_nets, seed=seed)
    from ..routers.base import apply_plan, plan_cost

    for label, use_longs in (("no longs (paper today)", False),
                             ("with longs (future work)", True)):
        device = Device("XCV300")
        ok = 0
        cost = 0.0
        t0 = time.perf_counter()
        for net in nets:
            src = device.resolve(net.source.row, net.source.col, net.source.wire)
            sink = device.resolve(net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire)
            try:
                res = route_maze(device, [src], {sink}, use_longs=use_longs,
                                 heuristic_weight=0.5)
            except errors.UnroutableError:
                continue
            apply_plan(device, res.plan)
            cost += plan_cost(device, res.plan)
            ok += 1
        dt = time.perf_counter() - t0
        t.add(label, ok, device.state.n_pips_on, cost, dt * 1e3)
    t.note("paper: longs 'would improve the routing of nets with large "
           "bounding boxes'")
    return t


# ---------------------------------------------------------------------------
# E12: core relocation
# ---------------------------------------------------------------------------

def run_e12(width: int = 4) -> Table:
    """Relocate a counter core; partial-reconfig cost vs full config."""
    t = Table(
        "E12: counter relocation (Section 3.3, XCV100)",
        ["step", "time (ms)", "pips on", "frames shipped", "bytes"],
    )
    router = JRouter(part="XCV100")
    ctr = CounterCore(router, "ctr", 2, 2, width=width)
    reg = RegisterCore(router, "mon", 2, 8, width=width)
    router.route(list(ctr.get_ports("q")), list(reg.get_ports("d")))
    assert router.jbits is not None
    full = write_bitstream(router.jbits.memory)
    t.add("initial build", "", router.device.state.n_pips_on,
          router.jbits.memory.n_frames, len(full))
    router.jbits.memory.clear_dirty()
    t0 = time.perf_counter()
    relocate_core(ctr, 8, 2)
    dt = time.perf_counter() - t0
    dirty = router.jbits.memory.dirty_frames
    partial = write_bitstream(router.jbits.memory, dirty)
    t.add("relocate (2,2)->(8,2)", dt * 1e3, router.device.state.n_pips_on,
          len(dirty), len(partial))
    t.note("remembered port connections re-route automatically after the move")
    return t


# ---------------------------------------------------------------------------
# E13: skew-aware routing (Section 6 future work: "skew minimization")
# ---------------------------------------------------------------------------

def run_e13(fanouts: tuple[int, ...] = (4, 8), seed: int = 5) -> Table:
    """Skew of greedy vs balanced vs equalised fanout routing."""
    from ..timing import equalize_skew, net_timing, route_balanced_fanout

    t = Table(
        "E13: clock-style fanout skew (Section 6 future work, XCV50)",
        ["fanout", "strategy", "pips", "skew (ns)", "max delay (ns)"],
    )
    for fo in fanouts:
        for strategy in ("greedy", "balanced", "greedy+equalize"):
            device = Device("XCV50")
            net = high_fanout_net(device.arch, fo, seed=seed)
            src = device.resolve(net.source.row, net.source.col, net.source.wire)
            sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
            if strategy == "balanced":
                route_balanced_fanout(device, src, sinks)
            else:
                JRouter(device=device, attach_jbits=False).route(
                    net.source, list(net.sinks)
                )
                if strategy == "greedy+equalize":
                    equalize_skew(device, src, tolerance=0.5)
            timing = net_timing(device, src)
            t.add(fo, strategy, device.state.n_pips_on, timing.skew,
                  timing.max_delay)
    t.note("dedicated global nets remain the zero-skew option for clocks")
    return t


# ---------------------------------------------------------------------------
# E14: IOB routing (Section 6 future work: "Virtex features such as IOBs")
# ---------------------------------------------------------------------------

def run_e14(width: int = 8) -> Table:
    """Off-chip I/O: pad bus -> register -> pad bus, measured end to end."""
    from ..cores import RegisterCore
    from ..io import IoRing, PadDirection, Side

    t = Table(
        "E14: IOB ring routing (Section 6 future work, XCV100)",
        ["step", "pips", "time (ms)", "detail"],
    )
    router = JRouter(part="XCV100")
    ring = IoRing(router.device.arch)
    t.add("pad inventory", "", "", f"{ring.n_pads()} pads "
          f"({wires.N_IOB_PER_TILE} in + {wires.N_IOB_PER_TILE} out per "
          f"perimeter CLB)")
    reg = RegisterCore(router, "reg", 8, 8, width=width)
    in_bus = ring.bus(Side.WEST, PadDirection.IN, width, offset=18)
    out_bus = ring.bus(Side.EAST, PadDirection.OUT, width, offset=18)
    before = router.device.state.n_pips_on
    dt_in, _ = time_call(lambda: router.route(in_bus, list(reg.get_ports("d"))))
    mid = router.device.state.n_pips_on
    t.add("pads -> register d", mid - before, dt_in * 1e3, f"{width} bits from WEST")
    dt_out, _ = time_call(lambda: router.route(list(reg.get_ports("q")), out_bus))
    t.add("register q -> pads", router.device.state.n_pips_on - mid,
          dt_out * 1e3, f"{width} bits to EAST")
    # functional check through the simulator
    from ..sim import Simulator

    sim = Simulator(router.device, router.jbits)
    sim.drive_bus(in_bus, 0xA5 & ((1 << width) - 1))
    sim.step()
    got = sim.read_bus(out_bus)
    t.add("simulated loopback", "", "", f"drove 0x{0xA5 & ((1 << width) - 1):02X}, "
          f"read 0x{got:02X} after one clock")
    t.note("paper: 'Virtex features such as IOBs ... will be supported'")
    return t


# ---------------------------------------------------------------------------
# E15: floorplan defragmentation (an RTR tool built on the API, Section 1)
# ---------------------------------------------------------------------------

def run_e15() -> Table:
    """Fragmentation -> compaction: free-space recovery via relocation."""
    from ..cores import AccumulatorCore, ConstantCore, RegisterCore
    from ..cores.core import _floorplan_of
    from ..tools import defrag, find_fit, largest_free_rect

    t = Table(
        "E15: run-time floorplan defragmentation (XCV100)",
        ["state", "largest free rect", "18x24 core fits", "moves", "time (ms)"],
    )
    router = JRouter(part="XCV100")
    acc = AccumulatorCore(router, "acc", 8, 12, width=4)
    k = ConstantCore(router, "k", 3, 22, width=4, value=3)
    mon = RegisterCore(router, "mon", 14, 5, width=4)
    router.route(list(k.get_ports("out")), list(acc.get_ports("in")))
    router.route(list(acc.get_ports("q")), list(mon.get_ports("d")))
    fp = _floorplan_of(router)
    before = largest_free_rect(fp)
    t.add("fragmented", f"{before.height}x{before.width}",
          find_fit(fp, 18, 24) is not None, "", "")
    t0 = time.perf_counter()
    result = defrag(router, [acc, k, mon])
    dt = time.perf_counter() - t0
    after = result.largest_free_after
    t.add("defragmented", f"{after.height}x{after.width}",
          find_fit(fp, 18, 24) is not None, len(result.moves), dt * 1e3)
    t.note("every move is a Section 3.3 relocation with automatic reconnection")
    return t


# ---------------------------------------------------------------------------
# E16: fault-injected fabrics + rip-up/retry (robustness extension)
# ---------------------------------------------------------------------------

def run_e16(
    n_nets: int = 60,
    seed: int = 17,
    fault_seed: int = 5,
    rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    smoke: bool = False,
) -> Table:
    """Route-success rate and retry overhead under injected PIP faults."""
    from ..core import RetryPolicy
    from ..device import FaultModel

    if smoke:
        n_nets = min(n_nets, 24)
    t = Table(
        "E16: fault-injected routing with rip-up/retry (XCV50)",
        ["stuck-open rate", "retry", "routed", "success %", "ripped",
         "faults avoided", "time (ms)"],
    )
    arch = VirtexArch("XCV50")
    nets = random_p2p_nets(arch, n_nets, seed=seed)
    for rate in rates:
        for policy in (None, RetryPolicy(max_attempts=4)):
            faults = (
                FaultModel.random(arch, seed=fault_seed, stuck_open_rate=rate)
                if rate else None
            )
            router = JRouter(part="XCV50", faults=faults, retry=policy)
            ok = ripped = avoided = 0
            t0 = time.perf_counter()
            for net in nets:
                try:
                    router.route(net.source, net.sinks[0])
                # failures are the point of fault injection; the outcome
                # is accounted from last_report just below
                except errors.JRouteError:  # repro: noqa RPR006
                    pass
                rep = router.last_report
                if rep is not None:
                    ok += rep.success
                    ripped += len(rep.ripped_nets)
                    avoided += rep.faults_avoided
            dt = (time.perf_counter() - t0) * 1e3
            t.add(f"{rate:.0%}", "on" if policy else "off",
                  f"{ok}/{n_nets}", f"{100 * ok / n_nets:.1f}",
                  ripped, avoided, dt)
    t.note("acceptance target: >= 90% success at a 5% stuck-open rate; the "
           "retry rows show the recovery loop's cost on the same workload")
    return t


# ---------------------------------------------------------------------------
# E18: durable sessions — WAL overhead, crash recovery, scrubbing, deadlines
# ---------------------------------------------------------------------------

def run_e18(
    n_nets: int = 40,
    seed: int = 23,
    n_seu: int = 12,
    smoke: bool = False,
) -> Table:
    """Durability costs and guarantees: WAL, recovery, scrub, deadlines."""
    import os
    import tempfile

    from ..core import DurableSession, Scrubber, inject_seu, recover
    from ..jbits.readback import verify_against_device

    if smoke:
        n_nets = min(n_nets, 16)
        n_seu = min(n_seu, 6)
    t = Table(
        "E18: durable routing sessions (XCV50)",
        ["stage", "detail", "result", "time (ms)"],
    )
    arch = VirtexArch("XCV50")
    nets = random_p2p_nets(arch, n_nets, seed=seed)

    def route_all(router):
        ok = 0
        for net in nets:
            try:
                ok += bool(router.route(net.source, net.sinks[0]))
            # unroutable nets only lower the ok count; the bench
            # compares ok across configurations
            except errors.JRouteError:  # repro: noqa RPR006
                pass
        return ok

    # baseline vs journaled session (WAL fsync-per-event overhead)
    plain = JRouter(part="XCV50")
    dt_plain, ok_plain = time_call(lambda: route_all(plain))
    t.add("route, no WAL", f"{n_nets} p2p nets", f"{ok_plain} routed",
          dt_plain * 1e3)
    tmp = tempfile.mkdtemp(prefix="e18-")
    wal_path = os.path.join(tmp, "session.wal")
    live = JRouter(part="XCV50")
    with DurableSession(live, wal_path, checkpoint_every=64) as session:
        dt_wal, ok_wal = time_call(lambda: route_all(live))
        events = session.seq
    t.add("route, WAL + ckpt/64", f"{events} events journaled",
          f"{ok_wal} routed "
          f"(+{100 * (dt_wal - dt_plain) / dt_plain:.0f}% overhead)",
          dt_wal * 1e3)

    # crash recovery: rebuild from the log, prove state identity
    dt_rec, (recovered, report) = time_call(lambda: recover(wal_path))
    identical = (
        recovered.device.state.fingerprint() == live.device.state.fingerprint()
        and recovered.jbits.memory == live.jbits.memory
    )
    t.add("crash recovery", report.summary(),
          f"state identical: {identical}", dt_rec * 1e3)

    # scrubbing: seeded SEUs detected, classified, repaired
    scrubber = Scrubber(live.jbits.memory, device=live.device)
    inject_seu(live.jbits.memory, n_flips=n_seu, seed=seed)
    dt_scrub, scrub_report = time_call(scrubber.scrub)
    coherent = not verify_against_device(live.jbits.memory, live.device)
    t.add("SEU scrub", scrub_report.summary(),
          f"coherent after repair: {coherent}", dt_scrub * 1e3)

    # deadline-bounded search: tiny budget => partial reports, no hangs
    bounded = JRouter(part="XCV50", deadline_ms=0.05)
    partial = full = 0
    t0 = time.perf_counter()
    for net in nets:
        bounded.route(net.source, net.sinks[0])
        rep = bounded.last_report
        if rep is not None and (rep.timed_out or rep.breaker_open):
            partial += 1
        else:
            full += 1
    dt_deadline = (time.perf_counter() - t0) * 1e3
    t.add("deadline 0.05 ms/net", f"{partial} partial, {full} completed",
          "no hang, no exception escape", dt_deadline)
    t.note("WAL overhead buys replayable sessions; scrub target: 100% of "
           "seeded upsets repaired without touching clean frames")
    return t


def run_e19(
    n_plans: int = 256,
    seed: int = 19,
    smoke: bool = False,
) -> Table:
    """Static-analysis throughput and the seeded-defect detection rate."""
    import os
    import tempfile

    from ..analysis import analyze_paths, default_target
    from ..analysis import routelint
    from ..analysis.plans import load_plans, random_plan_corpus
    from ..core import DurableSession
    from ..core.wal import write_checkpoint

    if smoke:
        n_plans = min(n_plans, 32)
    t = Table(
        "E19: static analysis — lint throughput and detection",
        ["stage", "detail", "result", "time (ms)"],
    )
    arch = VirtexArch("XCV50")

    _, named = load_plans(
        random_plan_corpus("XCV50", n_plans=n_plans, seed=seed)
    )
    n_pips = sum(len(pips) for _, pips in named)
    dt, findings = time_call(lambda: routelint.lint_plans(arch, named))
    t.add("plan lint", f"{n_plans} plans / {n_pips} pips",
          f"{len(findings)} findings, {n_pips / dt:,.0f} pips/s", dt * 1e3)

    _, seeded = load_plans(
        random_plan_corpus(
            "XCV50", n_plans=n_plans, seed=seed, conflict_rate=1.0
        )
    )
    planted = next(
        (len(p) for name, p in seeded if name == "conflict-seed"), 0
    )
    dt, findings = time_call(lambda: routelint.lint_plans(arch, seeded))
    hits = sum(1 for f in findings if f.rule == "RL004")
    t.add("conflict detection", f"{planted} conflicts planted",
          f"{hits}/{planted} detected", dt * 1e3)

    tmp = tempfile.mkdtemp(prefix="e19-")
    wal_path = os.path.join(tmp, "session.wal")
    ckpt_path = os.path.join(tmp, "session.ckpt")
    router = JRouter(part="XCV50")
    pairs = [(net.source, net.sinks[0])
             for net in random_p2p_nets(arch, 8 if smoke else 24, seed=seed)]
    with DurableSession(router, wal_path) as session:
        for src, sink in pairs:
            router.route(src, sink)
        write_checkpoint(ckpt_path, router.device, seq=session.seq,
                         netdb=router.netdb)
    dt, findings = time_call(
        lambda: routelint.lint_wal_file(wal_path)
        + routelint.lint_checkpoint_file(ckpt_path, wal_path=wal_path)
    )
    t.add("wal+ckpt lint", f"{len(pairs)}-net session journal",
          f"{len(findings)} findings", dt * 1e3)

    dt_syn, syntactic = time_call(
        lambda: analyze_paths([default_target()], interprocedural=False)
    )
    t.add("codelint sweep", f"{len(syntactic.inputs)} source files",
          "syntactic layers only", dt_syn * 1e3)
    dt, report = time_call(lambda: analyze_paths([default_target()]))
    t.add("interproc sweep", f"{len(report.inputs)} source files",
          f"{len(report.findings)} findings, "
          f"{len(report.suppressed)} suppressed", dt * 1e3)
    t.note("merge gate: `repro analyze --strict` requires 0 findings on "
           "the package source (call-graph/CFG passes included); "
           "suppressions stay visible, never silent")
    return t


def run_e20(
    n_jobs: int = 200,
    seed: int = 20,
    smoke: bool = False,
) -> Table:
    """Service-level robustness: the daemon under load, overload & chaos.

    Boots a real ``repro serve`` stack (HTTP front door, admission
    queue, spawned process workers with WAL shards) and drives it
    through five phases: steady concurrent load, sequential jobs on the
    idle service (one request's round trip), an overload burst that
    must shed, a chaos window (worker SIGKILL + WAL truncation during
    live traffic), and a graceful drain — then audits the job journal
    for the zero-lost-jobs / exactly-once invariant.
    """
    import os
    import tempfile

    from ..service import ChaosMonkey, ServiceConfig
    from ..service.loadgen import (
        audit_journal, await_terminal, burst, drive_load, running_service,
    )

    if smoke:
        n_jobs = min(n_jobs, 48)
    n_idle = 30
    t = Table(
        "E20: routing-as-a-service — load, overload shedding, chaos",
        ["phase", "detail", "result", "time (ms)"],
    )
    arch = VirtexArch("XCV50")
    nets = random_p2p_nets(arch, n_jobs + 96 + n_idle, seed=seed,
                           min_span=2, max_span=8)
    pairs = [
        (
            (net.source.row, net.source.col, net.source.wire),
            (net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire),
        )
        for net in nets
    ]
    data_dir = tempfile.mkdtemp(prefix="e20-")
    config = ServiceConfig(
        workers=2,
        queue_depth=32,
        tenant_quota=24,
        heartbeat_s=0.2,
        heartbeat_misses=8,
        default_deadline_ms=30_000.0,
        job_max_attempts=4,
        # the post-run audit needs the full accepted/terminal trail
        journal_max_bytes=None,
    )
    with running_service(config, data_dir) as svc:
        host, port = svc.host, svc.port

        dt, load = time_call(lambda: drive_load(
            host, port, pairs[:n_jobs], threads=4,
        ))
        t.add("load", f"{n_jobs} jobs, 4 clients", load.row(), dt * 1e3)

        dt, idle = time_call(lambda: drive_load(
            host, port, pairs[-n_idle:], threads=1,
        ))
        t.add("idle", f"{n_idle} sequential jobs, 1 client", idle.row(),
              dt * 1e3)

        # stall both workers through their next batch so the burst hits
        # a queue that cannot drain: depth past the bound must shed 429
        for wid in range(config.workers):
            svc.supervisor.send_chaos(wid, {"stall_s": 1.0})
        dt, (accepted, rejected) = time_call(lambda: burst(
            host, port, pairs[: config.queue_depth * 2],
        ))
        await_terminal(host, port, accepted)
        t.add(
            "overload", f"{config.queue_depth * 2} job burst "
            f"(queue bound {config.queue_depth}, workers stalled)",
            f"{rejected} shed with retry-after, "
            f"{len(accepted)} accepted, all terminal",
            dt * 1e3,
        )

        monkey = ChaosMonkey(
            svc.supervisor, seed=seed, period_s=0.25,
            kill=True, stall_s=2.5, truncate_bytes=256,
        )
        monkey.inject_kill(0)  # scripted: one guaranteed mid-load kill
        monkey.start()
        dt, chaos = time_call(lambda: drive_load(
            host, port, pairs[n_jobs:n_jobs + 48], threads=4,
        ))
        monkey.stop()
        kills = sum(1 for e in monkey.events if e["action"] == "kill")
        t.add(
            "chaos", f"48 jobs under {len(monkey.events)} injections "
            f"({kills} kills)",
            chaos.row(), dt * 1e3,
        )
    audit = audit_journal(os.path.join(data_dir, "jobs.journal"))
    restarts = sum(
        w["restarts"] for w in svc.supervisor.stats()["workers"]
    )
    t.add(
        "audit", f"{audit['accepted']} accepted, {restarts} worker "
        f"restart(s)",
        f"lost={len(audit['lost'])} dup={len(audit['duplicates'])} "
        f"drained={audit['drained']}",
        0.0,
    )
    assert not audit["lost"], f"jobs lost: {audit['lost']}"
    assert not audit["duplicates"], f"dup terminals: {audit['duplicates']}"
    return t


EXPERIMENTS = {
    "e1": run_e1, "e2": run_e2, "e3": run_e3, "e4": run_e4,
    "e5": run_e5, "e6": run_e6, "e7": run_e7, "e8": run_e8,
    "e9": run_e9, "e10": run_e10, "e11": run_e11, "e12": run_e12,
    "e13": run_e13, "e14": run_e14, "e15": run_e15, "e16": run_e16,
    "e18": run_e18,
    "e19": run_e19,
    "e20": run_e20,
    # aliases for the CLI's --experiment flag
    "faults": run_e16,
    "durability": run_e18,
    "analysis": run_e19,
    "service": run_e20,
}

#: the experiments `--smoke` runs when none are named.  EXPLICIT so that
#: adding an experiment forces a decision about CI coverage — a new entry
#: either joins the matrix or is visibly absent from it, never silently
#: dropped.
SMOKE_MATRIX = ("e16", "e18", "e19", "e20")


def run_all(
    names: tuple[str, ...] | None = None, *, smoke: bool = False
) -> list[Table]:
    """Run the requested experiments (all by default), printing each.

    ``smoke=True`` asks each runner that supports it for a reduced
    workload, for use as a CI smoke check; with no explicit ``names`` it
    runs exactly :data:`SMOKE_MATRIX`.
    """
    import inspect

    if smoke and names is None:
        names = SMOKE_MATRIX
    tables = []
    seen: set = set()
    for key in names if names is not None else tuple(EXPERIMENTS):
        fn = EXPERIMENTS[key.lower()]
        if fn in seen:  # aliases ("faults" -> e16) run once
            continue
        seen.add(fn)
        kwargs = {}
        if smoke and "smoke" in inspect.signature(fn).parameters:
            kwargs["smoke"] = True
        table = fn(**kwargs)
        table.print()
        tables.append(table)
    return tables
