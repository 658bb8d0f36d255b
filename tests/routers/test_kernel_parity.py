"""Kernel parity: the compiled-graph search must match the reference.

The shared search kernel (:mod:`repro.core.kernel` over the CSR graph of
:mod:`repro.arch.graph`) replaced the dict-Dijkstra implementations on
the hot path of :func:`route_maze` and :func:`route_pathfinder`.  These
tests pin the replacement to the preserved originals
(``tests/routers/_reference.py``) over randomized workloads:

* identical plans and costs for point-to-point, A*, fanout-with-reuse
  and negotiated-congestion routing, with and without fault models;
* the partitioned parallel PathFinder is deterministic for any fixed
  worker count and its plans are legal and contention-free;
* the vectorised graph tables (every node's CSR edge run, primary-tile
  arrays, splitmix64 fault hashing, memoized tile coords, the fault-edge
  mask with explicit stuck-open PIPs) agree with the scalar definitions,
  and the built columns are narrow and read-only;
* the template DFS over the graph's edge runs and fault-edge mask gives
  the generator-driven DFS's plan, or its exception, call for call.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.arch import graph as graph_mod
from repro.arch import wires
from repro.arch.graph import NAME_COST, RoutingGraph, _splitmix64_np, routing_graph
from repro.arch.templates import TemplateValue as TV
from repro.arch.virtex import VirtexArch
from repro.bench.workloads import high_fanout_net, random_p2p_nets
from repro.device.contention import audit_no_contention
from repro.device.fabric import Device
from repro.device.faults import FaultModel, _splitmix64
from repro.routers import NetSpec, route_maze, route_pathfinder, route_template
from repro.routers.base import apply_plan
from repro.routers.template_sets import predefined_templates
from tests.routers._reference import (
    route_maze_reference,
    route_pathfinder_reference,
    route_template_reference,
)
from tests.routers.test_batch_parity import _counting

common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _specs(device, workloads):
    out = []
    for net in workloads:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        out.append(NetSpec.of(src, sinks))
    return out


def _both_maze(device, src, sink, **kw):
    """Run kernel and reference maze; both succeed or both raise alike."""
    try:
        a = route_maze(device, [src], {sink}, **kw)
    except errors.UnroutableError as e:
        with pytest.raises(errors.UnroutableError) as ei:
            route_maze_reference(device, [src], {sink}, **kw)
        assert str(ei.value) == str(e)
        return None, None
    b = route_maze_reference(device, [src], {sink}, **kw)
    return a, b


class TestMazeParity:
    @given(seed=st.integers(0, 10_000), weight=st.sampled_from([0.0, 0.8]))
    @common
    def test_p2p_parity(self, seed, weight):
        device = Device("XCV50")
        net = random_p2p_nets(device.arch, 1, seed=seed, min_span=2, max_span=12)[0]
        spec = _specs(device, [net])[0]
        a, b = _both_maze(
            device, spec.source, spec.sinks[0], heuristic_weight=weight
        )
        if a is None:
            return
        assert a.plan == b.plan
        assert a.cost == b.cost
        assert a.nodes_expanded == b.nodes_expanded
        assert a.stats.heap_pushes > 0

    @given(seed=st.integers(0, 10_000))
    @common
    def test_p2p_parity_with_faults(self, seed):
        arch = VirtexArch("XCV50")
        faults = FaultModel.random(
            arch, seed=seed, stuck_open_rate=0.01, dead_wire_rate=0.002
        )
        d1 = Device("XCV50", faults=faults)
        d2 = Device("XCV50", faults=faults)
        net = random_p2p_nets(arch, 1, seed=seed, min_span=2, max_span=10)[0]
        spec = _specs(d1, [net])[0]
        try:
            a = route_maze(d1, [spec.source], {spec.sinks[0]})
        except errors.UnroutableError:
            with pytest.raises(errors.UnroutableError):
                route_maze_reference(d2, [spec.source], {spec.sinks[0]})
            return
        b = route_maze_reference(d2, [spec.source], {spec.sinks[0]})
        assert a.plan == b.plan
        assert a.cost == b.cost
        assert a.faults_avoided == b.faults_avoided

    @given(seed=st.integers(0, 10_000))
    @common
    def test_fanout_reuse_parity(self, seed):
        device = Device("XCV50")
        arch = device.arch
        net_pins = high_fanout_net(arch, 4, seed=seed, radius=6)
        spec = _specs(device, [net_pins])[0]
        tree_a: set[int] = set()
        tree_b: set[int] = set()
        for sink in spec.sinks:
            try:
                a = route_maze(device, [spec.source], {sink}, reuse=tree_a)
            except errors.UnroutableError:
                with pytest.raises(errors.UnroutableError):
                    route_maze_reference(
                        device, [spec.source], {sink}, reuse=tree_b
                    )
                return
            b = route_maze_reference(device, [spec.source], {sink}, reuse=tree_b)
            assert a.plan == b.plan
            assert a.cost == b.cost
            for row, col, _fn, to_name in a.plan:
                w = arch.canonicalize(row, col, to_name)
                tree_a.add(w)
                tree_b.add(w)

    def test_mutating_fault_model_invalidates_edge_mask(self):
        device = Device("XCV50", faults=FaultModel(VirtexArch("XCV50")))
        net = random_p2p_nets(device.arch, 1, seed=5, min_span=3, max_span=6)[0]
        spec = _specs(device, [net])[0]
        first = route_maze(device, [spec.source], {spec.sinks[0]})
        # break every pip of the found path; the re-route must avoid them
        arch = device.arch
        for row, col, from_name, to_name in first.plan:
            a = arch.canonicalize(row, col, from_name)
            b = arch.canonicalize(row, col, to_name)
            device.faults.break_pip(a, b)
        second = route_maze(device, [spec.source], {spec.sinks[0]})
        assert second.plan != first.plan
        ref = route_maze_reference(device, [spec.source], {spec.sinks[0]})
        assert second.plan == ref.plan


class TestPathFinderParity:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @common
    def test_serial_parity(self, seed, n):
        d1, d2 = Device("XCV50"), Device("XCV50")
        nets = _specs(
            d1, random_p2p_nets(d1.arch, n, seed=seed, min_span=2, max_span=8)
        )
        try:
            a = route_pathfinder(d1, nets, apply=False, max_iterations=8)
        except errors.UnroutableError:
            with pytest.raises(errors.UnroutableError):
                route_pathfinder_reference(
                    d2, nets, apply=False, max_iterations=8
                )
            return
        b = route_pathfinder_reference(d2, nets, apply=False, max_iterations=8)
        assert a.converged == b.converged
        assert a.iterations == b.iterations
        assert a.plans == b.plans

    @given(seed=st.integers(0, 10_000), workers=st.sampled_from([2, 3, 4]))
    @common
    def test_workers_deterministic_and_contention_free(self, seed, workers):
        arch = VirtexArch("XCV50")
        workloads = random_p2p_nets(arch, 6, seed=seed, min_span=2, max_span=8)
        plans = []
        for _ in range(2):
            device = Device("XCV50")
            nets = _specs(device, workloads)
            try:
                res = route_pathfinder(
                    device, nets, workers=workers, max_iterations=8
                )
            except errors.UnroutableError:
                return
            if not res.converged:
                return
            plans.append(res.plans)
            audit_no_contention(device)
            # effective concurrency: the partition tree may not split
            # the workload as finely as requested, but never exceeds it
            # and is never silently reported as the request
            assert 1 <= res.workers <= workers
            assert res.pips_added > 0
        assert plans[0] == plans[1]

    def test_stats_accumulate_across_workers(self):
        device = Device("XCV50")
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 6, seed=11, min_span=2, max_span=8),
        )
        res = route_pathfinder(device, nets, apply=False, workers=3)
        assert res.stats.searches >= len(nets)
        assert res.stats.nodes_expanded > 0
        assert res.stats.heap_pushes > 0


class TestGraphTables:
    def test_tiles_match_primary_name(self):
        arch = VirtexArch("XCV50")
        graph = routing_graph(arch)
        p_row, p_col, p_name = graph.tiles()
        for canon in range(arch.n_wires):
            r, c, n = arch.primary_name(canon)
            assert (p_row[canon], p_col[canon], p_name[canon]) == (r, c, n)

    def test_tile_coords_memoized(self):
        arch = VirtexArch("XCV50")
        for canon in (0, 1234, arch.n_wires - 1):
            assert arch.tile_coords(canon) == arch.primary_name(canon)[:2]
            # second call hits the cache and returns the same object
            assert arch.tile_coords(canon) is arch.tile_coords(canon)

    def test_vectorized_splitmix64_matches_scalar(self):
        xs = np.array(
            [0, 1, 2, 12345, 2**32 - 1, 2**63, 2**64 - 1], dtype=np.uint64
        )
        out = _splitmix64_np(xs)
        for x, got in zip(xs.tolist(), out.tolist()):
            assert got == _splitmix64(int(x))

    def test_graph_edges_match_fanout_pips(self):
        # every node of two parts whose row counts (16, 20) are not
        # multiples of 6, so the long-line stagger ends unevenly
        for part in ("XCV50", "XCV100"):
            device = Device(part)
            _assert_runs_match_fanout_pips(device, range(device.arch.n_wires))

    def test_xcv300_sample_matches_fanout_pips(self):
        device = Device("XCV300")
        _assert_runs_match_fanout_pips(device, range(0, device.arch.n_wires, 37))

    def test_columns_are_read_only(self):
        graph = Device("XCV50").routing_graph()
        for name in ("off", "deg", "e_to", "e_src", "e_row", "e_col",
                     "e_from", "e_toname", "e_cost"):
            with pytest.raises(TypeError):
                getattr(graph, name)[0] = 1
        for col in graph.np_columns():
            with pytest.raises(ValueError):
                col[0] = 1

    def test_edge_columns_are_narrow(self):
        graph = Device("XCV50").routing_graph()
        per_edge = sum(
            getattr(graph, name).itemsize
            for name in ("e_to", "e_src", "e_row", "e_col", "e_from",
                         "e_toname", "e_cost")
        )
        assert per_edge == 22

    def test_edge_cost_is_the_target_name_cost(self):
        graph = Device("XCV50").routing_graph()
        _, _, _, e_cost, e_toname = graph.np_columns()
        assert np.array_equal(e_cost, np.array(NAME_COST)[e_toname])

    def test_graph_shared_across_devices(self):
        g1 = Device("XCV50").routing_graph()
        g2 = Device("XCV50").routing_graph()
        assert g1 is g2


def _assert_runs_match_fanout_pips(device, canons) -> None:
    """Each wire's CSR edge run is ``Device.fanout_pips``, in order."""
    graph = device.routing_graph()
    cols = (graph.e_row, graph.e_col, graph.e_from, graph.e_toname, graph.e_to)
    for canon in canons:
        o = graph.off[canon]
        run = list(zip(*(c[o : o + graph.deg[canon]] for c in cols)))
        assert run == list(device.fanout_pips(canon)), canon


class TestAppliedPlansLegal:
    def test_pathfinder_plans_apply_cleanly(self):
        device = Device("XCV50")
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 5, seed=2, min_span=2, max_span=8),
        )
        res = route_pathfinder(device, nets, workers=2)
        assert res.converged
        audit_no_contention(device)

    def test_maze_plan_applies_cleanly(self):
        device = Device("XCV50")
        net = random_p2p_nets(device.arch, 1, seed=9, min_span=3, max_span=9)[0]
        spec = _specs(device, [net])[0]
        res = route_maze(device, [spec.source], {spec.sinks[0]})
        apply_plan(device, res.plan)
        audit_no_contention(device)


class TestFaultMaskCacheToken:
    """The per-fault-model edge-mask cache is keyed by a stable token.

    The original cache was keyed by ``id(graph)``; CPython reuses
    addresses, so a dead graph's entry could be served — stale mask,
    wrong length — to an unrelated new graph allocated at the same id.
    The token (part name + generation counter) can never collide.
    """

    def test_mask_always_belongs_to_the_live_graph(self):
        import gc

        from repro.arch.graph import RoutingGraph

        arch = VirtexArch("XCV50")
        faults = FaultModel.random(arch, seed=1, stuck_open_rate=0.01)
        seen_tokens = set()
        for _ in range(20):
            g = RoutingGraph(arch)
            m = g.fault_edge_mask(faults)
            # an id-keyed cache would intermittently hand back the
            # previous (collected) graph's mask here
            assert m.graph is g
            assert len(m.mask) == g.n_edges
            assert g.token not in seen_tokens
            seen_tokens.add(g.token)
            del g, m
            gc.collect()
        # dead entries are pruned as new graphs come through
        assert len(faults._edge_masks) <= 2

    def test_distinct_graphs_same_part_get_distinct_masks(self):
        from repro.arch.graph import RoutingGraph

        arch = VirtexArch("XCV50")
        faults = FaultModel.random(arch, seed=2, stuck_open_rate=0.01)
        g1 = RoutingGraph(arch)
        g2 = RoutingGraph(arch)
        m1 = g1.fault_edge_mask(faults)
        m2 = g2.fault_edge_mask(faults)
        assert g1.token != g2.token
        assert m1 is not m2
        assert m1.graph is g1 and m2.graph is g2

    def test_mask_does_not_keep_graph_alive(self):
        import gc
        import weakref

        from repro.arch.graph import RoutingGraph

        arch = VirtexArch("XCV50")
        faults = FaultModel.random(arch, seed=3, stuck_open_rate=0.01)
        g = RoutingGraph(arch)
        g.fault_edge_mask(faults)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None  # the cached mask holds only a weakref


def _brute_force_mask(graph, faults) -> bytearray:
    """The per-edge fault mask recomputed edge by edge from the model."""
    unusable = faults.unusable.tolist()
    stuck = faults.pip_stuck_open
    return bytearray(
        1 if unusable[t] or stuck(s, t) else 0
        for s, t in zip(graph.e_src, graph.e_to)
    )


def _break_widest_pair(graph, faults, canon) -> int:
    """Break the PIP with the most parallel edges in the run of
    ``canon``, or of the next wire after it that drives anything;
    returns how many edges that PIP spans."""
    while not graph.deg[canon]:
        canon += 1
    o = graph.off[canon]
    run = list(graph.e_to[o : o + graph.deg[canon]])
    dst = max(run, key=run.count)
    faults.break_pip(canon, dst)
    return run.count(dst)


class TestFaultEdgeMaskSync:
    """``FaultEdgeMask`` marks an explicit stuck-open PIP through its
    source's edge run; the mask must equal a per-edge recomputation,
    parallel edges included, and a fault-model version bump must build
    a fresh one."""

    def test_compiled_graph(self, xcv50_graph):
        g = xcv50_graph
        # a hashed stuck-open population under the explicit breaks
        faults = FaultModel.random(VirtexArch("XCV50"), seed=4, stuck_open_rate=0.02)
        assert max(
            _break_widest_pair(g, faults, canon)
            for canon in range(40, g.n_nodes - 1000, 997)
        ) > 1
        faults.kill_wire(g.e_to[g.n_edges // 2])
        m = g.fault_edge_mask(faults)
        assert len(m.mask) == g.n_edges
        assert m.mask == _brute_force_mask(g, faults)
        assert g.fault_edge_mask(faults) is m  # same version: kept
        faults.kill_wire(g.e_to[0])
        _break_widest_pair(g, faults, 2950)
        rebuilt = g.fault_edge_mask(faults)
        assert rebuilt is not m
        assert rebuilt.mask == _brute_force_mask(g, faults)


def _template_outcome(router, device, start, values, **kw):
    """A template route's plan, or its error's type and message."""
    try:
        return router(device, start, values, **kw)
    except errors.JRouteError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def xcv50_graph():
    """A private XCV50 graph, built before any test starts counting."""
    return RoutingGraph(VirtexArch("XCV50"))


class TestTemplateParity:
    """``route_template`` walks the compiled graph: each wire's CSR edge
    run and the fault-edge mask.  It must
    give ``route_template_reference``'s plan, or the same exception type
    and message, on every call: through budgets that run out, both goal
    forms, crowding, and faults flipped between calls (the mask is
    cached by fault-model version, so a stale one would route through a
    broken PIP)."""

    #: values a mutated template may carry mid-route
    MOVES = (
        TV.EAST1, TV.WEST1, TV.NORTH1, TV.SOUTH1,
        TV.EAST6, TV.WEST6, TV.NORTH6, TV.SOUTH6, TV.LONGH, TV.LONGV,
    )
    BUDGETS = (7, 30, 200, 4_000, 100_000)

    def _both(self, device, src, values, **kw):
        got = _template_outcome(route_template, device, src, values, **kw)
        want = _template_outcome(
            route_template_reference, device, src, values, **kw
        )
        assert got == want, (values, kw)
        return got

    @pytest.mark.parametrize(
        "part,faulty,seed",
        [
            ("XCV50", False, 1),
            ("XCV50", False, 2),
            ("XCV50", True, 3),
            ("XCV50", True, 4),
            ("XCV300", False, 5),
            ("XCV300", True, 6),
        ],
    )
    def test_random_templates(self, part, faulty, seed):
        arch = VirtexArch(part)
        faults = (
            FaultModel.random(
                arch, seed=seed, stuck_open_rate=0.01, dead_wire_rate=0.002
            )
            if faulty
            else None
        )
        device = Device(part, faults=faults)
        rng = random.Random(seed)
        seen: set = set()
        flips = 0
        for spec in _specs(
            device, random_p2p_nets(arch, 24, seed=seed, min_span=1, max_span=14)
        ):
            src, sink = spec.source, spec.sinks[0]
            sr, sc, _ = arch.primary_name(src)
            tr, tc, tn = arch.primary_name(sink)
            tmpls = [t.values for t in predefined_templates(tr - sr, tc - sc)]
            mutated = list(rng.choice(tmpls))
            mutated[rng.randrange(1, len(mutated) - 1)] = rng.choice(self.MOVES)
            tmpls.append(tuple(mutated))
            hits = []
            for values in tmpls:
                kw = {"max_nodes": rng.choice(self.BUDGETS)}
                if rng.random() < 0.5:
                    kw["end_canon"] = sink
                else:
                    kw["end_wire"] = tn
                got = self._both(device, src, values, **kw)
                if isinstance(got, tuple):
                    seen.add(got[1])
                else:
                    seen.add("plan")
                    hits.append((got, values, kw))
            if not hits:
                continue
            plan, values, kw = hits[0]
            if faulty and rng.random() < 0.5:
                # flip a fault under the plan just found, then re-route
                row, col, from_name, to_name = rng.choice(plan)
                a = arch.canonicalize(row, col, from_name)
                b = arch.canonicalize(row, col, to_name)
                if rng.random() < 0.5:
                    faults.break_pip(a, b)
                else:
                    faults.kill_wire(b)
                flips += 1
                assert self._both(device, src, values, **kw) != plan
            else:
                try:
                    apply_plan(device, plan)  # crowd the next calls
                except errors.FaultError:
                    pass  # a dead source wire cannot be turned on
        assert seen >= {
            "plan",
            "template search budget exhausted",
            "no combination of available resources follows the template",
        }, seen
        assert flips > 0 or not faulty

    def test_compiled_walk_never_reexpands(self, monkeypatch, xcv50_graph):
        """On a built graph the DFS reads edge runs and the mask only:
        no fanout generator, no canonicalize, no hashed stuck-open test
        and no primary-tile table."""
        arch = VirtexArch("XCV50")
        monkeypatch.setitem(graph_mod._GRAPH_CACHE, "XCV50", xcv50_graph)
        faults = FaultModel.random(arch, seed=3, stuck_open_rate=0.005)
        device = Device("XCV50", faults=faults)
        specs = _specs(
            device, random_p2p_nets(arch, 8, seed=3, min_span=2, max_span=12)
        )
        routes = []
        for spec in specs:
            sink = spec.sinks[0]
            sr, sc, _ = arch.primary_name(spec.source)
            tr, tc, tn = arch.primary_name(sink)
            for tmpl in predefined_templates(tr - sr, tc - sc):
                routes.append((spec.source, tmpl.values, sink, tn))
        calls = [
            _counting(monkeypatch, owner, name)
            for owner, name in (
                (Device, "fanout_pips"),
                (VirtexArch, "canonicalize"),
                (FaultModel, "pip_stuck_open"),
                (RoutingGraph, "tiles"),
            )
        ]
        outcomes = set()
        for src, values, sink, tn in routes:
            for goal in ({"end_canon": sink}, {"end_wire": tn}):
                got = _template_outcome(
                    route_template, device, src, values, max_nodes=400, **goal
                )
                outcomes.add(isinstance(got, list))
        assert outcomes == {True, False}
        assert calls == [[], [], [], []]
