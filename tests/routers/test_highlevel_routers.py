"""Unit tests of auto point-to-point, greedy fanout, bus and PathFinder."""

import pytest

from repro import errors
from repro.arch import wires
from repro.core.endpoints import Pin
from repro.core.router import JRouter
from repro.device.contention import audit_no_contention
from repro.routers.auto import route_point_to_point
from repro.routers.base import apply_plan
from repro.routers.greedy_fanout import route_fanout
from repro.routers.pathfinder import NetSpec, route_pathfinder


class TestAuto:
    def test_template_method_on_clean_fabric(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        res = route_point_to_point(device, src, sink)
        assert res.method == "template"
        assert res.templates_tried >= 1
        assert res.template_used is not None

    def test_maze_only(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        res = route_point_to_point(device, src, sink, try_templates=False)
        assert res.method == "maze"
        assert res.templates_tried == 0

    def test_non_clb_endpoints_skip_templates(self, device):
        src = device.resolve(5, 7, wires.SINGLE_E[5])  # not a slice output
        sink = device.resolve(6, 8, wires.S0F[3])
        res = route_point_to_point(device, src, sink)
        assert res.method == "maze"

    def test_occupied_sink_rejected(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        res = route_point_to_point(device, src, sink)
        apply_plan(device, res.plan)
        with pytest.raises(errors.ContentionError):
            route_point_to_point(device, device.resolve(2, 2, wires.S0_X), sink)

    def test_plans_apply_cleanly(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(12, 20, wires.S0F[3])
        res = route_point_to_point(device, src, sink)
        apply_plan(device, res.plan)
        assert device.state.root_of(sink) == src
        assert audit_no_contention(device) == []


class TestFanout:
    def sinks_for(self, device, coords):
        return [device.resolve(r, c, w) for r, c, w in coords]

    def test_increasing_distance_order(self, device):
        src = device.resolve(8, 12, wires.S0_X)
        far = device.resolve(14, 22, wires.S0F[1])
        near = device.resolve(8, 13, wires.S0F[1])
        mid = device.resolve(11, 16, wires.S0F[1])
        res = route_fanout(device, src, [far, near, mid])
        assert res.order == [near, mid, far]

    def test_tree_single_driver(self, device):
        src = device.resolve(8, 12, wires.S0_X)
        sinks = self.sinks_for(device, [
            (6, 8, wires.S0F[3]), (9, 12, wires.S0G[1]), (3, 2, wires.S1F[2]),
            (12, 18, wires.S0F[1]),
        ])
        route_fanout(device, src, sinks)
        assert audit_no_contention(device) == []
        for s in sinks:
            assert device.state.root_of(s) == src

    def test_reuse_reduces_pips(self, device):
        """Two close sinks share most of their path."""
        src = device.resolve(2, 2, wires.S0_X)
        s1 = device.resolve(12, 20, wires.S0F[1])
        s2 = device.resolve(12, 20, wires.S0F[2])
        res = route_fanout(device, src, [s1, s2])
        assert len(res.plans[1]) < len(res.plans[0])

    def test_duplicate_sink(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        s1 = device.resolve(6, 6, wires.S0F[1])
        res = route_fanout(device, src, [s1, s1])
        assert res.order == [s1]

    def test_atomic_rollback(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        s1 = device.resolve(6, 6, wires.S0F[1])
        blocked = device.resolve(9, 9, wires.S0F[1])
        # occupy the second sink with a foreign net
        other = device.resolve(12, 12, wires.S0_X)
        r = route_point_to_point(device, other, blocked, try_templates=False)
        apply_plan(device, r.plan)
        before = device.state.n_pips_on
        with pytest.raises(errors.UnroutableError):
            route_fanout(device, src, [s1, blocked])
        assert device.state.n_pips_on == before

    def test_no_longs_by_default(self, device):
        src = device.resolve(1, 1, wires.S0_X)
        sinks = [device.resolve(14, 22, wires.S1F[1])]
        res = route_fanout(device, src, sinks)
        lo, hi = wires.LONG_H[0], wires.LONG_V[-1]
        for plan in res.plans:
            for _, _, _, tn in plan:
                assert not lo <= tn <= hi


class TestBus:
    """Level 6 through the API: ``JRouter.route([src, ...], [sink, ...])``."""

    SRCS = [Pin(2, 2, wires.S0_X), Pin(2, 2, wires.S0_Y)]

    def test_pairwise(self, device):
        sinks = [Pin(8, 10, wires.S0F[1]), Pin(8, 10, wires.S0F[2])]
        assert JRouter(device=device, attach_jbits=False).route(self.SRCS, sinks) > 0
        for s, k in zip(self.SRCS, sinks):
            assert device.state.root_of(
                device.resolve(k.row, k.col, k.wire)
            ) == device.resolve(s.row, s.col, s.wire)

    def test_width_mismatch(self, device):
        with pytest.raises(errors.JRouteError):
            JRouter(device=device, attach_jbits=False).route(
                self.SRCS, [Pin(8, 10, wires.S0F[1])]
            )

    def test_atomicity(self, device):
        blocked = device.resolve(8, 10, wires.S0F[2])
        other = device.resolve(12, 12, wires.S0_X)
        r = route_point_to_point(device, other, blocked, try_templates=False)
        apply_plan(device, r.plan)
        before = device.state.n_pips_on
        sinks = [Pin(8, 10, wires.S0F[1]), Pin(8, 10, wires.S0F[2])]
        with pytest.raises(errors.JRouteError):
            JRouter(device=device, attach_jbits=False).route(self.SRCS, sinks)
        assert device.state.n_pips_on == before


class TestPathFinder:
    def test_routes_nets(self, device):
        nets = [
            NetSpec.of(device.resolve(2, 2, wires.S0_X),
                       [device.resolve(8, 10, wires.S0F[1])]),
            NetSpec.of(device.resolve(2, 3, wires.S0_X),
                       [device.resolve(8, 11, wires.S0F[1])]),
        ]
        res = route_pathfinder(device, nets)
        assert res.converged
        assert device.state.n_pips_on > 0
        assert audit_no_contention(device) == []

    def test_negotiates_conflict(self, device):
        """Nets that would greedily collide get disjoint wires."""
        # many nets from the same tile region to the same target region
        nets = []
        for i in range(6):
            src = device.resolve(4, 4, wires.SLICE_OUT_BASE + i)
            sink = device.resolve(10, 12, wires.SLICE_IN_BASE + i)
            nets.append(NetSpec.of(src, [sink]))
        res = route_pathfinder(device, nets)
        assert res.converged
        assert audit_no_contention(device) == []
        # all sinks driven from their own sources
        for net in nets:
            for s in net.sinks:
                assert device.state.root_of(s) == net.source

    def test_respects_foreign_nets(self, device):
        other = device.resolve(12, 12, wires.S0_X)
        foreign_sink = device.resolve(13, 13, wires.S0F[1])
        r = route_point_to_point(device, other, foreign_sink, try_templates=False)
        apply_plan(device, r.plan)
        foreign = {device.arch.canonicalize(rr, cc, t) for rr, cc, _, t in r.plan}
        nets = [NetSpec.of(device.resolve(11, 11, wires.S0_X),
                           [device.resolve(14, 14, wires.S0F[2])])]
        res = route_pathfinder(device, nets)
        assert res.converged
        routed = {
            device.arch.canonicalize(rr, cc, t)
            for rr, cc, _, t in res.plans[0]
        }
        assert not routed & foreign

    def test_fanout_nets(self, device):
        nets = [NetSpec.of(device.resolve(5, 5, wires.S0_X),
                           [device.resolve(8, 8, wires.S0F[1]),
                            device.resolve(3, 9, wires.S0F[1])])]
        res = route_pathfinder(device, nets)
        assert res.converged
        for s in nets[0].sinks:
            assert device.state.root_of(s) == nets[0].source

    def test_no_apply_mode(self, device):
        nets = [NetSpec.of(device.resolve(5, 5, wires.S0_X),
                           [device.resolve(8, 8, wires.S0F[1])])]
        res = route_pathfinder(device, nets, apply=False)
        assert res.converged
        assert device.state.n_pips_on == 0
        assert res.plans[0]
