"""Unit tests of auto point-to-point, fanout, bus and PathFinder."""

import pytest

from repro import errors
from repro.arch import wires
from repro.core.endpoints import Pin
from repro.core.router import JRouter
from repro.device.contention import audit_no_contention
from repro.device.faults import FaultModel
from repro.routers.auto import route_point_to_point
from repro.routers.base import apply_plan
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


def _canon(device, pin):
    return device.resolve(pin.row, pin.col, pin.wire)


class TestFanout:
    """Level 5 through the API: ``JRouter.route(src, [sink, ...])``."""

    @staticmethod
    def routed_order(router, src, sinks):
        """Route the net; return its distinct sinks in the order routed.

        A sink is routed when the PIP that drives it turns on.
        """
        device = router.device
        canon = {_canon(device, p): p for p in sinks}
        driven: list[int] = []

        def listen(event):
            on, rec = event
            if on and rec.canon_to in canon:
                driven.append(rec.canon_to)

        device.add_listener(listen)
        try:
            router.route(src, sinks)
        finally:
            device.remove_listener(listen)
        return [canon[w] for w in driven]

    def test_increasing_distance_order(self, device):
        router = JRouter(device=device, attach_jbits=False)
        src = Pin(8, 12, wires.S0_X)
        far = Pin(14, 22, wires.S0F[1])
        near = Pin(8, 13, wires.S0F[1])
        mid = Pin(11, 16, wires.S0F[1])
        assert self.routed_order(router, src, [far, near, mid]) == [near, mid, far]

    def test_tree_single_driver(self, device):
        src = Pin(8, 12, wires.S0_X)
        sinks = [
            Pin(6, 8, wires.S0F[3]), Pin(9, 12, wires.S0G[1]),
            Pin(3, 2, wires.S1F[2]), Pin(12, 18, wires.S0F[1]),
        ]
        JRouter(device=device, attach_jbits=False).route(src, sinks)
        assert audit_no_contention(device) == []
        for s in sinks:
            assert device.state.root_of(_canon(device, s)) == _canon(device, src)

    def test_reuse_reduces_pips(self, device):
        """Two close sinks share most of their path."""
        router = JRouter(device=device, attach_jbits=False)
        src = Pin(2, 2, wires.S0_X)
        s1 = Pin(12, 20, wires.S0F[1])
        s2 = Pin(12, 20, wires.S0F[2])
        first, _ = self.routed_order(router, src, [s1, s2])
        first_branch = len(router.reverse_trace(first))
        # the second sink added only what its branch does not share
        assert device.state.n_pips_on - first_branch < first_branch

    def test_duplicate_sink(self, device):
        router = JRouter(device=device, attach_jbits=False)
        src = Pin(2, 2, wires.S0_X)
        s1 = Pin(6, 6, wires.S0F[1])
        assert self.routed_order(router, src, [s1, s1]) == [s1]
        assert device.state.n_pips_on == len(router.reverse_trace(s1))
        assert router.netdb.net_sinks[_canon(device, src)] == {_canon(device, s1)}

    def test_repeated_sink_keeps_the_long_line_rule(self):
        """Extending a net to ``[far, far]`` searches as ``[far]`` does:
        one sink left to route takes ``p2p_use_longs``, not the fanout
        rule, however often it is listed."""
        src = Pin(1, 1, wires.S0_X)
        near = Pin(1, 2, wires.S0F[1])
        far = Pin(14, 22, wires.S1F[1])
        routed = []
        for sinks in ([far], [far, far]):
            router = JRouter(part="XCV50", attach_jbits=False)
            router.route(src, near)
            router.route(src, sinks)
            routed.append(
                (router.reverse_trace(far), router.device.state.n_pips_on)
            )
        assert routed[0] == routed[1]

    def test_atomic_rollback(self, device):
        src = Pin(2, 2, wires.S0_X)
        s1 = Pin(6, 6, wires.S0F[1])
        blocked = Pin(9, 9, wires.S0F[1])
        # the far sink is a broken wire: the near sink routes, then it fails
        router = JRouter(
            device=device,
            attach_jbits=False,
            faults=FaultModel(device.arch, dead_wires=(_canon(device, blocked),)),
        )
        before = device.state.n_pips_on
        with pytest.raises(errors.UnroutableError):
            router.route(src, [s1, blocked])
        assert device.state.n_pips_on == before

    def test_no_longs_by_default(self, device):
        """``fanout_use_longs`` governs the sinks after a fresh net's
        first, which takes level 4's path under ``p2p_use_longs``."""
        router = JRouter(device=device, attach_jbits=False)
        src = Pin(1, 1, wires.S0_X)
        near = Pin(1, 2, wires.S0F[1])
        far = Pin(14, 22, wires.S1F[1])
        assert self.routed_order(router, src, [far, near]) == [near, far]
        lo, hi = wires.LONG_H[0], wires.LONG_V[-1]
        for rec in router.reverse_trace(far):
            assert not lo <= rec.to_name <= hi


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
