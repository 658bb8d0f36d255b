"""Additional router coverage: avoid_classes, IOB endpoints, hex templates."""

import pytest

from repro import errors
from repro.arch import wires
from repro.arch.templates import TemplateValue as TV
from repro.arch.wires import WireClass
from repro.core import JRouter, Pin
from repro.device.fabric import Device
from repro.routers.auto import route_point_to_point
from repro.routers.base import apply_plan, plan_wirelength
from repro.routers.maze import route_maze
from repro.routers.template_router import route_template


class TestAvoidClasses:
    def test_avoid_hexes(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(10, 18, wires.S0F[1])
        res = route_maze(device, [src], {sink}, use_longs=False,
                         avoid_classes=(WireClass.HEX,), heuristic_weight=0.8)
        for _, _, _, tn in res.plan:
            assert wires.wire_info(tn).wire_class is not WireClass.HEX

    def test_avoiding_everything_is_unroutable(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(10, 18, wires.S0F[1])
        with pytest.raises(errors.UnroutableError):
            route_maze(device, [src], {sink},
                       avoid_classes=(WireClass.SINGLE,), use_longs=False,
                       max_nodes=50_000)

    def test_singles_only_is_longer(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(12, 20, wires.S0F[1])
        free = route_maze(device, [src], {sink}, heuristic_weight=0.8)
        slow = route_maze(device, [src], {sink}, use_longs=False,
                          avoid_classes=(WireClass.HEX,), heuristic_weight=0.8)
        assert len(slow.plan) >= len(free.plan)


class TestIobEndpoints:
    def test_auto_route_from_pad_uses_maze(self, device):
        src = device.resolve(8, 0, wires.IOB_IN[0])
        sink = device.resolve(8, 5, wires.S0F[1])
        res = route_point_to_point(device, src, sink, heuristic_weight=0.8)
        assert res.method == "maze"  # templates only cover CLB-out endpoints
        apply_plan(device, res.plan)
        assert device.state.root_of(sink) == src

    def test_route_to_pad(self, device):
        src = device.resolve(8, 5, wires.S0_X)
        sink = device.resolve(8, 23, wires.IOB_OUT[1])
        res = route_point_to_point(device, src, sink, heuristic_weight=0.8)
        apply_plan(device, res.plan)
        assert device.state.root_of(sink) == src

    def test_pad_fanout(self, device):
        """One input pad driving several logic inputs."""
        sinks = [Pin(3, 8, wires.S0F[1]), Pin(5, 12, wires.S0G[2]),
                 Pin(2, 14, wires.S1F[3])]
        JRouter(device=device, attach_jbits=False).route(
            Pin(0, 10, wires.IOB_IN[2]), sinks
        )
        src = device.resolve(0, 10, wires.IOB_IN[2])
        for p in sinks:
            assert device.state.root_of(device.resolve(p.row, p.col, p.wire)) == src


class TestHexTemplates:
    def test_hex_template_long_hop(self, device):
        start = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(2, 15, wires.S0F[2])
        values = (TV.OUTMUX, TV.EAST6, TV.EAST6, TV.EAST1, TV.CLBIN)
        plan = route_template(device, start, values, end_canon=sink)
        lengths = [device.arch.wire_length(t) for _, _, _, t in plan]
        assert lengths == [0, 6, 6, 1, 0]
        assert plan_wirelength(device, plan) == 13

    def test_bidirectional_hex_reverse_drive(self, device):
        """Even hexes can be driven from their far (west-alias) end."""
        # drive HEX_W[0] at a tile: canonicalises to an east hex owned 6
        # tiles west, driven here at its far end
        from repro.arch import connectivity

        ok = False
        for fn in connectivity.DRIVEN_BY[wires.HEX_W[0]]:
            try:
                device.turn_on(3, 10, fn, wires.HEX_W[0])
                ok = True
                break
            except errors.JRouteError:
                continue
        assert ok
        assert device.is_on(3, 4, wires.HEX_E[0])  # same wire, origin name

    def test_odd_hex_reverse_drive_rejected(self, device):
        from repro.arch import connectivity

        for fn in connectivity.DRIVEN_BY[wires.HEX_W[1]]:
            with pytest.raises(errors.InvalidPipError):
                device.turn_on(3, 10, fn, wires.HEX_W[1])
            break


class TestLargePartRouting:
    def test_xcv300_corner_to_corner(self):
        device = Device("XCV300")
        src = device.resolve(0, 0, wires.S0_X)
        sink = device.resolve(31, 47, wires.S1G[4])
        res = route_maze(device, [src], {sink}, heuristic_weight=0.9)
        apply_plan(device, res.plan)
        assert device.state.root_of(sink) == src
        # a cross-chip route on a big part should lean on longs/hexes
        classes = {wires.wire_info(t).wire_class for _, _, _, t in res.plan}
        assert classes & {WireClass.HEX, WireClass.LONG_H, WireClass.LONG_V}
