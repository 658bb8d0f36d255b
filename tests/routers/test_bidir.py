"""Single-sink maze search at ``JRouter``'s A* weight.

Legality, optimality, reuse and occupancy properties of
:func:`~repro.routers.maze.route_maze` at ``heuristic_weight=0.8`` (the
weight ``JRouter`` searches with), checked against plain Dijkstra
(weight 0) where a property compares two searches.
"""

import pytest

from repro import errors
from repro.arch import wires
from repro.device.contention import audit_no_contention
from repro.device.fabric import Device
from repro.routers.base import apply_plan, plan_cost
from repro.routers.maze import route_maze

WEIGHT = 0.8


def _route(device: Device, src: int, sink: int, **kw):
    return route_maze(device, [src], {sink}, heuristic_weight=WEIGHT, **kw)


class TestCorrectness:
    def test_finds_valid_path(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        res = _route(device, src, sink)
        apply_plan(device, res.plan)
        assert device.state.root_of(sink) == src
        assert audit_no_contention(device) == []

    def test_cost_matches_unidirectional(self, device):
        """The A* search must stay cost-optimal: plain Dijkstra's cost."""
        src = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(12, 20, wires.S0F[1])
        dijkstra = route_maze(device, [src], {sink})
        astar = _route(device, src, sink)
        assert astar.cost == pytest.approx(dijkstra.cost)

    def test_plan_cost_consistent(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        sink = device.resolve(9, 14, wires.S1F[2])
        res = _route(device, src, sink)
        assert res.cost == pytest.approx(plan_cost(device, res.plan))

    def test_source_equals_sink(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        res = _route(device, src, src)
        assert res.plan == []

    def test_occupied_sink_rejected(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        res = _route(device, src, sink)
        apply_plan(device, res.plan)
        other = device.resolve(2, 2, wires.S0_X)
        with pytest.raises(errors.UnroutableError):
            _route(device, other, sink)

    def test_avoids_foreign_nets(self, device):
        src = device.resolve(5, 7, wires.S1_YQ)
        sink = device.resolve(6, 8, wires.S0F[3])
        first = _route(device, src, sink)
        apply_plan(device, first.plan)
        src2 = device.resolve(5, 7, wires.S0_X)
        sink2 = device.resolve(6, 8, wires.S0F[2])
        second = _route(device, src2, sink2)
        used1 = {device.arch.canonicalize(r, c, t) for r, c, _, t in first.plan}
        used2 = {device.arch.canonicalize(r, c, t) for r, c, _, t in second.plan}
        assert not used1 & used2

    def test_reuse_tree(self, device):
        src = device.resolve(2, 2, wires.S0_X)
        sink1 = device.resolve(10, 16, wires.S0F[1])
        res1 = _route(device, src, sink1)
        apply_plan(device, res1.plan)
        tree = set(device.state.subtree(src))
        sink2 = device.resolve(10, 16, wires.S0F[2])
        res2 = _route(device, src, sink2, reuse=tree)
        assert len(res2.plan) < len(res1.plan)
        apply_plan(device, res2.plan)
        assert audit_no_contention(device) == []

    def test_no_longs_mode(self, device):
        src = device.resolve(1, 1, wires.S0_X)
        sink = device.resolve(14, 22, wires.S1F[2])
        res = _route(device, src, sink, use_longs=False)
        lo, hi = wires.LONG_H[0], wires.LONG_V[-1]
        for _, _, _, tn in res.plan:
            assert not lo <= tn <= hi

    def test_budget(self, device):
        src = device.resolve(1, 1, wires.S0_X)
        sink = device.resolve(14, 22, wires.S1F[2])
        with pytest.raises(errors.UnroutableError):
            _route(device, src, sink, max_nodes=3)


class TestEfficiency:
    def test_fewer_expansions_than_unidirectional(self, device):
        """The A* bias expands fewer nodes than plain Dijkstra."""
        src = device.resolve(1, 1, wires.S0_X)
        sink = device.resolve(14, 22, wires.S1F[2])
        dijkstra = route_maze(device, [src], {sink})
        astar = _route(device, src, sink)
        assert astar.nodes_expanded < dijkstra.nodes_expanded
