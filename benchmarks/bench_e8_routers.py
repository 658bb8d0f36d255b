"""E8: router shoot-out — greedy JRoute calls vs maze/A* vs PathFinder."""

import pytest

from repro import errors
from repro.arch.virtex import VirtexArch
from repro.bench.experiments import run_e8
from repro.bench.workloads import random_p2p_nets
from repro.device.fabric import Device
from repro.routers import NetSpec, route_pathfinder, route_point_to_point
from repro.routers.base import apply_plan

N_NETS = 20
SEED = 11
ARCH = VirtexArch("XCV50")
NETS = random_p2p_nets(ARCH, N_NETS, seed=SEED)


def _sequential(**kw):
    device = Device("XCV50")
    for net in NETS:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sink = device.resolve(net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire)
        res = route_point_to_point(device, src, sink, **kw)
        apply_plan(device, res.plan)
    return device


def test_greedy_with_templates(benchmark):
    benchmark.pedantic(lambda: _sequential(try_templates=True), rounds=3)


def test_greedy_dijkstra(benchmark):
    benchmark.pedantic(
        lambda: _sequential(try_templates=False), rounds=3
    )


def test_greedy_astar(benchmark):
    benchmark.pedantic(
        lambda: _sequential(try_templates=False, heuristic_weight=0.8), rounds=3
    )


def test_pathfinder(benchmark):
    def run():
        device = Device("XCV50")
        specs = []
        for net in NETS:
            src = device.resolve(net.source.row, net.source.col, net.source.wire)
            sink = device.resolve(net.sinks[0].row, net.sinks[0].col,
                                  net.sinks[0].wire)
            specs.append(NetSpec.of(src, [sink]))
        res = route_pathfinder(device, specs)
        assert res.converged

    benchmark.pedantic(run, rounds=3)


def test_shape_rtr_claim():
    """Paper: 'traditional routing algorithms require too much time' —
    the greedy template router must beat PathFinder by a wide margin,
    and all routers must complete the workload."""
    table = run_e8(n_nets=20)
    rows = {r[0].split(" (")[0]: r for r in table.rows}
    for r in table.rows:
        assert r[2] == 0  # no failures at this load
    greedy_t = rows["greedy templates+maze"][4]
    pf_t = [r for k, r in rows.items() if k.startswith("PathFinder")][0][4]
    assert greedy_t * 3 < pf_t
