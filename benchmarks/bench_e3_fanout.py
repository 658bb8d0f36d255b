"""E3: fanout call vs individual sink routing.

Paper claim: route(src, sinks[]) "minimizes the routing resources used"
relative to connecting each sink individually.
"""

import pytest

from repro.bench.experiments import run_e3
from repro.bench.workloads import high_fanout_net
from repro.core import JRouter
from repro.device.fabric import Device
from repro.timing import route_balanced_fanout


def _prepared(fanout, seed=7):
    device = Device("XCV50")
    net = high_fanout_net(device.arch, fanout, seed=seed)
    src = device.resolve(net.source.row, net.source.col, net.source.wire)
    sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
    return device, net, src, sinks


@pytest.mark.parametrize("fanout", [4, 8])
def test_fanout_call(benchmark, fanout):
    def setup():
        device, net, _, _ = _prepared(fanout)
        return (JRouter(device=device, attach_jbits=False), net), {}

    def run(router, net):
        router.route(net.source, list(net.sinks))

    benchmark.pedantic(run, setup=setup, rounds=5)


@pytest.mark.parametrize("fanout", [4, 8])
def test_individual_routes(benchmark, fanout):
    def setup():
        return (_prepared(fanout),), {}

    def run(prep):
        device, _, src, sinks = prep
        route_balanced_fanout(device, src, sinks)

    benchmark.pedantic(run, setup=setup, rounds=5)


def test_shape_fanout_uses_fewer_resources():
    """The paper's claim, quantified: fewer PIPs and less wirelength."""
    table = run_e3(fanouts=(8,))
    rows = {r[1]: r for r in table.rows}
    assert rows["fanout"][2] < rows["individual"][2]       # pips
    assert rows["fanout"][3] < rows["individual"][3]       # wirelength
