"""E13: skew-aware fanout routing (the paper's Section 6 future work)."""

from repro.bench.experiments import run_e13
from repro.bench.workloads import high_fanout_net
from repro.core import JRouter
from repro.device.fabric import Device
from repro.timing import equalize_skew, net_timing, route_balanced_fanout


def _workload(fanout=8, seed=5):
    device = Device("XCV50")
    net = high_fanout_net(device.arch, fanout, seed=seed)
    src = device.resolve(net.source.row, net.source.col, net.source.wire)
    sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
    return device, net, src, sinks


def _greedy(device, net):
    """Route the net with the level-5 call, route(src, sinks[])."""
    JRouter(device=device, attach_jbits=False).route(net.source, list(net.sinks))


def test_greedy_route(benchmark):
    def setup():
        device, net, _, _ = _workload()
        return (device, net), {}

    benchmark.pedantic(_greedy, setup=setup, rounds=5)


def test_balanced_fanout_route(benchmark):
    def setup():
        return (_workload(),), {}

    def run(prep):
        device, _, src, sinks = prep
        route_balanced_fanout(device, src, sinks)

    benchmark.pedantic(run, setup=setup, rounds=5)


def test_skew_analysis(benchmark):
    device, net, src, _ = _workload()
    _greedy(device, net)

    def run():
        return net_timing(device, src).skew

    assert benchmark(run) >= 0


def test_equalize_skew(benchmark):
    def setup():
        device, net, src, _ = _workload()
        _greedy(device, net)
        return ((device, src),), {}

    def run(prep):
        device, src = prep
        equalize_skew(device, src, tolerance=0.5)

    benchmark.pedantic(run, setup=setup, rounds=3)


def test_shape_balanced_beats_greedy_on_skew():
    table = run_e13(fanouts=(8,))
    rows = {r[1]: r for r in table.rows}
    assert rows["balanced"][3] < rows["greedy"][3]        # lower skew
    assert rows["balanced"][2] >= rows["greedy"][2]       # more wire (the trade)
