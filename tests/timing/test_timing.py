"""Unit tests of the delay model and skew-aware routing."""

from repro.arch import wires
from repro.arch.wires import WireClass
from repro.bench.workloads import high_fanout_net
from repro.core import JRouter, Pin
from repro.device.contention import audit_no_contention
from repro.device.fabric import Device
from repro.timing import (
    DEFAULT_DELAY_MODEL,
    DelayModel,
    equalize_skew,
    net_delays,
    net_timing,
    route_balanced_fanout,
)

SRC = Pin(5, 7, wires.S1_YQ)


class TestDelayModel:
    def test_every_class_has_a_delay(self):
        for cls in WireClass:
            assert cls in DEFAULT_DELAY_MODEL.by_class

    def test_orderings(self):
        m = DEFAULT_DELAY_MODEL.by_class
        assert m[WireClass.OUT] < m[WireClass.SINGLE]
        assert m[WireClass.HEX] < 6 * m[WireClass.SINGLE]  # hexes amortise
        assert m[WireClass.LONG_H] < 24 * m[WireClass.SINGLE]

    def test_net_delays_monotone_along_path(self, router):
        router.route(SRC, Pin(9, 15, wires.S0F[3]))
        src = router.device.resolve(5, 7, wires.S1_YQ)
        arrivals = net_delays(router.device, src)
        assert arrivals[src] == 0.0
        path = router.reverse_trace(Pin(9, 15, wires.S0F[3]))
        times = [arrivals[rec.canon_to] for rec in path]
        assert times == sorted(times)
        assert times[0] > 0

    def test_empty_net(self, router):
        src = router.device.resolve(5, 7, wires.S1_YQ)
        t = net_timing(router.device, src)
        assert t.skew == 0.0
        assert t.critical_sink() is None
        assert t.critical_path(router.device) == []


class TestNetTiming:
    def test_sinks_only(self, router):
        sinks = [Pin(6, 8, wires.S0F[3]), Pin(9, 12, wires.S0G[1])]
        router.route(SRC, sinks)
        src = router.device.resolve(5, 7, wires.S1_YQ)
        t = net_timing(router.device, src)
        assert set(t.sink_delays) == {
            router.device.resolve(p.row, p.col, p.wire) for p in sinks
        }
        assert t.max_delay >= t.min_delay > 0
        assert t.skew == t.max_delay - t.min_delay

    def test_critical_path_ends_at_critical_sink(self, router):
        sinks = [Pin(6, 8, wires.S0F[3]), Pin(12, 20, wires.S0G[1])]
        router.route(SRC, sinks)
        src = router.device.resolve(5, 7, wires.S1_YQ)
        t = net_timing(router.device, src)
        path = t.critical_path(router.device)
        assert path[-1].canon_to == t.critical_sink()

    def test_far_sink_is_critical(self, router):
        near = Pin(6, 8, wires.S0F[3])
        far = Pin(14, 22, wires.S0G[1])
        router.route(SRC, [near, far])
        src = router.device.resolve(5, 7, wires.S1_YQ)
        t = net_timing(router.device, src)
        assert t.critical_sink() == router.device.resolve(far.row, far.col, far.wire)


class TestBalancedFanout:
    def _workload(self, device, n=6, seed=5):
        net = high_fanout_net(device.arch, n, seed=seed)
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        return net, src, sinks

    def test_balanced_routes_all_sinks(self):
        device = Device("XCV50")
        _, src, sinks = self._workload(device)
        route_balanced_fanout(device, src, sinks)
        for s in sinks:
            assert device.state.root_of(s) == src
        assert audit_no_contention(device) == []

    def test_balanced_trades_wire_for_skew(self):
        greedy_dev = Device("XCV50")
        net, src_g, _ = self._workload(greedy_dev)
        JRouter(device=greedy_dev, attach_jbits=False).route(
            net.source, list(net.sinks)
        )
        greedy_t = net_timing(greedy_dev, src_g)

        bal_dev = Device("XCV50")
        _, src_b, sinks_b = self._workload(bal_dev)
        route_balanced_fanout(bal_dev, src_b, sinks_b)
        bal_t = net_timing(bal_dev, src_b)

        assert bal_dev.state.n_pips_on >= greedy_dev.state.n_pips_on
        assert bal_t.skew <= greedy_t.skew * 1.25  # typically much lower


class TestEqualizeSkew:
    def test_reduces_or_keeps_skew(self):
        device = Device("XCV50")
        net = high_fanout_net(device.arch, 6, seed=8)
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        JRouter(device=device, attach_jbits=False).route(net.source, list(net.sinks))
        before = net_timing(device, src).skew
        after = equalize_skew(device, src, tolerance=0.5)
        assert after <= before
        # net still complete and healthy
        for s in sinks:
            assert device.state.root_of(s) == src
        assert audit_no_contention(device) == []

    def test_single_sink_skew_zero(self, router):
        router.route(SRC, Pin(6, 8, wires.S0F[3]))
        src = router.device.resolve(5, 7, wires.S1_YQ)
        assert equalize_skew(router.device, src) == 0.0

    def test_custom_model(self):
        device = Device("XCV50")
        model = DelayModel(pip_switch=1.0)
        net = high_fanout_net(device.arch, 3, seed=2)
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        JRouter(device=device, attach_jbits=False).route(net.source, list(net.sinks))
        t = net_timing(device, src, model)
        assert t.max_delay > 0
