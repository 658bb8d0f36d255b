"""Global clock distribution over the four dedicated nets."""

import pytest

from repro import errors
from repro.arch import wires
from repro.core import Pin


class TestRouteClock:
    def test_distributes_to_clock_pins(self, router):
        sinks = [Pin(2, 3, wires.S0_CLK), Pin(10, 20, wires.S1_CLK)]
        assert router.route_clock(0, sinks) == 2
        for p in sinks:
            assert router.is_on(p.row, p.col, p.wire)

    def test_buffer_enabled_in_bitstream(self, router):
        router.route_clock(2, [Pin(0, 0, wires.S0_CLK)])
        assert router.jbits.get_global_buffer(2)
        assert not router.jbits.get_global_buffer(0)

    def test_rejects_non_clock_sink(self, router):
        with pytest.raises(errors.InvalidPipError, match="clock pins only"):
            router.route_clock(0, [Pin(2, 3, wires.S0F[1])])

    def test_bad_index(self, router):
        with pytest.raises(errors.JRouteError):
            router.route_clock(4, [Pin(0, 0, wires.S0_CLK)])

    def test_idempotent(self, router):
        sinks = [Pin(2, 3, wires.S0_CLK)]
        router.route_clock(1, sinks)
        assert router.route_clock(1, sinks) == 0

    def test_two_nets_disjoint_pins(self, router):
        router.route_clock(0, [Pin(2, 3, wires.S0_CLK)])
        router.route_clock(1, [Pin(2, 3, wires.S1_CLK)])
        from repro.device.contention import audit_no_contention

        assert audit_no_contention(router.device) == []

    def test_same_pin_two_nets_contends(self, router):
        router.route_clock(0, [Pin(2, 3, wires.S0_CLK)])
        with pytest.raises(errors.ContentionError):
            router.route_clock(1, [Pin(2, 3, wires.S0_CLK)])

    def test_contention_rolls_back_earlier_sinks(self, router):
        a, b = Pin(2, 3, wires.S0_CLK), Pin(10, 20, wires.S1_CLK)
        router.route_clock(0, [a])
        with pytest.raises(errors.ContentionError):
            router.route_clock(1, [b, a])
        assert not router.is_on(b.row, b.col, b.wire)
        assert router.is_on(a.row, a.col, a.wire)

    def test_high_fanout(self, router):
        sinks = [
            Pin(r, c, wires.S0_CLK)
            for r in range(0, router.device.rows, 3)
            for c in range(0, router.device.cols, 3)
        ]
        n = router.route_clock(3, sinks)
        assert n == len(sinks)
        trace_root = router.device.arch.canonicalize(0, 0, wires.GCLK[3])
        assert len(router.device.state.children_of(trace_root)) == len(sinks)
