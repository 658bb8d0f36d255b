"""Additional skew-equalisation coverage: cases where it actually bites."""

import pytest

from repro.arch import wires
from repro.core import JRouter, Pin
from repro.device.contention import audit_no_contention
from repro.timing import equalize_skew, net_timing


class TestEqualizeWithHexImbalance:
    def _imbalanced_net(self):
        """One hex-fast near branch, one singles-slow far branch."""
        router = JRouter(part="XCV50", attach_jbits=False)
        pins = [
            Pin(8, 2, wires.S0_X),
            Pin(8, 8, wires.S0F[1]),   # 6 cols: one hex hop
            Pin(8, 20, wires.S0F[2]),  # 18 cols
        ]
        router.route(pins[0], pins[1:])
        device = router.device
        src, near, far = (device.resolve(p.row, p.col, p.wire) for p in pins)
        return device, src, near, far

    def test_equalize_slows_the_fast_branch(self):
        device, src, near, far = self._imbalanced_net()
        before = net_timing(device, src)
        if before.skew <= 0.5:
            pytest.skip("fanout happened to balance itself")
        after = equalize_skew(device, src, tolerance=0.5, max_iterations=8)
        assert after <= before.skew
        # both sinks still connected
        assert device.state.root_of(near) == src
        assert device.state.root_of(far) == src
        assert audit_no_contention(device) == []

    def test_equalize_respects_tolerance(self):
        device, src, near, far = self._imbalanced_net()
        huge = equalize_skew(device, src, tolerance=1000.0)
        # tolerance already satisfied: nothing ripped up
        assert huge == net_timing(device, src).skew

    def test_equalize_zero_iterations(self):
        device, src, near, far = self._imbalanced_net()
        before = net_timing(device, src).skew
        after = equalize_skew(device, src, tolerance=0.0, max_iterations=0)
        assert after == before
