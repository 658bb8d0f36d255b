"""Extended property-based tests: ports, cores, simulation, netlists.

Complements ``test_properties.py`` with invariants that span subsystems:

* core replace/relocate preserves external connectivity for arbitrary
  parameters;
* netlist export/replay is an exact configuration round trip for
  arbitrary routed workloads;
* a forced source value propagates to every wire of its net (ideal
  interconnect);
* the paper's increasing-distance fanout order holds for arbitrary sink
  sets.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.arch import wires
from repro.bench.workloads import SINK_WIRES, SOURCE_WIRES
from repro.core import JRouter, Pin
from repro.cores import ConstantMultiplierCore, RegisterCore, replace_core
from repro.debug.netlist import export_netlist, replay_netlist
from repro.device.contention import audit_no_contention
from repro.sim import Simulator

common = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

tiles = st.tuples(st.integers(0, 15), st.integers(0, 23))
source_pins = st.builds(
    lambda rc, w: Pin(rc[0], rc[1], w), tiles, st.sampled_from(SOURCE_WIRES)
)
sink_pins = st.builds(
    lambda rc, w: Pin(rc[0], rc[1], w), tiles, st.sampled_from(SINK_WIRES)
)


class TestReplacePreservesConnectivity:
    @given(
        constant=st.integers(1, 7),
        new_constant=st.integers(1, 7),
        width=st.integers(1, 4),
    )
    @common
    def test_kcm_swap(self, constant, new_constant, width):
        # the paper's swap assumes an interface-preserving replacement:
        # both constants must need the same number of output bits, or the
        # vanished ports legitimately lose their connections
        if constant.bit_length() != new_constant.bit_length():
            return
        router = JRouter(part="XCV100")
        kcm = ConstantMultiplierCore(
            router, "kcm", 2, 2, width=width, constant=constant
        )
        reg = RegisterCore(router, "reg", 2, 6, width=kcm.out_width)
        router.route(list(kcm.get_ports("out")), list(reg.get_ports("d")))
        pips = router.device.state.n_pips_on
        new = replace_core(kcm, constant=new_constant)
        assert new.constant == new_constant
        assert router.device.state.n_pips_on == pips
        for port in reg.get_ports("d"):
            for pin in port.resolve_pins():
                canon = router.device.resolve(pin.row, pin.col, pin.wire)
                assert router.device.state.is_driven(canon)
        assert audit_no_contention(router.device) == []


class TestNetlistRoundtrip:
    @given(
        nets=st.lists(
            st.tuples(source_pins, sink_pins),
            min_size=1,
            max_size=5,
            unique_by=(
                lambda t: (t[0].row, t[0].col, t[0].wire),
                lambda t: (t[1].row, t[1].col, t[1].wire),
            ),
        )
    )
    @common
    def test_exact_configuration_roundtrip(self, nets):
        router = JRouter(part="XCV50")
        for src, sink in nets:
            try:
                router.route(src, sink)
            except errors.JRouteError:
                pass
        snapshot = export_netlist(router.device)
        fresh = JRouter(part="XCV50")
        replay_netlist(fresh, snapshot)
        assert fresh.jbits.memory == router.jbits.memory


class TestSimulationPropagation:
    @given(src=source_pins, sink=sink_pins, value=st.integers(0, 1))
    @common
    def test_value_reaches_every_net_wire(self, src, sink, value):
        router = JRouter(part="XCV50")
        try:
            router.route(src, sink)
        except errors.JRouteError:
            return
        sim = Simulator(router.device, router.jbits)
        sim.force(src.row, src.col, src.wire, value)
        for w in router.trace(src).wires:
            r, c, n = router.device.arch.primary_name(w)
            assert sim.wire_value(r, c, n) == value


class TestFanoutOrderProperty:
    @given(
        sinks=st.lists(
            sink_pins, min_size=2, max_size=5,
            unique_by=lambda p: (p.row, p.col, p.wire),
        )
    )
    @common
    def test_increasing_distance_order(self, sinks):
        """'Each sink gets routed in order of increasing distance.'"""
        router = JRouter(part="XCV50", attach_jbits=False)
        device = router.device
        canons = {}
        for p in sinks:
            c = device.arch.canonicalize(p.row, p.col, p.wire)
            if c is not None:
                canons[c] = p
        if len(canons) < 2:
            return
        order: list[int] = []  # sinks, as the PIPs that drive them turn on

        def listen(event):
            on, rec = event
            if on and rec.canon_to in canons:
                order.append(rec.canon_to)

        device.add_listener(listen)
        try:
            router.route(Pin(8, 12, wires.S0_X), list(canons.values()))
        except errors.JRouteError:
            return
        assert sorted(order) == sorted(canons)

        def dist(c):
            r, cc, _ = device.arch.primary_name(c)
            return abs(r - 8) + abs(cc - 12)

        dists = [dist(c) for c in order]
        assert dists == sorted(dists)
