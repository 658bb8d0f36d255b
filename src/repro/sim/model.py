"""Functional simulation of a configured device.

The paper's toolchain pairs JRoute with BoardScope, which observes a
*running* device.  This module provides the running device: a LUT-level
functional simulator over the simulated fabric's routing state and LUT /
flip-flop configuration, so a routed design actually computes — the
counter counts, the adder adds — and tests can verify routing + logic
end-to-end rather than structurally.

Semantics
---------
* The logical value of any wire is the value of its net's source (ideal
  interconnect: the routing forest only transports values).
* A slice's combinational outputs (X, Y) evaluate their LUT over the
  values arriving at the LUT input pins (unconnected inputs read 0, or a
  value forced with :meth:`Simulator.force`).
* A slice's registered outputs (XQ, YQ) hold flip-flop state; sites whose
  FF mode bit is set latch their LUT's combinational value on
  :meth:`Simulator.step`.
* Sources with no logic behind them (unconfigured slice outputs, global
  nets) read 0 unless forced — that is how testbenches inject stimuli.

Combinational cycles through LUTs raise :class:`CombinationalLoopError`;
cycles through flip-flops are fine (that is what state machines are).

Clocking model: :meth:`Simulator.step` advances one global clock edge —
every enabled flip-flop latches, regardless of which physical clock net
reaches its CLK pin (a single-clock-domain simplification; the routing
of clock nets is still fully modelled and checked by the router).
"""

from __future__ import annotations

from .. import errors
from ..arch import wires
from ..arch.wires import WireClass
from ..device.fabric import Device
from ..jbits.jbits import JBits

__all__ = ["Simulator", "CombinationalLoopError"]


class CombinationalLoopError(errors.JRouteError):
    """The configured design has a combinational cycle through LUTs."""


#: per-site (lut index) static pin sets:
#: (inputs, comb_out, reg_out, write_enable, data_in)
_SITE_PINS = (
    (tuple(wires.S0F[1:5]), wires.S0_X, wires.S0_XQ, wires.S0_CE, wires.S0_BX),
    (tuple(wires.S0G[1:5]), wires.S0_Y, wires.S0_YQ, wires.S0_CE, wires.S0_BY),
    (tuple(wires.S1F[1:5]), wires.S1_X, wires.S1_XQ, wires.S1_CE, wires.S1_BX),
    (tuple(wires.S1G[1:5]), wires.S1_Y, wires.S1_YQ, wires.S1_CE, wires.S1_BY),
)

#: slice-mode bit offsets: 0..3 FF enable per site, 4..7 LUT-RAM mode
RAM_MODE_BIT_BASE = 4

_COMB_OUT_TO_SITE = {pins[1]: i for i, pins in enumerate(_SITE_PINS)}
_REG_OUT_TO_SITE = {pins[2]: i for i, pins in enumerate(_SITE_PINS)}


class Simulator:
    """Functional simulator bound to a device and its JBits configuration.

    Parameters
    ----------
    device:
        The routed device.
    jbits:
        Its configuration (LUT truth tables, FF mode bits, global
        buffers).  Usually ``router.jbits``.
    """

    def __init__(self, device: Device, jbits: JBits) -> None:
        self.device = device
        self.jbits = jbits
        #: forced source values, by canonical wire id
        self._forced: dict[int, int] = {}
        #: flip-flop state: (row, col, site) -> 0/1
        self._ff: dict[tuple[int, int, int], int] = {}
        #: global net values (clock modelling is explicit via step())
        self._globals = [0] * wires.N_GCLK
        self.cycle = 0
        #: cached (FF sites, RAM sites); invalidated via invalidate()
        self._site_cache: tuple[list, list] | None = None

    # -- stimulus ----------------------------------------------------------------

    def force(self, row: int, col: int, name: int, value: int) -> None:
        """Force a wire's *source* value (testbench stimulus).

        Forcing a slice output overrides its LUT; forcing an input pin
        provides a default used only while the pin is unrouted.
        """
        canon = self.device.resolve(row, col, name)
        self._forced[canon] = 1 if value else 0

    def release(self, row: int, col: int, name: int) -> None:
        """Remove a forced value."""
        self._forced.pop(self.device.resolve(row, col, name), None)

    def set_global(self, index: int, value: int) -> None:
        """Drive one of the four dedicated global nets."""
        self._globals[index] = 1 if value else 0

    # -- value evaluation -----------------------------------------------------------

    def wire_value(self, row: int, col: int, name: int) -> int:
        """The logical value observed on a wire at a tile."""
        return self._value(self.device.resolve(row, col, name), set())

    def _value(self, canon: int, visiting: set[int]) -> int:
        root = self.device.state.root_of(canon)
        forced = self._forced.get(root)
        if forced is not None:
            return forced
        arch = self.device.arch
        cls = arch.wire_class_of(root)
        if cls is WireClass.GCLK:
            _, _, name = arch.primary_name(root)
            return self._globals[name - wires.GCLK[0]]
        if cls is WireClass.IOB_IN:
            return 0  # unforced input pad reads low
        if cls is not WireClass.SLICE_OUT:
            return 0  # undriven interconnect or unconfigured pin
        row, col, name = arch.primary_name(root)
        site = _COMB_OUT_TO_SITE.get(name)
        if site is not None:
            return self._comb(row, col, site, visiting)
        site = _REG_OUT_TO_SITE[name]
        return self._ff.get((row, col, site), 0)

    def _comb(self, row: int, col: int, site: int, visiting: set[int]) -> int:
        key_wire = self.device.resolve(row, col, _SITE_PINS[site][1])
        if key_wire in visiting:
            raise CombinationalLoopError(
                f"combinational cycle through LUT site {site} at "
                f"({row},{col})"
            )
        visiting.add(key_wire)
        try:
            truth = self.jbits.get_lut(row, col, site)
            addr = 0
            for bit, pin in enumerate(_SITE_PINS[site][0]):
                canon = self.device.resolve(row, col, pin)
                if self.device.state.is_driven(canon):
                    v = self._value(canon, visiting)
                else:
                    v = self._forced.get(canon, 0)
                addr |= v << bit
            return (truth >> addr) & 1
        finally:
            visiting.remove(key_wire)

    # -- sequential behaviour ---------------------------------------------------------

    def _scan_sites(self) -> tuple[list, list]:
        if self._site_cache is None:
            ff, ram = [], []
            for row in range(self.device.rows):
                for col in range(self.device.cols):
                    for site in range(4):
                        if self.jbits.get_mode_bit(row, col, site):
                            ff.append((row, col, site))
                        if self.jbits.get_mode_bit(
                            row, col, RAM_MODE_BIT_BASE + site
                        ):
                            ram.append((row, col, site))
            self._site_cache = (ff, ram)
        return self._site_cache

    def invalidate(self) -> None:
        """Drop cached site lists after a reconfiguration.

        The site scan is cached for speed; call this (or build a fresh
        Simulator) after changing FF/RAM mode bits.  LUT truth-table
        rewrites (constants, KCM swaps, RAM writes) do not need it.
        """
        self._site_cache = None

    def registered_sites(self) -> list[tuple[int, int, int]]:
        """All (row, col, site) with their FF mode bit set (cached)."""
        return self._scan_sites()[0]

    def step(self, cycles: int = 1) -> None:
        """Advance the clock: FFs latch their LUT values, and LUT-RAM
        sites with write-enable high store their data input at the
        addressed entry (the write lands in the configuration bits, so
        readback sees the memory contents, as on the device).

        All state updates are computed first, then applied simultaneously
        (two-phase evaluation).
        """
        ff_sites, ram = self._scan_sites()
        for _ in range(cycles):
            nxt = {
                (row, col, site): self._comb(row, col, site, set())
                for row, col, site in ff_sites
            }
            writes = []
            for row, col, site in ram:
                we = self._pin_value(row, col, _SITE_PINS[site][3])
                if not we:
                    continue
                addr = 0
                for bit, pin in enumerate(_SITE_PINS[site][0]):
                    addr |= self._pin_value(row, col, pin) << bit
                data = self._pin_value(row, col, _SITE_PINS[site][4])
                writes.append((row, col, site, addr, data))
            self._ff.update(nxt)
            for row, col, site, addr, data in writes:
                truth = self.jbits.get_lut(row, col, site)
                truth = (truth | (1 << addr)) if data else (truth & ~(1 << addr))
                self.jbits.set_lut(row, col, site, truth)
            self.cycle += 1

    def _pin_value(self, row: int, col: int, pin: int) -> int:
        """Value at an input pin: its net's value, or a forced default."""
        canon = self.device.resolve(row, col, pin)
        if self.device.state.is_driven(canon):
            return self._value(canon, set())
        return self._forced.get(canon, 0)

    def reset(self) -> None:
        """Clear all flip-flop state and the cycle counter."""
        self._ff.clear()
        self.cycle = 0

    # -- convenience --------------------------------------------------------------------

    def read_bus(self, pins) -> int:
        """Read a little-endian bus of pins/ports as an integer."""
        from ..core.endpoints import Pin, Port

        value = 0
        for i, ep in enumerate(pins):
            if isinstance(ep, Port):
                pin = ep.resolve_pins()[0]
            elif isinstance(ep, Pin):
                pin = ep
            else:
                raise errors.JRouteError(f"not a pin or port: {ep!r}")
            value |= self.wire_value(pin.row, pin.col, pin.wire) << i
        return value

    def drive_bus(self, pins, value: int) -> None:
        """Force a little-endian bus of source pins to an integer value."""
        from ..core.endpoints import Pin, Port

        for i, ep in enumerate(pins):
            if isinstance(ep, Port):
                for pin in ep.resolve_pins():
                    self.force(pin.row, pin.col, pin.wire, (value >> i) & 1)
            else:
                self.force(ep.row, ep.col, ep.wire, (value >> i) & 1)
