"""Run-time parameterizable cores (paper Section 3.2).

"Another goal when designing the JRoute API was to support a hierarchical
and reusable library of run-time parameterizable cores. ... a core can
define ports. ... There are routing guidelines that need to be followed
when designing a core.  First, each port needs to be in a group. ...
Second, the router needs to be called for each port defined. ... Finally,
a getports() method must be defined for each group."

:class:`Core` implements those guidelines: subclasses declare a CLB
footprint, configure logic (LUTs/modes through JBits), run internal
routing through the shared :class:`~repro.core.router.JRouter`, and
define grouped ports bound to physical pins (or to ports of internal
child cores — hierarchy).  :class:`Floorplan` tracks placements and
rejects overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import errors
from ..core.endpoints import Pin, Port, PortDirection, PortGroup
from ..core.router import JRouter

__all__ = ["Core", "Floorplan", "Rect"]


@dataclass(frozen=True, slots=True)
class Rect:
    """A placement rectangle in CLB coordinates (origin + size)."""

    row: int
    col: int
    height: int
    width: int

    def overlaps(self, other: "Rect") -> bool:
        return not (
            self.row + self.height <= other.row
            or other.row + other.height <= self.row
            or self.col + self.width <= other.col
            or other.col + other.width <= self.col
        )

    def contains_tile(self, row: int, col: int) -> bool:
        return (
            self.row <= row < self.row + self.height
            and self.col <= col < self.col + self.width
        )


class Floorplan:
    """Tracks core placements on one device, rejecting overlaps."""

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self._placed: dict[str, Rect] = {}

    def place(self, name: str, rect: Rect) -> None:
        if name in self._placed:
            raise errors.PlacementError(f"core {name!r} is already placed")
        if (
            rect.row < 0
            or rect.col < 0
            or rect.row + rect.height > self.rows
            or rect.col + rect.width > self.cols
        ):
            raise errors.PlacementError(
                f"core {name!r} at {rect} does not fit on a "
                f"{self.rows}x{self.cols} device"
            )
        for other_name, other in self._placed.items():
            if rect.overlaps(other):
                raise errors.PlacementError(
                    f"core {name!r} at {rect} overlaps {other_name!r} at {other}"
                )
        self._placed[name] = rect

    def remove(self, name: str) -> None:
        self._placed.pop(name, None)

    def rect_of(self, name: str) -> Rect | None:
        return self._placed.get(name)

    def placed(self) -> dict[str, Rect]:
        return dict(self._placed)


class Core:
    """Base class for run-time parameterizable cores.

    Subclasses set :attr:`HEIGHT`/:attr:`WIDTH` (or override
    :meth:`footprint`) and implement :meth:`build`, which must configure
    logic, perform internal routing, and define the port groups.

    Parameters
    ----------
    router:
        The shared :class:`JRouter`; the core uses it for internal
        routing and registers its ports with it.
    instance_name:
        User-level identity; a replacement core re-using the same name
        inherits the remembered port connections.
    row, col:
        Placement origin (south-west corner of the footprint).
    """

    HEIGHT = 1
    WIDTH = 1
    #: constructor-parameter attribute names, used by replace/relocate to
    #: re-instantiate the core (run-time parameterisation)
    PARAM_ATTRS: tuple[str, ...] = ()

    def __init__(
        self,
        router: JRouter,
        instance_name: str,
        row: int,
        col: int,
        *,
        parent: "Core | None" = None,
    ) -> None:
        self.router = router
        self.device = router.device
        self.jbits = router.jbits
        if self.jbits is None:
            raise errors.PlacementError(
                "cores require a router with an attached JBits (logic is "
                "configured through the bitstream interface)"
            )
        self.parent = parent
        if parent is not None:
            instance_name = f"{parent.instance_name}/{instance_name}"
        self.instance_name = instance_name
        self.row = row
        self.col = col
        self.groups: dict[str, PortGroup] = {}
        self.children: list[Core] = []
        #: source pins of nets routed internally during build (for removal)
        self._internal_net_sources: list[Pin] = []
        #: (row, col, lut) configured during build (for removal)
        self._configured_luts: list[tuple[int, int, int]] = []
        #: (row, col, mode_bit) set during build (for removal)
        self._configured_modes: list[tuple[int, int, int]] = []
        self._placed = False

        if parent is None:
            floorplan = _floorplan_of(router)
            floorplan.place(instance_name, self.footprint())
            try:
                self.build()
            except Exception:
                floorplan.remove(instance_name)
                raise
        else:
            # hierarchical placement: inside the parent, clear of siblings
            rect = self.footprint()
            prect = parent.footprint()
            if not (
                prect.row <= rect.row
                and prect.col <= rect.col
                and rect.row + rect.height <= prect.row + prect.height
                and rect.col + rect.width <= prect.col + prect.width
            ):
                raise errors.PlacementError(
                    f"child core {instance_name!r} at {rect} leaves its "
                    f"parent's footprint {prect}"
                )
            for sib in parent.children:
                if rect.overlaps(sib.footprint()):
                    raise errors.PlacementError(
                        f"child core {instance_name!r} at {rect} overlaps "
                        f"sibling {sib.instance_name!r}"
                    )
            parent.children.append(self)
            self.build()
        self._placed = True
        router.register_core(self)

    # -- subclass interface ------------------------------------------------------

    def footprint(self) -> Rect:
        """Occupied CLB rectangle; defaults to HEIGHT x WIDTH at origin."""
        return Rect(self.row, self.col, self.HEIGHT, self.WIDTH)

    def build(self) -> None:
        """Configure logic, route internal nets, define ports."""
        raise NotImplementedError

    # -- port definition helpers ----------------------------------------------------

    def define_group(self, name: str, ports: Iterable[Port]) -> PortGroup:
        """Create a port group (paper: every port must be in a group)."""
        if name in self.groups:
            raise errors.PortError(f"group {name!r} already defined")
        group = PortGroup(name)
        for p in ports:
            p.owner = self
            group.add(p)
        self.groups[name] = group
        return group

    def new_port(self, name: str, direction: PortDirection, binding) -> Port:
        """Create a port bound to a pin or an internal core's port."""
        port = Port(name, direction, owner=self)
        port.bind(binding)
        return port

    def get_ports(self, group: str) -> tuple[Port, ...]:
        """The paper's ``getports()``: the ports of one group, in order."""
        try:
            return self.groups[group].ports
        except KeyError:
            raise errors.PortError(
                f"core {self.instance_name!r} has no port group {group!r} "
                f"(has: {', '.join(self.groups) or 'none'})"
            ) from None

    def all_ports(self) -> list[Port]:
        out: list[Port] = []
        for group in self.groups.values():
            out.extend(group.ports)
        return out

    # -- build-time resource helpers -----------------------------------------------

    def tile(self, drow: int, dcol: int) -> tuple[int, int]:
        """Absolute tile of a footprint-relative offset."""
        return self.row + drow, self.col + dcol

    def set_lut(self, drow: int, dcol: int, lut: int, truth: int) -> None:
        """Configure a LUT (footprint-relative), tracked for removal."""
        row, col = self.tile(drow, dcol)
        if not self.footprint().contains_tile(row, col):
            raise errors.PlacementError(
                f"core {self.instance_name!r} configuring LUT outside its "
                f"footprint at ({row},{col})"
            )
        assert self.jbits is not None
        self.jbits.set_lut(row, col, lut, truth)
        key = (row, col, lut)
        if key not in self._configured_luts:
            self._configured_luts.append(key)

    def route_internal(self, source: Pin | Port, sinks) -> None:
        """Route an internal net, tracked so removal can unroute it."""
        if not isinstance(sinks, (list, tuple)):
            sinks = [sinks]
        self.router.route(source, list(sinks))
        src_pin = self.router.source_pin_of(source)
        if src_pin not in self._internal_net_sources:
            self._internal_net_sources.append(src_pin)

    # -- lifecycle -----------------------------------------------------------------------

    def remove(self) -> None:
        """Remove the core: unroute its nets, clear its logic, free its area.

        External port connections are remembered by the router's net
        database (Section 3.3), so a replacement core with the same
        instance name reconnects via :meth:`JRouter.reconnect`.
        """
        if not self._placed:
            return
        # disconnect external nets touching our ports
        for port in self.all_ports():
            if port.direction is PortDirection.OUT:
                self.router.unroute(port)
            else:
                for pin in port.resolve_pins():
                    canon = self.device.resolve(pin.row, pin.col, pin.wire)
                    if self.device.state.is_driven(canon):
                        self.router.reverse_unroute(Pin(pin.row, pin.col, pin.wire))
        # remove children bottom-up, then our own internal nets and logic
        for child in self.children:
            child.remove()
        for src in self._internal_net_sources:
            canon = self.device.resolve(src.row, src.col, src.wire)
            if self.device.state.children_of(canon):
                self.router.unroute(src)
        assert self.jbits is not None
        for row, col, lut in self._configured_luts:
            self.jbits.set_lut(row, col, lut, 0)
        for row, col, bit in self._configured_modes:
            self.jbits.set_mode_bit(row, col, bit, False)
        _floorplan_of(self.router).remove(self.instance_name)
        self._placed = False

    def parameters(self) -> dict:
        """Constructor parameters of this core (see :data:`PARAM_ATTRS`)."""
        return {a: getattr(self, a) for a in self.PARAM_ATTRS}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"{type(self).__name__}({self.instance_name!r} at "
            f"({self.row},{self.col}))"
        )


def _floorplan_of(router: JRouter) -> Floorplan:
    """The per-router floorplan (created on first use)."""
    fp = getattr(router, "_floorplan", None)
    if fp is None:
        fp = Floorplan(router.device.rows, router.device.cols)
        router._floorplan = fp
    return fp
