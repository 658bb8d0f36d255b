"""The simulated device: fabric geometry + live routing state.

:class:`Device` is the behavioural model of one Virtex part.  It owns the
architecture description and the :class:`~repro.device.state.RoutingState`,
validates and applies PIP changes (including the contention protection of
the paper's Section 3.4), and exposes the wire-graph neighbourhood queries
that every routing algorithm is built on.

Configuration listeners (e.g. the JBits bitstream mirror) are notified of
every PIP change, keeping the bit-level view coherent with the
behavioural state.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .. import errors
from ..arch import connectivity, wires

# The name-level drivability tables moved to the compiled-graph module so
# the CSR builder and the behavioural device share one definition.
from ..arch.graph import DRIVES_DRIVABLE as _DRIVES_DRIVABLE
from ..arch.graph import NAME_DRIVABLE as _NAME_DRIVABLE
from ..arch.graph import routing_graph as _routing_graph
from ..arch.virtex import VirtexArch
from .state import PipRecord, RoutingState

__all__ = ["Device", "PipEvent"]

#: (on: bool, record) passed to configuration listeners.
PipEvent = tuple[bool, PipRecord]


class Device:
    """One simulated Virtex part with live routing state.

    Parameters
    ----------
    part:
        Virtex part name ("XCV50" .. "XCV1000") or a
        :class:`~repro.arch.devices.DevicePart`.
    faults:
        Optional :class:`~repro.device.faults.FaultModel` of permanent
        defects; configuring a faulty resource raises
        :class:`~repro.errors.FaultError`, and fault-aware routers mask
        the resources out of their searches.
    """

    def __init__(self, part: str = "XCV50", *, faults=None) -> None:
        self.arch = VirtexArch(part)
        self.state = RoutingState(self.arch)
        self.faults = faults
        self._listeners: list[Callable[[PipEvent], None]] = []
        self._search_state = None
        self._batch_search_state = None

    def routing_graph(self):
        """The compiled CSR routing graph for this part (process-shared)."""
        return _routing_graph(self.arch)

    def search_state(self):
        """This device's reusable epoch-stamped search state.

        One state serves one search at a time; concurrent searches must
        allocate their own (see parallel PathFinder).
        """
        if self._search_state is None:
            from ..core.kernel import SearchState

            self._search_state = SearchState(self.arch.n_wires)
        return self._search_state

    def batch_search_state(self, k: int):
        """This device's reusable ``k``-lane batched search state.

        Grown on demand (lanes are reused across batches); one state
        serves one batch at a time, the same rule as
        :meth:`search_state`.
        """
        if self._batch_search_state is None:
            from ..core.kernel import BatchSearchState

            self._batch_search_state = BatchSearchState(self.arch.n_wires, k)
        else:
            self._batch_search_state.ensure(k)
        return self._batch_search_state

    def set_fault_model(self, faults) -> None:
        """Attach (or clear, with None) the device's fault model.

        Faults describe the physical fabric, not the configuration:
        attaching a model does not disturb already-routed nets, it only
        constrains future ``turn_on`` calls and fault-aware searches.
        """
        self.faults = faults

    @property
    def rows(self) -> int:
        return self.arch.rows

    @property
    def cols(self) -> int:
        return self.arch.cols

    # -- listeners -------------------------------------------------------------

    def add_listener(self, fn: Callable[[PipEvent], None]) -> None:
        """Register a configuration listener (called on every PIP change)."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[PipEvent], None]) -> None:
        self._listeners.remove(fn)

    def _emit(self, on: bool, rec: PipRecord) -> None:
        for fn in self._listeners:
            fn((on, rec))

    # -- resolution helpers ------------------------------------------------------

    def resolve(self, row: int, col: int, name: int) -> int:
        """Canonicalize a wire name at a tile, raising if it doesn't exist."""
        canon = self.arch.canonicalize(row, col, name)
        if canon is None:
            raise errors.InvalidResourceError(
                f"{wires.wire_name(name)} does not exist at CLB ({row},{col}) "
                f"on {self.arch.part.name}"
            )
        return canon

    # -- PIP mutation --------------------------------------------------------------

    def turn_on(self, row: int, col: int, from_name: int, to_name: int) -> PipRecord:
        """Turn on the PIP ``from_name -> to_name`` at CLB ``(row, col)``.

        Validates that the PIP exists in the architecture, that both wires
        exist at this tile, that the target is drivable here, and that the
        connection creates neither contention (two drivers on one wire) nor
        a combinational routing loop.  Idempotent for an already-on PIP.
        """
        if not connectivity.pip_exists(from_name, to_name):
            raise errors.InvalidPipError(
                f"no PIP {wires.wire_name(from_name)} -> "
                f"{wires.wire_name(to_name)} in the architecture"
            )
        canon_from = self.resolve(row, col, from_name)
        canon_to = self.resolve(row, col, to_name)
        if not _NAME_DRIVABLE[to_name]:
            raise errors.InvalidPipError(
                f"{wires.wire_name(to_name)} cannot be driven at ({row},{col})"
            )
        if canon_from == canon_to:
            raise errors.InvalidPipError(
                f"{wires.wire_name(from_name)} and {wires.wire_name(to_name)} "
                f"are the same physical wire at ({row},{col})"
            )
        if self.faults is not None:
            if self.faults.wire_blocked(canon_from) or self.faults.wire_blocked(
                canon_to
            ):
                bad = canon_from if self.faults.wire_blocked(canon_from) else canon_to
                kind = "dead" if self.faults.dead[bad] else "pre-driven"
                raise errors.FaultError(
                    f"wire {wires.wire_name(to_name if bad == canon_to else from_name)} "
                    f"at ({row},{col}) is {kind} (fabric defect)"
                )
            if self.faults.pip_stuck_open(canon_from, canon_to):
                raise errors.FaultError(
                    f"PIP {wires.wire_name(from_name)} -> "
                    f"{wires.wire_name(to_name)} at ({row},{col}) is stuck open"
                )
        existing = self.state.driver_of(canon_to)
        if existing != -1:
            prev = self.state.pip_of[canon_to]
            if prev.canon_from == canon_from:
                return prev  # identical connection, idempotent
            raise errors.ContentionError(
                f"{wires.wire_name(to_name)} at ({row},{col}) is already "
                f"driven by {wires.wire_name(prev.from_name)} at "
                f"({prev.row},{prev.col}); driving it from "
                f"{wires.wire_name(from_name)} would create contention",
                row=row,
                col=col,
                wire=wires.wire_name(to_name),
                net=self.state.root_of(canon_to),
            )
        if self.state.is_ancestor(canon_to, canon_from):
            raise errors.RoutingLoopError(
                f"connecting {wires.wire_name(from_name)} -> "
                f"{wires.wire_name(to_name)} at ({row},{col}) closes a loop"
            )
        rec = PipRecord(row, col, from_name, to_name, canon_from, canon_to)
        self.state.add_pip(rec)
        self._emit(True, rec)
        return rec

    def turn_off(self, row: int, col: int, from_name: int, to_name: int) -> None:
        """Turn off a previously-on PIP.  Raises if it is not on."""
        canon_to = self.resolve(row, col, to_name)
        rec = self.state.pip_of.get(canon_to)
        canon_from = self.resolve(row, col, from_name)
        if rec is None or rec.canon_from != canon_from:
            raise errors.InvalidPipError(
                f"PIP {wires.wire_name(from_name)} -> {wires.wire_name(to_name)} "
                f"at ({row},{col}) is not on"
            )
        self.state.remove_pip(canon_to)
        self._emit(False, rec)

    def turn_off_driver(self, canon_to: int) -> PipRecord:
        """Turn off whatever PIP drives ``canon_to`` (unrouter primitive)."""
        rec = self.state.remove_pip(canon_to)
        self._emit(False, rec)
        return rec

    def clear(self) -> None:
        """Remove every routed connection (full-device unroute)."""
        for canon_to in list(self.state.pip_of):
            self.turn_off_driver(canon_to)

    # -- queries ------------------------------------------------------------------

    def is_on(self, row: int, col: int, name: int) -> bool:
        """The paper's ``isOn(row, col, wire)``: is the wire in use?

        Pre-driven wires (stuck-closed fabric defects) read as in use:
        their signal really is asserted on the physical wire.
        """
        canon = self.resolve(row, col, name)
        if self.faults is not None and self.faults.predriven[canon]:
            return True
        return self.state.is_used(canon)

    def pip_is_on(self, row: int, col: int, from_name: int, to_name: int) -> bool:
        canon_to = self.arch.canonicalize(row, col, to_name)
        if canon_to is None:
            return False
        rec = self.state.pip_of.get(canon_to)
        if rec is None:
            return False
        canon_from = self.arch.canonicalize(row, col, from_name)
        return canon_from is not None and rec.canon_from == canon_from

    # -- wire-graph neighbourhood (what routers expand) ---------------------------

    def fanout_pips(self, canon: int) -> Iterator[tuple[int, int, int, int, int]]:
        """All PIPs through which wire ``canon`` could drive another wire.

        Yields ``(row, col, from_name, to_name, canon_to)`` for every
        presence point of the wire and every architecture-legal, drivable
        target there.  Availability (target not in use) is *not* filtered
        here — algorithms decide how to treat used wires (e.g. reuse of
        the same net's tree in fanout routing).
        """
        arch = self.arch
        for row, col, name in arch.presences(canon):
            for to_name in _DRIVES_DRIVABLE[name]:
                canon_to = arch.canonicalize(row, col, to_name)
                if canon_to is not None:
                    yield row, col, name, to_name, canon_to

    def fanin_pips(self, canon: int) -> Iterator[tuple[int, int, int, int, int]]:
        """All PIPs through which wire ``canon`` could be driven.

        Yields ``(row, col, from_name, to_name, canon_from)``.  Empty for
        wires that are not drivable anywhere (slice outputs, globals).
        """
        arch = self.arch
        for row, col, name in arch.presences(canon):
            if not _NAME_DRIVABLE[name]:
                continue
            for from_name in connectivity.DRIVEN_BY[name]:
                canon_from = arch.canonicalize(row, col, from_name)
                if canon_from is not None:
                    yield row, col, from_name, name, canon_from

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Device({self.arch.part.name}: {self.rows}x{self.cols} CLBs, "
            f"{self.state.n_pips_on} PIPs on)"
        )
