"""Transactional routing sessions.

The paper treats route failures as terminal user-visible events
("the call would fail ... a user action is required"), but a multi-step
call (fanout level 5, bus level 6) that fails midway must never leave
partially-applied PIPs behind on a shared device.
:class:`RouteTransaction` makes any block of routing work atomic: it
journals every PIP event the device emits while the block runs, and on a
:class:`~repro.errors.JRouteError` rolls the
:class:`~repro.device.state.RoutingState`, the
:class:`~repro.core.netdb.NetDB` and — via the device's listener
mechanism — the mirrored JBits bitstream back to the pre-call state,
then audits the forest invariants
(:meth:`~repro.device.state.RoutingState.check_invariants`).

Usage::

    with RouteTransaction(device, netdb=router.netdb):
        ...  # any number of turn_on/turn_off/route steps
    # on JRouteError: everything is rolled back, the error propagates
"""

from __future__ import annotations

import copy

from .. import errors
from ..device.fabric import Device, PipEvent
from .netdb import NetDB

__all__ = ["PipJournal", "RouteTransaction"]


class PipJournal:
    """An ordered record of the PIP events a device emitted.

    The journal behind :class:`RouteTransaction`, which undoes it on
    failure.  Attach subscribes to the device's listener mechanism;
    every ``turn_on``/``turn_off`` is then recorded until :meth:`detach`.
    A ``turn_off`` of the PIP the last recorded event turned on cancels
    that event instead of being appended, so a router that rolls back
    its own work leaves nothing for :meth:`undo` to replay.
    """

    __slots__ = ("device", "events", "_attached")

    def __init__(self, device: Device) -> None:
        self.device = device
        self.events: list[PipEvent] = []
        self._attached = False

    def attach(self) -> None:
        if self._attached:
            raise errors.TransactionError("journal already attached")
        self.device.add_listener(self.record)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.device.remove_listener(self.record)
            self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    def record(self, event: PipEvent) -> None:
        events = self.events
        on, rec = event
        if not on and events and events[-1] == (True, rec):
            events.pop()
        else:
            events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def undo(self) -> None:
        """Replay the journal in reverse, inverting every event.

        The journal is cleared afterwards; the device's listeners (this
        journal included, when attached) observe the inverse events as
        ordinary PIP traffic — detach first when that is not wanted.
        """
        events = self.events
        self.events = []
        for on, rec in reversed(events):
            if on:
                self.device.turn_off(rec.row, rec.col, rec.from_name, rec.to_name)
            else:
                self.device.turn_on(rec.row, rec.col, rec.from_name, rec.to_name)


class RouteTransaction:
    """Context manager making a block of routing mutations atomic.

    Parameters
    ----------
    device:
        The device whose PIP changes are journaled.
    netdb:
        Optional net database to snapshot/restore alongside the device
        (the port registry is shared, not snapshotted: core placement is
        not part of routing transactions).
    audit:
        Run :meth:`RoutingState.check_invariants` after a rollback and
        raise :class:`~repro.errors.TransactionError` on any violation.

    Only :class:`~repro.errors.JRouteError` triggers rollback; other
    exceptions (and ``KeyboardInterrupt``) propagate without touching
    the state, since the journal cannot know how much of a non-routing
    failure's work is safe to undo.
    """

    def __init__(
        self, device: Device, *, netdb: NetDB | None = None, audit: bool = True
    ) -> None:
        self.device = device
        self.netdb = netdb
        self.audit = audit
        self._journal = PipJournal(device)
        self._net_sinks: dict | None = None
        self._net_source_ep: dict | None = None
        self._port_memory: dict | None = None
        self.active = False
        #: set True when __exit__ performed a rollback
        self.rolled_back = False

    # -- context protocol -----------------------------------------------------

    def __enter__(self) -> "RouteTransaction":
        if self.active:
            raise errors.TransactionError("transaction already active")
        self._journal.clear()
        self.rolled_back = False
        if self.netdb is not None:
            self._net_sinks = {
                src: set(sinks) for src, sinks in self.netdb.net_sinks.items()
            }
            self._net_source_ep = dict(self.netdb.net_source_ep)
            self._port_memory = copy.deepcopy(self.netdb.port_memory)
        self._journal.attach()
        self.active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._journal.detach()
        self.active = False
        if exc_type is not None and issubclass(exc_type, errors.JRouteError):
            self.rollback()
        return False

    # -- rollback -------------------------------------------------------------

    @property
    def journal_length(self) -> int:
        """PIP events journaled so far (on and off), less the pairs an
        off cancelled (see :class:`PipJournal`)."""
        return len(self._journal)

    def rollback(self) -> None:
        """Undo every journaled PIP event in reverse and restore the
        net database, then audit state consistency."""
        self._journal.undo()
        # a mid-transaction rollback journals its own inverse events
        # (the listener is still attached); drop them too
        self._journal.clear()
        if self.netdb is not None and self._net_sinks is not None:
            self.netdb.net_sinks = self._net_sinks
            self.netdb.net_source_ep = self._net_source_ep
            self.netdb.port_memory = self._port_memory
            self._net_sinks = self._net_source_ep = self._port_memory = None
        self.rolled_back = True
        if self.audit:
            problems = self.device.state.check_invariants()
            if problems:
                raise errors.TransactionError(
                    "post-rollback invariant audit failed: "
                    + "; ".join(problems[:5])
                )
