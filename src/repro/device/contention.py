"""Contention analysis helpers (paper Section 3.4).

The hard contention *enforcement* lives in
:meth:`repro.device.fabric.Device.turn_on` — a wire never gets two
drivers.  This module adds the advisory queries routers and user tools
use to avoid tripping that enforcement: dry-run checks for a single PIP
or for a whole planned path, and an audit that verifies the invariant
over a device's entire state (used by tests and the debug tools).  The
dry runs apply the device's own rules: the static legality of
:meth:`~repro.arch.virtex.VirtexArch.pip_legal_at` and the
order-dependent :func:`~repro.device.state.drive_verdict`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..arch import connectivity, wires
from .fabric import Device
from .state import CONTENTION, SAME, drive_verdict

__all__ = ["would_contend", "path_conflicts", "audit_no_contention"]


def would_contend(device: Device, row: int, col: int, from_name: int, to_name: int) -> bool:
    """True if turning on this PIP would raise
    :class:`~repro.errors.ContentionError` (the target wire already has a
    different driver).  Nonexistent resources/PIPs also report True —
    they cannot be turned on.  A PIP that would close a loop is not
    contention."""
    reason, canon_from, canon_to = device.arch.pip_legal_at(row, col, from_name, to_name)
    live = device.state.driver.item
    return reason is not None or drive_verdict(live, canon_from, canon_to) == CONTENTION


def path_conflicts(
    device: Device, pips: Iterable[tuple[int, int, int, int]]
) -> list[tuple[int, int, int, int]]:
    """Dry-run a planned sequence of PIPs ``(row, col, from, to)``.

    Returns the steps ``turn_on`` would refuse, applied in order: an
    illegal PIP, a second driver or a drive that closes a loop, against
    the device state plus the plan's earlier accepted steps (a refused
    ``turn_on`` changes nothing).  Nothing is turned on and no listener
    fires.  An empty result means the plan can be applied, unless the
    device's fault model, which is not consulted here, refuses a step.
    """
    conflicts: list[tuple[int, int, int, int]] = []
    accepted: dict[int, int] = {}  # canon_to -> canon_from, plan steps
    live = device.state.driver.item

    def driver_of(canon: int) -> int:
        return accepted[canon] if canon in accepted else live(canon)

    for pip in pips:
        reason, canon_from, canon_to = device.arch.pip_legal_at(*pip)
        if reason is None and drive_verdict(driver_of, canon_from, canon_to) in (None, SAME):
            accepted[canon_to] = canon_from
        else:
            conflicts.append(tuple(pip))
    return conflicts


def audit_no_contention(device: Device) -> Sequence[str]:
    """Verify the no-two-drivers invariant over the whole device state.

    Returns a list of human-readable violations (empty when healthy).
    Because :meth:`Device.turn_on` enforces the invariant, violations
    indicate state corruption; tests call this after every scenario.
    """
    problems: list[str] = []
    seen_targets: set[int] = set()
    for canon_to, rec in device.state.pip_of.items():
        if canon_to in seen_targets:  # pragma: no cover - defensive
            problems.append(f"wire {canon_to} recorded twice as a PIP target")
        seen_targets.add(canon_to)
        if rec.canon_to != canon_to:
            problems.append(
                f"pip_of key {canon_to} disagrees with record target {rec.canon_to}"
            )
        if device.state.driver_of(canon_to) != rec.canon_from:
            problems.append(
                f"driver array for {canon_to} disagrees with PIP record"
            )
        if not connectivity.pip_exists(rec.from_name, rec.to_name):
            problems.append(
                f"on-PIP {wires.wire_name(rec.from_name)} -> "
                f"{wires.wire_name(rec.to_name)} does not exist in the arch"
            )
    for canon_from, kids in device.state.children.items():
        for kid in kids:
            rec = device.state.pip_of.get(kid)
            if rec is None or rec.canon_from != canon_from:
                problems.append(
                    f"children list of {canon_from} contains {kid} without a "
                    f"matching PIP record"
                )
    return problems
