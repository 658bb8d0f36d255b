"""Routing state of a device: which PIPs are on, who drives what.

The state is a forest over canonical wire ids: every driven wire records
its driver and the tile at which the driving PIP sits; every wire records
the wires it currently drives.  This is exactly the information the
paper's unrouter and tracer need ("the unrouter then follows each of the
wires the pin drives and turns it off").

A numpy ``occupied`` array mirrors "wire is in use" for the routers'
availability checks (vectorised masking in the maze router).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..arch.virtex import VirtexArch

__all__ = ["PipRecord", "RoutingState", "drive_verdict", "SAME", "CONTENTION", "LOOP"]

#: :func:`drive_verdict`'s answers; None means the drive is free.
SAME, CONTENTION, LOOP = "same", "contention", "loop"


def _descends(driver_of: Callable[[int], int], canon: int, ancestor: int) -> bool:
    """True if ``ancestor`` is on ``canon``'s driver chain (inclusive)."""
    w = canon
    while w != -1:
        if w == ancestor:
            return True
        w = driver_of(w)
    return False


def drive_verdict(
    driver_of: Callable[[int], int], canon_from: int, canon_to: int
) -> str | None:
    """The order-dependent half of the paper's contention protection
    (Section 3.4): judge the drive ``canon_from -> canon_to`` against
    the drives ``driver_of`` reports (a wire's driver, or -1).

    :data:`SAME` when ``canon_from`` already drives ``canon_to`` (a
    no-op), :data:`CONTENTION` when another wire does, :data:`LOOP` when
    ``canon_from`` descends from ``canon_to``, else None.  The device
    judges its live state; the dry runs and the artifact linter judge
    the drives they have accepted so far.
    """
    existing = driver_of(canon_to)
    if existing != -1:
        return SAME if existing == canon_from else CONTENTION
    return LOOP if _descends(driver_of, canon_from, canon_to) else None


@dataclass(frozen=True, slots=True)
class PipRecord:
    """One turned-on PIP: at tile (row, col), ``from_name`` drives
    ``to_name``; ``canon_from``/``canon_to`` are the resolved wires."""

    row: int
    col: int
    from_name: int
    to_name: int
    canon_from: int
    canon_to: int


class RoutingState:
    """Mutable routing state over a device's canonical wire space."""

    def __init__(self, arch: VirtexArch) -> None:
        self.arch = arch
        #: driver[w] = canonical id of the wire driving w, or -1
        self.driver = np.full(arch.n_wires, -1, dtype=np.int64)
        #: children[w] = list of canonical ids w currently drives
        self.children: dict[int, list[int]] = {}
        #: pip_of[w] = the PipRecord that drives w
        self.pip_of: dict[int, PipRecord] = {}
        #: occupied[w] = wire participates in some net (driven or driving)
        self.occupied = np.zeros(arch.n_wires, dtype=bool)
        self.n_pips_on = 0

    # -- mutation ------------------------------------------------------------

    def add_pip(self, rec: PipRecord) -> None:
        """Record a turned-on PIP.  Caller has validated legality."""
        self.driver[rec.canon_to] = rec.canon_from
        self.pip_of[rec.canon_to] = rec
        self.children.setdefault(rec.canon_from, []).append(rec.canon_to)
        self.occupied[rec.canon_to] = True
        self.occupied[rec.canon_from] = True
        self.n_pips_on += 1

    def remove_pip(self, canon_to: int) -> PipRecord:
        """Remove the PIP driving ``canon_to`` and return its record."""
        rec = self.pip_of.pop(canon_to)
        self.driver[canon_to] = -1
        kids = self.children[rec.canon_from]
        kids.remove(canon_to)
        if not kids:
            del self.children[rec.canon_from]
        self.n_pips_on -= 1
        self._refresh_occupied(rec.canon_from)
        self._refresh_occupied(canon_to)
        return rec

    def _refresh_occupied(self, canon: int) -> None:
        self.occupied[canon] = (
            self.driver[canon] != -1 or bool(self.children.get(canon))
        )

    def clear(self) -> None:
        """Return to the unconfigured state (all PIPs off)."""
        self.driver.fill(-1)
        self.children.clear()
        self.pip_of.clear()
        self.occupied.fill(False)
        self.n_pips_on = 0

    # -- queries ---------------------------------------------------------------

    def driver_of(self, canon: int) -> int:
        """Canonical id of the driver of ``canon``, or -1."""
        return int(self.driver[canon])

    def children_of(self, canon: int) -> tuple[int, ...]:
        """Wires currently driven by ``canon``."""
        return tuple(self.children.get(canon, ()))

    def is_used(self, canon: int) -> bool:
        """Paper's ``isOn`` semantics: the wire participates in a net."""
        return bool(self.occupied[canon])

    def is_driven(self, canon: int) -> bool:
        return self.driver[canon] != -1

    def root_of(self, canon: int) -> int:
        """Walk drivers up to the net's source wire."""
        w = canon
        d = self.driver[w]
        while d != -1:
            w = int(d)
            d = self.driver[w]
        return w

    def is_ancestor(self, maybe_ancestor: int, canon: int) -> bool:
        """True if ``maybe_ancestor`` appears on the driver chain of
        ``canon`` (inclusive of ``canon`` itself)."""
        return _descends(self.driver.item, canon, maybe_ancestor)

    def subtree(self, canon: int) -> Iterator[int]:
        """Yield ``canon`` and every wire reachable through on-PIPs."""
        stack = [canon]
        while stack:
            w = stack.pop()
            yield w
            stack.extend(self.children.get(w, ()))

    def net_pips(self, source: int) -> list[PipRecord]:
        """All PIP records of the net rooted at ``source`` (preorder)."""
        out: list[PipRecord] = []
        stack = [source]
        while stack:
            w = stack.pop()
            for kid in self.children.get(w, ()):
                out.append(self.pip_of[kid])
                stack.append(kid)
        return out

    def used_wires(self) -> np.ndarray:
        """Canonical ids of all wires currently in use (sorted)."""
        return np.flatnonzero(self.occupied)

    def fingerprint(self) -> str:
        """Order-independent digest of the full PIP configuration.

        Two states fingerprint equal iff the same PIPs are on — the
        cheap equality check crash-recovery uses to prove a recovered
        state matches an uninterrupted run without comparing arrays.
        """
        h = hashlib.sha256()
        for canon_to in sorted(self.pip_of):
            rec = self.pip_of[canon_to]
            h.update(
                b"%d,%d,%d,%d;" % (rec.row, rec.col, rec.from_name, rec.to_name)
            )
        return h.hexdigest()

    # -- auditing ---------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Audit ``driver``/``children``/``pip_of``/``occupied`` mutual
        consistency.

        Returns human-readable violations (empty when healthy).  Used by
        :class:`repro.core.txn.RouteTransaction` after a rollback and by
        the test suite; any violation means the forest is corrupt and the
        device state can no longer be trusted.
        """
        problems: list[str] = []
        if self.n_pips_on != len(self.pip_of):
            problems.append(
                f"n_pips_on={self.n_pips_on} but {len(self.pip_of)} PIP records"
            )
        for canon_to, rec in self.pip_of.items():
            if rec.canon_to != canon_to:
                problems.append(
                    f"pip_of[{canon_to}] records target {rec.canon_to}"
                )
            if self.driver[canon_to] != rec.canon_from:
                problems.append(
                    f"driver[{canon_to}]={int(self.driver[canon_to])} but PIP "
                    f"record says {rec.canon_from}"
                )
            if canon_to not in self.children.get(rec.canon_from, ()):
                problems.append(
                    f"{canon_to} missing from children[{rec.canon_from}]"
                )
        driven = np.flatnonzero(self.driver != -1)
        # dict-membership audit of a cold invariant checker
        for w in driven:  # repro: noqa RPR007
            if int(w) not in self.pip_of:
                problems.append(f"driver[{int(w)}] set but no PIP record")
        for canon_from, kids in self.children.items():
            if not kids:
                problems.append(f"children[{canon_from}] is empty but present")
            if len(set(kids)) != len(kids):
                problems.append(f"children[{canon_from}] has duplicates")
            for kid in kids:
                rec = self.pip_of.get(kid)
                if rec is None or rec.canon_from != canon_from:
                    problems.append(
                        f"children[{canon_from}] lists {kid} without a "
                        f"matching PIP record"
                    )
        expected = np.zeros_like(self.occupied)
        expected[driven] = True
        for canon_from, kids in self.children.items():
            if kids:
                expected[canon_from] = True
        bad = np.flatnonzero(expected != self.occupied)
        for w in bad[:10]:
            problems.append(
                f"occupied[{int(w)}]={bool(self.occupied[w])} but forest "
                f"says {bool(expected[w])}"
            )
        if len(bad) > 10:
            problems.append(f"... and {len(bad) - 10} more occupancy mismatches")
        return problems
