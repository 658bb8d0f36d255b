"""Fault injection for the simulated fabric.

Real run-time reconfigurable systems must route around defective
resources (cf. Ahmadinia et al., *A Practical Approach for Circuit
Routing on Dynamic Reconfigurable Devices*); the paper's fabric is
always perfect.  :class:`FaultModel` injects three classes of permanent
defects into a :class:`~repro.device.fabric.Device`:

* **dead wires** — the wire is broken and carries no signal; it can
  neither be driven nor drive anything;
* **pre-driven wires** — a stuck-*closed* PIP permanently drives the
  wire from some neighbour, so any other driver would contend; the wire
  is unusable by nets and reads as in-use;
* **stuck-open PIPs** — the switch between two specific wires can never
  close, though both wires remain usable via other PIPs.

Faults are deterministic.  Explicit faults are registered per resource;
random faults are drawn either up front (wire masks, seeded numpy
generator) or membership-hashed per PIP (stuck-open at a given rate,
splitmix64 over the canonical wire pair) so that no enumeration of the
full PIP population is ever needed.

The device consults the model in :meth:`Device.turn_on` (raising
:class:`~repro.errors.FaultError`); the maze and template routers mask
faulty resources out of their availability checks so search degrades
gracefully instead of planning invalid connections.
"""

from __future__ import annotations

import numpy as np

from ..arch.virtex import VirtexArch

__all__ = ["FaultModel"]

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 round; stable across processes (unlike hash())."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class FaultModel:
    """Deterministic defect map over one architecture's wire space.

    Parameters
    ----------
    arch:
        The architecture whose canonical wire ids the model indexes.
    dead_wires, predriven_wires:
        Explicit canonical wire ids to mark dead / pre-driven.
    stuck_open_pips:
        Explicit ``(canon_from, canon_to)`` pairs whose PIP never closes.
    """

    def __init__(
        self,
        arch: VirtexArch,
        *,
        dead_wires: tuple[int, ...] = (),
        predriven_wires: tuple[int, ...] = (),
        stuck_open_pips: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.arch = arch
        #: dead[w]: wire w is physically broken
        self.dead = np.zeros(arch.n_wires, dtype=bool)
        #: predriven[w]: a stuck-closed PIP permanently drives wire w
        self.predriven = np.zeros(arch.n_wires, dtype=bool)
        self._stuck_open: set[tuple[int, int]] = set(
            (int(a), int(b)) for a, b in stuck_open_pips
        )
        self._stuck_open_rate = 0.0
        self._stuck_open_seed = 0
        self._stuck_open_threshold = 0
        #: bumped on every mutation; derived caches (per-edge fault masks
        #: on compiled routing graphs) key off it
        self.version = 0
        self._edge_masks: dict[int, object] = {}
        for w in dead_wires:
            self.dead[w] = True
        for w in predriven_wires:
            self.predriven[w] = True
        self._refresh()

    # -- construction --------------------------------------------------------

    @classmethod
    def random(
        cls,
        arch: VirtexArch,
        *,
        seed: int = 0,
        stuck_open_rate: float = 0.0,
        stuck_closed_rate: float = 0.0,
        dead_wire_rate: float = 0.0,
    ) -> "FaultModel":
        """Seeded random fault map at the given per-resource rates.

        Wire faults are drawn once over the canonical wire space;
        stuck-open PIP membership is hashed per (from, to) pair, so the
        same seed and rate name the same defective PIPs on every run.
        """
        model = cls(arch)
        rng = np.random.default_rng(seed)
        if dead_wire_rate > 0.0:
            model.dead = rng.random(arch.n_wires) < dead_wire_rate
        if stuck_closed_rate > 0.0:
            model.predriven = rng.random(arch.n_wires) < stuck_closed_rate
        model._stuck_open_rate = float(stuck_open_rate)
        model._stuck_open_seed = int(seed)
        model._stuck_open_threshold = int(stuck_open_rate * (_M64 + 1))
        model._refresh()
        return model

    def __getstate__(self) -> dict:
        # the per-graph edge-mask cache holds weak references, which do
        # not pickle; an unpickled copy rebuilds its own masks
        state = self.__dict__.copy()
        state["_edge_masks"] = {}
        return state

    def _refresh(self) -> None:
        #: unusable[w]: wire w cannot participate in any routed net
        self.unusable = self.dead | self.predriven
        self.version += 1

    # -- explicit mutation ----------------------------------------------------

    def kill_wire(self, canon: int) -> None:
        """Mark one wire dead."""
        self.dead[canon] = True
        self._refresh()

    def predrive_wire(self, canon: int) -> None:
        """Mark one wire as permanently driven by a stuck-closed PIP."""
        self.predriven[canon] = True
        self._refresh()

    def break_pip(self, canon_from: int, canon_to: int) -> None:
        """Mark the PIP between two canonical wires stuck open."""
        self._stuck_open.add((int(canon_from), int(canon_to)))
        self.version += 1

    # -- queries ---------------------------------------------------------------

    def wire_blocked(self, canon: int) -> bool:
        """Is the wire unusable (dead or pre-driven)?"""
        return bool(self.unusable[canon])

    def pip_stuck_open(self, canon_from: int, canon_to: int) -> bool:
        """Can the PIP ``canon_from -> canon_to`` never be closed?"""
        if (canon_from, canon_to) in self._stuck_open:
            return True
        if self._stuck_open_threshold:
            key = _splitmix64(
                (self._stuck_open_seed << 1)
                ^ _splitmix64((canon_from << 24) ^ canon_to)
            )
            return key < self._stuck_open_threshold
        return False

    def pip_blocked(self, canon_from: int, canon_to: int) -> bool:
        """Would using this PIP touch any faulty resource?"""
        return (
            bool(self.unusable[canon_from])
            or bool(self.unusable[canon_to])
            or self.pip_stuck_open(canon_from, canon_to)
        )

    # -- reporting ------------------------------------------------------------

    def counts(self) -> dict[str, int | float]:
        """Summary of the injected fault population."""
        return {
            "dead_wires": int(self.dead.sum()),
            "predriven_wires": int(self.predriven.sum()),
            "stuck_open_explicit": len(self._stuck_open),
            "stuck_open_rate": self._stuck_open_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        c = self.counts()
        return (
            f"FaultModel(dead={c['dead_wires']}, "
            f"predriven={c['predriven_wires']}, "
            f"stuck_open={c['stuck_open_explicit']}"
            f"+{c['stuck_open_rate']:.1%} hashed)"
        )
