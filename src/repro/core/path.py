"""Path: an explicit sequence of routing resources (route level 2).

Paper, Section 3.1: "A path is an array of specific resources, for
example HexNorth[4], that are to be connected.  The path also requires a
starting location, defined by a row and column.  The router turns on all
of the connections defined in the path."

Resolving a path walks the device: after driving a directional wire the
location advances to its far end, where the wire carries the opposite
name (driving ``SingleEast[5]`` at (5,7) leaves the signal on
``SingleWest[5]`` at (5,8), as in the paper's example).
"""

from __future__ import annotations

from typing import Sequence

from .. import errors
from ..arch import wires
from ..arch.virtex import VirtexArch
from ..device.fabric import Device
from ..routers.base import PlanPip

__all__ = ["Path"]


class Path:
    """An array of specific resources starting at ``(row, col)``."""

    __slots__ = ("row", "col", "wires")

    def __init__(self, row: int, col: int, path_wires: Sequence[int]) -> None:
        if len(path_wires) < 2:
            raise errors.JRouteError("a path needs at least two wires")
        self.row = row
        self.col = col
        self.wires = tuple(path_wires)

    def __len__(self) -> int:
        return len(self.wires)

    def __str__(self) -> str:
        names = ", ".join(wires.wire_name(w) for w in self.wires)
        return f"Path@({self.row},{self.col})[{names}]"

    def resolve(self, device: Device) -> list[PlanPip]:
        """Compute the PIP sequence realising this path on ``device``.

        Each consecutive wire pair must share a tile where the PIP exists;
        the walk follows the driven wire to whichever of its presence
        points admits the next connection (preferring to stay at the
        current tile).  Raises :class:`~repro.errors.InvalidPipError` when
        the path is not realisable.
        """
        plan, stuck = self.place(device.arch)
        if stuck is not None:
            step, r, c, name = stuck
            if step == 0:
                raise errors.InvalidResourceError(
                    f"{wires.wire_name(name)} does not exist at ({r},{c})"
                )
            raise errors.InvalidPipError(
                f"path step {step}: cannot drive "
                f"{wires.wire_name(self.wires[step])} from "
                f"{wires.wire_name(name)} near ({r},{c})"
            )
        return plan

    def place(
        self, arch: VirtexArch
    ) -> tuple[list[PlanPip], tuple[int, int, int, int] | None]:
        """The placement walk of :meth:`resolve` and the path lint.

        Returns ``(plan, stuck)``: the PIPs of the steps placed, and None
        or ``(step, row, col, name)`` for the first step not placed --
        step 0 when the start wire is missing, else the presence point
        the signal was preferred at when none could drive the step.
        """
        canon0 = arch.canonicalize(self.row, self.col, self.wires[0])
        if canon0 is None:
            return [], (0, self.row, self.col, self.wires[0])
        plan: list[PlanPip] = []
        # presence points of the signal after the previous step, the
        # user's stated start tile first
        here = arch.presences(canon0)
        here.sort(key=lambda p: (p[0], p[1]) != (self.row, self.col))
        for step, to_wire in enumerate(self.wires[1:], start=1):
            for r, c, from_name in here:
                if arch.pip_exists(from_name, to_wire):
                    canon_to = arch.canonicalize(r, c, to_wire)
                    if canon_to is not None:
                        break
            else:
                return plan, (step, *here[0])
            plan.append((r, c, from_name, to_wire))
            here = arch.presences(canon_to)
            # prefer continuing away from the tile we just used
            here.sort(key=lambda p: (p[0], p[1]) == (r, c))
        return plan, None
