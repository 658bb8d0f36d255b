"""Template-guided routing (route level 3).

Paper, Section 3.1: "The router begins at the start wire, then goes
through each wire that it drives, as defined in the architecture class,
and checks first if the wire's template value matches the template value
specified by the user.  If so, then it checks to make sure the wire is
not already in use.  A recursive call is made with the new wire as the
starting point and the first element of the template removed.  The call
would fail if there is no combination of resources that are available
that follow the template."

This implementation is that recursion as a DFS over the compiled
routing graph (:mod:`repro.arch.graph`): "each wire that it drives" is
the wire's CSR edge run, and a faulty PIP is one set entry of the
graph's fault-edge mask.  The edge order is ``Device.fanout_pips``'
order, so plans, errors and budget accounting match the
generator-driven recursion this replaced
(``tests/routers/_reference.py`` keeps it as the parity oracle).  The
goal can be given two ways: as an ``end_wire`` *name* (the paper's
signature — the end tile is implied by the template) or as an
``end_canon`` wire instance (used internally by the auto-router, which
must land on a specific pin).
"""

from __future__ import annotations

from .. import errors
from ..arch import wires
from ..arch.templates import TemplateValue, template_value_of
from ..arch.wires import WireClass
from ..device.fabric import Device
from .base import PlanPip

__all__ = ["route_template"]

#: template value of every wire name, indexed by name id
_VALUE_OF_NAME: tuple[TemplateValue, ...] = tuple(
    template_value_of(n) for n in range(wires.N_NAMES)
)

#: names of the wire classes whose template value implies movement: once
#: driven at one end, the search must continue from the *other* end, so
#: EAST1 really travels one tile east.  Every name of a wire has the
#: wire's class, so the name an edge drives tells whether its wire is one.
_DIRECTIONAL_NAME: tuple[bool, ...] = tuple(
    wires.wire_info(n).wire_class
    in (WireClass.SINGLE, WireClass.HEX, WireClass.LONG_H, WireClass.LONG_V)
    for n in range(wires.N_NAMES)
)


def route_template(
    device: Device,
    start_canon: int,
    template_values: tuple[TemplateValue, ...],
    *,
    end_wire: int | None = None,
    end_canon: int | None = None,
    max_nodes: int = 100_000,
) -> list[PlanPip]:
    """Find a free path from ``start_canon`` following the template.

    Exactly one of ``end_wire`` (a wire *name*; paper semantics) or
    ``end_canon`` (a canonical wire instance) must be given.  Returns the
    PIP plan in drive order; raises
    :class:`~repro.errors.UnroutableError` when no combination of
    available resources follows the template.
    """
    if (end_wire is None) == (end_canon is None):
        raise errors.JRouteError("give exactly one of end_wire / end_canon")
    if not template_values:
        raise errors.JRouteError("empty template")

    graph = device.routing_graph()
    off = graph.off
    deg = graph.deg
    e_to = graph.e_to
    e_row = graph.e_row
    e_col = graph.e_col
    e_from = graph.e_from
    e_toname = graph.e_toname
    faults = device.faults
    femask = graph.fault_edge_mask(faults).mask if faults is not None else None
    occupied = memoryview(device.state.occupied)  # cheaper scalar indexing
    last = len(template_values) - 1
    budget = max_nodes
    # visited states (wire, depth, drive tile) that already failed
    dead: set[tuple] = set()
    plan: list[PlanPip] = []
    in_plan: set[int] = set()  # wires already driven by this plan

    def dfs(
        canon: int,
        depth: int,
        drive_tile: tuple[int, int] | None,
        directional: bool,
    ) -> bool:
        nonlocal budget
        if (canon, depth, drive_tile) in dead:
            return False
        budget -= 1
        if budget < 0:
            raise errors.UnroutableError(
                "template search budget exhausted"
            )
        o = off[canon]
        want = template_values[depth]
        at_end = depth == last
        blocked_by_plan = False
        for e in range(o, o + deg[canon]):
            to_name = e_toname[e]
            if _VALUE_OF_NAME[to_name] is not want:
                continue
            row = e_row[e]
            col = e_col[e]
            if directional and (row, col) == drive_tile:
                # a driven directional wire continues from its far end only
                continue
            to = e_to[e]
            if at_end:
                if end_wire is not None and to_name != end_wire:
                    continue
                if end_canon is not None and to != end_canon:
                    continue
            if occupied[to]:
                continue
            if femask is not None and femask[e]:
                continue
            if to in in_plan:
                blocked_by_plan = True
                continue
            plan.append((row, col, e_from[e], to_name))
            in_plan.add(to)
            if at_end:
                return True
            if dfs(to, depth + 1, (row, col), _DIRECTIONAL_NAME[to_name]):
                return True
            plan.pop()
            in_plan.remove(to)
        if not blocked_by_plan:
            # memoise only plan-independent failures, so backtracking with a
            # different prefix can revisit states that failed due to in_plan
            dead.add((canon, depth, drive_tile))
        return False

    if dfs(start_canon, 0, None, False):
        return plan
    raise errors.UnroutableError(
        "no combination of available resources follows the template"
    )
