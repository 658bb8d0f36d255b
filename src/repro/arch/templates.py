"""Template values: direction + resource-type classification of wires.

The paper (Section 3): "A template value is defined as a value describing a
direction and a resource type.  For example, a template value of NORTH6
describes any hex wire in the north direction, a template value of NORTH1
describes any single wire in the north direction."

The architecture description class records *which template value each wire
can be classified under*; that classification is :func:`template_value_of`.
"""

from __future__ import annotations

import enum
import functools

from . import wires
from .wires import Direction, WireClass

__all__ = [
    "TemplateValue",
    "template_value_of",
    "names_with_template_value",
    "presence_names",
    "legal_transition",
    "step_displacement",
]


class TemplateValue(enum.IntEnum):
    """The template vocabulary of the paper's Section 3.1 examples."""

    OUTMUX = 0   #: an OMUX output wire
    CLBOUT = 1   #: a logic-block output pin
    CLBIN = 2    #: a logic-block input pin (incl. control pins)
    EAST1 = 3    #: single heading east
    NORTH1 = 4
    SOUTH1 = 5
    WEST1 = 6
    EAST6 = 7    #: hex heading east
    NORTH6 = 8
    SOUTH6 = 9
    WEST6 = 10
    LONGH = 11   #: horizontal long line
    LONGV = 12   #: vertical long line
    GLOBAL = 13  #: dedicated global net
    DIRECT = 14  #: direct connection from the adjacent CLB
    PADIN = 15   #: input-pad wire driving into the fabric
    PADOUT = 16  #: output-pad wire driven by the fabric


_SINGLE_BY_DIR = {
    Direction.EAST: TemplateValue.EAST1,
    Direction.NORTH: TemplateValue.NORTH1,
    Direction.SOUTH: TemplateValue.SOUTH1,
    Direction.WEST: TemplateValue.WEST1,
}

_HEX_BY_DIR = {
    Direction.EAST: TemplateValue.EAST6,
    Direction.NORTH: TemplateValue.NORTH6,
    Direction.SOUTH: TemplateValue.SOUTH6,
    Direction.WEST: TemplateValue.WEST6,
}


def template_value_of(name: int) -> TemplateValue:
    """Classify a wire name under its template value."""
    info = wires.wire_info(name)
    cls = info.wire_class
    if cls is WireClass.OUT:
        return TemplateValue.OUTMUX
    if cls is WireClass.SLICE_OUT:
        return TemplateValue.CLBOUT
    if cls in (WireClass.SLICE_IN, WireClass.CTL_IN):
        return TemplateValue.CLBIN
    if cls is WireClass.SINGLE:
        return _SINGLE_BY_DIR[info.direction]
    if cls is WireClass.HEX:
        return _HEX_BY_DIR[info.direction]
    if cls is WireClass.LONG_H:
        return TemplateValue.LONGH
    if cls is WireClass.LONG_V:
        return TemplateValue.LONGV
    if cls is WireClass.GCLK:
        return TemplateValue.GLOBAL
    if cls is WireClass.DIRECT:
        return TemplateValue.DIRECT
    if cls is WireClass.IOB_IN:
        return TemplateValue.PADIN
    if cls is WireClass.IOB_OUT:
        return TemplateValue.PADOUT
    raise ValueError(f"unclassifiable wire name {name}")  # pragma: no cover


_BY_VALUE: dict[TemplateValue, tuple[int, ...]] = {}
for _n in range(wires.N_NAMES):
    _BY_VALUE.setdefault(template_value_of(_n), tuple())
    _BY_VALUE[template_value_of(_n)] = _BY_VALUE[template_value_of(_n)] + (_n,)


def names_with_template_value(value: TemplateValue) -> tuple[int, ...]:
    """All wire names classified under ``value``."""
    return _BY_VALUE.get(value, ())


# -- offline step legality ------------------------------------------------------
#
# A template step "drive a wire of value B" is only realisable when some
# architecture PIP leads from a wire of the previous step's value A (seen
# under any of its presence names — a directional wire carries the
# opposite name at its far end) to a drivable wire classified under B.
# The 17x17 matrix of such transitions is derivable once from the
# connectivity tables; ``repro analyze`` uses it to reject templates that
# no fabric location can ever realise (e.g. a hex directly before a CLB
# input) without running a router.

#: name-level far-end alias of each directional wire name (absent for
#: wires that carry one name everywhere)
_FAR_END: dict[int, int] = {}
for _i in range(wires.N_SINGLES_PER_DIR):
    _FAR_END[wires.SINGLE_E[_i]] = wires.SINGLE_W[_i]
    _FAR_END[wires.SINGLE_W[_i]] = wires.SINGLE_E[_i]
    _FAR_END[wires.SINGLE_N[_i]] = wires.SINGLE_S[_i]
    _FAR_END[wires.SINGLE_S[_i]] = wires.SINGLE_N[_i]
for _i in range(wires.N_HEXES_PER_DIR):
    _FAR_END[wires.HEX_E[_i]] = wires.HEX_W[_i]
    _FAR_END[wires.HEX_W[_i]] = wires.HEX_E[_i]
    _FAR_END[wires.HEX_N[_i]] = wires.HEX_S[_i]
    _FAR_END[wires.HEX_S[_i]] = wires.HEX_N[_i]
for _i in range(wires.N_OUT):
    # an OMUX output is visible at the east neighbour as a direct input
    _FAR_END[wires.OUT[_i]] = wires.DIRECT_W_OUT[_i]


@functools.lru_cache(maxsize=None)
def presence_names(value: TemplateValue) -> tuple[int, ...]:
    """All wire names under which a wire of ``value`` may be visible.

    A signal driven onto a ``NORTH1`` single sits on a ``SingleSouth``
    name at the far tile, so the presence set of NORTH1 includes the
    SOUTH1 names; PIP fan-out must be considered from every presence
    name, not just the classified ones.
    """
    seen: list[int] = []
    for n in names_with_template_value(value):
        for m in (n, _FAR_END.get(n)):
            if m is not None and m not in seen:
                seen.append(m)
    return tuple(seen)


@functools.lru_cache(maxsize=None)
def legal_transition(a: TemplateValue, b: TemplateValue) -> bool:
    """Does any architecture PIP realise step ``a`` → step ``b``?

    True when some presence name of ``a`` drives some drivable wire name
    classified under ``b``.  Necessary (not sufficient — geometry can
    still refuse at a specific tile) for a template containing the
    consecutive values ``a, b`` to be routable anywhere on the fabric.
    """
    from .connectivity import DRIVES
    from .virtex import NAME_DRIVABLE

    return any(
        template_value_of(t) is b and NAME_DRIVABLE[t]
        for f in presence_names(a)
        for t in DRIVES[f]
    )

#: per-step tile displacement of the fixed-displacement template values
#: (data-dependent values — longs, globals — are absent)
_STEP_DELTA: dict[TemplateValue, tuple[int, int]] = {
    TemplateValue.NORTH1: (1, 0),
    TemplateValue.SOUTH1: (-1, 0),
    TemplateValue.NORTH6: (6, 0),
    TemplateValue.SOUTH6: (-6, 0),
    TemplateValue.EAST1: (0, 1),
    TemplateValue.WEST1: (0, -1),
    TemplateValue.EAST6: (0, 6),
    TemplateValue.WEST6: (0, -6),
    TemplateValue.DIRECT: (0, 1),
}


def step_displacement(value: TemplateValue) -> tuple[int, int] | None:
    """Fixed ``(drow, dcol)`` of one template step, or None when the
    displacement is data-dependent (long lines, globals)."""
    if value in (
        TemplateValue.LONGH,
        TemplateValue.LONGV,
        TemplateValue.GLOBAL,
    ):
        return None
    return _STEP_DELTA.get(value, (0, 0))
