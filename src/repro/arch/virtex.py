"""The Virtex architecture description class.

The paper (Section 3): "There is a Java class in which all of the
architecture information is held.  In this class each wire is defined by a
unique integer.  Also in this class the possible template values are
defined, along with which template value each wire can be classified
under. ... Also in this Java class is a description of each wire,
including how long it is, its direction, which wires can drive it, and
which wires it can drive."

:class:`VirtexArch` is that class.  It combines

* the per-tile wire **name space** (:mod:`repro.arch.wires`),
* the name-level **connectivity tables** (:mod:`repro.arch.connectivity`),
* the **device geometry** (rows x cols of CLBs, :mod:`repro.arch.devices`),

(the template classification sits beside it, in
:func:`repro.arch.templates.template_value_of`) and resolves tile-relative wire *names* to device-global canonical wire
*instances* (plain ints), handling the aliasing where one physical wire
has different names at its two ends (``SingleEast[5]`` at ``(5,7)`` is
``SingleWest[5]`` at ``(5,8)``).

Canonical instance space
------------------------
Each tile *owns* ``N_OWNED = 120`` wires: its 42 local resources, its 24
east-going and 24 north-going singles, its 12 east-going and 12
north-going hexes, and 3 + 3 IOB pad wires (valid on perimeter tiles
only).  South/west names alias the neighbouring tile's north/east wires.
Long lines are owned per row/column, global nets per device.  A
canonical id is::

    tile wires : (row * cols + col) * N_OWNED + slot
    LONG_H     : long_h_base + row * 12 + index
    LONG_V     : long_v_base + col * 12 + index
    GCLK       : gclk_base + index

Routers are written against this class only, which is what gives the API
the portability property of the paper's Section 5.
"""

from __future__ import annotations

from . import connectivity, devices, wires
from .wires import Direction, WireClass

__all__ = ["VirtexArch", "N_OWNED"]

# Owned-slot layout within one tile.
_LOCAL_COUNT = 42  # OUT + slice outs + slice ins + ctl: names 0..41 == slots
_SLOT_SINGLE_E = 42
_SLOT_SINGLE_N = 66
_SLOT_HEX_E = 90
_SLOT_HEX_N = 102
_SLOT_IOB_IN = 114
_SLOT_IOB_OUT = 117
N_OWNED = 120

_NS = wires.N_SINGLES_PER_DIR
_NH = wires.N_HEXES_PER_DIR
_NL = wires.N_LONGS

# Name-id bases, resolved once for fast arithmetic in hot paths.
_SE0 = wires.SINGLE_E[0]
_SN0 = wires.SINGLE_N[0]
_SS0 = wires.SINGLE_S[0]
_SW0 = wires.SINGLE_W[0]
_HE0 = wires.HEX_E[0]
_HN0 = wires.HEX_N[0]
_HS0 = wires.HEX_S[0]
_HW0 = wires.HEX_W[0]
_LH0 = wires.LONG_H[0]
_LV0 = wires.LONG_V[0]
_GC0 = wires.GCLK[0]
_DW0 = wires.DIRECT_W_OUT[0]
_II0 = wires.IOB_IN[0]
_IO0 = wires.IOB_OUT[0]
_N_NAMES = wires.N_NAMES


class VirtexArch:
    """Architecture description for one Virtex family member.

    Parameters
    ----------
    part:
        A part name (``"XCV50"``) or a :class:`~repro.arch.devices.DevicePart`.
    """

    def __init__(self, part: str | devices.DevicePart = "XCV50") -> None:
        if isinstance(part, str):
            part = devices.part(part)
        self.part = part
        self.rows: int = part.rows
        self.cols: int = part.cols
        self.n_tiles = self.rows * self.cols
        self._tile_wires_end = self.n_tiles * N_OWNED
        self._long_h_base = self._tile_wires_end
        self._long_v_base = self._long_h_base + self.rows * _NL
        self._gclk_base = self._long_v_base + self.cols * _NL
        #: total size of the canonical wire-instance space
        self.n_wires = self._gclk_base + wires.N_GCLK
        #: memoized ``primary_name(canon)[:2]`` (see :meth:`tile_coords`)
        self._tile_coords_cache: dict[int, tuple[int, int]] = {}

    # -- basic geometry ----------------------------------------------------

    def in_bounds(self, row: int, col: int) -> bool:
        """True if ``(row, col)`` is a CLB of this device."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    def is_perimeter(self, row: int, col: int) -> bool:
        """True if the tile borders the IOB ring (device perimeter)."""
        return self.in_bounds(row, col) and (
            row in (0, self.rows - 1) or col in (0, self.cols - 1)
        )

    def tiles(self):
        """Iterate over all ``(row, col)`` CLB coordinates."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield r, c

    # -- static wire metadata (delegates to the shared tables) --------------

    @staticmethod
    def wire_info(name: int) -> wires.WireInfo:
        return wires.wire_info(name)

    @staticmethod
    def wire_name(name: int) -> str:
        return wires.wire_name(name)

    @staticmethod
    def drives(name: int) -> tuple[int, ...]:
        """Name-level fan-out of a wire name (same-tile PIP targets)."""
        return connectivity.DRIVES[name]

    @staticmethod
    def driven_by(name: int) -> tuple[int, ...]:
        """Name-level fan-in of a wire name (same-tile PIP sources)."""
        return connectivity.DRIVEN_BY[name]

    @staticmethod
    def pip_exists(from_name: int, to_name: int) -> bool:
        return connectivity.pip_exists(from_name, to_name)

    # -- canonicalisation ----------------------------------------------------

    def canonicalize(self, row: int, col: int, name: int) -> int | None:
        """Resolve wire ``name`` at tile ``(row, col)`` to a canonical id.

        Returns ``None`` when the named wire does not exist there: the tile
        is out of bounds, the wire would leave the array (edge effects), or
        a long line has no access point at this tile ("long lines can be
        accessed every 6 blocks").
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            return None
        if name < _LOCAL_COUNT:  # OUT, slice pins, control pins
            return (row * self.cols + col) * N_OWNED + name
        if name < _SN0:  # SINGLE_E
            if col + 1 >= self.cols:
                return None
            return (row * self.cols + col) * N_OWNED + _SLOT_SINGLE_E + (name - _SE0)
        if name < _SS0:  # SINGLE_N
            if row + 1 >= self.rows:
                return None
            return (row * self.cols + col) * N_OWNED + _SLOT_SINGLE_N + (name - _SN0)
        if name < _SW0:  # SINGLE_S -> south neighbour's SINGLE_N
            if row - 1 < 0:
                return None
            return ((row - 1) * self.cols + col) * N_OWNED + _SLOT_SINGLE_N + (name - _SS0)
        if name < _HE0:  # SINGLE_W -> west neighbour's SINGLE_E
            if col - 1 < 0:
                return None
            return (row * self.cols + col - 1) * N_OWNED + _SLOT_SINGLE_E + (name - _SW0)
        if name < _HN0:  # HEX_E
            if col + 6 >= self.cols:
                return None
            return (row * self.cols + col) * N_OWNED + _SLOT_HEX_E + (name - _HE0)
        if name < _HS0:  # HEX_N
            if row + 6 >= self.rows:
                return None
            return (row * self.cols + col) * N_OWNED + _SLOT_HEX_N + (name - _HN0)
        if name < _HW0:  # HEX_S -> wire owned six tiles south
            if row - 6 < 0:
                return None
            return ((row - 6) * self.cols + col) * N_OWNED + _SLOT_HEX_N + (name - _HS0)
        if name < _LH0:  # HEX_W -> wire owned six tiles west
            if col - 6 < 0:
                return None
            return (row * self.cols + col - 6) * N_OWNED + _SLOT_HEX_E + (name - _HW0)
        if name < _LV0:  # LONG_H: access every 6 columns, staggered by index
            i = name - _LH0
            if col % 6 != i % 6:
                return None
            return self._long_h_base + row * _NL + i
        if name < _GC0:  # LONG_V
            i = name - _LV0
            if row % 6 != i % 6:
                return None
            return self._long_v_base + col * _NL + i
        if name < _DW0:  # GCLK: present everywhere
            return self._gclk_base + (name - _GC0)
        if name < _II0:  # DIRECT_W_OUT -> west neighbour's OUT wire
            if col - 1 < 0:
                return None
            return (row * self.cols + col - 1) * N_OWNED + (name - _DW0)
        if name < _N_NAMES:  # IOB pads: perimeter tiles only
            if not self.is_perimeter(row, col):
                return None
            if name < _IO0:
                return (row * self.cols + col) * N_OWNED + _SLOT_IOB_IN + (name - _II0)
            return (row * self.cols + col) * N_OWNED + _SLOT_IOB_OUT + (name - _IO0)
        raise ValueError(f"invalid wire name {name}")

    def wire_exists(self, canon: int) -> bool:
        """True if this canonical id names a physical wire of the device.

        The flat id space reserves an east/north single and hex slot in
        every tile; near the east/north edges those wires would leave the
        array and are not instantiated (edge behaviour, see DESIGN.md).
        """
        if not 0 <= canon < self.n_wires:
            return False
        row, col, name = self.primary_name(canon)
        return self.canonicalize(row, col, name) == canon

    def wire_class_of(self, canon: int) -> WireClass:
        """Resource class of a canonical wire instance."""
        if canon < self._tile_wires_end:
            return wires.wire_info(self.primary_name(canon)[2]).wire_class
        if canon < self._long_v_base:
            return WireClass.LONG_H
        if canon < self._gclk_base:
            return WireClass.LONG_V
        return WireClass.GCLK

    def primary_name(self, canon: int) -> tuple[int, int, int]:
        """The canonical (owning-end) ``(row, col, name)`` of a wire instance."""
        if canon < self._tile_wires_end:
            tile, slot = divmod(canon, N_OWNED)
            row, col = divmod(tile, self.cols)
            if slot < _LOCAL_COUNT:
                return row, col, slot
            if slot < _SLOT_SINGLE_N:
                return row, col, _SE0 + (slot - _SLOT_SINGLE_E)
            if slot < _SLOT_HEX_E:
                return row, col, _SN0 + (slot - _SLOT_SINGLE_N)
            if slot < _SLOT_HEX_N:
                return row, col, _HE0 + (slot - _SLOT_HEX_E)
            if slot < _SLOT_IOB_IN:
                return row, col, _HN0 + (slot - _SLOT_HEX_N)
            if slot < _SLOT_IOB_OUT:
                return row, col, _II0 + (slot - _SLOT_IOB_IN)
            return row, col, _IO0 + (slot - _SLOT_IOB_OUT)
        if canon < self._long_v_base:
            row, i = divmod(canon - self._long_h_base, _NL)
            return row, i % 6, _LH0 + i
        if canon < self._gclk_base:
            col, i = divmod(canon - self._long_v_base, _NL)
            return i % 6, col, _LV0 + i
        return 0, 0, _GC0 + (canon - self._gclk_base)

    def tile_coords(self, canon: int) -> tuple[int, int]:
        """Memoized owning-tile ``(row, col)`` of a wire instance.

        Equal to ``primary_name(canon)[:2]``; target-tile gathering and
        PathFinder's sink-ordering distance keys call this per wire per
        search, so the result is cached per instance.
        """
        cache = self._tile_coords_cache
        v = cache.get(canon)
        if v is None:
            r, c, _ = self.primary_name(canon)
            v = cache[canon] = (r, c)
        return v

    def presences(self, canon: int) -> list[tuple[int, int, int]]:
        """All ``(row, col, name)`` through which this wire is visible.

        A single appears at both of its endpoints under opposite names; a
        hex at both endpoints six tiles apart; an OUT wire also appears at
        the east neighbour as a direct connection; long lines appear at
        every access tile of their row/column.  Global nets are special
        cased (they are visible everywhere) and report their name at tile
        (0, 0) only — router code handles them via dedicated paths.
        """
        if canon < self._tile_wires_end:
            tile, slot = divmod(canon, N_OWNED)
            row, col = divmod(tile, self.cols)
            if slot < wires.N_OUT:  # OUT: own tile + direct at east neighbour
                out: list[tuple[int, int, int]] = [(row, col, slot)]
                if col + 1 < self.cols:
                    out.append((row, col + 1, _DW0 + slot))
                return out
            if slot < _LOCAL_COUNT:
                return [(row, col, slot)]
            if slot < _SLOT_SINGLE_N:
                i = slot - _SLOT_SINGLE_E
                return [(row, col, _SE0 + i), (row, col + 1, _SW0 + i)]
            if slot < _SLOT_HEX_E:
                i = slot - _SLOT_SINGLE_N
                return [(row, col, _SN0 + i), (row + 1, col, _SS0 + i)]
            if slot < _SLOT_HEX_N:
                i = slot - _SLOT_HEX_E
                return [(row, col, _HE0 + i), (row, col + 6, _HW0 + i)]
            if slot < _SLOT_IOB_IN:
                i = slot - _SLOT_HEX_N
                return [(row, col, _HN0 + i), (row + 6, col, _HS0 + i)]
            if slot < _SLOT_IOB_OUT:
                return [(row, col, _II0 + (slot - _SLOT_IOB_IN))]
            return [(row, col, _IO0 + (slot - _SLOT_IOB_OUT))]
        if canon < self._long_v_base:
            row, i = divmod(canon - self._long_h_base, _NL)
            return [(row, c, _LH0 + i) for c in range(i % 6, self.cols, 6)]
        if canon < self._gclk_base:
            col, i = divmod(canon - self._long_v_base, _NL)
            return [(r, col, _LV0 + i) for r in range(i % 6, self.rows, 6)]
        return [(0, 0, _GC0 + (canon - self._gclk_base))]

    # -- drivability ---------------------------------------------------------

    def drivable(self, row: int, col: int, name: int) -> bool:
        """Can a PIP located at ``(row, col)`` drive wire ``name``?

        Encodes the bidirectionality rules of Section 2: singles and long
        lines may be driven from any access point; even-indexed hexes are
        bidirectional ("some hexes are bi-directional") while odd-indexed
        hexes may only be driven from their origin end; pure sources
        (slice outputs, globals) and alias views of a neighbour's OMUX are
        never PIP-driven.
        """
        info = wires.wire_info(name)
        cls = info.wire_class
        if cls in (
            WireClass.SLICE_OUT,
            WireClass.GCLK,
            WireClass.DIRECT,
            WireClass.IOB_IN,
        ):
            return False
        if cls is WireClass.HEX and name >= _HS0 and info.index % 2 == 1:
            # odd hexes are unidirectional: the S/W alias is the far end
            return False
        return self.canonicalize(row, col, name) is not None

    def pip_legal_at(
        self, row: int, col: int, from_name: int, to_name: int
    ) -> str | None:
        """Offline legality of configuring a PIP at ``(row, col)``.

        The static mirror of the checks :meth:`Device.turn_on
        <repro.device.fabric.Device.turn_on>` performs before touching
        state, for tooling that validates artifacts *without* a device
        (``repro analyze``).  Returns ``None`` when the PIP could be
        configured on an empty fabric, else a reason code:
        ``"unknown-name"``, ``"missing-pip"``, ``"missing-from"``,
        ``"missing-to"``, ``"undrivable"`` or ``"self-drive"``.
        """
        if not (0 <= from_name < _N_NAMES and 0 <= to_name < _N_NAMES):
            return "unknown-name"
        if not connectivity.pip_exists(from_name, to_name):
            return "missing-pip"
        canon_from = self.canonicalize(row, col, from_name)
        if canon_from is None:
            return "missing-from"
        canon_to = self.canonicalize(row, col, to_name)
        if canon_to is None:
            return "missing-to"
        if not self.drivable(row, col, to_name):
            return "undrivable"
        if canon_from == canon_to:
            return "self-drive"
        return None

    def is_bidirectional(self, name: int) -> bool:
        """True if the named wire class can be driven from both ends."""
        info = wires.wire_info(name)
        if info.wire_class is WireClass.SINGLE:
            return True
        if info.wire_class is WireClass.HEX:
            return info.index % 2 == 0
        return info.wire_class in (WireClass.LONG_H, WireClass.LONG_V)

    # -- costs ----------------------------------------------------------------

    def wire_length(self, name: int, *, span_hint: int | None = None) -> int:
        """Physical length in CLBs of the named wire (longs span the chip)."""
        info = wires.wire_info(name)
        if info.length >= 0:
            return info.length
        if info.wire_class is WireClass.LONG_H:
            return self.cols if span_hint is None else span_hint
        if info.wire_class is WireClass.LONG_V:
            return self.rows if span_hint is None else span_hint
        return 0  # globals

    def wire_cost(self, name: int) -> float:
        """Base router cost of using the named wire (resource economy)."""
        cls = wires.wire_info(name).wire_class
        return _BASE_COST[cls]


#: Router base costs per resource class: cheap local hops, singles at unit
#: cost, hexes discounted per-CLB (they cover 6 CLBs for less than 6
#: singles), longs cheap per unit distance but with a high commitment cost.
_BASE_COST = {
    WireClass.OUT: 0.5,
    WireClass.SLICE_OUT: 0.0,
    WireClass.SLICE_IN: 0.5,
    WireClass.CTL_IN: 0.5,
    WireClass.SINGLE: 1.0,
    WireClass.HEX: 3.5,
    WireClass.LONG_H: 8.0,
    WireClass.LONG_V: 8.0,
    WireClass.GCLK: 0.0,
    WireClass.DIRECT: 0.3,
    WireClass.IOB_IN: 0.0,
    WireClass.IOB_OUT: 0.5,
}
