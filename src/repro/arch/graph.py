"""Compiled routing graph: flat CSR adjacency over canonical wires.

Every search in this repro (the template DFS, the maze of levels 4–6
and PathFinder) used to re-expand the wire graph through the per-node
Python generator ``Device.fanout_pips``, paying ``presences()`` +
``canonicalize()`` on every edge of every search.  :class:`RoutingGraph`
compiles that fanout relation once per device *geometry* into narrow,
read-only CSR columns (:data:`_COLUMNS`, 22 bytes per edge), in
``fanout_pips``' edge order: ``off``/``deg`` give each wire's edge run;
per edge, ``e_to``/``e_src`` are the target/source wires,
``e_row``/``e_col``/``e_from``/``e_toname`` the PIP a plan applies,
and ``e_cost`` the target name's base router cost.

The graph has one form: the constructor builds every column with numpy
(:func:`_build_columns`), and the columns never change afterwards.
Each is a read-only ``memoryview`` for the scalar loops (cheaper
element-wise indexing); :meth:`RoutingGraph.np_columns` hands the
wavefront numpy views of the same buffers.  Graphs are cached per part
name, so every ``Device("XCV50")`` in the process reuses the same one.

Fault models are *not* baked into the adjacency (they are mutable and
per-device); instead :meth:`RoutingGraph.fault_edge_mask` derives a flat
per-edge blocked mask — vectorised over the fault model's wire masks and
hashed stuck-open population — built whole once per (graph token,
fault-model version).  The token is a stable ``(part, generation)``
identity, so a garbage-collected graph whose ``id()`` CPython later
reuses can never serve a stale mask to a fresh graph.

For OS-level parallel routing (PathFinder's worker processes) a graph
is **exported once into a POSIX shared-memory segment**
(:func:`shared_graph_export`) and **attached zero-copy** by worker
processes (:func:`attach_shared_graph`), which install views straight
into the mapped segment as their columns, so a spawn/fork worker pays
neither a rebuild nor a copy of the ~tens-of-MB adjacency.  Exports are cached per part
and unlinked at interpreter exit (or explicitly via
:func:`release_shared_exports`).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from collections import defaultdict
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from . import connectivity, wires
from .virtex import _BASE_COST, N_OWNED, VirtexArch
from .wires import WireClass

__all__ = [
    "NAME_DRIVABLE",
    "DRIVES_DRIVABLE",
    "NAME_COST",
    "RoutingGraph",
    "routing_graph",
    "SharedGraphExport",
    "shared_graph_export",
    "attach_shared_graph",
    "release_shared_exports",
]

# Name-level drivability: pure sources, globals and the direct-connect
# alias of a neighbour's OMUX can never be the target of a PIP; odd hexes
# cannot be driven through their far-end (south/west) alias names.
_HS0 = wires.HEX_S[0]


def _name_drivable(name: int) -> bool:
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
        return False
    return True


NAME_DRIVABLE: tuple[bool, ...] = tuple(
    _name_drivable(n) for n in range(wires.N_NAMES)
)

#: Name-level fan-out restricted to drivable targets, precomputed once.
DRIVES_DRIVABLE: tuple[tuple[int, ...], ...] = tuple(
    tuple(t for t in connectivity.DRIVES[n] if NAME_DRIVABLE[t])
    for n in range(wires.N_NAMES)
)

#: Base router cost per wire name (flat: no WireClass lookup in hot loops).
NAME_COST: tuple[float, ...] = tuple(
    _BASE_COST[wires.wire_info(n).wire_class] for n in range(wires.N_NAMES)
)

#: Cheapest name any PIP can drive: every compiled edge costs its
#: target name's ``NAME_COST``, so this bounds every edge of every part.
_MIN_DRIVEN_COST: float = min(
    NAME_COST[t] for targets in DRIVES_DRIVABLE for t in targets
)

_M64 = (1 << 64) - 1


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64, bit-identical to ``faults._splitmix64``."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class FaultEdgeMask:
    """Flat per-edge fault mask aligned with a graph's edge columns.

    ``mask[e]`` is 1 when edge ``e`` must be skipped by a fault-aware
    search: its target wire is dead/pre-driven, or the PIP itself is
    stuck open (explicitly or by the hashed random population).  The
    mask is built whole, once per (graph, fault-model version), as
    immutable ``bytes``; a fault flip bumps the model's version and
    :meth:`RoutingGraph.fault_edge_mask` builds a fresh one.

    The graph is held through a *weak* reference: a mask cached on a
    long-lived :class:`~repro.device.faults.FaultModel` must not keep a
    transient graph (and its multi-MB edge arrays) alive forever, and a
    dead reference marks the cache entry for pruning.
    """

    __slots__ = ("_graph_ref", "version", "mask")

    def __init__(self, graph: "RoutingGraph", faults) -> None:
        self._graph_ref = weakref.ref(graph)
        self.version = getattr(faults, "version", 0)
        dst = np.asarray(graph.e_to)
        bad = faults.unusable[dst]
        threshold = faults._stuck_open_threshold
        if threshold:
            if threshold > _M64:
                bad[:] = True
            else:
                src = np.asarray(graph.e_src)
                inner = _splitmix64_np(
                    (src.astype(np.uint64) << np.uint64(24))
                    ^ dst.astype(np.uint64)
                )
                key = _splitmix64_np(
                    np.uint64((faults._stuck_open_seed << 1) & _M64) ^ inner
                )
                bad |= key < np.uint64(threshold)
        # an explicit stuck-open PIP lies in its source's edge run: mark
        # that run only (parallel edges included), never walking the
        # other edges one by one
        off, deg = graph.off, graph.deg
        for a, b in faults._stuck_open:
            o = off[a]
            bad[o : o + deg[a]] |= dst[o : o + deg[a]] == b
        self.mask = bad.tobytes()

    @property
    def graph(self) -> "RoutingGraph | None":
        """The graph this mask indexes, or None once it was collected."""
        return self._graph_ref()


#: The CSR columns and their dtypes, in shared-memory layout order.
_COLUMNS: dict[str, type] = {
    "off": np.int64, "deg": np.int64, "e_to": np.int32, "e_src": np.int32,
    "e_row": np.int16, "e_col": np.int16, "e_from": np.uint8,
    "e_toname": np.uint8, "e_cost": np.float64,
}

#: Farthest presence of a tile wire from its owning tile (a hex's far
#: end): the width of the canonicalize table's border of -1.
_REACH = 6

#: Candidate edges gathered per band of tile rows; bounds the build's
#: scratch memory.
_BAND_ENTRIES = 1 << 19


def _canon_table(arch: VirtexArch) -> np.ndarray:
    """``table[r + 6, c + 6, name]``: ``arch.canonicalize(r, c, name)``
    for every tile and name, or -1 where it returns ``None``.

    The border of -1 stands for the tiles off the array, where
    ``canonicalize`` returns ``None`` too.
    """
    canonicalize = arch.canonicalize
    names = range(wires.N_NAMES)
    flat = np.fromiter(
        (
            -1 if (w := canonicalize(r, c, n)) is None else w
            for r in range(arch.rows)
            for c in range(arch.cols)
            for n in names
        ),
        dtype=np.int32,
        count=arch.n_tiles * wires.N_NAMES,
    )
    return np.pad(
        flat.reshape(arch.rows, arch.cols, wires.N_NAMES),
        ((_REACH, _REACH), (_REACH, _REACH), (0, 0)),
        constant_values=-1,
    )


def _stencil(arch: VirtexArch, first: int, count: int) -> np.ndarray:
    """``(src, row, col, from_name, to_name)`` columns, one entry per
    candidate edge of wires ``first .. first + count - 1`` in
    ``fanout_pips`` order, before ``canonicalize`` drops the targets
    that do not exist."""
    return np.array(
        [
            (canon, r, c, name, to)
            for canon in range(first, first + count)
            for r, c, name in arch.presences(canon)
            for to in DRIVES_DRIVABLE[name]
        ],
        dtype=np.int64,
    ).T


def _keep(table, src, row, col, frm, to, pieces) -> None:
    """Append the candidates whose target exists, as narrow columns.

    The five inputs broadcast against each other; their row-major order
    is the edge order.
    """
    tgt = table[row + _REACH, col + _REACH, to]
    keep = tgt >= 0
    for name, v in zip(
        ("e_to", "e_src", "e_row", "e_col", "e_from", "e_toname"),
        (tgt, src, row, col, frm, to),
    ):
        v = np.broadcast_to(v, keep.shape)[keep]
        pieces[name].append(v.astype(_COLUMNS[name], copy=False))


def _build_columns(arch: VirtexArch) -> dict[str, np.ndarray]:
    """Every CSR column of ``arch``'s graph, in ``fanout_pips`` order.

    Reuses the scalar ``canonicalize`` (one table) and ``presences``
    (one stencil per wire family), shifting each stencil across the
    array.  Tile (0, 0)'s wires hold for every tile: the one exception,
    an OUT wire's direct alias at the east edge, falls on the table's
    border, which drops it exactly where ``presences`` omits it.  Row
    0's (column 0's) long lines shift by whole rows (columns); globals
    report their name at tile (0, 0) only.  Tile- or line-major,
    stencil-minor order is ascending source wire, so no sort is needed.
    """
    table = _canon_table(arch)
    pieces: dict[str, list[np.ndarray]] = defaultdict(list)
    rows, cols, nl = arch.rows, arch.cols, wires.N_LONGS
    src, dr, dc, frm, to = _stencil(arch, 0, N_OWNED)
    band = max(1, _BAND_ENTRIES // (cols * src.size))
    for r0 in range(0, rows, band):
        tile = np.arange(r0 * cols, min(r0 + band, rows) * cols)[:, None]
        r, c = np.divmod(tile, cols)
        _keep(table, tile * N_OWNED + src, r + dr, c + dc, frm, to, pieces)
    src, dr, dc, frm, to = _stencil(arch, arch._long_h_base, nl)
    r = np.arange(rows)[:, None]
    _keep(table, src + nl * r, dr + r, dc, frm, to, pieces)
    src, dr, dc, frm, to = _stencil(arch, arch._long_v_base, nl)
    c = np.arange(cols)[:, None]
    _keep(table, src + nl * c, dr, dc + c, frm, to, pieces)
    _keep(table, *_stencil(arch, arch._gclk_base, wires.N_GCLK), pieces)

    # join one column at a time, freeing its pieces as it goes
    out = {name: np.concatenate(pieces.pop(name)) for name in list(pieces)}
    out["deg"] = np.bincount(out["e_src"], minlength=arch.n_wires)
    out["off"] = np.cumsum(out["deg"]) - out["deg"]
    out["e_cost"] = np.array(NAME_COST)[out["e_toname"]]
    return out


#: Monotonic generation counter: together with the part name it forms a
#: stable graph identity token (``id()`` values are reused by CPython).
_GRAPH_GENERATION = itertools.count()


class RoutingGraph:
    """CSR adjacency of one architecture's fanout relation."""

    def __init__(self, arch: VirtexArch) -> None:
        self.arch = arch
        #: stable identity: survives ``id()`` reuse after garbage collection
        self.token: tuple[str, int] = (arch.part.name, next(_GRAPH_GENERATION))
        self.n_nodes = arch.n_wires
        self._tiles: tuple[list[int], list[int], list[int]] | None = None
        self._coords: tuple[np.ndarray, np.ndarray] | None = None
        self._np_cols: tuple | None = None
        self.compile()

    def compile(self) -> "RoutingGraph":
        """Build every CSR column; the constructor's call does the work.

        A graph is built whole when it is constructed, so any later call
        returns ``self`` at once.  The end-to-end benchmark's set-up still
        calls it, and times the build as the span of this method.
        """
        if self._np_cols is None:
            self._set_columns(_build_columns(self.arch))
        return self

    def _set_columns(self, cols: dict[str, np.ndarray]) -> None:
        """Install the CSR columns read-only: a ``memoryview`` attribute
        per column for the scalar loops, numpy views for the wavefront.

        Built and attached graphs both come through here.
        """
        for name in _COLUMNS:
            cols[name].flags.writeable = False
            setattr(self, name, memoryview(cols[name]))
        self._np_cols = tuple(
            cols[name] for name in ("off", "deg", "e_to", "e_cost", "e_toname")
        )

    @property
    def n_edges(self) -> int:
        return len(self.e_to)

    @property
    def n_materialized(self) -> int:
        """Nodes whose edge runs are built: every node, always (the
        end-to-end benchmark still reads it)."""
        return self.n_nodes

    # -- primary-tile arrays (vectorised arch.primary_name) -----------------

    def tiles(self) -> tuple[list[int], list[int], list[int]]:
        """``(row, col, name)`` of every canonical wire, as flat lists.

        Computed vectorised on first use; replaces per-wire
        ``arch.primary_name`` calls in heuristic hot paths.
        """
        if self._tiles is None:
            self._tiles = self._compute_tiles()
        return self._tiles

    def _compute_tiles(self) -> tuple[list[int], list[int], list[int]]:
        from .virtex import (
            _SLOT_HEX_E,
            _SLOT_HEX_N,
            _SLOT_IOB_IN,
            _SLOT_IOB_OUT,
            _SLOT_SINGLE_E,
            _SLOT_SINGLE_N,
        )

        arch = self.arch
        n = arch.n_wires
        rows = np.zeros(n, dtype=np.int64)
        cols = np.zeros(n, dtype=np.int64)
        names = np.zeros(n, dtype=np.int64)
        te = arch._tile_wires_end
        ids = np.arange(te, dtype=np.int64)
        tile, slot = np.divmod(ids, N_OWNED)
        rows[:te], cols[:te] = np.divmod(tile, arch.cols)
        names[:te] = np.select(
            [
                slot < _SLOT_SINGLE_E,
                slot < _SLOT_SINGLE_N,
                slot < _SLOT_HEX_E,
                slot < _SLOT_HEX_N,
                slot < _SLOT_IOB_IN,
                slot < _SLOT_IOB_OUT,
            ],
            [
                slot,
                wires.SINGLE_E[0] + slot - _SLOT_SINGLE_E,
                wires.SINGLE_N[0] + slot - _SLOT_SINGLE_N,
                wires.HEX_E[0] + slot - _SLOT_HEX_E,
                wires.HEX_N[0] + slot - _SLOT_HEX_N,
                wires.IOB_IN[0] + slot - _SLOT_IOB_IN,
            ],
            default=wires.IOB_OUT[0] + slot - _SLOT_IOB_OUT,
        )
        nl = wires.N_LONGS
        lh = np.arange(arch._long_v_base - arch._long_h_base, dtype=np.int64)
        r, i = np.divmod(lh, nl)
        rows[arch._long_h_base : arch._long_v_base] = r
        cols[arch._long_h_base : arch._long_v_base] = i % 6
        names[arch._long_h_base : arch._long_v_base] = wires.LONG_H[0] + i
        lv = np.arange(arch._gclk_base - arch._long_v_base, dtype=np.int64)
        c, i = np.divmod(lv, nl)
        rows[arch._long_v_base : arch._gclk_base] = i % 6
        cols[arch._long_v_base : arch._gclk_base] = c
        names[arch._long_v_base : arch._gclk_base] = wires.LONG_V[0] + i
        names[arch._gclk_base :] = wires.GCLK[0] + np.arange(
            n - arch._gclk_base, dtype=np.int64
        )
        return rows.tolist(), cols.tolist(), names.tolist()

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Primary-tile ``(rows, cols)`` int64 arrays per canonical wire.

        The vectorised companion of :meth:`tiles` for geometric sweeps
        (net bounding boxes, spatial partition cuts): one fancy-indexed
        gather replaces a ``tile_coords`` call per wire.  Derived from
        the same table as :meth:`tiles`, so the two can never disagree;
        reads no edge column.  Cached per graph.
        """
        if self._coords is None:
            rows, cols, _ = self.tiles()
            self._coords = (
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
            )
        return self._coords

    def bbox_map(
        self, wire_groups: Sequence[Sequence[int]]
    ) -> list[tuple[int, int, int, int]]:
        """Tile bounding box ``(r0, c0, r1, c1)`` per group of wires.

        The node-range mapping a spatial partitioner cuts against: each
        group (typically one net's source + sinks) maps to the smallest
        tile rectangle containing all of its wires.  Groups must be
        non-empty.
        """
        rows, cols = self.coords()
        out: list[tuple[int, int, int, int]] = []
        for ws in wire_groups:
            ids = np.fromiter(ws, dtype=np.int64, count=len(ws))
            r = rows[ids]
            c = cols[ids]
            out.append((int(r.min()), int(c.min()), int(r.max()), int(c.max())))
        return out

    # -- flat numpy views (batched kernel) -----------------------------------

    def np_columns(self) -> tuple:
        """Read-only numpy views of the CSR columns, for vectorized search.

        Returns ``(off, deg, e_to, e_cost, e_toname)``, sharing the
        buffers of the ``memoryview`` columns.
        """
        return self._np_cols

    def min_edge_cost(self) -> float:
        """A lower bound on every edge cost of the graph.

        The batched kernel's level-synchronous engine rests on this: in
        a Dijkstra search (no A* bias), every frontier entry cheaper
        than ``frontier_min + min_edge_cost`` can be expanded in the
        same vectorized round, because no relaxation this round can
        produce a cost below that bound — the safe-prefix property.
        Read from the name tables (the cheapest ``NAME_COST`` any PIP
        can drive), so a worker never faults a shared ``e_cost`` column
        into memory.
        """
        return _MIN_DRIVEN_COST

    # -- fault masking --------------------------------------------------------

    def fault_edge_mask(self, faults) -> FaultEdgeMask:
        """Per-edge blocked mask for a fault model, cached by version.

        The mask is built whole on the first call per fault-model
        version; later calls at the same version return it unchanged.

        Keyed by the graph's stable :attr:`token`, **not** by ``id()``:
        CPython reuses object ids, so an id-keyed entry surviving a
        collected graph could silently serve a stale mask to an
        unrelated new graph.  Entries whose graph has been collected are
        pruned on the way through.
        """
        cache = getattr(faults, "_edge_masks", None)
        if cache is None:
            cache = faults._edge_masks = {}
        m = cache.get(self.token)
        if m is None or m.version != getattr(faults, "version", 0):
            for key in [k for k, v in cache.items() if v.graph is None]:
                del cache[key]
            m = FaultEdgeMask(self, faults)
            cache[self.token] = m
        return m


#: Process-wide graph cache: one compiled graph per part geometry.
_GRAPH_CACHE: dict[str, RoutingGraph] = {}
_CACHE_LOCK = threading.Lock()


def routing_graph(arch: VirtexArch) -> RoutingGraph:
    """The shared :class:`RoutingGraph` of ``arch``'s part geometry."""
    key = arch.part.name
    g = _GRAPH_CACHE.get(key)
    if g is None:
        with _CACHE_LOCK:
            g = _GRAPH_CACHE.get(key)
            if g is None:
                g = RoutingGraph(arch)
                _GRAPH_CACHE[key] = g
    return g


# -- shared-memory export (PathFinder worker processes) ----------------------

def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking lifecycle ownership.

    On Python 3.13+ ``track=False`` skips resource-tracker registration
    entirely.  Before that, attaching re-registers the name — harmless
    inside one multiprocessing family, where parent and workers share a
    single tracker whose cache is a set (the duplicate deduplicates, and
    the owner's ``unlink`` performs the one unregister).  Explicitly
    unregistering here would be *wrong* for exactly that reason: it
    would race the owner's unlink into a double-unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        return shared_memory.SharedMemory(name=name)


class SharedGraphExport:
    """Owner-side handle of one compiled graph image in shared memory.

    Every CSR column is copied once into a single segment
    (8-byte-aligned runs).  :attr:`meta` is a small picklable
    description — segment name, part, and per column its buffer format,
    offset and length — that worker processes feed to
    :func:`attach_shared_graph`.  The owner must :meth:`close` (unlink)
    the segment; attached readers only ever map it.
    """

    def __init__(self, graph: RoutingGraph) -> None:
        self.part = graph.arch.part.name
        layout: list[tuple[str, str, int, int]] = []
        pos = 0
        cols = [getattr(graph, name) for name in _COLUMNS]
        for name, col in zip(_COLUMNS, cols):
            layout.append((name, col.format, pos, len(col)))
            pos += col.nbytes
            pos = (pos + 7) & ~7  # 8-byte-align the next column
        while True:
            try:
                self.shm = shared_memory.SharedMemory(
                    create=True,
                    size=max(pos, 8),
                    name=(
                        f"jroute_{os.getpid()}_{self.part}_"
                        f"{next(_GRAPH_GENERATION)}"
                    ),
                )
                break
            except FileExistsError:  # stale segment from a recycled pid
                continue
        for (_, _, off, _), col in zip(layout, cols):
            dst = self.shm.buf[off : off + col.nbytes]
            dst[:] = col.cast("B")
            dst.release()  # close() would refuse while views are exported
        self.meta = {
            "name": self.shm.name,
            "part": self.part,
            "layout": layout,
        }
        self._closed = False

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


#: Process-wide export cache: one shared-memory image per part.
_SHARED_EXPORTS: dict[str, SharedGraphExport] = {}


def shared_graph_export(arch: VirtexArch) -> SharedGraphExport:
    """The (cached) shared-memory export of ``arch``'s compiled graph.

    Created on first use per part and unlinked at interpreter exit (the
    ``atexit`` hook below), or earlier via
    :func:`release_shared_exports`.
    """
    key = arch.part.name
    exp = _SHARED_EXPORTS.get(key)
    if exp is None or exp._closed:
        graph = routing_graph(arch)  # before the lock: it locks too
        with _CACHE_LOCK:
            exp = _SHARED_EXPORTS.get(key)
            if exp is None or exp._closed:
                exp = SharedGraphExport(graph)
                _SHARED_EXPORTS[key] = exp
    return exp


@atexit.register
def release_shared_exports() -> None:
    """Unlink every cached shared-memory graph export (idempotent)."""
    while _SHARED_EXPORTS:
        _, exp = _SHARED_EXPORTS.popitem()
        exp.close()


def attach_shared_graph(meta: dict) -> RoutingGraph:
    """Zero-copy view of an exported graph inside a worker process.

    Returns a :class:`RoutingGraph` whose read-only CSR columns are
    views straight into the mapped segment, installed by the method a
    built graph uses — no rebuild, no copy.  The mapping lives as long
    as the returned graph (process exit unmaps).
    """
    shm = _attach_segment(meta["name"])
    g = RoutingGraph.__new__(RoutingGraph)
    g.arch = VirtexArch(meta["part"])
    g.token = (meta["part"], next(_GRAPH_GENERATION))
    g.n_nodes = g.arch.n_wires
    g._tiles = None
    g._coords = None
    g._set_columns(
        {
            name: np.frombuffer(shm.buf, dtype=fmt, count=cnt, offset=off)
            for name, fmt, off, cnt in meta["layout"]
        }
    )
    g._shm = shm  # keep the mapping alive alongside the views
    return g
