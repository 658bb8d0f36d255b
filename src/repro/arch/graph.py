"""Compiled routing graph: flat CSR adjacency over canonical wires.

Every search in this repro (the template DFS, the maze of levels 4–6
and PathFinder) used to re-expand the wire graph through the per-node
Python generator ``Device.fanout_pips``, paying ``presences()`` +
``canonicalize()`` on every edge of every search.  :class:`RoutingGraph`
precompiles that fanout relation once per device *geometry* into flat
``array``-backed CSR storage, in ``fanout_pips``' edge order:

* ``off[canon]`` / ``deg[canon]`` — index and length of the wire's edge
  run (``off`` is -1 until the node is materialized);
* ``e_to`` / ``e_src`` — canonical target / source wire per edge;
* ``e_row`` / ``e_col`` / ``e_from`` / ``e_toname`` — the PIP metadata
  (``(row, col, from_name, to_name)``) needed to apply a plan;
* ``e_cost`` — the target wire's base router cost, pre-resolved.

Nodes materialize lazily on first expansion (a one-shot cross-chip
route on a large part pays no up-front compile) and are shared: graphs
are cached per part name, so every ``Device("XCV50")`` in the process
reuses the same adjacency.  :meth:`RoutingGraph.compile` forces a full
build for steady-state benchmarking.

Fault models are *not* baked into the adjacency (they are mutable and
per-device); instead :meth:`RoutingGraph.fault_edge_mask` derives a flat
per-edge blocked mask — vectorised over the fault model's wire masks and
hashed stuck-open population — cached per (graph token, fault-model
version).  The token is a stable ``(part, generation)`` identity, so a
garbage-collected graph whose ``id()`` CPython later reuses can never
serve a stale mask to a fresh graph.

For OS-level parallel routing (PathFinder's worker processes) a fully
compiled graph can be **exported once into a POSIX shared-memory
segment** (:func:`shared_graph_export`) and **attached zero-copy** by
worker processes (:func:`attach_shared_graph`): the CSR columns become
``memoryview`` casts straight into the mapped segment, so a spawn/fork
worker pays neither a recompile nor a copy of the ~tens-of-MB adjacency.
Exports are cached per part and unlinked at interpreter exit (or
explicitly via :func:`release_shared_exports`).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import weakref
from array import array
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from . import connectivity, wires
from .virtex import _BASE_COST, VirtexArch
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
    """Flat per-edge fault mask aligned with a graph's edge arrays.

    ``mask[e]`` is 1 when edge ``e`` must be skipped by a fault-aware
    search: its target wire is dead/pre-driven, or the PIP itself is
    stuck open (explicitly or by the hashed random population).  The
    bytearray grows in place via :meth:`sync` as the graph materializes
    more nodes, so kernels may keep a direct reference to ``mask``.

    The graph is held through a *weak* reference: a mask cached on a
    long-lived :class:`~repro.device.faults.FaultModel` must not keep a
    transient graph (and its multi-MB edge arrays) alive forever, and a
    dead reference marks the cache entry for pruning.
    """

    __slots__ = ("_graph_ref", "faults", "version", "mask")

    def __init__(self, graph: "RoutingGraph", faults) -> None:
        self._graph_ref = weakref.ref(graph)
        self.faults = faults
        self.version = getattr(faults, "version", 0)
        self.mask = bytearray()
        self.sync()

    @property
    def graph(self) -> "RoutingGraph | None":
        """The graph this mask indexes, or None once it was collected."""
        return self._graph_ref()

    def sync(self) -> None:
        """Extend the mask to cover all currently-materialized edges."""
        g = self._graph_ref()
        if g is None:  # graph collected; the cache entry is dead
            return
        n = len(g.e_to)
        lo = len(self.mask)
        if n <= lo:
            return
        f = self.faults
        dst = np.frombuffer(g.e_to, dtype=np.int64, count=n)[lo:]
        bad = f.unusable[dst].copy()
        threshold = f._stuck_open_threshold
        if threshold:
            if threshold > _M64:
                bad[:] = True
            else:
                src = np.frombuffer(g.e_src, dtype=np.int64, count=n)[lo:]
                inner = _splitmix64_np(
                    (src.astype(np.uint64) << np.uint64(24))
                    ^ dst.astype(np.uint64)
                )
                key = _splitmix64_np(
                    np.uint64((f._stuck_open_seed << 1) & _M64) ^ inner
                )
                bad |= key < np.uint64(threshold)
        # an explicit stuck-open PIP lies in its source's edge run: mark
        # that run's new part only (parallel edges included), never
        # walking the other new edges one by one
        off, deg = g.off, g.deg
        for a, b in f._stuck_open:
            o = off[a]
            if o < 0:
                continue  # not materialized: a later sync marks it
            start = max(o, lo) - lo
            stop = min(o + deg[a], n) - lo
            if start < stop:
                bad[start:stop] |= dst[start:stop] == b
        self.mask += bad.astype(np.uint8).tobytes()


#: Monotonic generation counter: together with the part name it forms a
#: stable graph identity token (``id()`` values are reused by CPython).
_GRAPH_GENERATION = itertools.count()


class RoutingGraph:
    """CSR adjacency of one architecture's fanout relation."""

    def __init__(self, arch: VirtexArch) -> None:
        self.arch = arch
        #: stable identity: survives ``id()`` reuse after garbage collection
        self.token: tuple[str, int] = (arch.part.name, next(_GRAPH_GENERATION))
        n = arch.n_wires
        self.n_nodes = n
        #: edge-run start per node; -1 until the node is materialized
        self.off = array("q", [-1]) * n
        #: edge-run length per node (valid once ``off`` is set)
        self.deg = array("i", bytes(4 * n))
        self.e_to = array("q")
        self.e_src = array("q")
        self.e_row = array("i")
        self.e_col = array("i")
        self.e_from = array("i")
        self.e_toname = array("i")
        self.e_cost = array("d")
        self._lock = threading.Lock()
        self._n_materialized = 0
        self._tiles: tuple[list[int], list[int], list[int]] | None = None
        self._coords: tuple[np.ndarray, np.ndarray] | None = None
        self._np_cols: tuple[int, tuple] | None = None

    @property
    def n_edges(self) -> int:
        return len(self.e_to)

    @property
    def n_materialized(self) -> int:
        """Nodes whose adjacency has been compiled so far."""
        return self._n_materialized

    def _materialize(self, canon: int) -> int:
        """Compile one node's edge run; returns its offset."""
        with self._lock:
            o = self.off[canon]
            if o >= 0:
                return o
            arch = self.arch
            e_to = self.e_to
            e_src = self.e_src
            e_row = self.e_row
            e_col = self.e_col
            e_from = self.e_from
            e_toname = self.e_toname
            e_cost = self.e_cost
            canonicalize = arch.canonicalize
            o = len(e_to)
            cnt = 0
            for row, col, name in arch.presences(canon):
                for to_name in DRIVES_DRIVABLE[name]:
                    canon_to = canonicalize(row, col, to_name)
                    if canon_to is None:
                        continue
                    e_row.append(row)
                    e_col.append(col)
                    e_from.append(name)
                    e_toname.append(to_name)
                    e_to.append(canon_to)
                    e_src.append(canon)
                    e_cost.append(NAME_COST[to_name])
                    cnt += 1
            self.deg[canon] = cnt
            self._n_materialized += 1
            # publish the offset last: readers holding no lock see either
            # -1 (and take the lock) or a fully-written edge run
            self.off[canon] = o
            return o

    def compile(self) -> "RoutingGraph":
        """Materialize every node (steady-state / benchmark mode)."""
        off = self.off
        for canon in range(self.n_nodes):
            if off[canon] < 0:
                self._materialize(canon)
        return self

    def neighbors(self, canon: int) -> list[tuple[int, int, int, int, int]]:
        """``(row, col, from_name, to_name, canon_to)`` per edge of a node.

        Convenience accessor mirroring ``Device.fanout_pips`` (and in the
        same order); hot paths should index the flat arrays directly.
        """
        o = self.off[canon]
        if o < 0:
            o = self._materialize(canon)
        return [
            (
                self.e_row[e],
                self.e_col[e],
                self.e_from[e],
                self.e_toname[e],
                self.e_to[e],
            )
            for e in range(o, o + self.deg[canon])
        ]

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
            N_OWNED,
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
        needs no edge materialization.  Cached per graph.
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
        """Zero-copy numpy views of the CSR columns, for vectorized search.

        Returns ``(off, deg, e_to, e_cost, e_toname, e_row, e_col)``.
        Forces a full :meth:`compile` first — the views alias the backing
        buffers, and an ``array`` reallocating mid-batch under a lazy
        materialization would leave them dangling.  Cached per edge
        count, so a graph grown since the last call re-derives fresh
        views (compiled graphs never grow again).
        """
        if self._n_materialized < self.n_nodes:
            self.compile()
        n_edges = len(self.e_to)
        cached = self._np_cols
        if cached is not None and cached[0] == n_edges:
            return cached[1]
        cols = (
            np.asarray(self.off),
            np.asarray(self.deg),
            np.asarray(self.e_to),
            np.asarray(self.e_cost),
            np.asarray(self.e_toname),
            np.asarray(self.e_row),
            np.asarray(self.e_col),
        )
        self._np_cols = (n_edges, cols)
        return cols

    def min_edge_cost(self) -> float:
        """A lower bound on every edge cost of the graph.

        The batched kernel's level-synchronous engine rests on this: in
        a Dijkstra search (no A* bias), every frontier entry cheaper
        than ``frontier_min + min_edge_cost`` can be expanded in the
        same vectorized round, because no relaxation this round can
        produce a cost below that bound — the safe-prefix property.
        Read from the name tables (the cheapest ``NAME_COST`` any PIP
        can drive), so a lazy graph answers without compiling and a
        worker never faults a shared ``e_cost`` column into memory.
        """
        return _MIN_DRIVEN_COST

    # -- fault masking --------------------------------------------------------

    def fault_edge_mask(self, faults) -> FaultEdgeMask:
        """Per-edge blocked mask for a fault model, cached by version.

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
        else:
            m.sync()
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

#: CSR columns shipped through shared memory, in layout order.
_SHARED_COLUMNS = (
    "off", "deg", "e_to", "e_src", "e_row", "e_col", "e_from", "e_toname",
    "e_cost",
)


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

    The graph is force-compiled, then every CSR column is copied once
    into a single segment (8-byte-aligned runs).  :attr:`meta` is a
    small picklable description — segment name, part, column layout —
    that worker processes feed to :func:`attach_shared_graph`.  The
    owner must :meth:`close` (unlink) the segment; attached readers only
    ever map it.
    """

    def __init__(self, graph: RoutingGraph) -> None:
        graph.compile()
        self.part = graph.arch.part.name
        layout: list[tuple[str, str, int, int]] = []
        pos = 0
        cols = [(name, getattr(graph, name)) for name in _SHARED_COLUMNS]
        for name, arr in cols:
            layout.append((name, arr.typecode, pos, len(arr)))
            pos += len(arr) * arr.itemsize
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
        for (name, tc, off, cnt), (_, arr) in zip(layout, cols):
            dst = self.shm.buf[off : off + cnt * arr.itemsize]
            dst[:] = memoryview(arr).cast("B")
            dst.release()  # close() would refuse while views are exported
        self.meta = {
            "name": self.shm.name,
            "part": self.part,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
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

    Returns a :class:`RoutingGraph` whose CSR columns are ``memoryview``
    casts straight into the mapped segment — no recompile, no copy; the
    graph arrives fully materialized.  The columns are read-only by
    construction on the worker side (workers never materialize).  The
    mapping lives as long as the returned graph (process exit unmaps).
    """
    shm = _attach_segment(meta["name"])
    g = RoutingGraph.__new__(RoutingGraph)
    g.arch = VirtexArch(meta["part"])
    g.token = (meta["part"], next(_GRAPH_GENERATION))
    g.n_nodes = meta["n_nodes"]
    itemsize = {"q": 8, "i": 4, "d": 8}
    for name, tc, off, cnt in meta["layout"]:
        setattr(g, name, shm.buf[off : off + cnt * itemsize[tc]].cast(tc))
    g._lock = threading.Lock()
    g._n_materialized = g.n_nodes
    g._tiles = None
    g._np_cols = None
    g._coords = None
    g._shm = shm  # keep the mapping alive alongside the views
    return g
