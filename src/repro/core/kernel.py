"""Shared search kernel over the compiled routing graph.

One Dijkstra/A* implementation serves every scalar search — the maze
of levels 4–6 (point-to-point, fanout and bus) — over the flat CSR
adjacency of :class:`~repro.arch.graph.RoutingGraph`, which the
template DFS of levels 3 and 4 (:mod:`repro.routers.template_router`)
walks too.  A graph is built whole when it is constructed and its
columns never change, so no search checks whether an edge run exists.
The run-time promise of the paper ("the router must be fast enough to
use at run time") rests on three mechanics here:

* **no graph re-expansion** — edges are flat-array reads, not
  ``fanout_pips`` generator calls;
* **epoch-stamped state** — ``dist``/``prev``/``stamp`` are preallocated
  once per device and invalidated by bumping an epoch counter, so
  nothing is reallocated or cleared between searches;
* **pluggable costs** — an optional A* heuristic plugs into the scalar
  loop, and PathFinder's negotiated congestion (present + history)
  into the batch engine.

That loop is :func:`dijkstra`.  Beside it, :func:`dijkstra_batch` runs
many plain-Dijkstra searches at once as one numpy wavefront over the
same arrays.  It is the one engine of every batch —
:func:`~repro.routers.maze.route_maze_batch` (and so every ``JRouter``
batch, whatever its ``heuristic_weight``) runs its requests through it
— and of every PathFinder sink search, serial or in a pool worker, as a
one-lane call priced by PathFinder's present-use and history columns.
It takes no A* heuristic, because a biased key breaks its exactness
proof; the A* bias serves scalar searches only.

Instrumentation (node expansions, heap pushes, faulty edges avoided) is
unified behind :class:`SearchStats`.  The process-wide accumulator
:data:`GLOBAL_STATS` (printed by ``repro bench --profile``) is fed by
**explicit, lock-guarded publication**: searches accumulate into their
caller's private :class:`SearchStats` and the owning router publishes
the merged batch once via :func:`record_global`.  The kernel itself
never performs an unsynchronized read-modify-write on the global, so
routing calls on concurrent threads never lose counts.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Container, Iterable, Sequence

import numpy as np

from ..arch.graph import RoutingGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deadline -> errors)
    from .deadline import Deadline

#: deadline poll period: one clock read per this-many+1 node expansions
_DEADLINE_MASK = 1023

#: shared read-only index ramp for the batch relax phase; grown on
#: demand, never mutated (threads may race the rebind — both winners
#: are correct, and old views stay alive for their holders)
_ARANGE = np.arange(0, dtype=np.int64)


def _arange(m: int):
    """A length-``m`` ascending index view without a per-call alloc."""
    global _ARANGE
    if _ARANGE.size < m:
        _ARANGE = np.arange(max(m, 2 * _ARANGE.size), dtype=np.int64)
    return _ARANGE[:m]

__all__ = [
    "SearchStats",
    "SearchState",
    "BatchSearchState",
    "GLOBAL_STATS",
    "record_global",
    "dijkstra",
    "dijkstra_batch",
    "extract_plan",
    "extract_plan_lane",
]


@dataclass(slots=True)
class SearchStats:
    """Unified instrumentation counters of one or more searches."""

    searches: int = 0
    nodes_expanded: int = 0
    heap_pushes: int = 0
    faults_avoided: int = 0

    def merge(self, other: "SearchStats") -> "SearchStats":
        self.searches += other.searches
        self.nodes_expanded += other.nodes_expanded
        self.heap_pushes += other.heap_pushes
        self.faults_avoided += other.faults_avoided
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "searches": self.searches,
            "nodes_expanded": self.nodes_expanded,
            "heap_pushes": self.heap_pushes,
            "faults_avoided": self.faults_avoided,
        }

    def summary(self) -> str:
        return (
            f"{self.searches} search(es), "
            f"{self.nodes_expanded} node(s) expanded, "
            f"{self.heap_pushes} heap push(es), "
            f"{self.faults_avoided} faulty edge(s) avoided"
        )


#: Process-wide accumulator, surfaced by ``repro bench --profile``.
#: Mutated only under :data:`_GLOBAL_LOCK` (see :func:`record_global`).
GLOBAL_STATS = SearchStats()

_GLOBAL_LOCK = threading.Lock()


def record_global(stats: SearchStats) -> None:
    """Publish a completed batch of search stats into :data:`GLOBAL_STATS`.

    Routers accumulate into a private :class:`SearchStats` (one per
    worker when parallel), merge deterministically at their barrier, and
    call this exactly once per batch.  The lock makes the publication a
    single atomic read-modify-write, so concurrent routing calls — and
    PathFinder's merged worker stats — never lose updates the
    way the kernel's old per-search ``GLOBAL_STATS.x += y`` did.
    """
    with _GLOBAL_LOCK:
        GLOBAL_STATS.merge(stats)


class SearchState:
    """Preallocated, epoch-stamped flat search state for one graph.

    The columns are numpy struct-of-arrays storage — :attr:`cost`,
    :attr:`backptr` and :attr:`node_epoch` are parallel float64/int64
    vectors over canonical wires — so batched kernels
    (:func:`dijkstra_batch`) and future C inner loops can address them
    as flat buffers.  The scalar loop still indexes them element-wise;
    :attr:`dist`/:attr:`prev`/:attr:`stamp` are cached ``memoryview``
    aliases of the same buffers, because CPython scalar indexing of a
    memoryview is ~25% faster than indexing the ndarray itself.

    ``dist[w]``/``prev[w]`` are valid only when ``stamp[w]`` equals the
    current epoch; a search begins by bumping :attr:`epoch`, which
    invalidates all previous state in O(1).  One state serves one search
    at a time — concurrent searches each own a state.
    """

    __slots__ = (
        "n", "cost", "backptr", "node_epoch", "dist", "prev", "stamp", "epoch"
    )

    def __init__(self, n: int) -> None:
        self.n = n
        #: SoA column: tentative path cost per wire (float64)
        self.cost = np.zeros(n, dtype=np.float64)
        #: SoA column: edge id that relaxed the wire (-1 for search starts)
        self.backptr = np.full(n, -1, dtype=np.int64)
        #: SoA column: epoch stamp per wire (cost/backptr validity)
        self.node_epoch = np.zeros(n, dtype=np.int64)
        # memoryview aliases for the scalar loop's element-wise access
        self.dist = memoryview(self.cost)
        self.prev = memoryview(self.backptr)
        self.stamp = memoryview(self.node_epoch)
        self.epoch = 0


class BatchSearchState:
    """State of ``k`` lockstepped wavefront searches over one graph.

    The 2-D struct-of-arrays counterpart of :class:`SearchState`: row
    ``i`` of :attr:`cost`/:attr:`backptr` is lane ``i``'s flat search
    state, which :func:`dijkstra_batch` gathers from and scatters into
    with fancy indexing.  A lane is reset by filling its cost row with
    ``+inf`` when its search starts, so no epoch stamps are kept.

    :meth:`ensure` grows the state for larger batches while reusing the
    allocation for anything smaller.  One state serves one batch at a
    time — concurrent batches each own a state.
    """

    __slots__ = ("n", "k", "cost", "backptr", "scratch")

    def __init__(self, n: int, k: int = 1) -> None:
        self.n = n
        self.k = 0
        self.ensure(max(1, k))

    def ensure(self, k: int) -> None:
        """Grow to at least ``k`` lanes (no-op when already large enough)."""
        if k <= self.k:
            return
        n = self.n
        self.cost = np.zeros((k, n), dtype=np.float64)
        self.backptr = np.full((k, n), -1, dtype=np.int32)
        #: per-(lane, node) slot for the relax phase's duplicate-target
        #: resolution; every slot read was written the same pass, so the
        #: contents never need clearing between rounds or batches
        self.scratch = np.empty(k * n, dtype=np.int64)
        self.k = k


def dijkstra(
    graph: RoutingGraph,
    state: SearchState,
    starts: Iterable[int],
    targets: Collection[int],
    *,
    occupied: Sequence[bool] | None = None,
    allow: Container[int] = frozenset(),
    name_blocked: Sequence[int] | None = None,
    h: Callable[[int, int, int, int], float] | None = None,
    fault_node: Sequence[bool] | None = None,
    fault_edge: Sequence[int] | None = None,
    max_nodes: int = 200_000,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
) -> tuple[int, float, int, int, int, bool, bool]:
    """One lowest-cost search from ``starts`` to any of ``targets``.

    Parameters
    ----------
    occupied:
        Indexable truthiness per canonical wire; a truthy wire is
        impassable unless listed in ``allow``.
    name_blocked:
        Optional per-*name* mask (longs disabled, avoided classes).
    h:
        Optional A* heuristic ``h(canon_to, to_name, row, col)``.
    fault_node / fault_edge:
        Fault masks, per wire and per edge (the ``mask`` of a
        :class:`~repro.arch.graph.FaultEdgeMask`); skipped resources are
        counted as faults avoided.
    deadline:
        Optional cooperative :class:`~repro.core.deadline.Deadline`;
        polled every 1024 expansions.  A tripped deadline abandons the
        search with ``timed_out`` set (the deadline-free fast loop is
        untouched, so a ``None`` deadline costs nothing).

    Returns ``(goal, cost, expanded, pushes, faults_avoided, exceeded,
    timed_out)`` with ``goal == -1`` when no target was reached
    (``exceeded`` set when the node budget ran out first, ``timed_out``
    when the deadline tripped first).
    """
    epoch = state.epoch + 1
    state.epoch = epoch
    dist = state.dist
    prev = state.prev
    stamp = state.stamp
    off = graph.off
    deg = graph.deg
    e_to = graph.e_to
    e_toname = graph.e_toname
    e_cost = graph.e_cost
    e_row = graph.e_row
    e_col = graph.e_col
    target_set = (
        targets if isinstance(targets, (set, frozenset)) else set(targets)
    )
    heap: list[tuple[float, float, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    if h is None:
        for s in starts:
            dist[s] = 0.0
            stamp[s] = epoch
            prev[s] = -1
            heap.append((0.0, 0.0, s))
        heapq.heapify(heap)
    else:
        p_row, p_col, p_name = graph.tiles()
        for s in starts:
            dist[s] = 0.0
            stamp[s] = epoch
            prev[s] = -1
            push(heap, (h(s, p_name[s], p_row[s], p_col[s]), 0.0, s))

    expanded = 0
    pushes = 0
    faults_avoided = 0
    goal = -1
    goal_cost = 0.0
    exceeded = False
    timed_out = False
    # The hot maze configuration (no fault masks, no name filtering, no
    # deadline) runs a fast loop with every per-edge mask branch hoisted
    # out, plain and A* alike (only the push key branches on ``h``);
    # everything else takes the general loop below.  Keeping
    # deadline-bounded searches out of the fast loop is what makes a
    # ``None`` deadline genuinely free.
    fast = (
        name_blocked is None
        and fault_edge is None
        and fault_node is None
        and occupied is not None
        and deadline is None
    )
    if occupied is not None and not isinstance(occupied, (list, memoryview)):
        try:
            occupied = memoryview(occupied)  # cheaper scalar indexing
        except TypeError:
            pass
    if fast:
        # `fast` requires deadline is None (checked above): this loop is
        # intentionally poll-free — that is the point of the fast path
        while heap:
            f, g, canon = pop(heap)
            if g > dist[canon]:
                continue  # stale entry
            if canon in target_set:
                goal = canon
                goal_cost = g
                break
            expanded += 1
            if expanded > max_nodes:
                exceeded = True
                break
            o = off[canon]
            for e in range(o, o + deg[canon]):
                to = e_to[e]
                if occupied[to] and to not in allow:
                    continue
                ng = g + e_cost[e]
                if stamp[to] != epoch:
                    stamp[to] = epoch
                elif ng >= dist[to]:
                    continue
                dist[to] = ng
                prev[to] = e
                pushes += 1
                if h is None:
                    push(heap, (ng, ng, to))
                else:
                    push(
                        heap,
                        (ng + h(to, e_toname[e], e_row[e], e_col[e]), ng, to),
                    )
    else:
        while heap:
            f, g, canon = pop(heap)
            if g > dist[canon]:
                continue  # stale entry
            if canon in target_set:
                goal = canon
                goal_cost = g
                break
            if fault_node is not None and fault_node[canon]:
                # a dead/pre-driven start wire cannot launch the signal
                faults_avoided += 1
                continue
            if (
                deadline is not None
                and (expanded & _DEADLINE_MASK) == 0
                and deadline.expired()
            ):
                timed_out = True
                break
            expanded += 1
            if expanded > max_nodes:
                exceeded = True
                break
            o = off[canon]
            for e in range(o, o + deg[canon]):
                to = e_to[e]
                if name_blocked is not None and name_blocked[e_toname[e]]:
                    continue
                if fault_edge is not None and fault_edge[e]:
                    faults_avoided += 1
                    continue
                if occupied is not None and occupied[to] and to not in allow:
                    continue
                ng = g + e_cost[e]
                if stamp[to] != epoch:
                    stamp[to] = epoch
                elif ng >= dist[to]:
                    continue
                dist[to] = ng
                prev[to] = e
                pushes += 1
                if h is None:
                    push(heap, (ng, ng, to))
                else:
                    push(
                        heap,
                        (ng + h(to, e_toname[e], e_row[e], e_col[e]), ng, to),
                    )

    if stats is not None:
        # Accumulate into the caller's private stats only; the owner
        # publishes the merged batch via record_global() at its barrier.
        stats.searches += 1
        stats.nodes_expanded += expanded
        stats.heap_pushes += pushes
        stats.faults_avoided += faults_avoided
    else:
        # Stats-less callers still count globally, atomically.
        record_global(
            SearchStats(1, expanded, pushes, faults_avoided)
        )
    return goal, goal_cost, expanded, pushes, faults_avoided, exceeded, timed_out


def extract_plan(
    graph: RoutingGraph, state: SearchState, goal: int
) -> list[tuple[int, int, int, int]]:
    """Back-walk ``prev`` edges from ``goal`` into a source-to-sink plan."""
    prev = state.prev
    e_row = graph.e_row
    e_col = graph.e_col
    e_from = graph.e_from
    e_toname = graph.e_toname
    e_src = graph.e_src
    plan: list[tuple[int, int, int, int]] = []
    e = prev[goal]
    while e != -1:
        plan.append((e_row[e], e_col[e], e_from[e], e_toname[e]))
        e = prev[e_src[e]]
    plan.reverse()
    return plan


def extract_plan_lane(
    graph: RoutingGraph, bstate: BatchSearchState, lane: int, goal: int
) -> list[tuple[int, int, int, int]]:
    """:func:`extract_plan` over one lane of a :class:`BatchSearchState`."""
    prev = bstate.backptr[lane]
    e_row = graph.e_row
    e_col = graph.e_col
    e_from = graph.e_from
    e_toname = graph.e_toname
    e_src = graph.e_src
    plan: list[tuple[int, int, int, int]] = []
    e = int(prev[goal])
    while e != -1:
        plan.append((e_row[e], e_col[e], e_from[e], e_toname[e]))
        e = int(prev[e_src[e]])
    plan.reverse()
    return plan

# -- batched search ------------------------------------------------------------


def dijkstra_batch(
    graph: RoutingGraph,
    bstate: BatchSearchState,
    requests: Sequence[tuple[Collection[int], Collection[int]]],
    *,
    occupied: Sequence[bool] | None = None,
    allows: Sequence[Collection[int]] | None = None,
    name_blocked: Sequence[int] | None = None,
    fault_node: Sequence[bool] | None = None,
    fault_edge: Sequence[int] | None = None,
    congestion: tuple[np.ndarray, np.ndarray, float] | None = None,
    max_nodes: int = 200_000,
    stats: SearchStats | None = None,
    deadline: "Deadline | None" = None,
) -> list[tuple[int, float, int, int, int, bool, bool]]:
    """``k`` independent plain-Dijkstra searches as one vectorized wavefront.

    Each entry of ``requests`` is one ``(starts, targets)`` search.  The
    engine is level-synchronous: per round, every lane expands its
    whole *safe prefix* — all frontier entries cheaper than
    ``frontier_min + min_edge_cost`` — then one numpy relax pass runs
    over the union of all expanded nodes' edge runs (gather / mask /
    compare / scatter on the CSR columns).  The safe prefix is what
    makes batching exact: any cost produced this round is at least the
    prefix bound, so no same-round relaxation can improve, reorder, or
    tie with a prefix member, and expanding the prefix together replays
    the scalar heap's pop order (ascending ``(cost, node)``) exactly.
    Results — plans, costs, and every :class:`SearchStats` counter — are
    **bit-identical** to ``k`` sequential :func:`dijkstra` calls:

    * masks apply in the scalar loop's order (name filter, fault edges
      counted, occupancy with per-lane allow lists);
    * parallel edges onto one target relax one scan-order occurrence at
      a time, so every strict improvement is counted (and its frontier
      entry pushed) exactly as the scalar loop would, superseded entries
      dying later as stale pops;
    * per-entry outcome checks (target hit, ``max_nodes`` budget,
      deadline poll points every ``_DEADLINE_MASK + 1`` expansions)
      replay the scalar loop's per-pop precedence inside each prefix.

    The proof needs unbiased keys and a positive minimum edge cost, so
    there is no A* heuristic here and a graph without a positive
    :meth:`~repro.arch.graph.RoutingGraph.min_edge_cost` is refused with
    :class:`ValueError` (every shipped part's graph has one: no wire a
    PIP can drive costs less than 0.5).

    Parameters mirror :func:`dijkstra`, with one batch form: ``allows``
    is an optional per-lane collection of allowed occupied wires.  The
    wavefront reads the graph's read-only numpy columns.

    ``congestion`` is PathFinder's optional ``(use_count, history,
    present_factor)`` pricing: int64/float64 columns over canonical
    wires and a float (in a pool worker, ``history`` is a read-only
    view of the call's shared-memory block and ``use_count`` a private
    copy of its column).  A kept
    edge onto wire ``to`` then costs
    ``g + base * (1.0 + present_factor * use_count[to]) + history[to]``,
    evaluated in float64 in that order.  The safe-prefix proof still
    holds as long as the factor and both columns are non-negative: a
    priced edge never costs less than its base cost, so never less than
    the minimum edge cost.

    Returns one ``(goal, cost, expanded, pushes, faults_avoided,
    exceeded, timed_out)`` tuple per request.  With ``stats=None`` the
    whole batch is published to :data:`GLOBAL_STATS` as a single
    :func:`record_global` call.
    """
    k = len(requests)
    if k == 0:
        return []
    off_v, deg_v, e_to_v, e_cost_v, e_toname_v = graph.np_columns()
    n = graph.n_nodes
    c_min = graph.min_edge_cost()
    if c_min <= 0.0:
        raise ValueError(
            "dijkstra_batch needs a positive minimum edge cost "
            f"(the safe-prefix bound), got {c_min}"
        )

    femask_np = (
        None if fault_edge is None else np.frombuffer(fault_edge, dtype=np.uint8)
    )
    nb_v = (
        None
        if name_blocked is None
        else np.frombuffer(name_blocked, dtype=np.uint8)
    )
    occ_v = None if occupied is None else np.asarray(occupied, dtype=bool)
    if congestion is not None:
        use_v, hist_v, pf = congestion
    fault_np = (
        np.asarray(fault_node, dtype=bool) if fault_node is not None else None
    )
    allow_np: list[np.ndarray | None] = [
        np.fromiter(a, dtype=np.int64, count=len(a)) if a else None
        for a in (allows if allows is not None else [()] * k)
    ]
    # an all-clear mask is semantically identical to no mask at all;
    # eliding it up front spares every round its per-edge gathers
    if nb_v is not None and not nb_v.any():
        nb_v = None
    if femask_np is not None and not femask_np.any():
        femask_np = None
    if occ_v is not None and not occ_v.any():
        occ_v = None
    if fault_np is not None and not fault_np.any():
        fault_np = None

    bstate.ensure(k)
    cost2d = bstate.cost
    back2d = bstate.backptr
    # flat views: one (lane * n + node) index serves gather and scatter
    cost_flat = cost2d.reshape(-1)
    back_flat = back2d.reshape(-1)
    scratch = bstate.scratch

    targ_np: list[np.ndarray | None] = [None] * k
    fr_g: list[np.ndarray | None] = [None] * k
    fr_node: list[np.ndarray | None] = [None] * k
    expanded = [0] * k
    pushes = [0] * k
    fav = [0] * k
    goal = [-1] * k
    goal_cost = [0.0] * k
    exceeded = [False] * k
    timed_out = [False] * k
    active: list[int] = []
    for lane, (starts, targets) in enumerate(requests):
        ss = np.fromiter(starts, dtype=np.int64, count=len(starts))
        if ss.size == 0:
            continue
        # an up-front +inf fill replaces the scalar epoch-stamp protocol:
        # "unvisited always loses" becomes a plain cost compare, sparing
        # every relax round its stamp gathers
        row = cost2d[lane]
        row.fill(np.inf)
        row[ss] = 0.0
        back2d[lane, ss] = -1
        fr_g[lane] = np.zeros(ss.size, dtype=np.float64)
        fr_node[lane] = ss
        targ_np[lane] = np.fromiter(targets, dtype=np.int64, count=len(targets))
        active.append(lane)

    while active:
        expired = deadline is not None and deadline.expired()
        still: list[int] = []
        rl_lane: list[np.ndarray] = []
        rl_node: list[np.ndarray] = []
        rl_g: list[np.ndarray] = []
        round_lanes: list[int] = []
        # -- pop phase: per lane, expand the whole safe prefix
        for lane in active:
            fg = fr_g[lane]
            fn = fr_node[lane]
            if fg.size == 0:
                continue  # frontier exhausted: goal stays -1
            bound = fg.min() + c_min
            m = fg < bound
            pg = fg[m]
            pn = fn[m]
            inv = ~m
            fr_g[lane] = fg[inv]
            fr_node[lane] = fn[inv]
            # lazy deletion, exactly like the scalar heap's stale check
            fresh = pg <= cost2d[lane, pn]
            if not fresh.all():
                pg = pg[fresh]
                pn = pn[fresh]
            if pg.size == 0:
                still.append(lane)
                continue
            order = np.lexsort((pn, pg))  # the heap's (cost, node) order
            pg = pg[order]
            pn = pn[order]
            ta = targ_np[lane]
            is_t = (pn == ta[0]) if ta.size == 1 else np.isin(pn, ta)
            if fault_np is not None:
                is_f = fault_np[pn]
                normal = ~(is_t | is_f)
            else:
                is_f = None
                normal = ~is_t
            e0 = expanded[lane]
            seg = pg.size
            # per-entry precedence within the prefix, as the scalar pop
            # loop would apply it: target, then deadline poll, then the
            # expansion-budget crossing
            cut = seg
            outcome = 0
            if is_t.any():
                cut = int(np.argmax(is_t))
                outcome = 1
            nrank = None
            if expired:
                nrank = np.cumsum(normal) - 1
                pollable = normal & (((e0 + nrank) & _DEADLINE_MASK) == 0)
                cand = np.flatnonzero(pollable)
                if cand.size and cand[0] < cut:
                    cut = int(cand[0])
                    outcome = 2
            if e0 + seg > max_nodes:
                if nrank is None:
                    nrank = np.cumsum(normal) - 1
                capc = np.flatnonzero(normal & (nrank == max_nodes - e0))
                if capc.size and capc[0] < cut:
                    cut = int(capc[0])
                    outcome = 3
            if is_f is not None and cut:
                fav[lane] += int(is_f[:cut].sum())
            sel = normal[:cut]
            n_exp = int(sel.sum())
            expanded[lane] = e0 + n_exp
            if outcome == 1:
                goal[lane] = int(pn[cut])
                goal_cost[lane] = float(pg[cut])
            elif outcome == 2:
                timed_out[lane] = True
            elif outcome == 3:
                expanded[lane] = e0 + n_exp + 1  # the crossing pop counts
                exceeded[lane] = True
            else:
                still.append(lane)
            if n_exp:
                rl_lane.append(np.full(n_exp, lane, dtype=np.int64))
                rl_node.append(pn[:cut][sel])
                rl_g.append(pg[:cut][sel])
                round_lanes.append(lane)
        active = still
        if not rl_node:
            continue

        # -- relax phase: one vectorized sweep over the union of the
        #    expanded nodes' edge runs
        nodes_a = np.concatenate(rl_node)
        lanes_a = np.concatenate(rl_lane)
        g_a = np.concatenate(rl_g)
        degs = deg_v[nodes_a]
        total = int(degs.sum())
        if total == 0:
            continue
        ends = np.cumsum(degs)
        e_idx = np.repeat(off_v[nodes_a] - (ends - degs), degs) + _arange(total)
        to_e = e_to_v[e_idx]
        lane_e = np.repeat(lanes_a, degs)
        # masks in the scalar loop's order: name filter, fault edges
        # (counted), occupancy (with per-lane allow-list correction)
        keep = None
        if nb_v is not None:
            keep = nb_v[e_toname_v[e_idx]] == 0
        if femask_np is not None:
            hit = femask_np[e_idx] != 0
            if keep is not None:
                hit &= keep
            if hit.any():
                lane_hits = np.bincount(lane_e[hit], minlength=k)
                for lane, c in enumerate(lane_hits.tolist()):
                    if c:
                        fav[lane] += c
            keep = ~hit if keep is None else keep & ~hit
        if occ_v is not None:
            occ = occ_v[to_e]
            for lane in round_lanes:
                al = allow_np[lane]
                if al is not None:
                    lm = lane_e == lane
                    occ[lm] &= ~np.isin(to_e[lm], al)
            keep = ~occ if keep is None else keep & ~occ
        if keep is None:
            e_k = e_idx
            lane_k = lane_e
            to_k = to_e
            g_k = np.repeat(g_a, degs)
        else:
            kidx = np.flatnonzero(keep)
            if kidx.size == 0:
                continue
            e_k = e_idx[kidx]
            lane_k = lane_e[kidx]
            to_k = to_e[kidx]
            g_k = np.repeat(g_a, degs)[kidx]
        if congestion is None:
            ng_k = g_k + e_cost_v[e_k]
        else:
            ng_k = g_k + e_cost_v[e_k] * (1.0 + pf * use_v[to_k]) + hist_v[to_k]
        # an edge that cannot beat the pre-round cost can never win
        # mid-round either (costs only decrease), so filter early;
        # unvisited rows hold +inf, so one gather doubles as the
        # scalar protocol's "unvisited always loses" rule
        flat_k = lane_k * n + to_k
        ci = np.flatnonzero(ng_k < cost_flat[flat_k])
        if ci.size == 0:
            continue
        flat_c = flat_k[ci]
        to_c = to_k[ci]
        ng_c = ng_k[ci]
        e_c = e_k[ci]
        lane_c = lane_k[ci]

        # several expanded nodes (or parallel edges of one node) can
        # target the same (lane, wire) this round; the scalar loop
        # relaxes them in scan order, pushing every running-cost
        # improvement.  Replay that order without sorting: a pass
        # scatters the standing candidates' positions into each key's
        # scratch slot *reversed*, so the last write — the key's
        # earliest standing candidate — wins and is applied.  Then
        # every other candidate that no longer beats its key's cost is
        # dropped: costs only fall, so it can never win later.  Each
        # key's earliest survivor is thus strictly cheaper than every
        # earlier candidate of its key, the scalar loop's next
        # improvement, and the next pass takes it unchecked (the first
        # pass's candidates were vouched for by the pre-round filter).
        # A lane's prefix is scanned in ascending (g, node) order and
        # an edge's price depends on its target wire only, so on the
        # shipped graphs a key's first candidate is its cheapest and a
        # round ends after one pass.  Every slot read was written the
        # same pass, so the scratch carries no state between rounds.
        pos = _arange(flat_c.size)
        first_pass = True
        while pos.size:
            keys = flat_c if first_pass else flat_c[pos]
            scratch[keys[::-1]] = pos[::-1]
            firsts = scratch[keys] == pos
            if firsts.all():
                wsel = pos
                pos = pos[:0]
            else:
                wsel = pos[firsts]
                pos = pos[~firsts]
            if first_pass and wsel.size == flat_c.size:
                wl, wt, wv, we, wf = lane_c, to_c, ng_c, e_c, flat_c
            else:
                wl = lane_c[wsel]
                wt = to_c[wsel]
                wv = ng_c[wsel]
                we = e_c[wsel]
                wf = flat_c[wsel]
            first_pass = False
            cost_flat[wf] = wv
            back_flat[wf] = we
            if pos.size:
                pos = pos[ng_c[pos] < cost_flat[flat_c[pos]]]
            # every improvement becomes a frontier entry (and a counted
            # push), exactly as the scalar loop pushes; superseded ones
            # die later as stale pops, matching the heap's lazy
            # deletion.  The pop phase walked lanes in ascending order,
            # so `wl` is non-decreasing and splits without a sort.
            fw = np.empty(wl.size, dtype=bool)
            fw[0] = True
            fw[1:] = wl[1:] != wl[:-1]
            ui = np.flatnonzero(fw)
            splits = np.append(ui, wl.size)
            # O(lanes) bookkeeping, not O(elements)
            for j in range(ui.size):  # repro: noqa RPR007
                a = int(splits[j])
                b = int(splits[j + 1])
                lane = int(wl[a])
                pushes[lane] += b - a
                fr_g[lane] = np.concatenate((fr_g[lane], wv[a:b]))
                fr_node[lane] = np.concatenate((fr_node[lane], wt[a:b]))

    batch = SearchStats(k, sum(expanded), sum(pushes), sum(fav))
    if stats is not None:
        stats.merge(batch)
    else:
        # one lock-guarded publication for the whole batch
        record_global(batch)
    return [
        (
            goal[i],
            goal_cost[i],
            expanded[i],
            pushes[i],
            fav[i],
            exceeded[i],
            timed_out[i],
        )
        for i in range(k)
    ]
