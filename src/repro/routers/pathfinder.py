"""PathFinder-style negotiated-congestion router (baseline comparator).

The paper's Section 6 points at timing/routability-driven routers (Swartz,
Betz & Rose [6]) as the direction for better algorithms, and Section 3.1
argues that "in an RTR environment traditional routing algorithms require
too much time".  This module implements the traditional algorithm that
claim is about: a PathFinder negotiated-congestion router (the core of
VPR and of ref [6]) — every net is routed allowing overuse, and present-
and history-congestion costs are escalated until no wire is shared.

Every per-sink search, serial or in a pool worker, is a one-lane call
of the kernel's numpy wavefront (:func:`repro.core.kernel.dijkstra_batch`)
priced by flat int64/float64 present-use and history columns.  The
wavefront replays the scalar heap's pop order exactly, so its plans,
costs and stats are those of a scalar Dijkstra under the same prices;
it reads the routing graph's read-only numpy columns.  With
``workers > 1`` the per-iteration net loop is parallelized with the
recursive spatial bipartition scheme of the parallel-router literature
(Zang et al., *An Open-Source Fast Parallel Routing Approach for
Commercial FPGAs*):

* a **partition tree** is built over the nets' bounding boxes
  (:func:`build_partition_tree`): the region is alternately split at a
  work-balanced median of bbox centers, nets whose bbox crosses the cut
  line land on the internal (cut) node, the rest recurse into the two
  sides.  Cut choice balances *estimated work* (bbox area × fanout),
  not net count, so one stripe full of high-fanout nets can no longer
  stall the rest of the pool;
* per iteration the tree is executed **bottom-up**: leaf partitions
  route concurrently, and a cut node routes only after its children so
  its boundary-crossing nets price against the subtree's fresh wires
  (synchronous updates within a subtree).  Disjoint subtrees never
  wait for each other — conflicts across them are resolved by the next
  negotiation iteration (asynchronous updates across partitions);
* the iteration-start congestion state lives in one POSIX
  shared-memory **block** per call (a
  :class:`~repro.arch.graph.SharedColumns` segment): the ``use_count``
  and ``history`` columns, the ``blocked`` bitmap and, on a faulty
  device, the parent's own fault-node and fault-edge masks.  The
  parent rewrites ``use_count`` and ``history`` at the iteration
  barrier, when no task is in flight, and unlinks the block when the
  call ends, however it ends.

Tree nodes run on OS-level workers of a cached
:class:`~concurrent.futures.ProcessPoolExecutor` (CPython threads share
one GIL, so they would only add overhead to the serial loop).  The
CSR graph is exported once per part into POSIX shared memory
(:func:`repro.arch.graph.shared_graph_export`) and attached zero-copy
by each worker.  A task carries the block's small ``meta``, its node's
nets, old wires and subtree overlay, and the scalars (endpoint set,
name filter, node budget, present factor, deadline budget).  The
worker maps the block, copies ``use_count``, applies the overlay to
the copy, routes against the block's other columns in place, and keeps
nothing afterwards.  The pickled size of each iteration's task
arguments is reported in :attr:`PathFinderResult.ipc_bytes`.

Two contracts hold:

* ``workers=1`` bypasses the tree and the pool entirely and reproduces
  the serial algorithm exactly (the bit-identical parity oracle against
  ``tests/routers/_reference.py``);
* for a fixed ``workers`` the result is identical from run to run: a
  partition-tree node is a pure function of the iteration-start
  congestion state plus its descendants' results, so plans, costs,
  :class:`~repro.core.kernel.SearchStats` and failure messages do not
  depend on which worker ran which node, nor on whether the pool was
  fresh or reused.  Neither contract spans worker counts (a different
  tree negotiates along a different trajectory; only convergence is
  comparable), and ``ipc_bytes`` is not covered: it meters the
  transport, not the routing.

It serves as the quality/time baseline for experiment E8: slower than
JRoute's template-first one-shot calls, but able to resolve congestion
that defeats greedy ordering.
"""

from __future__ import annotations

import atexit
import pickle
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .. import errors
from ..arch.graph import (
    SharedColumns,
    attach_columns,
    attach_shared_graph,
    shared_graph_export,
)
from ..arch.virtex import VirtexArch
from ..core.deadline import Deadline
from ..core.kernel import (
    BatchSearchState,
    SearchStats,
    dijkstra_batch,
    extract_plan_lane,
    record_global,
)
from ..device.fabric import Device
from .base import PlanPip, apply_plan
from .maze import _name_block_table

__all__ = [
    "NetSpec",
    "PartitionNode",
    "PathFinderResult",
    "build_partition_tree",
    "route_pathfinder",
    "shutdown_process_pools",
]

@dataclass(frozen=True, slots=True)
class NetSpec:
    """One net to route: a source wire and its sink wires."""

    source: int
    sinks: tuple[int, ...]

    @staticmethod
    def of(source: int, sinks: Sequence[int]) -> "NetSpec":
        return NetSpec(source, tuple(sinks))


@dataclass(slots=True)
class PathFinderResult:
    """Outcome of a negotiated-congestion run."""

    iterations: int
    converged: bool
    plans: dict[int, list[PlanPip]] = field(default_factory=dict)  #: per net index
    pips_added: int = 0
    #: unified search instrumentation across all iterations and workers
    stats: SearchStats = field(default_factory=SearchStats)
    #: *effective* concurrency: the number of partition-tree leaves the
    #: run actually routed concurrently.  May be lower than the
    #: requested ``workers`` when the workload cannot be split that
    #: finely (few nets, or nets stacked on one tile) — never silently.
    workers: int = 1
    #: the run was abandoned because its deadline expired (nothing applied)
    timed_out: bool = False
    #: pickled size of the task arguments shipped to the worker pool,
    #: one total per iteration (empty for a serial run).  The device
    #: state stays in the call's shared-memory block, so these scale
    #: with the partition nodes' nets, not with the device.
    ipc_bytes: list[int] = field(default_factory=list)


# -- recursive spatial bipartition tree ---------------------------------------


@dataclass(slots=True)
class PartitionNode:
    """One node of the spatial bipartition tree over net bounding boxes.

    Internal nodes carry the *cut nets* — nets whose bounding box
    crosses the node's cut line — and exactly two children; leaves carry
    every net of their region.  ``index`` is the node's preorder
    position, the deterministic order used for stats merging and
    failure selection.
    """

    index: int
    nets: tuple[int, ...] = ()
    children: tuple["PartitionNode", ...] = ()
    #: cut axis: 0 = rows, 1 = columns (-1 for leaves)
    axis: int = -1
    #: cut coordinate along :attr:`axis`
    cut: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _net_work(bbox: tuple[int, int, int, int], net: NetSpec) -> float:
    """Estimated routing work of one net: bbox area × fanout.

    The balancing weight for tree cuts — a proxy for search effort that
    keeps a few 64-sink nets from landing in one partition while the
    others idle (the failure mode of count-balanced stripes).
    """
    r0, c0, r1, c1 = bbox
    return float((r1 - r0 + 1) * (c1 - c0 + 1) * max(1, len(net.sinks)))


def build_partition_tree(
    device: Device, nets: Sequence[NetSpec], workers: int
) -> tuple[PartitionNode, list[PartitionNode], int]:
    """Build the recursive bipartition tree over net bounding boxes.

    The region is split at a work-balanced median of bbox centers along
    alternating axes (columns first, then rows, …): nets entirely on one
    side of the cut recurse into that child, nets whose bbox crosses the
    cut line stay on the internal node and are routed *after* both
    children.  Splitting stops when the leaf budget (``workers``) is
    exhausted, a region holds fewer than two nets, or no cut separates
    anything along either axis (degenerate stacks).  Deterministic for a
    fixed net list and worker count.

    Returns ``(root, preorder, n_leaves)`` — ``preorder`` lists every
    node in preorder (``preorder[i].index == i``) and ``n_leaves`` is
    the tree's effective concurrency.
    """
    graph = device.routing_graph()
    bboxes = graph.bbox_map([(net.source, *net.sinks) for net in nets])
    works = [_net_work(bbox, net) for bbox, net in zip(bboxes, nets)]
    centers = [
        ((r0 + r1) / 2.0, (c0 + c1) / 2.0) for r0, c0, r1, c1 in bboxes
    ]

    def axis_cut(idxs: list[int], axis: int) -> float | None:
        """Work-balanced cut between two distinct center values."""
        pairs = sorted((centers[i][axis], works[i]) for i in idxs)
        total = sum(w for _, w in pairs)
        best: tuple[float, float] | None = None
        acc = 0.0
        for pos in range(len(pairs) - 1):
            acc += pairs[pos][1]
            lo, hi = pairs[pos][0], pairs[pos + 1][0]
            if hi > lo:
                imbalance = abs(total - 2.0 * acc)
                if best is None or imbalance < best[0]:
                    best = (imbalance, (lo + hi) / 2.0)
        return None if best is None else best[1]

    nodes: list[PartitionNode] = []

    def split(idxs: list[int], budget: int, axis0: int) -> PartitionNode:
        node = PartitionNode(index=len(nodes))
        nodes.append(node)
        if budget > 1 and len(idxs) > 1:
            for axis in (axis0, 1 - axis0):
                cut = axis_cut(idxs, axis)
                if cut is None:
                    continue
                left = [i for i in idxs if bboxes[i][axis + 2] < cut]
                right = [i for i in idxs if bboxes[i][axis] > cut]
                if not left or not right:
                    continue
                crossing = tuple(
                    i
                    for i in idxs
                    if not (bboxes[i][axis + 2] < cut or bboxes[i][axis] > cut)
                )
                wl = sum(works[i] for i in left)
                wr = sum(works[i] for i in right)
                bl = int(round(budget * wl / (wl + wr))) if wl + wr else 1
                bl = max(1, min(budget - 1, bl))
                node.axis = axis
                node.cut = cut
                node.nets = crossing
                node.children = (
                    split(left, bl, 1 - axis),
                    split(right, budget - bl, 1 - axis),
                )
                return node
        node.nets = tuple(idxs)
        return node

    root = split(sorted(range(len(nets))), max(1, workers), 1)
    n_leaves = sum(1 for n in nodes if n.is_leaf)
    return root, nodes, n_leaves


class _NetRouter:
    """Per-call static routing context of the serial loop and the workers.

    The serial loop and every pool worker route nets through the same
    two methods below: there is exactly one implementation of "route
    one net under these congestion costs".
    """

    __slots__ = (
        "graph",
        "arch",
        "blocked",
        "endpoint_ok",
        "name_blocked",
        "history",
        "max_nodes",
        "deadline",
        "fault_node",
        "fault_edge",
    )

    def __init__(
        self,
        graph,
        arch,
        blocked,
        endpoint_ok,
        name_blocked,
        history: np.ndarray,
        max_nodes: int,
        deadline: Deadline | None,
        fault_node,
        fault_edge,
    ) -> None:
        self.graph = graph
        self.arch = arch
        self.blocked = blocked
        self.endpoint_ok = endpoint_ok
        self.name_blocked = name_blocked
        self.history = history
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.fault_node = fault_node
        self.fault_edge = fault_edge

    def sink_order(self, net: NetSpec) -> list[int]:
        tile_coords = self.arch.tile_coords
        sr, sc = tile_coords(net.source)
        return sorted(
            set(net.sinks),
            key=lambda s: (
                abs(tile_coords(s)[0] - sr) + abs(tile_coords(s)[1] - sc),
                s,
            ),
        )

    def route_net(
        self,
        idx: int,
        net: NetSpec,
        counts: np.ndarray,
        bstate: BatchSearchState,
        pf: float,
        stats: SearchStats,
    ) -> tuple[list[PlanPip], set[int]]:
        """Fanout-route one net under current congestion costs.

        ``counts`` is the present-use column the search prices against;
        the net's previous wires must already be removed from it by the
        caller.  Each sink is one one-lane wavefront search on lane 0
        of ``bstate``.  Returns ``(plan, wires)`` — sources are exempt
        from sharing accounting, so ``wires`` excludes the source.
        """
        tree: set[int] = {net.source}
        plan: list[PlanPip] = []
        canonicalize = self.arch.canonicalize
        for sink in self.sink_order(net):
            ((goal, _cost, _exp, _pushes, _fav, exceeded, search_timed_out),) = (
                dijkstra_batch(
                    self.graph,
                    bstate,
                    [(tree, (sink,))],
                    occupied=self.blocked,
                    allows=[self.endpoint_ok],
                    name_blocked=self.name_blocked,
                    fault_node=self.fault_node,
                    fault_edge=self.fault_edge,
                    congestion=(counts, self.history, pf),
                    max_nodes=self.max_nodes,
                    stats=stats,
                    deadline=self.deadline,
                )
            )
            if search_timed_out:
                raise errors.DeadlineExceededError(
                    f"pathfinder net {idx}: deadline expired at sink {sink}",
                    search_stats=stats,
                )
            if exceeded:
                raise errors.UnroutableError(
                    f"pathfinder net {idx}: node budget exhausted",
                    search_stats=stats,
                )
            if goal < 0:
                raise errors.UnroutableError(
                    f"pathfinder net {idx}: sink {sink} unreachable",
                    search_stats=stats,
                )
            path = extract_plan_lane(self.graph, bstate, 0, goal)
            plan.extend(path)
            for row, col, _from_name, to_name in path:
                canon = canonicalize(row, col, to_name)
                assert canon is not None
                tree.add(canon)
        return plan, tree - {net.source}

    def route_group(
        self,
        group: Sequence[int],
        nets,
        old_wires,
        counts: np.ndarray,
        bstate: BatchSearchState,
        pf: float,
        stats: SearchStats,
    ) -> dict[int, tuple[list[PlanPip], set[int]]]:
        """Route one partition against a present-use column.

        ``counts`` is a private copy of the iteration-start present-use
        column (plus any subtree overlay), which this call updates as
        it goes; ``old_wires`` maps each net index to the wires it used
        in the previous iteration.  Nets are processed in ascending
        index order: within a group, later nets see earlier group-mates'
        fresh wires — exactly the serial semantics when the group is the
        whole net list.
        """
        out: dict[int, tuple[list[PlanPip], set[int]]] = {}
        for idx in group:
            for w in old_wires[idx]:
                counts[w] -= 1
            plan, wires = self.route_net(idx, nets[idx], counts, bstate, pf, stats)
            out[idx] = (plan, wires)
            for w in wires:
                counts[w] += 1
        return out


def _fault_masks(graph, faults) -> tuple:
    """``(fault_node, fault_edge)`` wavefront masks of a fault model, or
    Nones."""
    if faults is None:
        return None, None
    return faults.unusable, graph.fault_edge_mask(faults).mask


def _call_block(graph, device: Device, use_count, history) -> SharedColumns:
    """One call's shared-memory block: the iteration-start congestion
    columns, the blocked bitmap and the parent's own fault masks."""
    cols = {
        "use_count": use_count,
        "history": history,
        "blocked": device.state.occupied,
    }
    fault_node, fault_edge = _fault_masks(graph, device.faults)
    if fault_node is not None:
        cols["fault_node"] = fault_node
        cols["fault_edge"] = np.frombuffer(fault_edge, dtype=np.uint8)
    return SharedColumns("pf", cols)


# -- process workers ----------------------------------------------------------
#
# A worker process holds the attached shared-memory graph, the (cached)
# architecture and one one-lane BatchSearchState in module globals, and
# nothing else: every task maps its call's block and unmaps it before
# returning, so it does not matter which worker executes which
# partition node.

_W_GRAPH = None
_W_ARCH = None
_W_STATE = None


def _process_worker_init(meta: dict, part: str) -> None:
    """Pool initializer: attach the shared graph, preallocate state."""
    global _W_GRAPH, _W_ARCH, _W_STATE
    _W_GRAPH = attach_shared_graph(meta)
    _W_ARCH = VirtexArch(part)
    _W_STATE = BatchSearchState(_W_GRAPH.n_nodes, 1)


def _process_node_task(block_meta: dict, *task) -> tuple:
    """Route one partition node inside a worker process.

    Maps the call's block, routes ``task`` against it
    (:func:`_route_node`) and unmaps it.  Returns ``("ok", {idx: (plan,
    wires)}, stats_dict)`` or an error marker ``("unroutable" |
    "deadline", message, stats_dict)`` — the parent re-raises the
    matching exception with the identical message, the one the serial
    loop raises for the same net.
    """
    shm, cols = attach_columns(block_meta)
    try:
        return _route_node(cols, *task)
    except BaseException as exc:
        # the traceback's frames still hold views of the block: clear
        # them, so close() can unmap it and the error surfaces as itself
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        cols.clear()
        shm.close()


def _route_node(
    cols: Mapping[str, np.ndarray],
    group: Sequence[int],
    group_nets: Mapping[int, tuple[int, tuple[int, ...]]],
    old_wires: Mapping[int, tuple[int, ...]],
    overlay: Sequence[tuple[int, int]],
    endpoint_ok: set[int],
    name_blocked: bytes | None,
    max_nodes: int,
    pf: float,
    deadline_ms: float | None,
) -> tuple:
    """Route one partition node against a mapped block's columns."""
    counts = cols["use_count"].copy()
    for w, d in overlay:
        counts[w] += d
    router = _NetRouter(
        _W_GRAPH,
        _W_ARCH,
        cols["blocked"],
        endpoint_ok,
        name_blocked,
        cols["history"],
        max_nodes,
        Deadline.after_ms(deadline_ms),
        cols.get("fault_node"),
        cols.get("fault_edge"),
    )
    nets = {i: NetSpec.of(s, sk) for i, (s, sk) in group_nets.items()}
    stats = SearchStats()
    try:
        out = router.route_group(group, nets, old_wires, counts, _W_STATE, pf, stats)
    except errors.DeadlineExceededError as e:
        return ("deadline", e.message, stats.as_dict())
    except errors.UnroutableError as e:
        return ("unroutable", e.message, stats.as_dict())
    return (
        "ok",
        {idx: (plan, tuple(wires)) for idx, (plan, wires) in out.items()},
        stats.as_dict(),
    )


#: Cached worker pools, keyed by (part name, worker count).  Reused
#: across routing calls so steady-state requests pay no fork/attach
#: cost; shut down at interpreter exit.
_POOLS: dict[tuple[str, int], ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _process_pool(arch: VirtexArch, workers: int) -> ProcessPoolExecutor:
    key = (arch.part.name, workers)
    pool = _POOLS.get(key)
    if pool is None:
        export = shared_graph_export(arch)  # before the lock: it locks too
        with _POOLS_LOCK:
            pool = _POOLS.get(key)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_process_worker_init,
                    initargs=(export.meta, arch.part.name),
                )
                _POOLS[key] = pool
    return pool


def _drop_pool(arch: VirtexArch, workers: int, pool: ProcessPoolExecutor) -> None:
    """Uncache a broken ``pool`` so the next call starts a fresh one."""
    key = (arch.part.name, workers)
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]
    pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def shutdown_process_pools() -> None:
    """Shut down every cached PathFinder worker pool (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def route_pathfinder(
    device: Device,
    nets: Sequence[NetSpec],
    *,
    use_longs: bool = True,
    max_iterations: int = 30,
    present_factor_init: float = 0.5,
    present_factor_mult: float = 1.6,
    history_increment: float = 0.4,
    max_nodes_per_net: int = 400_000,
    apply: bool = True,
    workers: int = 1,
    deadline: Deadline | None = None,
) -> PathFinderResult:
    """Route ``nets`` with negotiated congestion, then apply to the device.

    Wires already used on the device (foreign nets) are impassable, and
    the device's faulty resources are masked out of every search, serial
    or in a worker; congestion is negotiated only among the given nets.
    Raises :class:`~repro.errors.UnroutableError` if any single net has
    no path at all, and reports ``converged=False`` when sharing remains
    after ``max_iterations`` (in which case nothing is applied).

    ``workers > 1`` routes the leaves of a recursive spatial partition
    tree concurrently per iteration on a cached process pool, with cut
    nodes following their children (see the module docstring).  For a
    fixed worker count, plans, costs, stats and failure messages are
    identical from run to run; the *effective* concurrency (tree leaves)
    is reported in :attr:`PathFinderResult.workers` and may be lower than
    requested when the workload cannot be split that finely.  ``workers=1``
    reproduces the serial algorithm exactly (plan-identical to the
    pre-kernel implementation).  A pooled call publishes its congestion
    state in one shared-memory block, unlinked when the call returns or
    raises.  A pool whose worker died is dropped from the cache: the
    call that meets it raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, and the next
    call starts a fresh pool.

    A ``deadline`` bounds the whole negotiation: when it expires the run
    is abandoned mid-iteration (mid-subtree included: unfinished
    partition nodes are simply never scheduled), nothing is applied,
    and the result comes back with ``converged=False, timed_out=True``
    (no exception escapes).  Workers receive the remaining budget at
    each iteration (an explicit ``cancel()`` is honoured at iteration
    boundaries only).

    Every sink search is a one-lane wavefront over the part's routing
    graph, which the first call in a process builds unless something
    else did (the pool path builds it for its shared-memory export).
    That is a one-off cost per process and part, measured at about
    0.15 s and +31 MB on XCV50, 0.5 s and +102 MB on XCV300 and 1.9 s
    and +482 MB on XCV1000 on a 2-CPU host; later calls pay none of it.
    The wavefront's exactness needs non-negative prices, so a negative
    ``present_factor_init``, ``present_factor_mult`` or
    ``history_increment`` raises :class:`ValueError`.
    """
    for knob, value in (
        ("present_factor_init", present_factor_init),
        ("present_factor_mult", present_factor_mult),
        ("history_increment", history_increment),
    ):
        if value < 0:
            raise ValueError(f"{knob} must be non-negative, got {value}")
    arch = device.arch
    graph = device.routing_graph()
    n_nodes = graph.n_nodes
    blocked = device.state.occupied
    endpoint_ok: set[int] = set()
    for net in nets:
        endpoint_ok.add(net.source)
        endpoint_ok.update(net.sinks)

    name_blocked = _name_block_table(use_longs, frozenset())

    history = np.zeros(n_nodes, dtype=np.float64)
    #: wire -> set of net indices using it in the current solution
    usage: dict[int, set[int]] = {}
    #: use_count[w] == len(usage[w]); flat column for the kernel cost
    use_count = np.zeros(n_nodes, dtype=np.int64)
    #: per net: wires used and plan
    net_wires: list[set[int]] = [set() for _ in nets]
    plans: list[list[PlanPip]] = [[] for _ in nets]
    present_factor = present_factor_init
    stats = SearchStats()

    n_workers = max(1, min(workers, len(nets))) if nets else 1
    tree_nodes: list[PartitionNode] | None = None
    if n_workers > 1:
        _root, tree_nodes, n_leaves = build_partition_tree(
            device, nets, n_workers
        )
        if n_leaves <= 1:
            n_workers = 1  # degenerate geometry: serial is the tree
            tree_nodes = None
        else:
            n_workers = n_leaves

    def run_tree(remaining_ms: float | None) -> dict:
        """Execute one iteration's partition tree on the worker pool.

        Leaves launch immediately; an internal node launches once both
        children finished cleanly, with an overlay replaying its
        subtree's rip-ups and fresh wires on the iteration-start state.
        Results, stats and failures are folded in deterministic preorder
        regardless of completion timing, so a fixed worker count gives
        bit-identical outcomes whichever worker ran which node.
        """
        assert tree_nodes is not None and block is not None
        parent_of: dict[int, PartitionNode] = {}
        pending: dict[int, int] = {}
        for node in tree_nodes:
            pending[node.index] = len(node.children)
            for child in node.children:
                parent_of[child.index] = node
        merged: dict[int, tuple[list[PlanPip], set[int]]] = {}
        node_stats: dict[int, SearchStats] = {}
        failures: dict[int, tuple[str, str, SearchStats]] = {}
        child_failed: set[int] = set()
        #: per completed node: net-count deltas of its whole subtree
        updates: dict[int, dict[int, int]] = {}
        futs: dict[Future, PartitionNode] = {}
        ready: list[PartitionNode] = [n for n in tree_nodes if n.is_leaf]

        def overlay_of(node: PartitionNode) -> list[tuple[int, int]]:
            ov: dict[int, int] = {}
            for child in node.children:
                for w, d in updates[child.index].items():
                    ov[w] = ov.get(w, 0) + d
            return sorted((w, d) for w, d in ov.items() if d)

        def submit(node: PartitionNode, overlay) -> Future:
            group = list(node.nets)
            args = (
                block.meta,
                group,
                {idx: (nets[idx].source, nets[idx].sinks) for idx in group},
                {idx: tuple(net_wires[idx]) for idx in group},
                overlay,
                endpoint_ok,
                name_blocked,
                max_nodes_per_net,
                present_factor,
                remaining_ms,
            )
            ipc_bytes[-1] += len(pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
            return pool.submit(_process_node_task, *args)

        def decode(fut: Future) -> tuple:
            kind, payload, stats_dict = fut.result()
            if kind == "ok":
                payload = {
                    idx: (plan, set(wires)) for idx, (plan, wires) in payload.items()
                }
            return (kind, payload, SearchStats(**stats_dict))

        def complete(node: PartitionNode, out: dict, nstats: SearchStats) -> None:
            upd: dict[int, int] = {}
            for child in node.children:
                for w, d in updates.pop(child.index).items():
                    upd[w] = upd.get(w, 0) + d
            for idx, (_plan, wires) in out.items():
                for w in net_wires[idx]:
                    upd[w] = upd.get(w, 0) - 1
                for w in wires:
                    upd[w] = upd.get(w, 0) + 1
            updates[node.index] = upd
            merged.update(out)
            node_stats[node.index] = nstats
            parent = parent_of.get(node.index)
            if parent is not None:
                pending[parent.index] -= 1
                if pending[parent.index] == 0 and parent.index not in child_failed:
                    ready.append(parent)

        try:
            while True:
                while ready:
                    node = ready.pop(0)
                    if not node.nets:
                        complete(node, {}, SearchStats())
                        continue
                    futs[submit(node, overlay_of(node))] = node
                if not futs:
                    break
                done, _ = wait(list(futs), return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=lambda f: futs[f].index):
                    node = futs.pop(fut)
                    kind, payload, nstats = decode(fut)
                    if kind == "ok":
                        complete(node, payload, nstats)
                    else:
                        failures[node.index] = (kind, payload, nstats)
                        node_stats[node.index] = nstats
                        parent = parent_of.get(node.index)
                        while parent is not None:  # no ancestor may launch
                            child_failed.add(parent.index)
                            parent = parent_of.get(parent.index)
        finally:
            # an error can leave tasks queued or running: none may
            # outlive the block the call is about to unlink
            for fut in futs:
                fut.cancel()
            wait(futs)

        for i in sorted(node_stats):
            stats.merge(node_stats[i])
        if failures:
            kind, message, fstats = failures[min(failures)]
            exc = (
                errors.DeadlineExceededError
                if kind == "deadline"
                else errors.UnroutableError
            )
            raise exc(message, search_stats=fstats)
        return merged

    converged = False
    timed_out = False
    iteration = 0
    ipc_bytes: list[int] = []
    block: SharedColumns | None = None
    if n_workers > 1:
        pool = _process_pool(arch, n_workers)
        block = _call_block(graph, device, use_count, history)
    else:
        serial = _NetRouter(
            graph,
            arch,
            blocked,
            endpoint_ok,
            name_blocked,
            history,
            max_nodes_per_net,
            deadline,
            *_fault_masks(graph, device.faults),
        )
        serial_state = device.batch_search_state(1)
    try:
        for iteration in range(1, max_iterations + 1):
            try:
                if block is None:
                    counts = use_count.copy()
                    merged = serial.route_group(
                        list(range(len(nets))),
                        nets,
                        net_wires,
                        counts,
                        serial_state,
                        present_factor,
                        stats,
                    )
                else:
                    remaining_ms = None
                    if deadline is not None:
                        # honour explicit cancel() at the iteration
                        # boundary (workers only ever see a wall-clock
                        # budget)
                        if deadline.expired():
                            raise errors.DeadlineExceededError(
                                "pathfinder abandoned: deadline expired",
                                search_stats=stats,
                            )
                        rem = deadline.remaining_ms()
                        remaining_ms = None if rem == float("inf") else rem
                    ipc_bytes.append(0)
                    try:
                        merged = run_tree(remaining_ms)
                    except BrokenProcessPool:
                        # raised by submit or by a result
                        _drop_pool(arch, n_workers, pool)
                        raise
            except errors.DeadlineExceededError:
                # abandon the whole negotiation: nothing has been applied
                # to the device yet, so the structured "partial" outcome
                # is just the honest not-converged result
                timed_out = True
                break
            # iteration barrier: fold results into the usage index
            touched: set[int] = set()
            for idx, (plan, wires) in merged.items():
                plans[idx] = plan
                old = net_wires[idx]
                touched.update(old)
                touched.update(wires)
                for w in old - wires:
                    users = usage.get(w)
                    if users is not None:
                        users.discard(idx)
                for w in wires - old:
                    usage.setdefault(w, set()).add(idx)
                net_wires[idx] = wires
            for w in touched:
                users = usage.get(w)
                c = len(users) if users else 0
                if c == 0:
                    usage.pop(w, None)
                use_count[w] = c
            shared = [w for w, users in usage.items() if len(users) > 1]
            if not shared:
                converged = True
                break
            history[shared] += history_increment
            if block is not None:  # no task is in flight at the barrier
                block.write("use_count", use_count)
                block.write("history", history)
            present_factor *= present_factor_mult
    finally:
        # the process pool is cached for reuse (shut down at exit); the
        # block is this call's alone
        if block is not None:
            block.close()
        record_global(stats)

    result = PathFinderResult(
        iterations=iteration,
        converged=converged,
        stats=stats,
        workers=n_workers,
        timed_out=timed_out,
        ipc_bytes=ipc_bytes,
    )
    if converged:
        for idx in range(len(nets)):
            result.plans[idx] = plans[idx]
        if apply:
            for idx in range(len(nets)):
                result.pips_added += apply_plan(device, plans[idx])
    return result
