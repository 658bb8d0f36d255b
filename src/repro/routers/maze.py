"""Maze routing: Dijkstra/A* search over the device wire graph.

The paper names the maze router (Lee; Sherwani [4], Brown et al. [5]) as
the fallback implementation for the auto-routing calls.  This one is a
cost-driven wavefront over *canonical wires*: nodes are wire instances,
edges are architecture-legal PIPs at any presence point of a wire, and
wires already in use by other nets are impassable.

``reuse`` makes a set of wires free starting points at zero cost — that
is how fanout routing reuses the already-routed tree of the same net
("for each sink, the router attempts to reuse the previous paths as much
as possible").

The search itself runs on the shared compiled-graph kernel
(:mod:`repro.core.kernel`): flat CSR adjacency, epoch-stamped state and
unified :class:`~repro.core.kernel.SearchStats` instrumentation.  The
pre-kernel implementation survives in the test tree as
``tests/routers/_reference.py`` (parity oracle and benchmark baseline).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Collection, Iterable, Sequence

from .. import errors
from ..arch import wires
from ..arch.wires import WireClass
from ..core.deadline import Deadline
from ..core.kernel import (
    SearchStats,
    dijkstra,
    dijkstra_batch,
    extract_plan,
    extract_plan_lane,
    record_global,
)
from ..device.fabric import Device
from .base import PlanPip

__all__ = ["route_maze", "route_maze_batch", "MazeResult", "MazeBatchResult"]

#: Wire class of every name, flat (avoids wire_info() in heuristics).
_NAME_CLASS: tuple[WireClass, ...] = tuple(
    wires.wire_info(n).wire_class for n in range(wires.N_NAMES)
)
_NAME_LENGTH: tuple[int, ...] = tuple(
    wires.wire_info(n).length for n in range(wires.N_NAMES)
)
_LONG_LO = wires.LONG_H[0]
_LONG_HI = wires.LONG_V[-1]

#: A checked request: ``(start_set, target_set, reuse_set, source_set)``.
_Request = tuple[set[int], set[int], set[int], set[int]]

class MazeResult:
    """Outcome of a maze search: the plan and the target it reached."""

    __slots__ = ("plan", "target", "cost", "stats")

    def __init__(
        self,
        plan: list[PlanPip],
        target: int,
        cost: float,
        nodes: int,
        faults_avoided: int = 0,
        stats: SearchStats | None = None,
    ):
        self.plan = plan
        self.target = target
        self.cost = cost
        if stats is None:
            stats = SearchStats(
                searches=1, nodes_expanded=nodes, faults_avoided=faults_avoided
            )
        #: unified search instrumentation (expansions, pushes, faults)
        self.stats = stats

    @property
    def nodes_expanded(self) -> int:
        return self.stats.nodes_expanded

    @property
    def faults_avoided(self) -> int:
        """Edges the search skipped because they touched a faulty resource."""
        return self.stats.faults_avoided

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"MazeResult({len(self.plan)} pips, cost={self.cost:.2f}, "
            f"expanded={self.nodes_expanded})"
        )


def _target_tiles(device: Device, targets: Collection[int]) -> list[tuple[int, int]]:
    tile_coords = device.arch.tile_coords
    return [tile_coords(t) for t in targets]


def _heuristic_rate(arch, heuristic_weight: float) -> float:
    """Per-CLB A* rate.

    Cheapest possible per-CLB rate: hexes cover 6 CLBs at their cost;
    long lines can beat that on big spans, so the bias is scaled down.
    """
    return heuristic_weight * min(arch.wire_cost(wires.HEX_E[0]) / 6.0, 1.0)


def _make_heuristic(
    graph, goal_tiles: Sequence[tuple[int, int]], rate: float
) -> Callable[[int, int, int, int], float]:
    """Build the A* distance-to-target closure for one goal set.

    Only :func:`route_maze` searches with a bias: a batch
    (:func:`route_maze_batch`) runs unbiased Dijkstra whatever weight
    its caller routes with elsewhere.
    """
    hex_n0 = wires.HEX_N[0]
    single_n0 = wires.SINGLE_N[0]
    p_row, p_col, p_name = graph.tiles()

    if len(goal_tiles) == 1:
        # dominant case (one sink pin): no min-over-goals machinery
        tr, tc = goal_tiles[0]

        def h(canon: int, to_name: int, row: int, col: int) -> float:
            # estimate from the point of the driven wire nearest the
            # goal: a hex driven toward it should look 6 tiles closer
            cls = _NAME_CLASS[to_name]
            if cls is WireClass.SINGLE or cls is WireClass.HEX:
                r0 = p_row[canon]
                c0 = p_col[canon]
                length = _NAME_LENGTH[to_name]
                a = abs(r0 - tr) + abs(c0 - tc)
                if p_name[canon] >= (
                    hex_n0 if cls is WireClass.HEX else single_n0
                ):
                    b = abs(r0 + length - tr) + abs(c0 - tc)
                else:
                    b = abs(r0 - tr) + abs(c0 + length - tc)
                return rate * (a if a < b else b)
            if cls is WireClass.LONG_H:
                return rate * abs(p_row[canon] - tr)
            if cls is WireClass.LONG_V:
                return rate * abs(p_col[canon] - tc)
            return rate * (abs(row - tr) + abs(col - tc))

    else:

        def h(canon: int, to_name: int, row: int, col: int) -> float:
            # estimate from the point of the driven wire nearest a goal:
            # a hex driven toward the goal should look 6 tiles closer
            cls = _NAME_CLASS[to_name]
            if cls is WireClass.SINGLE or cls is WireClass.HEX:
                r0 = p_row[canon]
                c0 = p_col[canon]
                length = _NAME_LENGTH[to_name]
                vertical = p_name[canon] >= (
                    hex_n0 if cls is WireClass.HEX else single_n0
                )
                if vertical:
                    ends = ((r0, c0), (r0 + length, c0))  # north-going
                else:
                    ends = ((r0, c0), (r0, c0 + length))  # east-going
                return rate * min(
                    abs(er - tr) + abs(ec - tc)
                    for er, ec in ends
                    for tr, tc in goal_tiles
                )
            if cls is WireClass.LONG_H:
                r0 = p_row[canon]
                return rate * min(abs(r0 - tr) for tr, _ in goal_tiles)
            if cls is WireClass.LONG_V:
                c0 = p_col[canon]
                return rate * min(abs(c0 - tc) for _, tc in goal_tiles)
            return rate * min(
                abs(row - tr) + abs(col - tc) for tr, tc in goal_tiles
            )

    return h


@lru_cache(maxsize=32)
def _name_block_table(
    use_longs: bool, avoid: frozenset[WireClass]
) -> bytes | None:
    """Per-name skip mask for ``use_longs``/``avoid_classes`` filtering."""
    if use_longs and not avoid:
        return None
    return bytes(
        1
        if ((not use_longs and _LONG_LO <= n <= _LONG_HI)
            or _NAME_CLASS[n] in avoid)
        else 0
        for n in range(wires.N_NAMES)
    )


def _faulty_endpoint(
    arch, fault_mask, start_set: set[int], target_set: set[int]
) -> errors.UnroutableError | None:
    """The error for a request its fault map rules out, else None.

    A faulty (dead or pre-driven) target can never be reached, and a
    faulty start wire cannot launch the signal, so a request whose
    every start wire is faulty has no path either.  Checked before any
    search — templates included — so every path of a request reports
    the same error.
    """
    if fault_mask is None:
        return None
    faulty = next((t for t in target_set if fault_mask[t]), None)
    role = "target"
    if faulty is None:
        if not all(fault_mask[s] for s in start_set):
            return None
        faulty = min(start_set)
        role = "source"
    r, c, n = arch.primary_name(faulty)
    return errors.UnroutableError(
        f"{role} wire is a faulty fabric resource",
        row=r,
        col=c,
        wire=wires.wire_name(n),
    )


def _check_request(
    arch, fault_mask, sources: Iterable[int], targets: Iterable[int],
    reuse: Iterable[int],
) -> "_Request | MazeResult | errors.UnroutableError":
    """Validate one maze request before any search.

    Returns ``(start_set, target_set, reuse_set, source_set)`` for a
    request that needs a search.  Otherwise returns what the request
    comes to without one: the :class:`~repro.errors.UnroutableError`
    for no targets, no sources, a faulty target or only faulty start
    wires, or a zero-cost :class:`MazeResult` when a start wire already
    is a target.
    """
    target_set = set(targets)
    if not target_set:
        return errors.UnroutableError("no targets given")
    reuse_set = set(reuse)
    source_set = set(sources)
    start_set = source_set | reuse_set
    if not start_set:
        return errors.UnroutableError("no sources given")
    faulty = _faulty_endpoint(arch, fault_mask, start_set, target_set)
    if faulty is not None:
        return faulty
    hit = target_set & start_set
    if hit:
        return MazeResult([], hit.pop(), 0.0, 0)
    return start_set, target_set, reuse_set, source_set


def _outcome(
    arch,
    found: tuple,
    request: _Request,
    use_longs: bool,
    max_nodes: int,
) -> "MazeResult | errors.JRouteError":
    """The :class:`MazeResult`, or the error, one finished search yields."""
    goal, goal_cost, expanded, pushes, fav, exceeded, timed_out, plan = found
    _start_set, target_set, _reuse_set, source_set = request
    stats = SearchStats(1, expanded, pushes, fav)
    net = min(source_set) if source_set else None
    if timed_out:
        tr, tc, tn = arch.primary_name(next(iter(target_set)))
        return errors.DeadlineExceededError(
            "maze search abandoned: deadline expired",
            row=tr,
            col=tc,
            wire=wires.wire_name(tn),
            net=net,
            faults_avoided=fav,
            search_stats=stats,
        )
    if exceeded:
        return errors.UnroutableError(
            f"maze search exceeded {max_nodes} node expansions",
            net=net,
            faults_avoided=fav,
            search_stats=stats,
        )
    if goal < 0:
        tr, tc, tn = arch.primary_name(next(iter(target_set)))
        return errors.UnroutableError(
            "no free path from sources to targets"
            + ("" if use_longs else " (long lines disabled)"),
            row=tr,
            col=tc,
            wire=wires.wire_name(tn),
            net=net,
            faults_avoided=fav,
            search_stats=stats,
        )
    return MazeResult(plan, goal, goal_cost, expanded, fav, stats)


def route_maze(
    device: Device,
    sources: Iterable[int],
    targets: Collection[int],
    *,
    reuse: Collection[int] = (),
    use_longs: bool = True,
    avoid_classes: Collection[WireClass] = (),
    heuristic_weight: float = 0.0,
    max_nodes: int = 200_000,
    deadline: Deadline | None = None,
) -> MazeResult:
    """Find a cheapest free path from any source wire to any target wire.

    Parameters
    ----------
    sources:
        Canonical wire ids the signal is already on (the net source, or
        the whole routed tree when extending a net).
    targets:
        Canonical wire ids to reach (typically one sink pin; several when
        any of a port's pins would do).
    reuse:
        Additional zero-cost start wires (same-net resources).
    use_longs:
        When False, long lines are not considered — the state of the
        paper's initial fanout implementation ("currently long lines are
        not supported"); True enables them (the paper's future work).
    avoid_classes:
        Additional wire classes the search must not use (e.g. hexes, to
        deliberately slow a branch for skew equalisation).
    heuristic_weight:
        0 gives plain Dijkstra; > 0 adds an A* distance-to-target bias
        (per-CLB rate of the cheapest wire class, scaled by the weight;
        weights <= 1 keep the bias conservative).
    max_nodes:
        Expansion budget before giving up with
        :class:`~repro.errors.UnroutableError`.
    deadline:
        Optional cooperative :class:`~repro.core.deadline.Deadline`; a
        search that runs past it raises
        :class:`~repro.errors.DeadlineExceededError`.

    Returns a :class:`MazeResult` whose plan drives wires in source-to-
    sink order.  Raises :class:`~repro.errors.UnroutableError` when no
    free path exists.
    """
    arch = device.arch
    faults = device.faults
    fault_mask = faults.unusable if faults is not None else None
    request = _check_request(arch, fault_mask, sources, targets, reuse)
    if isinstance(request, errors.JRouteError):
        raise request
    if isinstance(request, MazeResult):
        return request

    graph = device.routing_graph()
    start_set, target_set, reuse_set, _source_set = request
    h = (
        _make_heuristic(
            graph,
            _target_tiles(device, target_set),
            _heuristic_rate(arch, heuristic_weight),
        )
        if heuristic_weight > 0.0
        else None
    )
    state = device.search_state()
    stats = SearchStats()
    found = dijkstra(
        graph,
        state,
        start_set,
        target_set,
        allow=reuse_set,
        occupied=device.state.occupied,
        name_blocked=_name_block_table(use_longs, frozenset(avoid_classes)),
        h=h,
        fault_node=fault_mask,
        fault_edge=graph.fault_edge_mask(faults).mask if faults is not None else None,
        max_nodes=max_nodes,
        stats=stats,
        deadline=deadline,
    )
    plan = extract_plan(graph, state, found[0]) if found[0] >= 0 else []
    # publish before the outcome branches: failed searches count too
    record_global(stats)
    result = _outcome(arch, (*found, plan), request, use_longs, max_nodes)
    if isinstance(result, errors.JRouteError):
        raise result
    return result


# -- batched maze routing ------------------------------------------------------


class MazeBatchResult:
    """Per-request outcomes of one batched maze run.

    :attr:`results` holds one entry per request, **in request order**:
    a :class:`MazeResult` on success or the same
    :class:`~repro.errors.JRouteError` instance :func:`route_maze` would
    have raised for that request (unroutable, faulty target, deadline —
    a failure mid-batch never hides the remaining results).
    :attr:`stats` is the merged instrumentation of the whole batch,
    published to the global accumulator exactly once.
    """

    __slots__ = ("results", "stats")

    def __init__(
        self,
        results: "list[MazeResult | errors.JRouteError]",
        stats: SearchStats,
    ) -> None:
        self.results = results
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i: int):
        return self.results[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        ok = sum(1 for r in self.results if isinstance(r, MazeResult))
        return f"MazeBatchResult({ok}/{len(self.results)} routed)"


def route_maze_batch(
    device: Device,
    requests: Sequence[tuple],
    *,
    use_longs: bool = True,
    avoid_classes: Collection[WireClass] = (),
    max_nodes: int = 200_000,
    deadline: Deadline | None = None,
) -> MazeBatchResult:
    """Route ``K`` independent maze requests as one batch.

    Each request is ``(sources, targets)`` or ``(sources, targets,
    reuse)`` with :func:`route_maze` semantics; the keyword knobs apply
    to every request.  All searches run against the device state as of
    the call — requests do not see each other's (unapplied) plans.

    Every batch runs lockstepped as one
    :func:`~repro.core.kernel.dijkstra_batch` wavefront of plain
    Dijkstra searches, in the calling thread.  The batch looks up the
    fault-edge mask and publishes its stats once.  A graph without a
    positive minimum edge cost cannot be searched this way and raises
    :class:`ValueError`.

    Results are **bit-identical** to calling :func:`route_maze` (at its
    default ``heuristic_weight=0``) once per request: per-request plans,
    costs and stats match exactly, failures are returned in place (as
    the exception instances the scalar call would raise) without
    aborting the rest of the batch, and the merged batch stats are
    published to the global accumulator via a single ``record_global``
    call.  The fault-edge mask, cached per fault-model version, is
    looked up once per batch.  A plan is a cheapest path, so it never
    costs more than the plan an A*-weighted :func:`route_maze` finds
    for the same request.
    """
    arch = device.arch
    faults = device.faults
    fault_mask = faults.unusable if faults is not None else None
    results: list = [
        _check_request(
            arch, fault_mask, req[0], req[1], req[2] if len(req) > 2 else ()
        )
        for req in requests
    ]
    live = [i for i, r in enumerate(results) if isinstance(r, tuple)]
    lane_req = [results[i] for i in live]

    stats = SearchStats()
    if not live:
        return MazeBatchResult(results, stats)

    graph = device.routing_graph()
    femask = graph.fault_edge_mask(faults).mask if faults is not None else None
    bstate = device.batch_search_state(len(lane_req))
    res = dijkstra_batch(
        graph,
        bstate,
        [(sr[0], sr[1]) for sr in lane_req],
        occupied=device.state.occupied,
        allows=[sr[2] for sr in lane_req],
        name_blocked=_name_block_table(use_longs, frozenset(avoid_classes)),
        fault_node=fault_mask,
        fault_edge=femask,
        max_nodes=max_nodes,
        stats=stats,
        deadline=deadline,
    )
    # single lock-guarded publication for the whole batch (failures too)
    record_global(stats)

    for lane, i in enumerate(live):
        r = res[lane]
        plan = extract_plan_lane(graph, bstate, lane, r[0]) if r[0] >= 0 else []
        results[i] = _outcome(arch, (*r, plan), lane_req[lane], use_longs, max_nodes)
    return MazeBatchResult(results, stats)
