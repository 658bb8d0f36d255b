"""Auto point-to-point routing: predefined templates, then maze fallback.

This is the paper's suggested implementation of
``route(EndPoint source, EndPoint sink)``: try a set of predefined
templates reducing the search space; fall back on a maze algorithm when
they all fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .. import errors
from ..arch import wires
from ..arch.wires import WireClass
from ..core.deadline import Deadline
from ..core.kernel import SearchStats
from ..core.template import Template
from ..device.fabric import Device
from .base import PlanPip
from .maze import _faulty_endpoint, route_maze, route_maze_batch
from .template_router import route_template
from .template_sets import predefined_templates

__all__ = ["route_point_to_point", "route_point_to_point_batch", "P2PResult"]


@dataclass(slots=True)
class P2PResult:
    """Outcome of a point-to-point route."""

    plan: list[PlanPip]
    method: str               #: "template" or "maze"
    templates_tried: int      #: how many predefined templates were attempted
    template_used: object | None = None  #: set when method == "template"
    #: kernel instrumentation of the maze search (None on template hits)
    stats: SearchStats | None = None

    @property
    def faults_avoided(self) -> int:
        """Faulty edges the maze search routed around (0 on template hits)."""
        return self.stats.faults_avoided if self.stats is not None else 0


def route_point_to_point(
    device: Device,
    source: int,
    sink: int,
    *,
    reuse: tuple[int, ...] = (),
    try_templates: bool = True,
    use_longs: bool = True,
    template_budget: int = 4_000,
    heuristic_weight: float = 0.0,
    max_nodes: int = 200_000,
    deadline: Deadline | None = None,
) -> P2PResult:
    """Plan a route from wire ``source`` to wire ``sink``.

    Templates are only attempted for the common CLB-output to CLB-input
    case with no tree reuse; everything else (odd endpoint classes, net
    extension) goes straight to the maze router.  A ``deadline`` is
    checked between template attempts and bounds the maze fallback.
    A sink in use, a faulty sink, or a faulty source (with no reuse
    wire to start from) fails before any template is tried.
    """
    refused = _refused(device, {source, *reuse}, sink)
    if refused is not None:
        raise refused
    templates_tried = 0
    if try_templates and not reuse:
        hit, templates_tried = _template_phase(
            device, source, sink, template_budget, deadline
        )
        if hit is not None:
            return hit
    result = route_maze(
        device,
        [source],
        {sink},
        reuse=reuse,
        use_longs=use_longs,
        heuristic_weight=heuristic_weight,
        max_nodes=max_nodes,
        deadline=deadline,
    )
    return P2PResult(result.plan, "maze", templates_tried, stats=result.stats)


def _refused(
    device: Device, starts: set[int], sink: int
) -> errors.JRouteError | None:
    """The error a point-to-point request fails with before any search:
    its ``sink`` is already in use, or a fault rules it out (see
    :func:`~repro.routers.maze._faulty_endpoint`).  None otherwise."""
    if device.state.occupied[sink]:
        tr, tc, tn = device.arch.primary_name(sink)
        return errors.ContentionError(
            "sink wire is already in use; unroute it first",
            row=tr,
            col=tc,
            wire=wires.wire_name(tn),
            net=device.state.root_of(sink),
        )
    faults = device.faults
    if faults is None:
        return None
    return _faulty_endpoint(device.arch, faults.unusable, starts, {sink})


@functools.lru_cache(maxsize=4096)
def _candidate_templates(drow: int, dcol: int) -> tuple[Template, ...]:
    """The predefined templates of one displacement, built once (building
    the set costs about as much as a template attempt)."""
    return tuple(predefined_templates(drow, dcol))


def _template_phase(
    device: Device,
    source: int,
    sink: int,
    template_budget: int,
    deadline: Deadline | None,
) -> tuple[P2PResult | None, int]:
    """Attempt the predefined templates for one source/sink pair.

    Returns ``(result, templates_tried)`` where ``result`` is a
    template-method :class:`P2PResult` on a hit and ``None`` when the
    pair either does not qualify (non-CLB endpoint classes) or every
    candidate template failed.
    """
    arch = device.arch
    src_cls = arch.wire_class_of(source)
    sink_cls = arch.wire_class_of(sink)
    if src_cls is not WireClass.SLICE_OUT or sink_cls not in (
        WireClass.SLICE_IN,
        WireClass.CTL_IN,
    ):
        return None, 0
    sr, sc, _ = arch.primary_name(source)
    tr, tc, _ = arch.primary_name(sink)
    templates_tried = 0
    for tmpl in _candidate_templates(tr - sr, tc - sc):
        if deadline is not None:
            deadline.check("template attempt")
        templates_tried += 1
        try:
            plan = route_template(
                device,
                source,
                tmpl.values,
                end_canon=sink,
                max_nodes=template_budget,
            )
        except errors.UnroutableError:
            continue
        return P2PResult(plan, "template", templates_tried, tmpl), templates_tried
    return None, templates_tried


def route_point_to_point_batch(
    device: Device,
    pairs: "list[tuple[int, int]]",
    *,
    try_templates: bool = True,
    use_longs: bool = True,
    template_budget: int = 4_000,
    max_nodes: int = 200_000,
    deadline: Deadline | None = None,
) -> "list[P2PResult | errors.JRouteError]":
    """Plan ``K`` independent point-to-point routes as one batch.

    ``pairs`` is a sequence of ``(source, sink)`` wire pairs.  Each pair
    goes through the same two phases as :func:`route_point_to_point`:
    the (cheap, scalar) predefined-template attempts first, then every
    template miss rides a single :func:`route_maze_batch` call — one
    plain-Dijkstra wavefront that pays the fault-mask lookup and the
    global-stats publication once for the whole fallback set.

    Returns one entry per pair **in request order**: a
    :class:`P2PResult` on success, or the :class:`~repro.errors.JRouteError`
    instance the scalar call would have raised (a failure never hides
    the remaining results).  Plans, costs and kernel stats are
    bit-identical to ``K`` sequential :func:`route_point_to_point`
    calls at its default ``heuristic_weight=0`` against the same device
    state.
    """
    k = len(pairs)
    out: "list[P2PResult | errors.JRouteError | None]" = [None] * k
    tried: list[int] = [0] * k
    maze_lanes: list[int] = []
    maze_reqs: list[tuple[list[int], set[int]]] = []
    for i, (source, sink) in enumerate(pairs):
        out[i] = _refused(device, {source}, sink)
        if out[i] is not None:
            continue
        if try_templates:
            try:
                hit, tried[i] = _template_phase(
                    device, source, sink, template_budget, deadline
                )
            except errors.DeadlineExceededError as exc:
                out[i] = exc
                continue
            if hit is not None:
                out[i] = hit
                continue
        maze_lanes.append(i)
        maze_reqs.append(([source], {sink}))
    if maze_lanes:
        batch = route_maze_batch(
            device,
            maze_reqs,
            use_longs=use_longs,
            max_nodes=max_nodes,
            deadline=deadline,
        )
        for lane, res in zip(maze_lanes, batch.results):
            if isinstance(res, errors.JRouteError):
                out[lane] = res
            else:
                out[lane] = P2PResult(res.plan, "maze", tried[lane], stats=res.stats)
    return out
