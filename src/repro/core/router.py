"""The JRoute API: run-time routing at various levels of control.

:class:`JRouter` reproduces the paper's router object.  One ``route``
method dispatches across the six call forms of Section 3.1:

====  ========================================================  =============
lvl   call                                                      paper section
====  ========================================================  =============
1     ``route(row, col, from_wire, to_wire)``                   single PIP
2     ``route(path)``                                           user path
3     ``route(pin, end_wire, template)``                        template
4     ``route(source_ep, sink_ep)``                             auto, 1-to-1
5     ``route(source_ep, [sink_ep, ...])``                      auto, fanout
6     ``route([source_ep, ...], [sink_ep, ...])``               bus
====  ========================================================  =============

plus the unrouter (``unroute`` / ``reverse_unroute``), the debug tracer
(``trace`` / ``reverse_trace``), the contention query ``is_on``, global
clock distribution, and the port machinery used by run-time
parameterizable cores (registration, remembered connections, automatic
reconnection after core replacement).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .. import errors
from ..arch import wires
from ..device.fabric import Device
from ..device.state import PipRecord
from ..jbits.jbits import JBits
from ..routers.auto import (
    P2PResult,
    route_point_to_point,
    route_point_to_point_batch,
)
from ..routers.base import PlanPip, apply_plan
from ..routers.maze import route_maze
from ..routers.pathfinder import NetSpec, PathFinderResult, route_pathfinder
from ..routers.template_router import route_template
from .deadline import Deadline
from .endpoints import EndPoint, Pin, Port, PortDirection
from .kernel import SearchStats
from .netdb import NetDB
from .path import Path
from .recovery import CircuitBreaker, RetryPolicy, RoutingReport, select_victim
from .template import Template
from .tracer import NetTrace, reverse_trace_net, trace_net
from .txn import RouteTransaction
from .unroute import unroute_forward, unroute_reverse

__all__ = ["JRouter", "P2PRouteOutcome"]


@dataclass(slots=True)
class P2PRouteOutcome:
    """Per-pair outcome of one :meth:`JRouter.route_p2p_batch` call.

    Outcomes come back **in request order**; a failed pair never hides
    the rest of the batch.  ``rerouted`` marks pairs whose batch-planned
    path conflicted with an earlier pair's applied plan and were re-run
    against the updated device state.
    """

    index: int
    source: object            #: the request's source endpoint
    sink: object              #: the request's sink endpoint
    success: bool
    pips_added: int = 0
    method: str | None = None  #: "template" or "maze" (None when no search ran)
    rerouted: bool = False
    error: errors.JRouteError | None = None


class JRouter:
    """Run-time router for one simulated Virtex device.

    Parameters
    ----------
    device:
        The device to route; created from ``part`` when omitted.
    part:
        Virtex part name used when no device is given.
    attach_jbits:
        Mirror all configuration into a JBits bitstream (default True,
        preserving the paper's JRoute-on-JBits layering).  Access it as
        :attr:`jbits`.
    fanout_use_longs:
        Whether level 5's maze searches may use long lines while more
        than one of the call's sinks needs routing.  It does not govern
        every sink: a fresh net's first sink takes level 4's
        template-then-maze path under ``p2p_use_longs``, and so may use
        a long line, as does the search of a call with a single sink
        left to route.  Defaults to False, the state of the paper's
        initial implementation ("currently long lines are not supported;
        only hexes and singles are used"); set True for the paper's
        future-work behaviour.
    p2p_use_longs:
        Whether point-to-point maze fallback may use long lines.
    try_templates:
        Use the predefined-template fast path for point-to-point routes
        before falling back to the maze router.
    heuristic_weight:
        A* bias for scalar maze searches (0 = plain Dijkstra; the 0.8
        default cuts node expansions by ~10x at equal plan cost on this
        fabric).  It governs levels 4–6 only: :meth:`route_p2p_batch`
        always runs plain Dijkstra, its re-routes included.
    faults:
        Optional :class:`~repro.device.faults.FaultModel` attached to the
        device; fault-aware searches mask defective resources out.
    retry:
        Optional :class:`~repro.core.recovery.RetryPolicy` bounding the
        rip-up/retry loop every auto-routing request (levels 4, 5 and 6)
        runs; without one the loop makes a single attempt.  Each
        request's outcome is surfaced as :attr:`last_report`.
    workers:
        Default concurrency for :meth:`route_nets` bulk requests (the
        negotiated-congestion router's per-iteration net loop is
        partitioned spatially across this many worker processes, which
        attach a shared-memory export of the routing graph).
    backend:
        Only ``"process"`` is accepted (``workers > 1`` always means
        worker processes); any other value raises :class:`ValueError`.
    deadline_ms:
        Optional per-request wall-clock budget for the auto-routing
        levels (4, 5 and 6) and :meth:`route_nets`.  A request past its
        budget is abandoned cooperatively: state is rolled back, the
        call returns 0 and :attr:`last_report` comes back *partial*
        (``timed_out=True``) — no exception escapes.
    breaker:
        Optional :class:`~repro.core.recovery.CircuitBreaker` refusing
        nets that repeatedly trip their deadline.  When ``deadline_ms``
        is set and no breaker is given, a default one is created.
    """

    def __init__(
        self,
        device: Device | None = None,
        *,
        part: str = "XCV50",
        attach_jbits: bool = True,
        fanout_use_longs: bool = False,
        p2p_use_longs: bool = True,
        try_templates: bool = True,
        heuristic_weight: float = 0.8,
        max_nodes: int = 200_000,
        faults=None,
        retry: RetryPolicy | None = None,
        workers: int = 1,
        backend: str = "process",
        deadline_ms: float | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if backend != "process":
            raise ValueError(
                f"unknown backend {backend!r}; only 'process' is accepted"
            )
        self.device = device if device is not None else Device(part)
        if faults is not None:
            self.device.set_fault_model(faults)
        self.jbits: JBits | None = JBits(self.device) if attach_jbits else None
        self.netdb = NetDB()
        self.fanout_use_longs = fanout_use_longs
        self.p2p_use_longs = p2p_use_longs
        self.try_templates = try_templates
        self.heuristic_weight = heuristic_weight
        self.max_nodes = max_nodes
        self.retry = retry
        self.workers = workers
        self.deadline_ms = deadline_ms
        if breaker is None and deadline_ms is not None:
            breaker = CircuitBreaker()
        self.breaker = breaker
        #: RoutingReport of the latest level-4/5/6, route_p2p_batch or
        #: route_nets request (None before any)
        self.last_report: RoutingReport | None = None
        #: user-facing route() invocations (Section 4 comparison metric)
        self.call_count = 0
        #: counters for the template-vs-maze statistics (experiment E9)
        self.p2p_template_hits = 0
        self.p2p_maze_fallbacks = 0
        # the current request's report.search_stats, where _route_net
        # accumulates (reconnect() and recover() route outside a request)
        self._search_stats = SearchStats()

    # ------------------------------------------------------------------ dispatch

    def route(self, *args) -> int:
        """Route at any of the six levels of control; returns PIPs added."""
        self.call_count += 1
        if len(args) == 4 and all(isinstance(a, int) for a in args):
            row, col, from_wire, to_wire = args
            self.device.turn_on(row, col, from_wire, to_wire)
            return 1
        if len(args) == 1 and isinstance(args[0], Path):
            return self._route_path(args[0])
        if (
            len(args) == 3
            and isinstance(args[0], Pin)
            and isinstance(args[1], int)
            and isinstance(args[2], Template)
        ):
            return self._route_template(args[0], args[1], args[2])
        if len(args) == 2:
            a, b = args
            if isinstance(a, EndPoint) and isinstance(b, EndPoint):
                return self._route_net_request(a, [b])
            if isinstance(a, EndPoint) and _is_endpoint_seq(b):
                return self._route_net_request(a, list(b))
            if _is_endpoint_seq(a) and _is_endpoint_seq(b):
                return self._route_bus_request(list(a), list(b))
        raise TypeError(
            "route() accepts (row, col, from, to) | (Path) | "
            "(Pin, end_wire, Template) | (EndPoint, EndPoint) | "
            "(EndPoint, [EndPoint]) | ([EndPoint], [EndPoint])"
        )

    # ------------------------------------------------------------- level 2 and 3

    def _route_path(self, path: Path) -> int:
        plan = path.resolve(self.device)
        return apply_plan(self.device, plan)

    def _route_template(self, pin: Pin, end_wire: int, template: Template) -> int:
        start = self.device.resolve(pin.row, pin.col, pin.wire)
        plan = route_template(
            self.device, start, template.values, end_wire=end_wire
        )
        return apply_plan(self.device, plan)

    # ------------------------------------------------------- endpoint resolution

    def source_pin_of(self, ep: EndPoint) -> Pin:
        """Resolve an endpoint used as a route source to its physical pin."""
        if isinstance(ep, Pin):
            return ep
        if isinstance(ep, Port):
            if ep.direction is not PortDirection.OUT:
                raise errors.PortError(
                    f"{ep} is an input port and cannot source a route"
                )
            return ep.resolve_pins()[0]
        raise errors.PortError(f"not an endpoint: {ep!r}")

    def sink_pins_of(self, ep: EndPoint) -> list[Pin]:
        """Resolve an endpoint used as a route sink to its physical pins."""
        if isinstance(ep, Pin):
            return [ep]
        if isinstance(ep, Port):
            if ep.direction is not PortDirection.IN:
                raise errors.PortError(
                    f"{ep} is an output port and cannot sink a route"
                )
            return ep.resolve_pins()
        raise errors.PortError(f"not an endpoint: {ep!r}")

    def _source_canon(self, ep: EndPoint) -> int:
        pin = self.source_pin_of(ep)
        return self.device.resolve(pin.row, pin.col, pin.wire)

    def _sink_canons(self, ep: EndPoint) -> list[int]:
        return [
            self.device.resolve(p.row, p.col, p.wire) for p in self.sink_pins_of(ep)
        ]

    # ------------------------------------------- request protection and recovery

    def _request_tiles(self, eps: Sequence[EndPoint]) -> list[tuple[int, int]]:
        """CLB tiles touched by a request's endpoints (victim-search bbox)."""
        tiles: list[tuple[int, int]] = []
        for ep in eps:
            if isinstance(ep, Pin):
                tiles.append((ep.row, ep.col))
            elif isinstance(ep, Port):
                tiles.extend((p.row, p.col) for p in ep.resolve_pins())
        return tiles

    def _new_report(self, attempts: int) -> RoutingReport:
        """Start a request's report; its searches accumulate into it."""
        report = self.last_report = RoutingReport(attempts=attempts)
        self._search_stats = report.search_stats
        return report

    def _route_net_request(
        self, source_ep: EndPoint, sink_eps: list[EndPoint]
    ) -> int:
        """Level 4/5 entry: a deadline trip charges the source's breaker."""
        return self._request(
            partial(self._route_net, source_ep, sink_eps), [source_ep], sink_eps,
            atomic=len(sink_eps) > 1, charged=True,
        )

    def _route_bus_request(
        self, source_eps: list[EndPoint], sink_eps: list[EndPoint]
    ) -> int:
        """Level 6 entry: always atomic; no one net's breaker is charged."""
        return self._request(
            partial(self._route_bus, source_eps, sink_eps), source_eps, sink_eps,
            atomic=True, charged=False,
        )

    def _request(
        self,
        attempt: Callable[..., list[PlanPip]],
        source_eps: Sequence[EndPoint],
        sink_eps: Sequence[EndPoint],
        *,
        atomic: bool,
        charged: bool,
    ) -> int:
        """Run one level-4/5/6 request: the bounded rip-up/retry loop.

        ``attempt(max_nodes=, deadline=)`` routes the request once and
        returns the PIPs it applied.  Without a retry policy the loop makes
        one attempt at ``max_nodes``, with no victim and no backoff.
        Under a policy, every round after the first rips up a victim,
        routes the request with a grown budget and re-routes the victim.
        A round runs inside a :class:`RouteTransaction` when the request
        is ``atomic`` or a policy is active, so it either all succeeds or
        the device rolls back to the round's starting state.

        Every failed attempt's error is recorded in the report's
        ``failures``.  A deadline trip then returns 0 with a partial
        report (``timed_out``); on a ``charged`` request it counts
        against the source's circuit breaker, and a success clears it.
        Any other :class:`~repro.errors.JRouteError` propagates, the
        retryable ones once the policy's attempts run out.
        """
        policy = self.retry
        deadline = Deadline.after_ms(self.deadline_ms)
        report = self._new_report(0)
        nets: list[int] = []
        try:
            if self.breaker is not None:
                nets = [self._source_canon(ep) for ep in source_eps]
                open_nets = [n for n in nets if self.breaker.is_open(n)]
                if open_nets:
                    report.breaker_open = True
                    report.failures.append(_breaker_message(open_nets))
                    return 0
            attempts = 1 if policy is None else policy.max_attempts
            tiles = [] if policy is None else self._request_tiles(
                [*source_eps, *sink_eps]
            )
            exclude: set[int] = set()
            for i in range(1, attempts + 1):
                report.attempts = i
                budget = self.max_nodes if policy is None else policy.budget_for(
                    i, self.max_nodes
                )
                victim = None
                scope = (
                    RouteTransaction(self.device, netdb=self.netdb)
                    if atomic or policy is not None
                    else nullcontext()
                )
                try:
                    with scope:
                        if i > 1:
                            victim = select_victim(
                                self.device,
                                self.netdb.nets(),
                                tiles,
                                margin=policy.bbox_margin,
                                exclude=frozenset(exclude),
                            )
                            if victim is not None:
                                restore = self._rip_up(victim)
                                exclude.add(victim)
                        pips = len(attempt(max_nodes=budget, deadline=deadline))
                        if victim is not None:
                            self._reroute_victim(
                                *restore, max_nodes=budget, deadline=deadline
                            )
                except _RETRYABLE as e:
                    if i == attempts:
                        raise
                    report.failures.append(str(e))
                    # De-synchronize concurrent retriers (service clients
                    # hammering the same congested region) with seeded
                    # full-jitter backoff; token folds in the request's
                    # tile footprint so distinct requests draw distinct
                    # delays from the same policy.  Default policy has
                    # backoff_base=0.0 → no sleep, the legacy behavior.
                    tok = 0
                    for row, col in tiles:
                        tok = (tok * 1000003 + row * 4096 + col) & ((1 << 64) - 1)
                    delay = policy.backoff_for(i + 1, token=tok)
                    if delay > 0.0:
                        if deadline is not None:
                            delay = min(delay, deadline.remaining_ms() / 1e3)
                        if delay > 0.0:
                            time.sleep(delay)
                    continue
                if victim is not None:
                    report.ripped_nets.append(victim)
                report.success = True
                report.pips_added = pips
                if charged:
                    for n in nets:
                        self.breaker.record_success(n)
                return pips
        except errors.DeadlineExceededError as e:
            # state is already rolled back; the report stays partial
            report.timed_out = True
            report.failures.append(str(e))
            if charged:
                for n in nets:
                    self.breaker.record_trip(n)
            return 0
        except errors.JRouteError as e:
            report.failures.append(str(e))
            raise
        raise AssertionError("unreachable: the last attempt returns or raises")

    def _rip_up(self, source_canon: int):
        """Unroute a victim net, returning what is needed to restore it."""
        src_ep = self.netdb.net_source_ep.get(source_canon)
        sink_canons = sorted(self.netdb.net_sinks.get(source_canon, ()))
        unroute_forward(self.device, source_canon)
        self.netdb.drop_net(source_canon)
        if src_ep is None:
            src_ep = Pin(*self.device.arch.primary_name(source_canon))
        return src_ep, sink_canons

    def _reroute_victim(
        self, src_ep: EndPoint, sink_canons: list[int], *,
        max_nodes: int, deadline: Deadline | None = None,
    ) -> None:
        arch = self.device.arch
        sink_eps = [Pin(*arch.primary_name(c)) for c in sink_canons]
        if sink_eps:
            self._route_net(
                src_ep, sink_eps, max_nodes=max_nodes, deadline=deadline
            )

    # --------------------------------------------------------------- levels 4, 5

    def _route_net(
        self,
        source_ep: EndPoint,
        sink_eps: Sequence[EndPoint],
        record: bool = True,
        *,
        max_nodes: int | None = None,
        deadline: Deadline | None = None,
    ) -> list[PlanPip]:
        """Route one source endpoint to sink endpoints (fanout-aware).

        Returns the applied PIPs.  Atomic: on failure, everything this
        call turned on is off again.
        """
        device = self.device
        budget = self.max_nodes if max_nodes is None else max_nodes
        source = self._source_canon(source_ep)
        sink_canons: list[int] = []
        for ep in sink_eps:
            sink_canons.extend(self._sink_canons(ep))

        tree = set(device.state.subtree(source))
        # a sink listed twice is one sink: the long-line rule below counts
        # what is left to route
        todo = [
            canon
            for canon in dict.fromkeys(sink_canons)
            if self._needs_route(tree, canon)
        ]

        applied: list[PlanPip] = []
        try:
            # sinks in increasing distance from the source (Section 3.1)
            sr, sc, _ = device.arch.primary_name(source)

            def dist(canon: int) -> tuple[int, int]:
                r, c, _ = device.arch.primary_name(canon)
                return (abs(r - sr) + abs(c - sc), canon)

            for canon in sorted(todo, key=dist):
                if len(tree) == 1 and not applied:
                    # fresh net, first sink: template fast path applies
                    res = self._plan_p2p(source, canon, budget, deadline)
                    self._count_p2p(res)
                    plan = res.plan
                else:
                    use_longs = self.fanout_use_longs if len(todo) > 1 else self.p2p_use_longs
                    maze_res = route_maze(
                        device,
                        [source],
                        {canon},
                        reuse=tree,
                        use_longs=use_longs,
                        heuristic_weight=self.heuristic_weight,
                        max_nodes=budget,
                        deadline=deadline,
                    )
                    self._search_stats.merge(maze_res.stats)
                    plan = maze_res.plan
                apply_plan(device, plan)
                applied.extend(plan)
                for row, col, _fn, to_name in plan:
                    w = device.arch.canonicalize(row, col, to_name)
                    assert w is not None
                    tree.add(w)
        except errors.JRouteError as exc:
            failed_stats = getattr(exc, "search_stats", None)
            if failed_stats is not None:
                self._search_stats.merge(failed_stats)
            for row, col, from_name, to_name in reversed(applied):
                device.turn_off(row, col, from_name, to_name)
            raise

        if record:
            self._record(source, source_ep, sink_eps, sink_canons)
        return applied

    def _needs_route(self, tree, canon: int) -> bool:
        """Level 4's per-sink check against the net's routed ``tree``.

        False for a sink already on this net (nothing to add); raises
        :class:`~repro.errors.ContentionError` for a sink another net
        drives.
        """
        if canon in tree:
            return False
        state = self.device.state
        if state.is_driven(canon):
            r, c, n = self.device.arch.primary_name(canon)
            raise errors.ContentionError(
                f"sink wire {wires.wire_name(n)} is already driven by "
                f"another net",
                row=r,
                col=c,
                wire=wires.wire_name(n),
                net=state.root_of(canon),
            )
        return True

    def _plan_p2p(
        self, source: int, sink: int, budget: int, deadline: Deadline | None
    ) -> P2PResult:
        """Plan (not apply) one template-then-maze point-to-point route."""
        res = route_point_to_point(
            self.device,
            source,
            sink,
            try_templates=self.try_templates,
            use_longs=self.p2p_use_longs,
            heuristic_weight=self.heuristic_weight,
            max_nodes=budget,
            deadline=deadline,
        )
        if res.stats is not None:
            self._search_stats.merge(res.stats)
        return res

    def _count_p2p(self, res: P2PResult) -> None:
        """Count one point-to-point route as a template hit or maze fallback."""
        if res.method == "template":
            self.p2p_template_hits += 1
        else:
            self.p2p_maze_fallbacks += 1

    def _record(
        self,
        source: int,
        source_ep: EndPoint,
        sink_eps: Sequence[EndPoint],
        sink_canons: list[int],
    ) -> None:
        """Record a routed net and remember its endpoint connections."""
        self.netdb.record_net(source, source_ep, sink_canons)
        for ep in sink_eps:
            self.netdb.remember_connection(source_ep, ep)

    # -------------------------------------------------------------------- level 6

    def _route_bus(
        self,
        source_eps: Sequence[EndPoint],
        sink_eps: Sequence[EndPoint],
        *,
        max_nodes: int | None = None,
        deadline: Deadline | None = None,
    ) -> list[PlanPip]:
        """Bus routing: sources[i] -> sinks[i], atomic across the bus.

        Returns the applied PIPs of every bit, in bus order.  It runs only
        inside :meth:`_request`'s transaction, whose rollback undoes the
        bits routed before a failing one.
        """
        if len(source_eps) != len(sink_eps):
            raise errors.JRouteError(
                f"bus width mismatch: {len(source_eps)} sources, "
                f"{len(sink_eps)} sinks"
            )
        done = [
            self._route_net(
                src_ep, [sink_ep], record=False, max_nodes=max_nodes,
                deadline=deadline,
            )
            for src_ep, sink_ep in zip(source_eps, sink_eps)
        ]
        for src_ep, sink_ep in zip(source_eps, sink_eps):
            self._record(
                self._source_canon(src_ep), src_ep, [sink_ep],
                self._sink_canons(sink_ep),
            )
        return [pip for applied in done for pip in applied]

    # ------------------------------------------------------------- bulk requests

    def route_nets(
        self,
        nets: Sequence[tuple[EndPoint, EndPoint | Sequence[EndPoint]] | NetSpec],
        *,
        workers: int | None = None,
        use_longs: bool = True,
        max_iterations: int = 30,
    ) -> PathFinderResult:
        """Route many nets at once with negotiated congestion.

        Each entry is either a ``(source, sink_or_sinks)`` endpoint pair
        or a raw :class:`~repro.routers.pathfinder.NetSpec` of canonical
        wire ids.  All nets are routed together by the PathFinder
        baseline — sharing is negotiated away across the whole set, so
        congestion that defeats greedy one-at-a-time ``route`` calls can
        still converge.  ``workers`` (default: the router's ``workers``
        knob) routes spatial partitions of the nets concurrently per
        iteration in worker processes; results are identical from run
        to run for any fixed worker count, and ``workers=1`` is the
        serial algorithm.

        Converged plans are applied to the device and recorded in the
        net database; a non-converged run leaves the device untouched
        (inspect the returned result's ``converged`` flag).

        Every sink search runs on the part's routing graph, which the
        first call in a process builds unless something else did
        (serially, or for the worker pool's shared-memory export):
        about 0.15 s on XCV50, 0.5 s on XCV300 and 1.9 s on XCV1000 on
        a 2-CPU host, once per process.  Call
        ``router.device.routing_graph()`` up front to keep that out of
        a timed call.
        """
        self.call_count += 1
        report = self._new_report(1)
        specs: list[NetSpec] = []
        source_eps: list[EndPoint | None] = []
        for item in nets:
            if isinstance(item, NetSpec):
                specs.append(item)
                source_eps.append(None)
                continue
            src_ep, sink_part = item
            sink_list = (
                [sink_part] if isinstance(sink_part, EndPoint) else list(sink_part)
            )
            sinks: list[int] = []
            for ep in sink_list:
                sinks.extend(self._sink_canons(ep))
            specs.append(NetSpec.of(self._source_canon(src_ep), sinks))
            source_eps.append(src_ep)
        result = route_pathfinder(
            self.device,
            specs,
            use_longs=use_longs,
            max_iterations=max_iterations,
            workers=self.workers if workers is None else workers,
            deadline=Deadline.after_ms(self.deadline_ms),
        )
        report.search_stats.merge(result.stats)
        report.success = result.converged
        report.pips_added = result.pips_added
        report.timed_out = result.timed_out
        if result.converged:
            for spec, src_ep in zip(specs, source_eps):
                if src_ep is None:
                    src_ep = Pin(*self.device.arch.primary_name(spec.source))
                self.netdb.record_net(spec.source, src_ep, list(spec.sinks))
        elif result.timed_out:
            report.failures.append(
                f"pathfinder abandoned on deadline after "
                f"{result.iterations} iteration(s)"
            )
        else:
            report.failures.append(
                f"pathfinder did not converge in {result.iterations} iteration(s)"
            )
        return result

    def route_p2p_batch(
        self, pairs: Sequence[tuple[EndPoint, EndPoint]]
    ) -> list[P2PRouteOutcome]:
        """Route many independent point-to-point pairs in one batched search.

        Each entry is a ``(source, sink)`` endpoint pair, handled as a
        level-4 call is except for its search: a template miss runs
        unbiased Dijkstra, not A*, under the same expansion budget, so a
        long pair can exhaust the budget where :meth:`route` finds it
        (E10's corner pair on XCV1000).  Template attempts stay scalar
        (they are lookup-bound); every template miss rides a single
        :func:`~repro.routers.maze.route_maze_batch` call, so the fixed
        costs (fault-mask lookup, stats publication) are paid once per
        batch instead of once per net.  That call runs every miss as
        one plain-Dijkstra wavefront in the calling thread, whatever
        the router's ``heuristic_weight``: the weight governs only
        scalar searches (levels 4–6), and the router's ``workers``
        configure :meth:`route_nets` only.
        The wavefront's state (``BatchSearchState``, K × n_wires × 20 B)
        stays allocated on the device for the next batch.

        All searches see the device state as of the call; plans are
        applied in request order, and a pair whose plan lost a wire to
        an earlier pair is transparently re-routed against the updated
        state (``rerouted=True`` in its outcome): templates, then a
        one-lane wavefront, so a re-planned maze route is the one
        ``route_maze(heuristic_weight=0)`` finds on that state.
        Each pair gets level 4's sink check (a sink already on its net
        is a 0-PIP success, one driven by another net a
        ContentionError), breaker refusal, method counters and
        net-database record.  Per-pair failures —
        bad endpoints, breaker refusals, driven sinks, unroutable or
        timed-out searches, a re-route that fails to apply — are
        returned in place as outcomes, never raised.
        :attr:`last_report` aggregates the whole batch.
        """
        self.call_count += 1
        deadline = Deadline.after_ms(self.deadline_ms)
        report = self._new_report(1)
        breaker = self.breaker
        state = self.device.state
        outcomes: list[P2PRouteOutcome | None] = [None] * len(pairs)
        lanes: list[tuple[int, int, int]] = []  # (index, source, sink)

        def fail(i: int, exc: errors.JRouteError, source: int | None = None) -> None:
            report.failures.append(str(exc))
            failed_stats = getattr(exc, "search_stats", None)
            if failed_stats is not None:
                report.search_stats.merge(failed_stats)
            if isinstance(exc, errors.DeadlineExceededError):
                report.timed_out = True
                if breaker is not None and source is not None:
                    breaker.record_trip(source)
            outcomes[i] = P2PRouteOutcome(i, *pairs[i], False, error=exc)

        for i, (src_ep, sink_ep) in enumerate(pairs):
            try:
                source = self._source_canon(src_ep)
                sinks = self._sink_canons(sink_ep)
                if len(sinks) != 1:
                    raise errors.PortError(
                        "route_p2p_batch needs single-pin sink endpoints; "
                        "route multi-pin ports with route()"
                    )
                if breaker is not None and breaker.is_open(source):
                    report.breaker_open = True
                    raise errors.UnroutableError(_breaker_message([source]))
                if not self._needs_route(state.subtree(source), sinks[0]):
                    outcomes[i] = P2PRouteOutcome(i, src_ep, sink_ep, True)
                    continue
            except errors.JRouteError as e:
                fail(i, e)
                continue
            lanes.append((i, source, sinks[0]))
        plan_batch = partial(
            route_point_to_point_batch,
            self.device,
            try_templates=self.try_templates,
            use_longs=self.p2p_use_longs,
            max_nodes=self.max_nodes,
            deadline=deadline,
        )

        def planned(res: P2PResult | errors.JRouteError) -> P2PResult:
            if isinstance(res, errors.JRouteError):
                raise res
            if res.stats is not None:
                report.search_stats.merge(res.stats)
            return res

        results: list = []
        if lanes:
            results = plan_batch([(source, sink) for _, source, sink in lanes])
        for (i, source, sink), res in zip(lanes, results):
            src_ep, sink_ep = pairs[i]
            rerouted = False
            try:
                res = planned(res)
                try:
                    pips = apply_plan(self.device, res.plan)
                except errors.JRouteError:
                    # an earlier pair claimed a wire of this plan: re-plan
                    # it alone, on the same engine, against the device
                    # state as it stands now
                    rerouted = True
                    res = planned(plan_batch([(source, sink)])[0])
                    pips = apply_plan(self.device, res.plan)
            except errors.JRouteError as e:
                fail(i, e, source)
                continue
            self._count_p2p(res)
            self._record(source, src_ep, [sink_ep], [sink])
            if breaker is not None:
                breaker.record_success(source)
            outcomes[i] = P2PRouteOutcome(
                i, src_ep, sink_ep, True, pips, res.method, rerouted
            )
        done = [o for o in outcomes if o is not None]
        assert len(done) == len(pairs)
        report.pips_added = sum(o.pips_added for o in done)
        report.success = all(o.success for o in done)
        return done

    # ------------------------------------------------------------------- globals

    def route_clock(self, index: int, sink_eps: Sequence[EndPoint]) -> int:
        """Distribute global net ``index`` to clock pins (dedicated nets).

        The four global nets "distribute high-fanout clock signals" with
        dedicated pins; sinks must be CLK control inputs.
        """
        if not 0 <= index < wires.N_GCLK:
            raise errors.JRouteError(f"no global net {index}")
        sinks: list[Pin] = []
        for ep in sink_eps:
            sinks.extend(self.sink_pins_of(ep))
        for pin in sinks:
            if pin.wire not in (wires.S0_CLK, wires.S1_CLK):
                raise errors.InvalidPipError(
                    f"global nets drive clock pins only, not "
                    f"{wires.wire_name(pin.wire)}"
                )
        if self.jbits is not None:
            self.jbits.set_global_buffer(index, True)
        return apply_plan(
            self.device,
            [(pin.row, pin.col, wires.GCLK[index], pin.wire) for pin in sinks],
        )

    # ------------------------------------------------------------------ unrouting

    def unroute(self, source_ep: EndPoint) -> int:
        """Remove the whole net driven from ``source_ep`` (forward).

        Port connections are *remembered* (Section 3.3): re-routing the
        port later reconnects automatically via :meth:`reconnect`.
        """
        source = self._source_canon(source_ep)
        removed = unroute_forward(self.device, source)
        self.netdb.drop_net(source)
        return removed

    def reverse_unroute(self, sink_ep: EndPoint) -> int:
        """Remove only the branch(es) leading to ``sink_ep``."""
        removed = 0
        for canon in self._sink_canons(sink_ep):
            root = self.device.state.root_of(canon)
            removed += unroute_reverse(self.device, canon)
            if root != canon:
                self.netdb.drop_sink(root, canon)
        return removed

    # ------------------------------------------------------------------- tracing

    def trace(self, source_ep: EndPoint) -> NetTrace:
        """Trace a source to all of its sinks (whole net)."""
        return trace_net(self.device, self._source_canon(source_ep))

    def reverse_trace(self, sink_ep: EndPoint) -> list[PipRecord]:
        """Trace a sink back to its source (only that branch)."""
        canons = self._sink_canons(sink_ep)
        if len(canons) != 1:
            raise errors.PortError(
                "reverse_trace needs a single-pin endpoint; trace each pin"
            )
        return reverse_trace_net(self.device, canons[0])

    # ----------------------------------------------------------------- contention

    def is_on(self, row: int, col: int, wire: int) -> bool:
        """Is the wire at CLB (row, col) currently in use? (Section 3.4)"""
        return self.device.is_on(row, col, wire)

    # ---------------------------------------------------------------- core support

    def register_core(self, core) -> None:
        """Register a core's ports so remembered connections can resolve
        to it (called by core placement; see :mod:`repro.cores`)."""
        self.netdb.register_core_ports(core.all_ports())

    def reconnect(self, core) -> int:
        """Re-route the remembered connections of a (replaced) core's ports.

        The paper's constant-multiplier scenario: "the core can be
        removed, unrouted, and replaced with a new constant multiplier
        without having to specify connections again."
        """
        total = 0
        for port in core.all_ports():
            mem = self.netdb.memory_of(port)
            for src_ref in mem.sources:
                src = self.netdb.resolve_ref(src_ref)
                total += len(self._route_net(src, [port]))
            for sink_ref in mem.sinks:
                sink = self.netdb.resolve_ref(sink_ref)
                total += len(self._route_net(port, [sink]))
        return total


#: failures the rip-up/retry loop retries (deadline trips end a request)
_RETRYABLE = (errors.UnroutableError, errors.ContentionError, errors.FaultError)


def _breaker_message(nets: Iterable[int]) -> str:
    """Why a request was refused without searching."""
    rendered = ", ".join(str(n) for n in nets)
    return (
        f"circuit breaker open for net(s) {rendered}: refused without "
        f"searching (reset the breaker or raise deadline_ms)"
    )


def _is_endpoint_seq(obj) -> bool:
    return (
        isinstance(obj, (list, tuple))
        and len(obj) > 0
        and all(isinstance(e, EndPoint) for e in obj)
    )
