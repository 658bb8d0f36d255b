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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import errors
from ..arch import wires
from ..arch.wires import WireClass
from ..device.fabric import Device
from ..device.state import PipRecord
from ..jbits.jbits import JBits
from ..routers.auto import route_point_to_point, route_point_to_point_batch
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
        Whether the greedy fanout router may use long lines.  Defaults to
        False, the state of the paper's initial implementation
        ("currently long lines are not supported; only hexes and singles
        are used"); set True for the paper's future-work behaviour.
    p2p_use_longs:
        Whether point-to-point maze fallback may use long lines.
    try_templates:
        Use the predefined-template fast path for point-to-point routes
        before falling back to the maze router.
    heuristic_weight:
        A* bias for maze searches (0 = plain Dijkstra; the 0.8 default
        cuts node expansions by ~10x at equal plan cost on this fabric).
    faults:
        Optional :class:`~repro.device.faults.FaultModel` attached to the
        device; fault-aware searches mask defective resources out.
    retry:
        Optional :class:`~repro.core.recovery.RetryPolicy` enabling the
        rip-up/retry loop on :class:`~repro.errors.UnroutableError` for
        the auto-routing levels (4, 5 and 6).  Each request's outcome is
        surfaced as :attr:`last_report`.
    workers:
        Default concurrency for :meth:`route_nets` bulk requests (the
        negotiated-congestion router's per-iteration net loop is
        partitioned spatially across this many workers).
    backend:
        Default execution backend for those workers: ``"thread"`` (the
        default; deterministic, GIL-bound) or ``"process"`` (OS-level
        workers attached to a shared-memory export of the compiled
        routing graph — wall-clock parallelism with identical results).
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
        backend: str = "thread",
        deadline_ms: float | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
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
        self.backend = backend
        self.deadline_ms = deadline_ms
        if breaker is None and deadline_ms is not None:
            breaker = CircuitBreaker()
        self.breaker = breaker
        #: RoutingReport of the latest level-4/5/6 request (None before any)
        self.last_report: RoutingReport | None = None
        #: user-facing route() invocations (Section 4 comparison metric)
        self.call_count = 0
        #: counters for the template-vs-maze statistics (experiment E9)
        self.p2p_template_hits = 0
        self.p2p_maze_fallbacks = 0
        # faulty edges masked out by searches, accumulated per request
        self._faults_avoided = 0
        # kernel instrumentation accumulated per request (-> last_report)
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

    def _breaker_refusal(self, open_nets: list[int]) -> int:
        """Refuse a request whose net(s) have an open circuit breaker."""
        report = RoutingReport(breaker_open=True)
        rendered = ", ".join(str(n) for n in open_nets)
        report.failures.append(
            f"circuit breaker open for net(s) {rendered}: refused without "
            f"searching (reset the breaker or raise deadline_ms)"
        )
        self.last_report = report
        return 0

    def _deadline_tripped(
        self, source: int | None, exc: errors.DeadlineExceededError
    ) -> int:
        """Turn a deadline trip into a partial report; returns 0 PIPs.

        State has already been rolled back by the transaction machinery
        before the exception reached the request entry.
        """
        report = self.last_report
        assert report is not None
        report.timed_out = True
        report.success = False
        report.failures.append(str(exc))
        self._faults_avoided += exc.faults_avoided
        report.faults_avoided = self._faults_avoided
        if self.breaker is not None and source is not None:
            self.breaker.record_trip(source)
        return 0

    def _note_success(self, source: int | None) -> None:
        if self.breaker is not None and source is not None:
            self.breaker.record_success(source)

    def _route_net_request(
        self, source_ep: EndPoint, sink_eps: list[EndPoint]
    ) -> int:
        """Level 4/5 entry: transactional, optionally with rip-up/retry."""
        deadline = Deadline.after_ms(self.deadline_ms)
        source = self._source_canon(source_ep)
        if self.breaker is not None and self.breaker.is_open(source):
            return self._breaker_refusal([source])
        if self.retry is not None:
            tiles = self._request_tiles([source_ep, *sink_eps])

            def attempt(budget: int) -> int:
                applied, _ = self._route_net(
                    source_ep, sink_eps, max_nodes=budget, deadline=deadline
                )
                return len(applied)

            try:
                pips = self._run_with_recovery(attempt, tiles, deadline=deadline)
            except errors.DeadlineExceededError as e:
                return self._deadline_tripped(source, e)
            self._note_success(source)
            return pips
        report = RoutingReport(attempts=1)
        self.last_report = report
        self._faults_avoided = 0
        self._search_stats = SearchStats()
        report.search_stats = self._search_stats
        try:
            if len(sink_eps) > 1:
                # multi-step fanout: journal + roll back atomically
                with RouteTransaction(self.device, netdb=self.netdb):
                    applied, _ = self._route_net(
                        source_ep, sink_eps, deadline=deadline
                    )
            else:
                applied, _ = self._route_net(source_ep, sink_eps, deadline=deadline)
        except errors.DeadlineExceededError as e:
            return self._deadline_tripped(source, e)
        except errors.JRouteError as e:
            report.failures.append(str(e))
            self._faults_avoided += getattr(e, "faults_avoided", 0)
            report.faults_avoided = self._faults_avoided
            raise
        report.success = True
        report.pips_added = len(applied)
        report.faults_avoided = self._faults_avoided
        self._note_success(source)
        return len(applied)

    def _route_bus_request(
        self, source_eps: list[EndPoint], sink_eps: list[EndPoint]
    ) -> int:
        """Level 6 entry: transactional, optionally with rip-up/retry."""
        deadline = Deadline.after_ms(self.deadline_ms)
        if self.breaker is not None:
            open_nets = [
                s
                for s in (self._source_canon(ep) for ep in source_eps)
                if self.breaker.is_open(s)
            ]
            if open_nets:
                return self._breaker_refusal(open_nets)
        if self.retry is not None:
            tiles = self._request_tiles([*source_eps, *sink_eps])

            def attempt(budget: int) -> int:
                return self._route_bus(
                    source_eps, sink_eps, max_nodes=budget, deadline=deadline
                )

            try:
                return self._run_with_recovery(attempt, tiles, deadline=deadline)
            except errors.DeadlineExceededError as e:
                # bus trips are not charged to a single net's breaker
                return self._deadline_tripped(None, e)
        report = RoutingReport(attempts=1)
        self.last_report = report
        self._faults_avoided = 0
        self._search_stats = SearchStats()
        report.search_stats = self._search_stats
        try:
            with RouteTransaction(self.device, netdb=self.netdb):
                pips = self._route_bus(source_eps, sink_eps, deadline=deadline)
        except errors.DeadlineExceededError as e:
            return self._deadline_tripped(None, e)
        except errors.JRouteError as e:
            report.failures.append(str(e))
            self._faults_avoided += getattr(e, "faults_avoided", 0)
            report.faults_avoided = self._faults_avoided
            raise
        report.success = True
        report.pips_added = pips
        report.faults_avoided = self._faults_avoided
        return pips

    def _run_with_recovery(
        self, attempt, tiles, *, deadline: Deadline | None = None
    ) -> int:
        """Bounded rip-up/retry loop around one routing request.

        Every round runs inside a :class:`RouteTransaction`: ripping the
        victim, routing the request, and re-routing the victim either all
        succeed or the device rolls back to the round's starting state.
        """
        policy = self.retry
        report = RoutingReport()
        self.last_report = report
        self._faults_avoided = 0
        self._search_stats = SearchStats()
        report.search_stats = self._search_stats
        exclude: set[int] = set()
        last_exc: errors.JRouteError | None = None
        for i in range(1, policy.max_attempts + 1):
            report.attempts = i
            budget = policy.budget_for(i, self.max_nodes)
            victim_restore = None
            try:
                with RouteTransaction(self.device, netdb=self.netdb):
                    if i > 1:
                        victim = select_victim(
                            self.device,
                            self.netdb.nets(),
                            tiles,
                            margin=policy.bbox_margin,
                            exclude=frozenset(exclude),
                        )
                        if victim is not None:
                            victim_restore = self._rip_up(victim)
                            exclude.add(victim)
                    pips = attempt(budget)
                    if victim_restore is not None:
                        self._reroute_victim(
                            *victim_restore, max_nodes=budget, deadline=deadline
                        )
            except (
                errors.UnroutableError,
                errors.ContentionError,
                errors.FaultError,
            ) as e:
                report.failures.append(str(e))
                self._faults_avoided += getattr(e, "faults_avoided", 0)
                last_exc = e
                if i < policy.max_attempts:
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
            if victim_restore is not None:
                report.ripped_nets.append(victim_restore[2])
            report.success = True
            report.pips_added = pips
            report.faults_avoided = self._faults_avoided
            return pips
        report.faults_avoided = self._faults_avoided
        assert last_exc is not None
        raise last_exc

    def _rip_up(self, source_canon: int):
        """Unroute a victim net, returning what is needed to restore it."""
        src_ep = self.netdb.net_source_ep.get(source_canon)
        sink_canons = sorted(self.netdb.net_sinks.get(source_canon, ()))
        unroute_forward(self.device, source_canon)
        self.netdb.drop_net(source_canon)
        if src_ep is None:
            src_ep = Pin(*self.device.arch.primary_name(source_canon))
        return src_ep, sink_canons, source_canon

    def _reroute_victim(
        self, src_ep: EndPoint, sink_canons: list[int], source_canon: int, *,
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
    ) -> tuple[list[PlanPip], list[int]]:
        """Route one source endpoint to sink endpoints (fanout-aware).

        Returns ``(applied_pips, sink_canons)``.  Atomic: on failure,
        everything this call turned on is off again.
        """
        device = self.device
        state = device.state
        budget = self.max_nodes if max_nodes is None else max_nodes
        source = self._source_canon(source_ep)
        sink_canons: list[int] = []
        for ep in sink_eps:
            sink_canons.extend(self._sink_canons(ep))

        tree = set(state.subtree(source))
        todo: list[int] = []
        for canon in sink_canons:
            if canon in tree:
                continue  # already part of this net
            if state.is_driven(canon):
                r, c, n = device.arch.primary_name(canon)
                raise errors.ContentionError(
                    f"sink wire {wires.wire_name(n)} is already driven by "
                    f"another net",
                    row=r,
                    col=c,
                    wire=wires.wire_name(n),
                    net=state.root_of(canon),
                )
            todo.append(canon)

        applied: list[PlanPip] = []
        try:
            # sinks in increasing distance from the source (Section 3.1)
            sr, sc, _ = device.arch.primary_name(source)

            def dist(canon: int) -> tuple[int, int]:
                r, c, _ = device.arch.primary_name(canon)
                return (abs(r - sr) + abs(c - sc), canon)

            for canon in sorted(set(todo), key=dist):
                if len(tree) == 1 and not applied:
                    # fresh net, first sink: template fast path applies
                    res = route_point_to_point(
                        device,
                        source,
                        canon,
                        try_templates=self.try_templates,
                        use_longs=self.p2p_use_longs,
                        heuristic_weight=self.heuristic_weight,
                        max_nodes=budget,
                        deadline=deadline,
                    )
                    if res.method == "template":
                        self.p2p_template_hits += 1
                    else:
                        self.p2p_maze_fallbacks += 1
                    self._faults_avoided += res.faults_avoided
                    if res.stats is not None:
                        self._search_stats.merge(res.stats)
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
                    self._faults_avoided += maze_res.faults_avoided
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
            self.netdb.record_net(source, source_ep, sink_canons)
            for ep in sink_eps:
                self.netdb.remember_connection(source_ep, ep)
        return applied, sink_canons

    # -------------------------------------------------------------------- level 6

    def _route_bus(
        self,
        source_eps: Sequence[EndPoint],
        sink_eps: Sequence[EndPoint],
        *,
        max_nodes: int | None = None,
        deadline: Deadline | None = None,
    ) -> int:
        """Bus routing: sources[i] -> sinks[i], atomic across the bus."""
        if len(source_eps) != len(sink_eps):
            raise errors.JRouteError(
                f"bus width mismatch: {len(source_eps)} sources, "
                f"{len(sink_eps)} sinks"
            )
        done: list[tuple[EndPoint, EndPoint, list[PlanPip]]] = []
        try:
            for src_ep, sink_ep in zip(source_eps, sink_eps):
                applied, _ = self._route_net(
                    src_ep, [sink_ep], record=False, max_nodes=max_nodes,
                    deadline=deadline,
                )
                done.append((src_ep, sink_ep, applied))
        except errors.JRouteError:
            for _, _, applied in reversed(done):
                for row, col, from_name, to_name in reversed(applied):
                    self.device.turn_off(row, col, from_name, to_name)
            raise
        total = 0
        for src_ep, sink_ep, applied in done:
            total += len(applied)
            source = self._source_canon(src_ep)
            self.netdb.record_net(source, src_ep, self._sink_canons(sink_ep))
            self.netdb.remember_connection(src_ep, sink_ep)
        return total

    # ------------------------------------------------------------- bulk requests

    def route_nets(
        self,
        nets: Sequence[tuple[EndPoint, EndPoint | Sequence[EndPoint]] | NetSpec],
        *,
        workers: int | None = None,
        backend: str | None = None,
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
        iteration on ``backend`` (default: the router's ``backend``
        knob); results are deterministic for any fixed worker count and
        identical across backends.

        Converged plans are applied to the device and recorded in the
        net database; a non-converged run leaves the device untouched
        (inspect the returned result's ``converged`` flag).
        """
        self.call_count += 1
        report = RoutingReport(attempts=1)
        self.last_report = report
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
            backend=self.backend if backend is None else backend,
            deadline=Deadline.after_ms(self.deadline_ms),
        )
        report.search_stats = result.stats
        self._search_stats = result.stats
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

        Each entry is a ``(source, sink)`` endpoint pair routed with
        level-4 semantics.  Template attempts stay scalar (they are
        lookup-bound); every template miss rides a single
        :func:`~repro.routers.maze.route_maze_batch` call, so the fixed
        costs (graph compile, fault-mask sync, stats publication) are
        paid once per batch instead of once per net.  At an A*
        ``heuristic_weight`` (the default) the batch runs its searches
        on the scalar kernel one after another; at 0 it runs them as
        one vectorized wavefront.  Either way the batch runs in the
        calling thread: the router's ``workers`` and ``backend``
        configure :meth:`route_nets` only.

        All searches see the device state as of the call; plans are
        applied in request order, and a pair whose plan lost a wire to
        an earlier pair is transparently re-routed against the updated
        state (``rerouted=True`` in its outcome).  Per-pair failures —
        breaker refusals, driven sinks, unroutable or timed-out
        searches — are returned in place as outcomes, never raised.
        :attr:`last_report` aggregates the whole batch.
        """
        self.call_count += 1
        deadline = Deadline.after_ms(self.deadline_ms)
        report = RoutingReport(attempts=1)
        self.last_report = report
        self._faults_avoided = 0
        self._search_stats = SearchStats()
        report.search_stats = self._search_stats
        device = self.device
        state = device.state
        arch = device.arch
        k = len(pairs)
        outcomes: list[P2PRouteOutcome | None] = [None] * k
        canons: list[tuple[int, int] | None] = [None] * k
        lanes: list[int] = []
        lane_pairs: list[tuple[int, int]] = []
        for i, (src_ep, sink_ep) in enumerate(pairs):
            try:
                source = self._source_canon(src_ep)
                sink_list = self._sink_canons(sink_ep)
                if len(sink_list) != 1:
                    raise errors.PortError(
                        "route_p2p_batch needs single-pin sink endpoints; "
                        "route multi-pin ports with route()"
                    )
                sink = sink_list[0]
            except errors.JRouteError as e:
                report.failures.append(str(e))
                outcomes[i] = P2PRouteOutcome(i, src_ep, sink_ep, False, error=e)
                continue
            if self.breaker is not None and self.breaker.is_open(source):
                e = errors.UnroutableError(
                    f"circuit breaker open for net {source}: refused without "
                    f"searching (reset the breaker or raise deadline_ms)"
                )
                report.breaker_open = True
                report.failures.append(str(e))
                outcomes[i] = P2PRouteOutcome(i, src_ep, sink_ep, False, error=e)
                continue
            if sink in state.subtree(source):
                # already part of this net: nothing to add
                outcomes[i] = P2PRouteOutcome(i, src_ep, sink_ep, True)
                continue
            if state.is_driven(sink):
                r, c, n = arch.primary_name(sink)
                e = errors.ContentionError(
                    f"sink wire {wires.wire_name(n)} is already driven by "
                    f"another net",
                    row=r,
                    col=c,
                    wire=wires.wire_name(n),
                    net=state.root_of(sink),
                )
                report.failures.append(str(e))
                outcomes[i] = P2PRouteOutcome(i, src_ep, sink_ep, False, error=e)
                continue
            canons[i] = (source, sink)
            lanes.append(i)
            lane_pairs.append((source, sink))
        results: list = []
        if lanes:
            results = route_point_to_point_batch(
                device,
                lane_pairs,
                try_templates=self.try_templates,
                use_longs=self.p2p_use_longs,
                heuristic_weight=self.heuristic_weight,
                max_nodes=self.max_nodes,
                deadline=deadline,
            )
        for i, res in zip(lanes, results):
            src_ep, sink_ep = pairs[i]
            source, sink = canons[i]
            if isinstance(res, errors.JRouteError):
                outcomes[i] = self._p2p_batch_failure(
                    i, src_ep, sink_ep, source, res
                )
                continue
            plan = res.plan
            method = res.method
            rerouted = False
            self._faults_avoided += res.faults_avoided
            if res.stats is not None:
                self._search_stats.merge(res.stats)
            try:
                pips = apply_plan(device, plan)
            except errors.JRouteError:
                # an earlier pair claimed a wire of this plan: re-plan
                # against the device state as it stands now
                rerouted = True
                try:
                    res = route_point_to_point(
                        device,
                        source,
                        sink,
                        try_templates=self.try_templates,
                        use_longs=self.p2p_use_longs,
                        heuristic_weight=self.heuristic_weight,
                        max_nodes=self.max_nodes,
                        deadline=deadline,
                    )
                except errors.JRouteError as e:
                    outcomes[i] = self._p2p_batch_failure(
                        i, src_ep, sink_ep, source, e
                    )
                    continue
                plan = res.plan
                method = res.method
                self._faults_avoided += res.faults_avoided
                if res.stats is not None:
                    self._search_stats.merge(res.stats)
                pips = apply_plan(device, plan)
            if method == "template":
                self.p2p_template_hits += 1
            else:
                self.p2p_maze_fallbacks += 1
            self.netdb.record_net(source, src_ep, [sink])
            self.netdb.remember_connection(src_ep, sink_ep)
            self._note_success(source)
            outcomes[i] = P2PRouteOutcome(
                i, src_ep, sink_ep, True, pips, method, rerouted
            )
        done = [o for o in outcomes if o is not None]
        assert len(done) == k
        report.pips_added = sum(o.pips_added for o in done)
        report.success = all(o.success for o in done)
        report.faults_avoided = self._faults_avoided
        return done

    def _p2p_batch_failure(
        self,
        index: int,
        src_ep: EndPoint,
        sink_ep: EndPoint,
        source: int,
        exc: errors.JRouteError,
    ) -> P2PRouteOutcome:
        """Fold one failed batch pair into the aggregate report."""
        report = self.last_report
        assert report is not None
        report.failures.append(str(exc))
        self._faults_avoided += getattr(exc, "faults_avoided", 0)
        failed_stats = getattr(exc, "search_stats", None)
        if failed_stats is not None:
            self._search_stats.merge(failed_stats)
        if isinstance(exc, errors.DeadlineExceededError):
            report.timed_out = True
            if self.breaker is not None:
                self.breaker.record_trip(source)
        return P2PRouteOutcome(index, src_ep, sink_ep, False, error=exc)

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
        applied: list[PlanPip] = []
        try:
            for pin in sinks:
                if self.device.pip_is_on(pin.row, pin.col, wires.GCLK[index], pin.wire):
                    continue
                self.device.turn_on(pin.row, pin.col, wires.GCLK[index], pin.wire)
                applied.append((pin.row, pin.col, wires.GCLK[index], pin.wire))
        except errors.JRouteError:
            for row, col, from_name, to_name in reversed(applied):
                self.device.turn_off(row, col, from_name, to_name)
            raise
        return len(applied)

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
                applied, _ = self._route_net(src, [port])
                total += len(applied)
            for sink_ref in mem.sinks:
                sink = self.netdb.resolve_ref(sink_ref)
                applied, _ = self._route_net(port, [sink])
                total += len(applied)
        return total


def _is_endpoint_seq(obj) -> bool:
    return (
        isinstance(obj, (list, tuple))
        and len(obj) > 0
        and all(isinstance(e, EndPoint) for e in obj)
    )
