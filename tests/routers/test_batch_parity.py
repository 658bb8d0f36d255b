"""Batched-search parity: the SoA batch kernel vs K sequential calls.

``route_maze_batch`` locksteps K independent searches over the compiled
CSR graph (the vectorized struct-of-arrays wavefront, the one engine of
every batch).  The scalar kernel stays on as the oracle: every batch
must be **bit-identical** to calling :func:`route_maze` at its default
``heuristic_weight=0`` once per request — plans, costs, per-request
``SearchStats``, fault accounting and failure messages — with failures
reported in place rather than aborting the rest of the batch.  Against
an A*-weighted :func:`route_maze` the batch must route the same
requests, each at no greater cost.

The batch also changes *accounting shape*, which these tests pin:

* ``GLOBAL_STATS`` receives exactly one ``record_global`` per batch and
  its delta equals the merged batch stats;
* the versioned fault-edge mask is synced at most once per batch;
* ``JRouter.route_p2p_batch`` applies plans in request order and
  transparently re-routes pairs whose plan lost a wire to an earlier
  pair.

PathFinder's sink searches ride the same engine, one lane each, serial
or in a pool worker; the tests pin that no PathFinder search reaches
the scalar kernel.  A request its fault map rules out (a faulty sink,
or no start wire that can launch the signal) fails with one error on
every path, batch or not, templates on or off.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_mod
import repro.core.router as router_mod
import repro.routers.maze as maze_mod
import repro.routers.pathfinder as pathfinder_mod
from repro import errors
from repro.arch import connectivity, devices, wires
from repro.arch.graph import (
    NAME_COST,
    FaultEdgeMask,
    RoutingGraph,
    shared_graph_export,
)
from repro.arch.virtex import VirtexArch
from repro.bench.workloads import random_p2p_nets
from repro.cli import main
from repro.core import JRouter, Pin
from repro.core.deadline import Deadline
from repro.core.kernel import GLOBAL_STATS, BatchSearchState, SearchStats
from repro.device.fabric import Device
from repro.device.faults import FaultModel
from repro.routers import (
    route_maze,
    route_maze_batch,
    route_point_to_point,
    route_point_to_point_batch,
)

PART = "XCV50"

common = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _maze_requests(device, k, seed, *, min_span=2, max_span=8):
    reqs = []
    nets = random_p2p_nets(
        device.arch, k, seed=seed, min_span=min_span, max_span=max_span
    )
    for net in nets:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sink = device.resolve(
            net.sinks[0].row, net.sinks[0].col, net.sinks[0].wire
        )
        reqs.append(([src], {sink}))
    return reqs


def _sequential(device, reqs, **kw):
    """The oracle: one scalar route_maze call per request, in order."""
    out = []
    for sources, targets in reqs:
        try:
            out.append(route_maze(device, sources, targets, **kw))
        except errors.JRouteError as e:
            out.append(e)
    return out


def _assert_batch_matches(batch, scalar):
    assert len(batch.results) == len(scalar)
    for got, want in zip(batch.results, scalar):
        if isinstance(want, errors.JRouteError):
            assert type(got) is type(want)
            assert str(got) == str(want)
            want_stats = getattr(want, "search_stats", None)
            if want_stats is not None:
                assert got.search_stats.as_dict() == want_stats.as_dict()
        else:
            assert not isinstance(got, errors.JRouteError), got
            assert got.plan == want.plan
            assert got.cost == want.cost
            assert got.target == want.target
            assert got.stats.as_dict() == want.stats.as_dict()
            assert got.faults_avoided == want.faults_avoided


def _counting(monkeypatch, owner, name):
    """Patch ``owner.name`` to record its calls; returns the record."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _assert_no_costlier(batch, astar):
    """Same requests succeed, and no batch plan costs more than A*'s."""
    assert len(batch.results) == len(astar)
    for got, want in zip(batch.results, astar):
        assert isinstance(got, errors.JRouteError) == isinstance(
            want, errors.JRouteError
        ), (got, want)
        if not isinstance(want, errors.JRouteError):
            assert got.cost <= want.cost + 1e-9


class TestMazeBatchParity:
    """route_maze_batch == K x route_maze, bit for bit."""

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        weight=st.sampled_from([0.0, 0.8]),
    )
    @common
    def test_bit_identical_to_sequential(self, seed, k, weight):
        """``weight`` picks the A* comparator, not the batch's engine."""
        device = Device(PART)
        reqs = _maze_requests(device, k, seed)
        batch = route_maze_batch(device, reqs)
        _assert_batch_matches(batch, _sequential(device, reqs))
        _assert_no_costlier(
            batch, _sequential(device, reqs, heuristic_weight=weight)
        )

    @pytest.mark.parametrize("heuristic_weight", [0.0, 0.8])
    def test_with_faults(self, heuristic_weight):
        faults = FaultModel.random(
            Device(PART).arch, seed=5, stuck_open_rate=0.02, dead_wire_rate=0.004
        )
        device = Device(PART, faults=faults)
        reqs = _maze_requests(device, 8, 21, max_span=10)
        batch = route_maze_batch(device, reqs)
        _assert_batch_matches(batch, _sequential(device, reqs))
        _assert_no_costlier(
            batch,
            _sequential(device, reqs, heuristic_weight=heuristic_weight),
        )
        ok = [r for r in batch.results if not isinstance(r, errors.JRouteError)]
        assert ok, "fault workload routed nothing — workload too hostile"
        assert any(r.faults_avoided for r in ok) or batch.stats.faults_avoided

    @pytest.mark.parametrize("heuristic_weight", [0.0, 0.8])
    @pytest.mark.parametrize(
        "backend,workers",
        [
            # the "thread" ids leave ``backend`` at its default
            pytest.param(None, 1, id="thread-1"),
            pytest.param(None, 4, id="thread-4"),
            ("process", 1),
            ("process", 4),
        ],
    )
    def test_backends_and_workers_with_faults(
        self, backend, workers, heuristic_weight
    ):
        """A router's ``workers``/``backend`` leave its batches alone: on
        a faulty device every configuration routes a batch exactly as
        the default one does."""
        faults = FaultModel.random(
            Device(PART).arch, seed=5, stuck_open_rate=0.02, dead_wire_rate=0.004
        )

        def router(**kw):
            return JRouter(
                part=PART, attach_jbits=False, faults=faults,
                try_templates=False, heuristic_weight=heuristic_weight, **kw,
            )

        def shape(outcomes):
            return [
                (o.success, o.pips_added, o.method, o.rerouted,
                 type(o.error), str(o.error))
                for o in outcomes
            ]

        configured = (
            router(workers=workers)
            if backend is None
            else router(workers=workers, backend=backend)
        )
        plain = router()
        nets = random_p2p_nets(
            plain.device.arch, 8, seed=21, min_span=2, max_span=10
        )
        pairs = [(n.source, n.sinks[0]) for n in nets]
        got = configured.route_p2p_batch(pairs)
        assert shape(got) == shape(plain.route_p2p_batch(pairs))
        assert (
            configured.device.state.fingerprint()
            == plain.device.state.fingerprint()
        )
        report, want = configured.last_report, plain.last_report
        assert report.search_stats.as_dict() == want.search_stats.as_dict()
        assert any(o.success for o in got), "fault workload routed nothing"
        assert report.faults_avoided == want.faults_avoided > 0

    def test_merged_stats_equal_sum_of_sequential(self):
        device = Device(PART)
        reqs = _maze_requests(device, 6, 33)
        before = GLOBAL_STATS.as_dict()
        batch = route_maze_batch(device, reqs)
        mid = GLOBAL_STATS.as_dict()
        _sequential(device, reqs)
        after = GLOBAL_STATS.as_dict()
        batch_delta = {k: mid[k] - before[k] for k in before}
        scalar_delta = {k: after[k] - mid[k] for k in after}
        # same global accounting whether published once or K times
        assert batch_delta == scalar_delta
        assert batch_delta == batch.stats.as_dict()

    def test_global_stats_published_once_per_batch(self, monkeypatch):
        device = Device(PART)
        reqs = _maze_requests(device, 5, 4)
        published = []
        real = maze_mod.record_global

        def counting(stats):
            published.append(stats)
            real(stats)

        monkeypatch.setattr(maze_mod, "record_global", counting)
        batch = route_maze_batch(device, reqs)
        assert len(published) == 1
        assert published[0].as_dict() == batch.stats.as_dict()

    def test_fault_mask_synced_at_most_once_per_batch(self, monkeypatch):
        """The batch brings the fault-edge mask up to date at most once:
        one whole build, and none while the fault model stays put."""
        faults = FaultModel.random(
            Device(PART).arch, seed=7, stuck_open_rate=0.02, dead_wire_rate=0.002
        )
        device = Device(PART, faults=faults)
        reqs = _maze_requests(device, 6, 9)
        builds = []
        real = FaultEdgeMask.__init__

        def counting(self, graph, faults):
            builds.append(1)
            real(self, graph, faults)

        monkeypatch.setattr(FaultEdgeMask, "__init__", counting)
        route_maze_batch(device, reqs)
        assert len(builds) <= 1
        route_maze_batch(device, reqs)
        assert len(builds) <= 1

    def test_expired_deadline_reported_per_lane(self):
        device = Device(PART)
        reqs = _maze_requests(device, 4, 6)
        batch = route_maze_batch(device, reqs, deadline=Deadline.after_ms(0.0))
        scalar = _sequential(device, reqs, deadline=Deadline.after_ms(0.0))
        _assert_batch_matches(batch, scalar)
        assert all(
            isinstance(r, errors.DeadlineExceededError) for r in batch.results
        )

    def test_failures_mid_batch_do_not_hide_results(self):
        device = Device(PART)
        reqs = _maze_requests(device, 4, 8)
        # a lane with no targets fails during validation, before the
        # kernel runs; the rest of the batch must still route
        reqs.insert(1, (reqs[0][0], set()))
        batch = route_maze_batch(device, reqs)
        scalar = _sequential(device, reqs)
        _assert_batch_matches(batch, scalar)
        assert isinstance(batch.results[1], errors.UnroutableError)
        ok = sum(
            not isinstance(r, errors.JRouteError) for r in batch.results
        )
        assert ok == 4

    def test_exhausted_budget_parity(self):
        device = Device(PART)
        reqs = _maze_requests(device, 5, 15, min_span=4, max_span=14)
        batch = route_maze_batch(device, reqs, max_nodes=300)
        scalar = _sequential(device, reqs, max_nodes=300)
        _assert_batch_matches(batch, scalar)
        assert any(
            isinstance(r, errors.UnroutableError) for r in batch.results
        ), "budget of 300 nodes should exhaust at least one span-4+ search"

    def test_heuristic_weight_picks_the_engine(self, monkeypatch):
        """No weight picks the engine: every batch is one wavefront,
        and a graph the wavefront cannot search exactly is refused."""
        wavefronts = _counting(monkeypatch, maze_mod, "dijkstra_batch")
        scalar = _counting(monkeypatch, maze_mod, "dijkstra")
        allocations = _counting(monkeypatch, BatchSearchState, "ensure")
        device = Device(PART)
        reqs = _maze_requests(device, 4, 3)
        route_maze_batch(device, reqs)
        assert len(wavefronts) == 1 and allocations
        route_maze_batch(device, reqs, use_longs=False)
        assert len(wavefronts) == 2 and scalar == []
        # without a positive edge-cost bound the wavefront is not exact
        monkeypatch.setattr(RoutingGraph, "min_edge_cost", lambda self: 0.0)
        with pytest.raises(ValueError, match="positive minimum edge cost"):
            route_maze_batch(device, reqs)
        assert scalar == []

    def test_trivial_and_empty_batches(self):
        device = Device(PART)
        assert len(route_maze_batch(device, [])) == 0
        ((srcs, targets),) = _maze_requests(device, 1, 2)
        hit = route_maze_batch(device, [(srcs, set(srcs))]).results[0]
        assert hit.plan == [] and hit.cost == 0.0


class TestEdgeCostBound:
    """The wavefront's precondition holds on every shipped part."""

    def test_every_drivable_wire_costs_more_than_zero(self):
        # a PIP's edge cost is its driven wire's cost, so a positive
        # cost on every name a PIP can drive bounds every compiled graph
        targets = {
            t for n in range(wires.N_NAMES) for t in connectivity.drives(n)
        }
        assert len(targets) == 205
        parts = devices.part_names(None)
        assert len(parts) == 15
        for part in parts:
            arch = VirtexArch(part)
            costs = [arch.wire_cost(t) for t in targets]
            assert costs == [NAME_COST[t] for t in targets], part
            assert min(costs) == 0.5, part

    def test_compiled_xcv50_reports_the_bound(self):
        assert Device(PART).routing_graph().min_edge_cost() == 0.5

    def test_bound_comes_from_the_name_table(self):
        # the bound read from the name tables is the graph's cheapest edge
        graph = Device(PART).routing_graph()
        e_cost = graph.np_columns()[3]
        assert graph.min_edge_cost() == float(e_cost.min())


class TestAutoBatchParity:
    """route_point_to_point_batch == K x route_point_to_point."""

    def _pairs(self, device, k, seed, **kw):
        return [
            (s[0], next(iter(t)))
            for s, t in _maze_requests(device, k, seed, **kw)
        ]

    def _check(self, device, pairs, **kw):
        out = route_point_to_point_batch(device, pairs, **kw)
        assert len(out) == len(pairs)
        for (src, sink), got in zip(pairs, out):
            try:
                want = route_point_to_point(device, src, sink, **kw)
            except errors.JRouteError as e:
                assert type(got) is type(e)
                assert str(got) == str(e)
                continue
            assert not isinstance(got, errors.JRouteError), got
            assert got.plan == want.plan
            assert got.method == want.method
            assert got.templates_tried == want.templates_tried
        return out

    def test_matches_scalar_including_template_phase(self):
        device = Device(PART)
        out = self._check(device, self._pairs(device, 8, 12, max_span=6))
        assert any(not isinstance(o, errors.JRouteError) for o in out)

    def test_template_misses_ride_one_maze_batch(self):
        device = Device(PART)
        pairs = self._pairs(device, 6, 18)
        out = self._check(device, pairs, try_templates=False)
        methods = {
            o.method for o in out if not isinstance(o, errors.JRouteError)
        }
        assert methods == {"maze"}


class TestFaultyEndpoints:
    """A request its fault map rules out fails the same way on every
    path: templates on or off, one pair or a batch, API or router."""

    SOURCE = Pin(1, 13, wires.S0_YQ)
    SINK = Pin(3, 16, wires.S0F[1])

    def _router(self, try_templates):
        r = JRouter(part=PART, attach_jbits=False, try_templates=try_templates)
        r.device.set_fault_model(
            FaultModel.random(
                r.device.arch, seed=1, stuck_open_rate=0.01,
                dead_wire_rate=0.002,
            )
        )
        return r

    def test_dead_source_fails_alike_on_every_path(self):
        outcomes = set()
        for try_templates in (True, False):
            r = self._router(try_templates)
            src = r._source_canon(self.SOURCE)
            assert r.device.faults.unusable[src], "workload lost its dead source"
            with pytest.raises(errors.UnroutableError) as ei:
                r.route(self.SOURCE, self.SINK)
            outcomes.add((type(ei.value), str(ei.value)))
            (o,) = self._router(try_templates).route_p2p_batch(
                [(self.SOURCE, self.SINK)]
            )
            assert not o.success
            outcomes.add((type(o.error), str(o.error)))
            device = r.device
            sink = device.resolve(self.SINK.row, self.SINK.col, self.SINK.wire)
            with pytest.raises(errors.UnroutableError) as ei:
                route_point_to_point(
                    device, src, sink, try_templates=try_templates
                )
            outcomes.add((type(ei.value), str(ei.value)))
            (res,) = route_point_to_point_batch(
                device, [(src, sink)], try_templates=try_templates
            )
            outcomes.add((type(res), str(res)))
        with pytest.raises(errors.UnroutableError) as ei:
            route_maze(device, [src], {sink})
        outcomes.add((type(ei.value), str(ei.value)))
        (res,) = route_maze_batch(device, [([src], {sink})]).results
        outcomes.add((type(res), str(res)))
        assert outcomes == {
            (
                errors.UnroutableError,
                "source wire is a faulty fabric resource "
                "[row=1, col=13, wire=S0_YQ]",
            )
        }

    def test_one_live_start_wire_is_enough(self):
        device = self._router(False).device
        src = device.resolve(self.SOURCE.row, self.SOURCE.col, self.SOURCE.wire)
        sink = device.resolve(self.SINK.row, self.SINK.col, self.SINK.wire)
        live = device.resolve(2, 14, wires.S0_YQ)
        assert not device.faults.unusable[live]
        # a live reuse wire can still launch the signal: a search runs
        res = route_maze(device, [src], {sink}, reuse={live})
        assert res.plan


class TestRouterP2PBatch:
    """JRouter.route_p2p_batch: apply order, reroute, report shape."""

    def _nets(self, router, k, seed, **kw):
        kw.setdefault("min_span", 2)
        kw.setdefault("max_span", 8)
        return random_p2p_nets(router.device.arch, k, seed=seed, **kw)

    def test_applies_the_same_pips_as_sequential_route(self):
        r1 = JRouter(part=PART, attach_jbits=False)
        r2 = JRouter(part=PART, attach_jbits=False)
        nets = self._nets(r1, 6, seed=3)
        pairs = [(n.source, n.sinks[0]) for n in nets]
        out = r1.route_p2p_batch(pairs)
        assert [o.success for o in out] == [True] * len(pairs)
        assert [o.index for o in out] == list(range(len(pairs)))
        total = sum(r2.route(n.source, n.sinks[0]) for n in nets)
        assert sum(o.pips_added for o in out) == total
        assert r1.last_report is not None
        assert r1.last_report.success
        assert r1.last_report.pips_added == total
        assert r1.last_report.search_stats is not None
        # every sink is now driven, and the nets are traceable
        for n in nets:
            sink = r1.device.resolve(
                n.sinks[0].row, n.sinks[0].col, n.sinks[0].wire
            )
            assert r1.device.state.is_driven(sink)
            assert r1.trace(n.source).sinks

    def test_method_counters_match_outcomes(self):
        r = JRouter(part=PART, attach_jbits=False)
        pairs = [(n.source, n.sinks[0]) for n in self._nets(r, 5, seed=14)]
        out = r.route_p2p_batch(pairs)
        hits = sum(o.method == "template" for o in out)
        mazes = sum(o.method == "maze" for o in out)
        assert r.p2p_template_hits == hits
        assert r.p2p_maze_fallbacks == mazes

    def test_conflicting_plan_is_rerouted_in_order(self, monkeypatch):
        r = JRouter(part=PART, attach_jbits=False, try_templates=False)
        pairs = [(n.source, n.sinks[0]) for n in self._nets(r, 3, seed=6)]
        real = router_mod.apply_plan
        tripped = []

        def flaky(device, plan):
            # simulate pair 0's plan losing a wire to an earlier pair:
            # first application conflicts, the re-planned one succeeds
            if not tripped:
                tripped.append(True)
                raise errors.ContentionError("wire claimed by earlier pair")
            return real(device, plan)

        monkeypatch.setattr(router_mod, "apply_plan", flaky)
        out = r.route_p2p_batch(pairs)
        assert [o.success for o in out] == [True] * len(pairs)
        assert [o.rerouted for o in out] == [True, False, False]
        assert r.last_report.success

    def test_driven_sink_and_already_routed_pair_short_circuit(self):
        r = JRouter(part=PART, attach_jbits=False)
        nets = self._nets(r, 2, seed=3)
        assert r.route(nets[0].source, nets[0].sinks[0]) > 0
        out = r.route_p2p_batch(
            [
                # same net again: sink already in the source's subtree
                (nets[0].source, nets[0].sinks[0]),
                # another net asking for the now-driven sink
                (nets[1].source, nets[0].sinks[0]),
                # untouched pair: must still route normally
                (nets[1].source, nets[1].sinks[0]),
            ]
        )
        assert out[0].success and out[0].pips_added == 0
        assert not out[1].success
        assert isinstance(out[1].error, errors.ContentionError)
        assert out[2].success and out[2].pips_added > 0
        assert not r.last_report.success
        assert r.last_report.failures

    def test_open_breaker_refuses_without_searching(self):
        r = JRouter(part=PART, attach_jbits=False, deadline_ms=60_000)
        nets = self._nets(r, 2, seed=11)
        pairs = [(n.source, n.sinks[0]) for n in nets]
        src = r._source_canon(nets[0].source)
        for _ in range(r.breaker.max_trips):
            r.breaker.record_trip(src)
        out = r.route_p2p_batch(pairs)
        assert not out[0].success
        assert isinstance(out[0].error, errors.UnroutableError)
        assert "circuit breaker open" in str(out[0].error)
        assert out[1].success
        assert r.last_report.breaker_open

    def test_expired_deadline_times_out_whole_batch(self):
        r = JRouter(part=PART, attach_jbits=False, deadline_ms=0.0)
        pairs = [(n.source, n.sinks[0]) for n in self._nets(r, 3, seed=5)]
        out = r.route_p2p_batch(pairs)
        assert all(not o.success for o in out)
        assert all(
            isinstance(o.error, errors.DeadlineExceededError) for o in out
        )
        assert r.last_report.timed_out
        assert len(r.last_report.failures) == len(pairs)

    def test_router_weight_does_not_pick_the_engine(self, monkeypatch):
        """A router's A* weight leaves its batches on the wavefront: a
        default router batches exactly as a weight-0 one does."""
        faults = FaultModel.random(
            Device(PART).arch, seed=5, stuck_open_rate=0.02, dead_wire_rate=0.004
        )

        def router(**kw):
            return JRouter(
                part=PART, attach_jbits=False, faults=faults,
                try_templates=False, **kw,
            )

        weighted = router()
        plain = router(heuristic_weight=0.0)
        assert weighted.heuristic_weight == 0.8
        pairs = [
            (n.source, n.sinks[0])
            for n in self._nets(weighted, 8, seed=21, max_span=10)
        ]
        wavefronts = _counting(monkeypatch, maze_mod, "dijkstra_batch")
        scalar = _counting(monkeypatch, maze_mod, "dijkstra")
        got = weighted.route_p2p_batch(pairs)
        assert len(wavefronts) == 1 and scalar == []
        monkeypatch.undo()
        want = plain.route_p2p_batch(pairs)
        # a re-route would run a scalar search at each router's weight
        assert not any(o.rerouted for o in got)
        assert any(o.success for o in got), "fault workload routed nothing"
        assert got == want
        assert (
            weighted.device.state.fingerprint()
            == plain.device.state.fingerprint()
        )
        assert (
            weighted.last_report.search_stats.as_dict()
            == plain.last_report.search_stats.as_dict()
        )

    def test_batch_runs_inline_whatever_the_routers_backend(self, monkeypatch):
        """``workers``/``backend`` configure route_nets only: a batch
        never reaches PathFinder's process pool."""

        def no_pool(*args, **kwargs):
            raise AssertionError("route_p2p_batch reached a process pool")

        monkeypatch.setattr(pathfinder_mod, "_process_pool", no_pool)
        pooled = JRouter(
            part=PART, attach_jbits=False, try_templates=False,
            workers=2, backend="process",
        )
        plain = JRouter(part=PART, attach_jbits=False, try_templates=False)
        pairs = [(n.source, n.sinks[0]) for n in self._nets(plain, 4, seed=9)]
        got = pooled.route_p2p_batch(pairs)
        assert [o.success for o in got] == [True] * len(pairs)
        assert got == plain.route_p2p_batch(pairs)
        assert (
            pooled.device.state.fingerprint() == plain.device.state.fingerprint()
        )


class TestCliBatch:
    def test_route_batch_routes_pairs(self, capsys):
        rc = main(
            [
                "route", PART,
                "5", "7", "S1_YQ", "6", "8", "S0F3",
                "10", "12", "S0_YQ", "11", "13", "S1F2",
                "--batch",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("ok (") == 2
        assert "batch:" in out

    def test_route_batch_needs_pin_pairs(self, capsys):
        rc = main(
            [
                "route", PART,
                "5", "7", "S1_YQ", "6", "8", "S0F3", "10", "12", "S0_YQ",
                "--batch",
            ]
        )
        assert rc != 0
        assert "even number" in capsys.readouterr().err

    def test_route_batch_refuses_workers(self, capsys):
        rc = main(
            [
                "route", PART,
                "5", "7", "S1_YQ", "6", "8", "S0F3",
                "--batch", "--workers", "2",
            ]
        )
        assert rc == 2
        assert "--workers must be 1" in capsys.readouterr().err


class TestPathFinderRunsTheWavefront:
    """Every PathFinder sink search is a one-lane ``dijkstra_batch``
    call, serial or in a pool worker; the scalar kernel is never used."""

    def _nets(self, device):
        return [
            pathfinder_mod.NetSpec.of(srcs[0], sorted(targets))
            for srcs, targets in _maze_requests(device, 5, 21)
        ]

    def test_serial_and_worker_searches_run_the_wavefront(self, monkeypatch):
        wavefronts = _counting(monkeypatch, pathfinder_mod, "dijkstra_batch")
        scalar = _counting(monkeypatch, kernel_mod, "dijkstra")
        scalar_maze = _counting(monkeypatch, maze_mod, "dijkstra")
        assert not hasattr(pathfinder_mod, "dijkstra")
        device = Device(PART)
        nets = self._nets(device)
        serial = pathfinder_mod.route_pathfinder(device, nets, apply=False)
        assert serial.converged and serial.iterations == 1
        assert len(wavefronts) == serial.stats.searches > 0
        for args in wavefronts:
            assert len(args[2]) == 1  # one lane per sink search
        # one pool-worker task, run in this process: the whole net list
        # as one partition node of the first iteration
        for name in ("_W_GRAPH", "_W_ARCH", "_W_STATE"):
            monkeypatch.setattr(pathfinder_mod, name, None)
        monkeypatch.setattr(pathfinder_mod, "_W_CALLS", OrderedDict())
        pathfinder_mod._process_worker_init(
            shared_graph_export(device.arch).meta, PART
        )
        assert isinstance(pathfinder_mod._W_STATE, BatchSearchState)
        endpoints = frozenset(
            w for net in nets for w in (net.source, *net.sinks)
        )
        config = (
            device.state.occupied.tobytes(), endpoints, None, 400_000, None
        )
        group = list(range(len(nets)))
        before = len(wavefronts)
        kind, out, stats, _pid = pathfinder_mod._process_node_task(
            ("in-process", 0), 0, 0, config, [], group,
            {i: (nets[i].source, nets[i].sinks) for i in group},
            {i: () for i in group}, [], 0.5, None,
        )
        assert kind == "ok"
        assert len(wavefronts) - before == stats["searches"] == serial.stats.searches
        assert {i: plan for i, (plan, _w) in out.items()} == serial.plans
        assert stats == serial.stats.as_dict()
        assert scalar == [] and scalar_maze == []

    @pytest.mark.parametrize(
        "knob", ["present_factor_init", "present_factor_mult", "history_increment"]
    )
    def test_negative_cost_factor_is_refused(self, knob):
        device = Device(PART)
        with pytest.raises(ValueError, match=knob):
            pathfinder_mod.route_pathfinder(
                device, self._nets(device), apply=False, **{knob: -0.1}
            )
