"""Process-backend PathFinder: parity, accounting and shm lifecycle.

The process execution backend must be indistinguishable from the thread
backend for any fixed worker count: identical plans, identical
convergence behaviour, identical :class:`~repro.core.kernel.SearchStats`
and identical failure messages.  These tests pin that contract, the
exactness of the merged stats accounting (no lost updates at the
iteration barrier or in ``GLOBAL_STATS``), and the shared-memory graph
export/attach/cleanup lifecycle the backend is built on.
"""

from __future__ import annotations

import gc

import pytest

from repro import errors
from repro.arch import wires
from repro.arch.graph import (
    SharedGraphExport,
    attach_shared_graph,
    routing_graph,
    shared_graph_export,
)
from repro.arch.virtex import VirtexArch
from repro.bench.workloads import random_p2p_nets
from repro.core.deadline import Deadline
from repro.core.kernel import GLOBAL_STATS
from repro.core.router import JRouter
from repro.device.fabric import Device
from repro.device.faults import FaultModel
from repro.routers import NetSpec, route_pathfinder
from repro.routers.pathfinder import build_partition_tree

PART = "XCV50"


def _specs(device, workloads):
    out = []
    for net in workloads:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        out.append(NetSpec.of(src, sinks))
    return out


def _random_workload(device, n=6, seed=3):
    return _specs(
        device,
        random_p2p_nets(device.arch, n, seed=seed, min_span=2, max_span=10),
    )


def _disjoint_workload(device):
    """Nets in far-apart corner clusters: search regions never overlap,
    so serial and partitioned runs expand bit-identical wavefronts."""
    arch = device.arch

    def net(r, c):
        src = device.resolve(r, c, wires.S0_YQ)
        sinks = (
            device.resolve(r + 2, c + 2, wires.S0F[1]),
            device.resolve(r + 1, c + 2, wires.S1G[2]),
        )
        return NetSpec.of(src, sinks)

    corners = [
        (2, 2),
        (2, arch.cols - 4),
        (arch.rows - 4, 2),
        (arch.rows - 4, arch.cols - 4),
    ]
    return [net(r, c) for r, c in corners]


class TestBackendParity:
    """backend="process" must replicate backend="thread" exactly."""

    def test_identical_across_backends_at_fixed_worker_count(self):
        """For any fixed worker count the two backends are bit-identical.

        A partition-tree node is a pure function of the iteration-start
        congestion state plus its descendants' results, so the execution
        vehicle must not leak into plans, convergence or stats.  Across
        *different* worker counts the tree shape (and therefore the
        negotiation trajectory) legitimately differs — the contract
        there is convergence plus the ``workers=1`` serial oracle, not
        plan identity.
        """
        results = {}
        for backend in ("thread", "process"):
            for w in (1, 2, 4):
                device = Device(PART)
                nets = _random_workload(device)
                results[(backend, w)] = route_pathfinder(
                    device, nets, workers=w, backend=backend, apply=False
                )
        for w in (1, 2, 4):
            t, p = results[("thread", w)], results[("process", w)]
            assert t.converged and p.converged, w
            assert t.iterations == p.iterations, w
            assert t.plans == p.plans, w
            assert t.stats.as_dict() == p.stats.as_dict(), w
            assert t.workers == p.workers, w
        # workers=1 bypasses the tree on either backend: bit-identical
        # to the serial algorithm regardless of the requested vehicle
        assert results[("process", 1)].plans == results[("thread", 1)].plans
        assert results[("process", 1)].workers == 1

    def test_result_records_backend_and_effective_workers(self):
        device = Device(PART)
        nets = _random_workload(device, n=3)
        res = route_pathfinder(
            device, nets, workers=2, backend="process", apply=False
        )
        assert res.backend == "process"
        # the reported count is the tree's actual leaf concurrency —
        # never a silent echo of the request
        _root, tree, n_leaves = build_partition_tree(Device(PART), nets, 2)
        assert res.workers == (n_leaves if n_leaves > 1 else 1)
        assert 1 <= res.workers <= 2
        res = route_pathfinder(device, nets, workers=1, apply=False)
        assert res.backend == "thread"
        assert res.workers == 1

    def test_unknown_backend_rejected(self):
        device = Device(PART)
        with pytest.raises(ValueError, match="unknown backend"):
            route_pathfinder(
                device, _random_workload(device, n=2), backend="fiber"
            )

    def test_failure_messages_identical_across_backends(self):
        """A worker-side failure surfaces with the exact same exception
        type and message the thread backend raises."""
        seen = {}
        for backend in ("thread", "process"):
            device = Device(PART)
            nets = _random_workload(device, n=4)
            with pytest.raises(errors.UnroutableError) as ei:
                route_pathfinder(
                    device,
                    nets,
                    workers=2,
                    backend=backend,
                    max_nodes_per_net=1,
                    apply=False,
                )
            assert ei.value.search_stats is not None
            seen[backend] = str(ei.value)
        assert seen["thread"] == seen["process"]
        assert "node budget exhausted" in seen["thread"]

    def test_expired_deadline_times_out_on_both_backends(self):
        for backend in ("thread", "process"):
            device = Device(PART)
            nets = _random_workload(device, n=3)
            res = route_pathfinder(
                device,
                nets,
                workers=2,
                backend=backend,
                deadline=Deadline(0.0),
                apply=True,
            )
            assert res.timed_out, backend
            assert not res.converged
            assert res.plans == {}
            assert res.pips_added == 0


class TestFaultyFabric:
    """PathFinder masks faults on the serial, thread and process paths."""

    def test_route_nets_routes_around_faults_on_every_path(self):
        arch = VirtexArch(PART)
        for seed in range(6):
            runs = {}
            for label, w, backend in (
                ("serial", 1, "thread"),
                ("thread", 4, "thread"),
                ("process", 4, "process"),
            ):
                faults = FaultModel.random(arch, seed=seed, stuck_open_rate=0.05)
                router = JRouter(part=PART, attach_jbits=False, faults=faults)
                nets = random_p2p_nets(arch, 12, seed=seed)
                res = router.route_nets(
                    [(n.source, n.sinks[0]) for n in nets],
                    workers=w,
                    backend=backend,
                )
                assert res.converged, (seed, label)
                for rec in router.device.state.pip_of.values():
                    assert not faults.pip_blocked(rec.canon_from, rec.canon_to)
                report = router.last_report
                assert report.faults_avoided == report.search_stats.faults_avoided > 0
                runs[label] = res
            t, p = runs["thread"], runs["process"]
            assert t.plans == p.plans, seed
            assert t.stats.as_dict() == p.stats.as_dict(), seed


class TestDeltaShipping:
    """Per-iteration IPC payloads must scale with the congestion delta,
    not with the device."""

    def test_bytes_shipped_scale_with_delta_not_device(self):
        """PR 8's process backend re-shipped ``blocked.tobytes()`` plus
        full use-count/history snapshots to every worker every
        iteration.  The delta protocol ships the call-static config once
        per worker and sparse per-iteration deltas after that, so after
        warm-up an iteration's total payload must be a small fraction of
        the device's wire count — not a multiple of it."""
        device = Device(PART)

        def cluster(r0, c0):
            # five nets funnelled into the *same two* sink wires: the
            # sharing can never resolve, so every iteration reroutes
            # and ships a fresh (small) delta
            out = []
            for dr, src_w in [
                (0, wires.S0_YQ),
                (1, wires.S0_YQ),
                (2, wires.S0_YQ),
                (0, wires.S1_YQ),
                (1, wires.S1_YQ),
            ]:
                src = device.resolve(r0 + dr, c0, src_w)
                sinks = (
                    device.resolve(r0 + 1, c0 + 2, wires.S0F[1]),
                    device.resolve(r0 + 1, c0 + 2, wires.S0F[2]),
                )
                out.append(NetSpec.of(src, sinks))
            return out

        nets = cluster(2, 2) + cluster(9, 16)  # two separable clusters
        n_nodes = device.routing_graph().n_nodes
        res = route_pathfinder(
            device,
            nets,
            workers=2,
            backend="process",
            apply=False,
            max_iterations=6,
        )
        assert res.workers == 2
        assert len(res.ipc_bytes) == res.iterations == 6
        # warm-up carries each worker's one-time config (dominated by
        # the blocked bitmap: one byte per wire per worker)
        assert res.ipc_bytes[0] > n_nodes
        # steady state ships sparse deltas only: orders of magnitude
        # below the device size PR 8 shipped every iteration
        assert min(res.ipc_bytes[2:]) < n_nodes // 8
        # thread backend does no IPC at all
        rt = route_pathfinder(
            device,
            nets,
            workers=2,
            backend="thread",
            apply=False,
            max_iterations=6,
        )
        assert rt.ipc_bytes == []
        # and the two vehicles still agree bit-for-bit on the outcome
        assert rt.stats.as_dict() == res.stats.as_dict()


class TestStatsAccounting:
    """Merged SearchStats must be exact: no lost or duplicated updates."""

    def test_exact_stats_equality_serial_vs_four_workers(self):
        """With spatially disjoint nets the partitioned searches expand
        the same wavefronts as the serial loop, so the merged counters
        must match *exactly* — any discrepancy is an accounting bug."""
        baseline = None
        for backend in ("thread", "process"):
            for w in (1, 4):
                device = Device(PART)
                nets = _disjoint_workload(device)
                res = route_pathfinder(
                    device,
                    nets,
                    workers=w,
                    backend=backend,
                    use_longs=False,
                    apply=False,
                )
                assert res.converged
                totals = res.stats.as_dict()
                if baseline is None:
                    baseline = totals
                else:
                    assert totals == baseline, (backend, w)
        assert baseline["searches"] == 8  # 4 nets x 2 sinks

    def test_global_stats_no_lost_updates(self):
        """GLOBAL_STATS grows by exactly the run's merged stats — the
        old unsynchronized read-modify-write could drop updates under
        workers > 1."""
        for backend in ("thread", "process"):
            device = Device(PART)
            nets = _random_workload(device)
            before = GLOBAL_STATS.as_dict()
            res = route_pathfinder(
                device, nets, workers=4, backend=backend, apply=False
            )
            after = GLOBAL_STATS.as_dict()
            for k, v in res.stats.as_dict().items():
                assert after[k] - before[k] == v, (backend, k)


class TestSharedGraphLifecycle:
    """Export/attach round-trip and segment cleanup semantics."""

    def test_export_is_cached_per_part(self):
        arch = VirtexArch(PART)
        a = shared_graph_export(arch)
        b = shared_graph_export(arch)
        assert a is b
        assert a.meta["part"] == PART

    def test_attach_round_trips_all_columns(self):
        arch = VirtexArch(PART)
        export = shared_graph_export(arch)
        src = routing_graph(arch)
        g = attach_shared_graph(export.meta)
        try:
            assert g.n_nodes == src.n_nodes
            assert g.n_edges == src.n_edges
            assert list(g.off[:64]) == list(src.off[:64])
            assert list(g.e_to[:64]) == list(src.e_to[:64])
            assert list(g.e_cost[:64]) == list(src.e_cost[:64])
            assert g.token != src.token  # attached graphs get fresh tokens
        finally:
            del g
            gc.collect()

    def test_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        arch = VirtexArch(PART)
        export = SharedGraphExport(routing_graph(arch))
        name = export.meta["name"]
        export.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        export.close()  # idempotent
