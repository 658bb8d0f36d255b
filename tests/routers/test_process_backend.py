"""PathFinder worker processes: determinism, accounting and shm lifecycle.

``workers > 1`` runs partition-tree nodes on a cached process pool.  For
a fixed worker count the results — plans, convergence,
:class:`~repro.core.kernel.SearchStats` and failure messages — must be
identical from run to run, on a fresh pool and on a reused one, and
whichever worker ran which node; ``workers=1`` is the serial loop and
ships nothing.  These tests pin that contract, the exactness of the
merged stats accounting (no lost updates at the iteration barrier or in
``GLOBAL_STATS``), recovery from a worker that died, and the
shared-memory graph export/attach/cleanup lifecycle the pool is built on.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

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
from repro.routers import pathfinder as pathfinder_mod
from repro.routers.pathfinder import build_partition_tree, shutdown_process_pools

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


def _clusters_workload(device):
    """Two separable clusters of five nets, each funnelled into the
    *same two* sink wires: the sharing can never resolve, so every
    iteration reroutes and ships a fresh (small) congestion delta."""

    def cluster(r0, c0):
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

    return cluster(2, 2) + cluster(9, 16)


def _route(workers, workload=_random_workload, **kw):
    device = Device(PART)
    return route_pathfinder(
        device, workload(device), workers=workers, apply=False, **kw
    )


def _fresh_then_warm(run, *args, **kw):
    """Two results of ``run(...)``: one on a fresh pool, one on the reused one."""
    shutdown_process_pools()
    return run(*args, **kw), run(*args, **kw)


def _assert_same(a, b, label) -> None:
    assert a.converged == b.converged, label
    assert a.iterations == b.iterations, label
    assert a.plans == b.plans, label
    assert a.stats.as_dict() == b.stats.as_dict(), label
    assert a.workers == b.workers, label


class TestBackendParity:
    """Process runs at a fixed worker count replicate each other exactly."""

    def test_identical_across_backends_at_fixed_worker_count(self):
        """For any fixed worker count, runs are bit-identical — on a
        fresh pool and on the reused one.

        A partition-tree node is a pure function of the iteration-start
        congestion state plus its descendants' results, so neither the
        worker that ran it nor the pool's history may leak into plans,
        convergence or stats.  Across *different* worker counts the
        tree shape (and therefore the negotiation trajectory)
        legitimately differs — the contract there is convergence plus
        the ``workers=1`` serial oracle, not plan identity.
        """
        for w in (1, 2, 4):
            fresh, warm = _fresh_then_warm(_route, w)
            assert fresh.converged, w
            _assert_same(fresh, warm, w)
            # workers=1 is the serial loop: no tree, no pool, no IPC
            assert (fresh.workers > 1) == bool(fresh.ipc_bytes) == (w > 1), w

    def test_result_records_backend_and_effective_workers(self):
        device = Device(PART)
        nets = _random_workload(device, n=3)
        res = route_pathfinder(device, nets, workers=2, apply=False)
        # the reported count is the tree's actual leaf concurrency —
        # never a silent echo of the request
        _root, tree, n_leaves = build_partition_tree(Device(PART), nets, 2)
        assert res.workers == (n_leaves if n_leaves > 1 else 1)
        assert 1 <= res.workers <= 2
        # payloads are shipped exactly when the pool routes the tree
        assert bool(res.ipc_bytes) == (res.workers > 1)
        res = route_pathfinder(device, nets, workers=1, apply=False)
        assert res.workers == 1
        assert res.ipc_bytes == []

    def test_unknown_backend_rejected(self):
        for backend in ("fiber", "thread"):
            with pytest.raises(ValueError, match="unknown backend"):
                JRouter(part=PART, attach_jbits=False, backend=backend)

    def test_failure_messages_identical_across_backends(self):
        """A worker-side failure surfaces with the same exception type,
        message and stats on every run, fresh pool or reused."""

        def fail():
            with pytest.raises(errors.UnroutableError) as ei:
                _route(2, lambda d: _random_workload(d, n=4), max_nodes_per_net=1)
            assert ei.value.search_stats is not None
            return str(ei.value), ei.value.search_stats.as_dict()

        fresh, warm = _fresh_then_warm(fail)
        assert fresh == warm
        assert "node budget exhausted" in fresh[0]

    def test_expired_deadline_times_out_on_both_backends(self):
        """Serial and pooled runs both abandon cleanly on a spent budget."""
        for w in (1, 2):
            device = Device(PART)
            nets = _random_workload(device, n=3)
            res = route_pathfinder(
                device, nets, workers=w, deadline=Deadline(0.0), apply=True
            )
            assert res.timed_out, w
            assert not res.converged
            assert res.plans == {}
            assert res.pips_added == 0


class TestRouterWorkers:
    """``JRouter(workers=N)`` routes ``route_nets`` on the process pool."""

    def test_default_router_routes_nets_on_process_pool(self, monkeypatch):
        real = pathfinder_mod._process_pool
        pools = []

        def spy(arch, workers):
            pools.append(workers)
            return real(arch, workers)

        monkeypatch.setattr(pathfinder_mod, "_process_pool", spy)
        router = JRouter(part=PART, attach_jbits=False, workers=2)
        nets = random_p2p_nets(
            router.device.arch, 6, seed=3, min_span=2, max_span=10
        )
        res = router.route_nets([(n.source, n.sinks[0]) for n in nets])
        assert res.converged
        assert res.workers == 2 and pools == [2]
        assert res.ipc_bytes

    def test_thread_backend_rejected(self):
        JRouter(part=PART, attach_jbits=False, backend="process")
        with pytest.raises(ValueError, match="'thread'"):
            JRouter(part=PART, attach_jbits=False, workers=2, backend="thread")


class TestPoolRecovery:
    def test_killed_worker_pool_is_replaced(self):
        """A worker killed between calls breaks the cached pool.  The
        call that meets the broken pool may raise, but the pool must
        leave the cache: the next call converges on a fresh pool, with
        the plans and stats of an undisturbed run."""
        want = _route(2)
        assert want.workers == 2
        pool = pathfinder_mod._POOLS[(PART, 2)]
        os.kill(pool.submit(os.getpid).result(), signal.SIGKILL)
        give_up = time.monotonic() + 30.0
        while True:  # until the executor has noticed the dead worker
            try:
                pool.submit(int).result()
            except BrokenProcessPool:
                break
            assert time.monotonic() < give_up, "the pool never broke"
        try:
            _route(2)
        except BrokenProcessPool:
            pass  # the call that meets the broken pool may fail
        got = _route(2)
        assert pathfinder_mod._POOLS[(PART, 2)] is not pool
        _assert_same(got, want, "after a worker was killed")


class TestFaultyFabric:
    """PathFinder masks faults on the serial path and in the workers."""

    def test_route_nets_routes_around_faults_on_every_path(self):
        arch = VirtexArch(PART)
        shutdown_process_pools()  # seed 0's first pooled run meets a fresh pool
        for seed in range(6):
            runs = {}
            for label, w in (("serial", 1), ("process", 4), ("again", 4)):
                faults = FaultModel.random(arch, seed=seed, stuck_open_rate=0.05)
                router = JRouter(part=PART, attach_jbits=False, faults=faults)
                nets = random_p2p_nets(arch, 12, seed=seed)
                res = router.route_nets(
                    [(n.source, n.sinks[0]) for n in nets], workers=w
                )
                assert res.converged, (seed, label)
                for rec in router.device.state.pip_of.values():
                    assert not faults.pip_blocked(rec.canon_from, rec.canon_to)
                report = router.last_report
                assert report.faults_avoided == report.search_stats.faults_avoided > 0
                runs[label] = res
            assert runs["process"].workers > 1, seed
            _assert_same(runs["process"], runs["again"], seed)


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

        n_nodes = Device(PART).routing_graph().n_nodes
        res, again = _fresh_then_warm(
            _route, 2, _clusters_workload, max_iterations=6
        )
        assert res.workers == 2
        assert len(res.ipc_bytes) == res.iterations == 6
        # warm-up carries each worker's one-time config (dominated by
        # the blocked bitmap: one byte per wire per worker)
        assert res.ipc_bytes[0] > n_nodes
        # steady state ships sparse deltas only: orders of magnitude
        # below the device size PR 8 shipped every iteration
        assert min(res.ipc_bytes[2:]) < n_nodes // 8
        # a serial run does no IPC at all
        assert _route(1, _clusters_workload, max_iterations=6).ipc_bytes == []
        # six delta-synced iterations replay exactly on the reused pool
        _assert_same(res, again, "delta-synced iterations")

    def test_delta_suffixes_match_full_history(self, monkeypatch):
        """Suffix shipping must leave every worker's ledger where the
        full history would.  With ``_DeltaShipper.seen`` a no-op the
        parent never learns a worker's version, so every payload ships
        the config and the whole delta log from version 0 — the oracle
        neither slices a suffix nor syncs a ledger from mid-history."""
        n_nodes = Device(PART).routing_graph().n_nodes
        suffix = _route(2, _clusters_workload, max_iterations=6)
        monkeypatch.setattr(
            pathfinder_mod._DeltaShipper, "seen", lambda *_: None
        )
        full = _route(2, _clusters_workload, max_iterations=6)
        assert min(suffix.ipc_bytes[2:]) < n_nodes // 8
        assert min(full.ipc_bytes) > n_nodes  # config every iteration
        _assert_same(full, suffix, "suffix vs full-history shipping")


class TestStatsAccounting:
    """Merged SearchStats must be exact: no lost or duplicated updates."""

    def test_exact_stats_equality_serial_vs_four_workers(self):
        """With spatially disjoint nets the partitioned searches expand
        the same wavefronts as the serial loop, so the merged counters
        must match *exactly* — any discrepancy is an accounting bug."""

        def run(w):
            res = _route(w, _disjoint_workload, use_longs=False)
            assert res.converged
            return res.stats.as_dict()

        baseline = run(1)
        fresh, warm = _fresh_then_warm(run, 4)
        assert fresh == baseline
        assert warm == baseline
        assert baseline["searches"] == 8  # 4 nets x 2 sinks

    def test_global_stats_no_lost_updates(self):
        """GLOBAL_STATS grows by exactly the run's merged stats — the
        old unsynchronized read-modify-write could drop updates under
        workers > 1."""
        for w in (1, 4):
            before = GLOBAL_STATS.as_dict()
            res = _route(w)
            after = GLOBAL_STATS.as_dict()
            for k, v in res.stats.as_dict().items():
                assert after[k] - before[k] == v, (w, k)


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
