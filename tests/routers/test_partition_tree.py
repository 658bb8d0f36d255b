"""Partition-tree PathFinder: tree shape, edge cases and the serial oracle.

The recursive spatial bipartition tree (:func:`build_partition_tree`)
replaced the flat bbox stripes of the parallel PathFinder.  These tests
pin its structural invariants (preorder indexing, net conservation, cut
assignment), the degenerate geometries the stripes handled by silently
shrinking the worker count (stacked nets, chip-spanning nets, more
workers than nets), deadline expiry inside and ahead of the tree, and
the ``workers=1`` parity oracle against the preserved pre-kernel
reference implementation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.arch import wires
from repro.bench.workloads import random_p2p_nets
from repro.core.deadline import Deadline
from repro.device.fabric import Device
from repro.routers import NetSpec, route_pathfinder
from repro.routers.pathfinder import PartitionNode, build_partition_tree
from tests.routers._reference import route_pathfinder_reference

PART = "XCV50"

common = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _specs(device, workloads):
    out = []
    for net in workloads:
        src = device.resolve(net.source.row, net.source.col, net.source.wire)
        sinks = [device.resolve(p.row, p.col, p.wire) for p in net.sinks]
        out.append(NetSpec.of(src, sinks))
    return out


def _stacked_workload(device, n=4, row=3, col=3):
    """All nets on one tile: every bbox center coincides, no cut exists."""
    src_wires = [wires.S0_XQ, wires.S0_YQ, wires.S1_XQ, wires.S1_YQ]
    out = []
    for i in range(n):
        src = device.resolve(row, col, src_wires[i % len(src_wires)])
        sinks = (device.resolve(row, col, wires.S0F[1 + i % 3]),)
        out.append(NetSpec.of(src, sinks))
    return out


class TestTreeStructure:
    def test_preorder_indices_and_net_conservation(self):
        device = Device(PART)
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 12, seed=7, min_span=2, max_span=8),
        )
        root, order, n_leaves = build_partition_tree(device, nets, 4)
        assert root is order[0]
        assert [node.index for node in order] == list(range(len(order)))
        # preorder: every child follows its parent
        for node in order:
            for child in node.children:
                assert child.index > node.index
        # every net appears exactly once somewhere in the tree
        seen = [i for node in order for i in node.nets]
        assert sorted(seen) == list(range(len(nets)))
        assert n_leaves == sum(1 for node in order if node.is_leaf)
        assert 1 <= n_leaves <= 4

    def test_cut_nets_cross_their_cut_line(self):
        device = Device(PART)
        graph = device.routing_graph()
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 12, seed=19, min_span=2, max_span=10),
        )
        bboxes = graph.bbox_map([(n.source, *n.sinks) for n in nets])
        _root, order, _ = build_partition_tree(device, nets, 4)
        for node in order:
            if node.is_leaf:
                assert node.axis == -1
                continue
            assert node.axis in (0, 1)
            assert len(node.children) == 2
            for i in node.nets:  # crossing nets straddle the cut
                lo = bboxes[i][node.axis]
                hi = bboxes[i][node.axis + 2]
                assert lo <= node.cut <= hi
            left, right = node.children

            def subtree_nets(n: PartitionNode):
                yield from n.nets
                for c in n.children:
                    yield from subtree_nets(c)

            for i in subtree_nets(left):  # entirely below the cut
                assert bboxes[i][node.axis + 2] < node.cut
            for i in subtree_nets(right):  # entirely above it
                assert bboxes[i][node.axis] > node.cut


class TestDegenerateGeometry:
    def test_workers_exceeding_net_count(self):
        device = Device(PART)
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 3, seed=5, min_span=2, max_span=6),
        )
        res = route_pathfinder(device, nets, workers=16, apply=False)
        assert res.converged
        # concurrency is capped by the net count, reported honestly
        assert 1 <= res.workers <= len(nets)

    def test_all_nets_stacked_on_one_tile_degrades_to_serial(self):
        device = Device(PART)
        nets = _stacked_workload(device)
        root, order, n_leaves = build_partition_tree(device, nets, 4)
        # identical bbox centers admit no cut: the tree is its root
        assert n_leaves == 1
        assert root.is_leaf and root.nets == tuple(range(len(nets)))
        res = route_pathfinder(device, nets, workers=4, apply=False)
        assert res.workers == 1  # serial fallback, not a silent lie
        # and it is the serial algorithm: bit-identical to workers=1
        ref = route_pathfinder(Device(PART), nets, workers=1, apply=False)
        assert res.plans == ref.plans
        assert res.stats.as_dict() == ref.stats.as_dict()

    def test_chip_spanning_net_lands_on_an_ancestor_of_both_sides(self):
        device = Device(PART)
        arch = device.arch
        # a net whose bbox covers the whole fabric crosses every cut
        wide = NetSpec.of(
            device.resolve(1, 1, wires.S0_YQ),
            [
                device.resolve(arch.rows - 2, arch.cols - 2, wires.S0F[1]),
                device.resolve(1, arch.cols - 2, wires.S0F[2]),
            ],
        )
        locals_ = _specs(
            device,
            random_p2p_nets(device.arch, 8, seed=23, min_span=2, max_span=5),
        )
        nets = locals_ + [wide]
        root, order, n_leaves = build_partition_tree(device, nets, 4)
        if n_leaves > 1:
            # the wide net can sit on no leaf: it straddles the root cut
            assert len(nets) - 1 in root.nets
        res = route_pathfinder(device, nets, workers=4, apply=False)
        assert res.converged


class TestDeadlineMidSubtree:
    @pytest.mark.parametrize(
        "deadline,searched",
        [
            # the parent's frozen clock still shows budget at the
            # iteration boundary, so the tree launches and the workers
            # spend the 1 us they were shipped inside their searches
            pytest.param(
                lambda: Deadline(1e-3, clock=lambda: 0.0), True, id="thread"
            ),
            # already spent at the iteration boundary: nothing launches
            pytest.param(lambda: Deadline(0.0), False, id="process"),
        ],
    )
    def test_expiry_mid_subtree_abandons_cleanly(self, deadline, searched):
        device = Device(PART)
        nets = _specs(
            device,
            random_p2p_nets(device.arch, 8, seed=3, min_span=2, max_span=10),
        )
        res = route_pathfinder(
            device, nets, workers=4, deadline=deadline(), apply=True
        )
        assert res.workers > 1
        assert res.timed_out
        assert (res.stats.searches > 0) == searched
        assert not res.converged
        assert res.plans == {} and res.pips_added == 0
        # the device is untouched by the abandoned run
        assert int(device.state.occupied.sum()) == 0


class TestSerialOracle:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @common
    def test_workers1_bit_identical_to_reference(self, seed, n):
        """The parity oracle: ``workers=1`` under the tree code is the
        serial algorithm, plan- and trajectory-identical to the
        preserved pre-kernel reference (which records no stats; stats
        determinism is pinned against a second identical run)."""
        d1, d2, d3 = Device(PART), Device(PART), Device(PART)
        workloads = random_p2p_nets(
            d1.arch, n, seed=seed, min_span=2, max_span=8
        )
        try:
            a = route_pathfinder(
                d1,
                _specs(d1, workloads),
                workers=1,
                apply=False,
                max_iterations=8,
            )
        except errors.UnroutableError:
            with pytest.raises(errors.UnroutableError):
                route_pathfinder_reference(
                    d2, _specs(d2, workloads), apply=False, max_iterations=8
                )
            return
        b = route_pathfinder_reference(
            d2, _specs(d2, workloads), apply=False, max_iterations=8
        )
        assert a.converged == b.converged
        assert a.iterations == b.iterations
        assert a.plans == b.plans
        again = route_pathfinder(
            d3, _specs(d3, workloads), workers=1, apply=False, max_iterations=8
        )
        assert again.plans == a.plans
        assert again.stats.as_dict() == a.stats.as_dict()
