"""Pre-kernel reference routers (searches over ``fanout_pips``).

These are the original implementations of :func:`route_maze`,
:func:`route_pathfinder` and :func:`route_template`, preserved verbatim
when the compiled routing graph (:mod:`repro.arch.graph`) replaced them
on the hot path.  They serve two purposes:

* **parity oracle** — the kernel property tests assert the compiled
  routers produce identical plans (and costs, and errors) to these
  implementations on randomized workloads;
* **benchmark baseline** — ``benchmarks/bench_e17_kernel.py`` measures
  the compiled routers' speedup against them and records it in
  ``BENCH_routing.json``.

Do not use these in new code; they re-expand the wire graph through the
per-node generator on every search.
"""

from __future__ import annotations

import heapq
from typing import Collection, Iterable, Sequence

from repro import errors
from repro.arch import wires
from repro.arch.templates import TemplateValue, template_value_of
from repro.arch.wires import WireClass
from repro.device.fabric import Device
from repro.routers.base import PlanPip, apply_plan
from repro.routers.maze import MazeResult
from repro.routers.pathfinder import NetSpec, PathFinderResult

__all__ = [
    "route_maze_reference",
    "route_pathfinder_reference",
    "route_template_reference",
]


def _target_tiles(device: Device, targets: Collection[int]) -> list[tuple[int, int]]:
    return [device.arch.primary_name(t)[:2] for t in targets]


def route_maze_reference(
    device: Device,
    sources: Iterable[int],
    targets: Collection[int],
    *,
    reuse: Collection[int] = (),
    use_longs: bool = True,
    avoid_classes: Collection[WireClass] = (),
    heuristic_weight: float = 0.0,
    max_nodes: int = 200_000,
) -> MazeResult:
    """The pre-kernel :func:`~repro.routers.maze.route_maze` (see module
    docstring); same contract, per-sink dict allocation and generator
    expansion."""
    arch = device.arch
    occupied = device.state.occupied
    faults = device.faults
    fault_mask = faults.unusable if faults is not None else None
    target_set = set(targets)
    if not target_set:
        raise errors.UnroutableError("no targets given")
    reuse_set = set(reuse)
    source_set = set(sources)
    start_set = source_set | reuse_set
    if not start_set:
        raise errors.UnroutableError("no sources given")
    if fault_mask is not None:
        for t in target_set:
            if fault_mask[t]:
                r, c, n = arch.primary_name(t)
                raise errors.UnroutableError(
                    "target wire is a faulty fabric resource",
                    row=r,
                    col=c,
                    wire=wires.wire_name(n),
                )
    hit = target_set & start_set
    if hit:
        return MazeResult([], hit.pop(), 0.0, 0)

    if heuristic_weight > 0.0:
        goal_tiles = _target_tiles(device, target_set)
        rate = heuristic_weight * min(
            arch.wire_cost(wires.HEX_E[0]) / 6.0,
            1.0,
        )
        hex_n0 = wires.HEX_N[0]
        single_n0 = wires.SINGLE_N[0]

        def h(canon: int, to_name: int, row: int, col: int) -> float:
            info = wires.wire_info(to_name)
            cls = info.wire_class
            if cls is WireClass.SINGLE or cls is WireClass.HEX:
                r0, c0, n0 = arch.primary_name(canon)
                length = info.length
                vertical = n0 >= (hex_n0 if cls is WireClass.HEX else single_n0)
                if vertical:
                    ends = ((r0, c0), (r0 + length, c0))
                else:
                    ends = ((r0, c0), (r0, c0 + length))
                return rate * min(
                    abs(er - tr) + abs(ec - tc)
                    for er, ec in ends
                    for tr, tc in goal_tiles
                )
            if cls is WireClass.LONG_H:
                r0, _, _ = arch.primary_name(canon)
                return rate * min(abs(r0 - tr) for tr, _ in goal_tiles)
            if cls is WireClass.LONG_V:
                _, c0, _ = arch.primary_name(canon)
                return rate * min(abs(c0 - tc) for _, tc in goal_tiles)
            return rate * min(
                abs(row - tr) + abs(col - tc) for tr, tc in goal_tiles
            )

    else:

        def h(canon: int, to_name: int, row: int, col: int) -> float:
            return 0.0

    dist: dict[int, float] = {}
    prev: dict[int, PlanPip] = {}
    heap: list[tuple[float, float, int]] = []
    for s in start_set:
        dist[s] = 0.0
        r0, c0, n0 = arch.primary_name(s)
        heapq.heappush(heap, (h(s, n0, r0, c0), 0.0, s))

    expanded = 0
    faults_avoided = 0
    goal: int | None = None
    goal_cost = 0.0
    long_lo = wires.LONG_H[0]
    long_hi = wires.LONG_V[-1]
    avoid = frozenset(avoid_classes)

    while heap:
        f, g, canon = heapq.heappop(heap)
        if g > dist.get(canon, float("inf")):
            continue
        if canon in target_set:
            goal = canon
            goal_cost = g
            break
        if fault_mask is not None and fault_mask[canon]:
            faults_avoided += 1
            continue
        expanded += 1
        if expanded > max_nodes:
            raise errors.UnroutableError(
                f"maze search exceeded {max_nodes} node expansions",
                net=min(source_set) if source_set else None,
                faults_avoided=faults_avoided,
            )
        for row, col, from_name, to_name, canon_to in device.fanout_pips(canon):
            if not use_longs and long_lo <= to_name <= long_hi:
                continue
            if avoid and wires.wire_info(to_name).wire_class in avoid:
                continue
            if fault_mask is not None and (
                fault_mask[canon_to] or faults.pip_stuck_open(canon, canon_to)
            ):
                faults_avoided += 1
                continue
            if occupied[canon_to] and canon_to not in reuse_set:
                continue
            ng = g + arch.wire_cost(to_name)
            if ng < dist.get(canon_to, float("inf")):
                dist[canon_to] = ng
                prev[canon_to] = (row, col, from_name, to_name)
                heapq.heappush(
                    heap, (ng + h(canon_to, to_name, row, col), ng, canon_to)
                )

    if goal is None:
        tr, tc, tn = arch.primary_name(next(iter(target_set)))
        raise errors.UnroutableError(
            "no free path from sources to targets"
            + ("" if use_longs else " (long lines disabled)"),
            row=tr,
            col=tc,
            wire=wires.wire_name(tn),
            net=min(source_set) if source_set else None,
            faults_avoided=faults_avoided,
        )

    plan: list[PlanPip] = []
    w = goal
    while w not in start_set:
        pip = prev[w]
        plan.append(pip)
        row, col, from_name, _ = pip
        canon_from = arch.canonicalize(row, col, from_name)
        assert canon_from is not None
        w = canon_from
    plan.reverse()
    return MazeResult(plan, goal, goal_cost, expanded, faults_avoided)


def route_pathfinder_reference(
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
) -> PathFinderResult:
    """The pre-kernel negotiated-congestion router (serial, dict-based)."""
    arch = device.arch
    blocked = device.state.occupied
    endpoint_ok: set[int] = set()
    for net in nets:
        endpoint_ok.add(net.source)
        endpoint_ok.update(net.sinks)

    from repro.arch import wires as _w

    long_name_lo = _w.LONG_H[0]
    long_name_hi = _w.LONG_V[-1]

    history: dict[int, float] = {}
    usage: dict[int, set[int]] = {}
    net_wires: list[set[int]] = [set() for _ in nets]
    plans: list[list[PlanPip]] = [[] for _ in nets]
    present_factor = present_factor_init

    def wire_cost(canon: int, to_name: int, net_idx: int) -> float:
        base = arch.wire_cost(to_name)
        users = usage.get(canon)
        others = len(users - {net_idx}) if users else 0
        return base * (1.0 + present_factor * others) + history.get(canon, 0.0)

    def route_net(idx: int, net: NetSpec) -> None:
        for w in net_wires[idx]:
            users = usage.get(w)
            if users:
                users.discard(idx)
                if not users:
                    del usage[w]
        net_wires[idx] = set()
        plans[idx] = []
        tree: set[int] = {net.source}
        sr, sc, _ = arch.primary_name(net.source)
        order = sorted(
            set(net.sinks),
            key=lambda s: (
                abs(arch.primary_name(s)[0] - sr) + abs(arch.primary_name(s)[1] - sc),
                s,
            ),
        )
        for sink in order:
            dist: dict[int, float] = {w: 0.0 for w in tree}
            prev: dict[int, PlanPip] = {}
            heap = [(0.0, w) for w in tree]
            heapq.heapify(heap)
            expanded = 0
            found = False
            while heap:
                g, canon = heapq.heappop(heap)
                if g > dist.get(canon, float("inf")):
                    continue
                if canon == sink:
                    found = True
                    break
                expanded += 1
                if expanded > max_nodes_per_net:
                    raise errors.UnroutableError(
                        f"pathfinder net {idx}: node budget exhausted"
                    )
                for row, col, from_name, to_name, canon_to in device.fanout_pips(canon):
                    if not use_longs and long_name_lo <= to_name <= long_name_hi:
                        continue
                    if blocked[canon_to] and canon_to not in endpoint_ok:
                        continue
                    ng = g + wire_cost(canon_to, to_name, idx)
                    if ng < dist.get(canon_to, float("inf")):
                        dist[canon_to] = ng
                        prev[canon_to] = (row, col, from_name, to_name)
                        heapq.heappush(heap, (ng, canon_to))
            if not found:
                raise errors.UnroutableError(
                    f"pathfinder net {idx}: sink {sink} unreachable"
                )
            path: list[PlanPip] = []
            w = sink
            while w not in tree:
                pip = prev[w]
                path.append(pip)
                cf = arch.canonicalize(pip[0], pip[1], pip[2])
                assert cf is not None
                w = cf
            path.reverse()
            plans[idx].extend(path)
            for row, col, from_name, to_name in path:
                canon = arch.canonicalize(row, col, to_name)
                assert canon is not None
                tree.add(canon)
        net_wires[idx] = tree - {net.source}
        for w in net_wires[idx]:
            usage.setdefault(w, set()).add(idx)

    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        for idx, net in enumerate(nets):
            route_net(idx, net)
        shared = [w for w, users in usage.items() if len(users) > 1]
        if not shared:
            converged = True
            break
        for w in shared:
            history[w] = history.get(w, 0.0) + history_increment
        present_factor *= present_factor_mult

    result = PathFinderResult(iterations=iteration, converged=converged)
    if converged:
        for idx in range(len(nets)):
            result.plans[idx] = plans[idx]
        if apply:
            for idx in range(len(nets)):
                result.pips_added += apply_plan(device, plans[idx])
    return result


#: wire classes whose template value implies movement: once driven at one
#: end, the search must continue from the *other* end, so EAST1 really
#: travels one tile east
_DIRECTIONAL = frozenset(
    (WireClass.SINGLE, WireClass.HEX, WireClass.LONG_H, WireClass.LONG_V)
)


def route_template_reference(
    device: Device,
    start_canon: int,
    template_values: tuple[TemplateValue, ...],
    *,
    end_wire: int | None = None,
    end_canon: int | None = None,
    max_nodes: int = 100_000,
) -> list[PlanPip]:
    """The pre-graph :func:`~repro.routers.template_router.route_template`
    (see module docstring); same contract, generator expansion and a
    hashed stuck-open test per candidate PIP."""
    if (end_wire is None) == (end_canon is None):
        raise errors.JRouteError("give exactly one of end_wire / end_canon")
    if not template_values:
        raise errors.JRouteError("empty template")

    occupied = device.state.occupied
    faults = device.faults
    fault_mask = faults.unusable if faults is not None else None
    last = len(template_values) - 1
    budget = max_nodes
    # visited states (wire, depth, drive tile) that already failed
    dead: set[tuple] = set()
    plan: list[PlanPip] = []
    in_plan: set[int] = set()  # wires already driven by this plan

    arch = device.arch

    def dfs(canon: int, depth: int, drive_tile: tuple[int, int] | None) -> bool:
        nonlocal budget
        if (canon, depth, drive_tile) in dead:
            return False
        budget -= 1
        if budget < 0:
            raise errors.UnroutableError(
                "template search budget exhausted"
            )
        directional = (
            drive_tile is not None
            and arch.wire_class_of(canon) in _DIRECTIONAL
        )
        want = template_values[depth]
        blocked_by_plan = False
        for row, col, from_name, to_name, canon_to in device.fanout_pips(canon):
            if directional and (row, col) == drive_tile:
                # a driven directional wire continues from its far end only
                continue
            if template_value_of(to_name) is not want:
                continue
            if depth == last:
                if end_wire is not None and to_name != end_wire:
                    continue
                if end_canon is not None and canon_to != end_canon:
                    continue
            if occupied[canon_to]:
                continue
            if fault_mask is not None and (
                fault_mask[canon_to] or faults.pip_stuck_open(canon, canon_to)
            ):
                continue
            if canon_to in in_plan:
                blocked_by_plan = True
                continue
            plan.append((row, col, from_name, to_name))
            in_plan.add(canon_to)
            if depth == last:
                return True
            if dfs(canon_to, depth + 1, (row, col)):
                return True
            plan.pop()
            in_plan.remove(canon_to)
        if not blocked_by_plan:
            # memoise only plan-independent failures, so backtracking with a
            # different prefix can revisit states that failed due to in_plan
            dead.add((canon, depth, drive_tile))
        return False

    if dfs(start_canon, 0, None):
        return plan
    raise errors.UnroutableError(
        "no combination of available resources follows the template"
    )
