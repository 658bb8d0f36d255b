"""Routing algorithms behind the JRoute API.

The paper is explicit that "the JRoute API is independent of the
algorithms used to implement it"; this package keeps them separate and
swappable: template DFS (:mod:`~repro.routers.template_router`),
predefined template sets (:mod:`~repro.routers.template_sets`), maze /
A* search (:mod:`~repro.routers.maze`), bidirectional search
(:mod:`~repro.routers.bidir`), the greedy increasing-distance
fanout router (:mod:`~repro.routers.greedy_fanout`), and the PathFinder
negotiated-congestion baseline (:mod:`~repro.routers.pathfinder`).  Bus
routing (level 6) needs no algorithm of its own: ``JRouter.route`` runs
it bit by bit through the level-4 path.
"""

from .auto import P2PResult, route_point_to_point, route_point_to_point_batch
from .bidir import route_bidirectional
from .base import PlanPip, apply_plan, plan_cost, plan_wirelength
from .greedy_fanout import FanoutResult, route_fanout
from .maze import MazeBatchResult, MazeResult, route_maze, route_maze_batch
from .pathfinder import (
    NetSpec,
    PartitionNode,
    PathFinderResult,
    build_partition_tree,
    route_pathfinder,
)
from .template_router import route_template
from .template_sets import predefined_templates

__all__ = [
    "P2PResult",
    "route_point_to_point",
    "route_point_to_point_batch",
    "route_bidirectional",
    "PlanPip",
    "apply_plan",
    "plan_cost",
    "plan_wirelength",
    "FanoutResult",
    "route_fanout",
    "MazeBatchResult",
    "MazeResult",
    "route_maze",
    "route_maze_batch",
    "NetSpec",
    "PartitionNode",
    "PathFinderResult",
    "build_partition_tree",
    "route_pathfinder",
    "route_template",
    "predefined_templates",
]
