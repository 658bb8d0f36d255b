"""Routing algorithms behind the JRoute API.

The paper is explicit that "the JRoute API is independent of the
algorithms used to implement it"; this package keeps them separate and
swappable: template DFS (:mod:`~repro.routers.template_router`),
predefined template sets (:mod:`~repro.routers.template_sets`), maze /
A* search (:mod:`~repro.routers.maze`), and the PathFinder
negotiated-congestion baseline (:mod:`~repro.routers.pathfinder`).
Fanout (level 5) and bus routing (level 6) need no algorithm of their
own: ``JRouter.route`` routes a fanout's sinks in increasing distance
from the source (a fresh net's first sink through the level-4 path,
each later one by a maze search that reuses the growing tree), and a
bus bit by bit through the level-4 path.
"""

from .auto import P2PResult, route_point_to_point, route_point_to_point_batch
from .base import PlanPip, apply_plan, plan_cost, plan_wirelength
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
    "PlanPip",
    "apply_plan",
    "plan_cost",
    "plan_wirelength",
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
