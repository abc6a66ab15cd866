"""Lane-level routing with instrumented graph search.

The router plans over the map's topological layer (lane follow + lane
change edges). Search implementations are hand-rolled rather than
delegated to networkx so expansion counts are observable — the quantity
the BHPS comparison [62] is about.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.elements import Lane
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.errors import NoRouteError


@dataclass
class SearchStats:
    expansions: int = 0
    frontier_peak: int = 0


@dataclass
class RouteResult:
    lane_ids: List[ElementId]
    cost: float
    stats: SearchStats

    @property
    def n_lanes(self) -> int:
        return len(self.lane_ids)


class LaneRouter:
    """Dijkstra / A* routing over the lane graph."""

    def __init__(self, hdmap: HDMap) -> None:
        self.map = hdmap
        self._adjacency: Optional[Dict[ElementId, List[Tuple[ElementId, float]]]] = None

    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[ElementId, List[Tuple[ElementId, float]]]:
        if self._adjacency is None:
            graph = self.map.lane_graph()
            adj: Dict[ElementId, List[Tuple[ElementId, float]]] = {
                n: [] for n in graph.nodes}
            for u, v, data in graph.edges(data=True):
                adj[u].append((v, float(data["length"])))
            self._adjacency = adj
        return self._adjacency

    # ------------------------------------------------------------------
    def route(self, start: ElementId, goal: ElementId,
              heuristic: Optional[Callable[[ElementId], float]] = None
              ) -> RouteResult:
        """Dijkstra (or A* when ``heuristic`` is given) start -> goal."""
        adj = self.adjacency()
        if start not in adj or goal not in adj:
            raise NoRouteError("start or goal lane not in the graph")
        h = heuristic if heuristic is not None else (lambda _: 0.0)
        stats = SearchStats()
        dist: Dict[ElementId, float] = {start: 0.0}
        parent: Dict[ElementId, ElementId] = {}
        heap: List[Tuple[float, int, ElementId]] = [(h(start), 0, start)]
        counter = 1
        closed = set()
        while heap:
            stats.frontier_peak = max(stats.frontier_peak, len(heap))
            _, _, current = heapq.heappop(heap)
            if current in closed:
                continue
            closed.add(current)
            stats.expansions += 1
            if current == goal:
                return RouteResult(self._unwind(parent, start, goal),
                                   dist[goal], stats)
            for neighbor, weight in adj[current]:
                candidate = dist[current] + weight
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    parent[neighbor] = current
                    heapq.heappush(heap, (candidate + h(neighbor), counter,
                                          neighbor))
                    counter += 1
        raise NoRouteError(f"no route from {start} to {goal}")

    def route_astar(self, start: ElementId, goal: ElementId) -> RouteResult:
        """A* with the straight-line distance heuristic."""
        goal_lane = self.map.get(goal)
        assert isinstance(goal_lane, Lane)
        goal_point = goal_lane.centerline.start

        def h(lane_id: ElementId) -> float:
            lane = self.map.get(lane_id)
            assert isinstance(lane, Lane)
            return float(np.hypot(*(goal_point - lane.centerline.end)))

        return self.route(start, goal, heuristic=h)

    # ------------------------------------------------------------------
    @staticmethod
    def _unwind(parent: Dict[ElementId, ElementId], start: ElementId,
                goal: ElementId) -> List[ElementId]:
        path = [goal]
        while path[-1] != start:
            path.append(parent[path[-1]])
        return list(reversed(path))

    # ------------------------------------------------------------------
    def route_between_points(self, start_xy: Tuple[float, float],
                             goal_xy: Tuple[float, float]) -> RouteResult:
        start_lane, _ = self.map.nearest_lane(*start_xy)
        goal_lane, _ = self.map.nearest_lane(*goal_xy)
        return self.route_astar(start_lane.id, goal_lane.id)

    def route_length(self, result: RouteResult) -> float:
        return float(sum(
            self.map.get(lane_id).length  # type: ignore[attr-defined]
            for lane_id in result.lane_ids))
