"""Bidirectional hybrid path search (Yang et al. [62]).

BHPS runs two searches at once over the lane-level map — a cheap breadth-
first sweep from one end and a cost-aware Dijkstra from the other — and
stitches the route where the frontiers meet. The survey describes both
pairings (forward BFS + reverse Dijkstra, and forward Dijkstra + reverse
BFS); :func:`bhps_route` runs the requested pairing and reports combined
expansion counts for comparison against unidirectional Dijkstra.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.ids import ElementId
from repro.errors import NoRouteError
from repro.planning.route_graph import LaneRouter, RouteResult, SearchStats


def _reverse_adjacency(adj: Dict[ElementId, List[Tuple[ElementId, float]]]
                       ) -> Dict[ElementId, List[Tuple[ElementId, float]]]:
    rev: Dict[ElementId, List[Tuple[ElementId, float]]] = {
        n: [] for n in adj}
    for u, edges in adj.items():
        for v, w in edges:
            rev[v].append((u, w))
    return rev


def bhps_route(router: LaneRouter, start: ElementId, goal: ElementId,
               forward_bfs: bool = True) -> RouteResult:
    """Bidirectional hybrid search.

    ``forward_bfs=True``: BFS expands from ``start`` while Dijkstra expands
    from ``goal`` over reversed edges; ``False`` swaps the roles. The two
    searches alternate one expansion at a time and stop when a node has
    been settled by both; the best meeting node (minimum summed cost) is
    then selected among the doubly-reached frontier.
    """
    adj = router.adjacency()
    if start not in adj or goal not in adj:
        raise NoRouteError("start or goal lane not in the graph")
    rev = _reverse_adjacency(adj)

    bfs_adj = adj if forward_bfs else rev
    bfs_root = start if forward_bfs else goal
    dij_adj = rev if forward_bfs else adj
    dij_root = goal if forward_bfs else start

    stats = SearchStats()

    # BFS state (hop costs only; converted to metres when stitching).
    bfs_parent: Dict[ElementId, Optional[ElementId]] = {bfs_root: None}
    bfs_queue: deque = deque([bfs_root])
    bfs_done: Dict[ElementId, int] = {bfs_root: 0}

    # Dijkstra state.
    dij_dist: Dict[ElementId, float] = {dij_root: 0.0}
    dij_parent: Dict[ElementId, Optional[ElementId]] = {dij_root: None}
    dij_heap: List[Tuple[float, int, ElementId]] = [(0.0, 0, dij_root)]
    dij_closed: set = set()
    counter = 1

    meeting: Optional[ElementId] = None
    best_meet_cost = float("inf")

    def try_meet(node: ElementId) -> None:
        nonlocal meeting, best_meet_cost
        if node in bfs_done and node in dij_closed:
            cost = bfs_done[node] * 1.0 + dij_dist[node]
            if cost < best_meet_cost:
                best_meet_cost = cost
                meeting = node

    # Alternate expansions until both sides have settled a common node and
    # a few extra rounds have polished the meeting choice.
    polish = 0
    while (bfs_queue or dij_heap) and polish < 25:
        if meeting is not None:
            polish += 1
        if bfs_queue:
            current = bfs_queue.popleft()
            stats.expansions += 1
            for neighbor, _w in bfs_adj[current]:
                if neighbor not in bfs_done:
                    bfs_done[neighbor] = bfs_done[current] + 1
                    bfs_parent[neighbor] = current
                    bfs_queue.append(neighbor)
                    try_meet(neighbor)
        if dij_heap:
            _, _, current = heapq.heappop(dij_heap)
            if current in dij_closed:
                continue
            dij_closed.add(current)
            stats.expansions += 1
            try_meet(current)
            for neighbor, w in dij_adj[current]:
                candidate = dij_dist[current] + w
                if candidate < dij_dist.get(neighbor, float("inf")):
                    dij_dist[neighbor] = candidate
                    dij_parent[neighbor] = current
                    heapq.heappush(dij_heap, (candidate, counter, neighbor))
                    counter += 1
        stats.frontier_peak = max(stats.frontier_peak,
                                  len(bfs_queue) + len(dij_heap))

    if meeting is None:
        raise NoRouteError(f"no route from {start} to {goal}")

    # Stitch: BFS side path root->meeting, Dijkstra side meeting->root.
    bfs_side: List[ElementId] = []
    node: Optional[ElementId] = meeting
    while node is not None:
        bfs_side.append(node)
        node = bfs_parent[node]
    bfs_side.reverse()  # bfs_root ... meeting

    dij_side: List[ElementId] = []
    node = dij_parent[meeting]
    while node is not None:
        dij_side.append(node)
        node = dij_parent[node]
    # dij_side: meeting-next ... dij_root

    if forward_bfs:
        lane_ids = bfs_side + dij_side  # start..meeting..goal
    else:
        lane_ids = list(reversed(dij_side)) + list(reversed(bfs_side))

    cost = _path_cost(adj, lane_ids)
    return RouteResult(lane_ids=lane_ids, cost=cost, stats=stats)


def _path_cost(adj: Dict[ElementId, List[Tuple[ElementId, float]]],
               lane_ids: List[ElementId]) -> float:
    cost = 0.0
    for u, v in zip(lane_ids, lane_ids[1:]):
        for neighbor, w in adj[u]:
            if neighbor == v:
                cost += w
                break
        else:
            raise NoRouteError("stitched path has a broken edge")
    return cost
