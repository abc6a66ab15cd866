"""HDMapGen-style two-level hierarchical map sampling.

HDMapGen [24] generates HD maps hierarchically: a *global graph* whose
nodes are intersections/lane endpoints and whose edges are road
connections, then a *local graph* refining each edge's curvature. The
original is a learned autoregressive model; this reproduction keeps the
two-level structure but samples both levels from explicit distributions —
sufficient to generate unbounded, varied, valid maps for every experiment
in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.hdmap import HDMap
from repro.geometry.polyline import Polyline
from repro.world.builder import RoadSpec, WorldBuilder


@dataclass
class MapTopologySpec:
    """Parameters of the global-graph sampler."""

    n_junctions: int = 12
    extent: float = 1500.0  # side of the square region, metres
    min_junction_gap: float = 220.0
    connectivity: float = 2.4  # target mean degree
    max_lanes: int = 2
    curvature_scale: float = 0.12  # local-graph waviness (0 = straight)


class HDMapGenSampler:
    """Samples road networks as (global topology, local geometry) pairs."""

    def __init__(self, spec: MapTopologySpec = MapTopologySpec()) -> None:
        self.spec = spec

    # -- level 1: global graph -----------------------------------------
    def sample_global_graph(self, rng: np.random.Generator
                            ) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        """Poisson-disk-ish junction layout + proximity edges.

        Returns junction positions ``(N, 2)`` and an undirected edge list.
        """
        spec = self.spec
        positions: List[np.ndarray] = []
        attempts = 0
        while len(positions) < spec.n_junctions and attempts < spec.n_junctions * 200:
            cand = rng.uniform(0.0, spec.extent, size=2)
            attempts += 1
            if all(np.hypot(*(cand - p)) >= spec.min_junction_gap for p in positions):
                positions.append(cand)
        pos = np.array(positions)
        n = pos.shape[0]
        if n < 2:
            raise ValueError("could not place at least two junctions; "
                             "loosen min_junction_gap or enlarge extent")

        # Connect each junction to its nearest neighbours until the target
        # mean degree is met, skipping edges that would cross existing ones.
        target_edges = int(round(spec.connectivity * n / 2.0))
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        candidate_pairs = sorted(
            ((d[i, j], i, j) for i in range(n) for j in range(i + 1, n)),
            key=lambda t: t[0],
        )
        edges: List[Tuple[int, int]] = []
        for _, i, j in candidate_pairs:
            if len(edges) >= target_edges and _is_connected(n, edges):
                break
            if any(_segments_cross(pos[i], pos[j], pos[a], pos[b])
                   for a, b in edges if len({i, j, a, b}) == 4):
                continue
            edges.append((i, j))
        return pos, edges

    # -- level 2: local geometry ----------------------------------------
    def sample_local_geometry(self, rng: np.random.Generator,
                              a: np.ndarray, b: np.ndarray) -> Polyline:
        """Refine a straight edge into a smooth curved centerline.

        Midpoints are perturbed orthogonally with a sinusoidal envelope so
        endpoints stay fixed and tangents stay reasonable.
        """
        length = float(np.hypot(*(b - a)))
        n = max(4, int(length / 40.0) + 1)
        t = np.linspace(0.0, 1.0, n)
        base = a + t[:, None] * (b - a)
        direction = (b - a) / max(length, 1e-9)
        normal = np.array([-direction[1], direction[0]])
        amp = self.spec.curvature_scale * length * 0.25
        k = int(rng.integers(1, 3))
        phase = float(rng.uniform(0, 2 * math.pi))
        wobble = amp * np.sin(math.pi * t) * np.sin(k * math.pi * t + phase)
        pts = base + wobble[:, None] * normal
        return Polyline(pts)

    # -- full map ---------------------------------------------------------
    def sample_map(self, rng: np.random.Generator, name: str = "hdmapgen"
                   ) -> HDMap:
        pos, edges = self.sample_global_graph(rng)
        builder = WorldBuilder(name)
        setback = 15.0
        for i, j in edges:
            a, b = pos[i], pos[j]
            length = float(np.hypot(*(b - a)))
            if length <= 2 * setback + 20.0:
                continue
            direction = (b - a) / length
            a_in = a + setback * direction
            b_in = b - setback * direction
            ref = self.sample_local_geometry(rng, a_in, b_in)
            lanes = int(rng.integers(1, self.spec.max_lanes + 1))
            builder.add_road(RoadSpec(
                reference=ref,
                forward_lanes=lanes,
                backward_lanes=lanes,
                speed_limit=float(rng.choice([8.33, 13.89, 22.22])),
            ))
        from repro.world.generator import connect_intersections

        connect_intersections(builder.map, [pos[i] for i in range(len(pos))],
                              radius=setback + 8.0)
        return builder.finish()


@dataclass(frozen=True)
class MapStatistics:
    """Structural statistics of a generated map (HDMapGen's evaluation
    compares such distributions between generated and real maps)."""

    n_lanes: int
    n_segments: int
    mean_lane_length: float
    mean_abs_curvature: float
    mean_junction_degree: float

def map_statistics(hdmap: HDMap) -> MapStatistics:
    """Compute the structural statistics of a (generated) map."""
    lanes = list(hdmap.lanes())
    segments = list(hdmap.segments())
    lengths = [lane.length for lane in lanes]
    curvatures = []
    for lane in lanes:
        for s in np.linspace(0.0, lane.length, 5):
            curvatures.append(abs(lane.centerline.curvature_at(float(s))))
    # Junction degree: segments touching each node.
    degree: dict = {}
    for segment in segments:
        for node in (segment.start_node, segment.end_node):
            if node is not None:
                degree[node] = degree.get(node, 0) + 1
    return MapStatistics(
        n_lanes=len(lanes),
        n_segments=len(segments),
        mean_lane_length=float(np.mean(lengths)) if lengths else 0.0,
        mean_abs_curvature=float(np.mean(curvatures)) if curvatures else 0.0,
        mean_junction_degree=(float(np.mean(list(degree.values())))
                              if degree else 0.0),
    )


def _is_connected(n: int, edges: List[Tuple[int, int]]) -> bool:
    if n == 0:
        return True
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def _segments_cross(p1: np.ndarray, p2: np.ndarray,
                    p3: np.ndarray, p4: np.ndarray) -> bool:
    """Proper intersection test for two segments (shared endpoints excluded)."""

    def orient(a, b, c) -> float:
        return float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))
