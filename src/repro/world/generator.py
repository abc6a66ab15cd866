"""Parametric road-network generators.

Three families cover the evaluation settings of the surveyed systems:

- :func:`generate_highway` — a long gently curving multi-lane corridor
  (the 20 km highway of SLAMCU [41], Ghallabi's test tracks [50], the
  370 km PCC route [61]);
- :func:`generate_grid_city` — an urban block grid with intersections,
  traffic lights, crosswalks and signs (urban-scene mapping [38], [48]);
- :func:`generate_factory_floor` — an indoor aisle grid with safety signs
  for the ATV experiments of Tas et al. [10], [11].
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.elements import (
    Crosswalk,
    Pole,
    RoadMarking,
    SignType,
    TrafficLight,
)
from repro.core.hdmap import HDMap
from repro.geometry.polyline import Polyline, straight
from repro.world.builder import RoadSpec, WorldBuilder


def _meander(rng: np.random.Generator, length: float, step: float = 100.0,
             max_turn: float = 0.06, start=(0.0, 0.0), heading: float = 0.0) -> Polyline:
    """A gently curving polyline built as a bounded random walk in heading."""
    pts = [np.asarray(start, dtype=float)]
    h = heading
    travelled = 0.0
    while travelled < length:
        d = min(step, length - travelled)
        h += float(rng.uniform(-max_turn, max_turn))
        pts.append(pts[-1] + d * np.array([math.cos(h), math.sin(h)]))
        travelled += d
    return Polyline(np.array(pts))


def generate_highway(rng: np.random.Generator, length: float = 20000.0,
                     lanes_per_direction: int = 2,
                     sign_spacing: float = 500.0,
                     pole_spacing: float = 250.0,
                     curviness: float = 0.04,
                     speed_limit: float = 33.33) -> HDMap:
    """A divided highway corridor with signage and reflective poles."""
    builder = WorldBuilder("highway")
    ref = _meander(rng, length, max_turn=curviness)
    segment = builder.add_road(RoadSpec(
        reference=ref,
        forward_lanes=lanes_per_direction,
        backward_lanes=lanes_per_direction,
        lane_width=3.7,
        speed_limit=speed_limit,
    ))
    builder.add_signs_along(segment, sign_spacing, SignType.SPEED_LIMIT, rng=rng)
    # Reflective delineator poles on both shoulders.
    s = pole_spacing / 2.0
    half_width = 3.7 * lanes_per_direction + 2.0
    while s < ref.length:
        base = ref.point_at(s)
        normal = ref.normal_at(s)
        for side in (-1.0, 1.0):
            builder.map.create(Pole, position=base + side * half_width * normal)
        s += pole_spacing
    return builder.finish()


def generate_grid_city(rng: np.random.Generator, blocks_x: int = 4,
                       blocks_y: int = 3, block_size: float = 200.0,
                       lanes_per_direction: int = 1,
                       speed_limit: float = 13.89,
                       with_lights: bool = True,
                       sign_density: float = 0.5) -> HDMap:
    """An urban grid: streets between every pair of adjacent intersections.

    Roads stop short of intersection centres by a small setback so that
    lane endpoints from crossing streets do not merge into false
    connectivity; intersections get traffic lights, stop lines, and
    crosswalks.
    """
    builder = WorldBuilder("grid-city")
    setback = 12.0
    nx, ny = blocks_x + 1, blocks_y + 1

    def corner(ix: int, iy: int) -> np.ndarray:
        return np.array([ix * block_size, iy * block_size])

    # Horizontal streets.
    for iy in range(ny):
        for ix in range(blocks_x):
            a = corner(ix, iy) + np.array([setback, 0.0])
            b = corner(ix + 1, iy) - np.array([setback, 0.0])
            builder.add_road(RoadSpec(
                reference=straight(a, b, spacing=10.0),
                forward_lanes=lanes_per_direction,
                backward_lanes=lanes_per_direction,
                speed_limit=speed_limit,
            ))
    # Vertical streets.
    for ix in range(nx):
        for iy in range(blocks_y):
            a = corner(ix, iy) + np.array([0.0, setback])
            b = corner(ix, iy + 1) - np.array([0.0, setback])
            builder.add_road(RoadSpec(
                reference=straight(a, b, spacing=10.0),
                forward_lanes=lanes_per_direction,
                backward_lanes=lanes_per_direction,
                speed_limit=speed_limit,
            ))

    # Turn connectors across every intersection.
    centres = [corner(ix, iy) for ix in range(nx) for iy in range(ny)]
    connect_intersections(builder.map, centres, radius=setback + 4.0)

    # Intersection furniture.
    for ix in range(nx):
        for iy in range(ny):
            centre = corner(ix, iy)
            if with_lights and rng.uniform() < 0.8:
                for dx, dy in ((setback, 0), (-setback, 0), (0, setback), (0, -setback)):
                    builder.map.create(
                        TrafficLight,
                        position=centre + np.array([dx, dy]) * 0.8,
                        facing=math.atan2(-dy, -dx),
                        phase_offset=float(rng.uniform(0, 60.0)),
                    )
            if rng.uniform() < sign_density:
                offset = rng.uniform(-setback, setback, size=2)
                builder.add_sign(centre + offset + np.array([6.0, 6.0]),
                                 SignType.STOP, facing=float(rng.uniform(-np.pi, np.pi)))
            # Crosswalks across the four approaches.
            half_road = 3.5 * lanes_per_direction + 0.5
            if rng.uniform() < 0.7:
                y0 = centre[1] - setback
                builder.map.create(Crosswalk, polygon=np.array([
                    [centre[0] - half_road, y0 - 3.0],
                    [centre[0] + half_road, y0 - 3.0],
                    [centre[0] + half_road, y0],
                    [centre[0] - half_road, y0],
                ]))
    # Painted arrows near some intersections (IPM-matchable markings).
    for lane in list(builder.map.lanes()):
        if rng.uniform() < 0.3 and lane.length > 20.0:
            pos = lane.centerline.point_at(lane.length - 8.0)
            builder.map.create(RoadMarking, position=pos.copy(),
                               marking_type="arrow")
    return builder.finish()


def connect_intersections(hdmap: HDMap, centres: List[np.ndarray],
                          radius: float = 16.0,
                          allow_u_turns: bool = False) -> int:
    """Create virtual connector lanes across intersection gaps.

    For each intersection centre, every lane *ending* near it is joined to
    every lane *starting* near it with a short Bezier connector (except
    U-turns back onto the same road), giving the lane graph real urban
    turn topology. Returns the number of connectors created.
    """
    from repro.core.elements import Lane, LaneType

    created = 0
    lanes = list(hdmap.lanes())
    for centre in centres:
        incoming = []
        outgoing = []
        for lane in lanes:
            end = lane.centerline.end
            start = lane.centerline.start
            if float(np.hypot(*(end - centre))) <= radius:
                incoming.append(lane)
            if float(np.hypot(*(start - centre))) <= radius:
                outgoing.append(lane)
        for lane_in in incoming:
            p0 = lane_in.centerline.end
            h_in = lane_in.centerline.heading_at(lane_in.centerline.length)
            d_in = np.array([math.cos(h_in), math.sin(h_in)])
            for lane_out in outgoing:
                if lane_out.id == lane_in.id:
                    continue
                p3 = lane_out.centerline.start
                h_out = lane_out.centerline.heading_at(0.0)
                d_out = np.array([math.cos(h_out), math.sin(h_out)])
                gap = float(np.hypot(*(p3 - p0)))
                if gap < 0.5 or gap > 2.5 * radius:
                    continue
                if not allow_u_turns and float(d_in @ d_out) < -0.7:
                    continue
                # Cubic Bezier respecting both tangents.
                p1 = p0 + d_in * gap / 3.0
                p2 = p3 - d_out * gap / 3.0
                t = np.linspace(0.0, 1.0, 8)[:, None]
                pts = ((1 - t)**3 * p0 + 3 * (1 - t)**2 * t * p1
                       + 3 * (1 - t) * t**2 * p2 + t**3 * p3)
                hdmap.create(
                    Lane,
                    centerline=Polyline(pts),
                    width=min(lane_in.width, lane_out.width),
                    lane_type=LaneType.DRIVING,
                    speed_limit=min(lane_in.speed_limit,
                                    lane_out.speed_limit, 8.33),
                )
                created += 1
    return created


def generate_factory_floor(rng: np.random.Generator, aisles: int = 4,
                           aisle_length: float = 60.0,
                           aisle_gap: float = 10.0,
                           sign_spacing: float = 15.0) -> HDMap:
    """An indoor smart-factory floor: parallel one-lane aisles plus a
    cross-aisle, lined with safety signs (Tas et al. [10], [11])."""
    builder = WorldBuilder("factory")
    for i in range(aisles):
        y = i * aisle_gap
        segment = builder.add_road(RoadSpec(
            reference=straight([0.0, y], [aisle_length, y], spacing=5.0),
            forward_lanes=1,
            backward_lanes=0,
            lane_width=2.4,
            speed_limit=2.0,
        ))
        builder.add_signs_along(segment, sign_spacing, SignType.SAFETY,
                                side_offset=2.5, rng=rng)
    # Cross aisle connecting the ends.
    builder.add_road(RoadSpec(
        reference=straight([aisle_length + 3.0, -3.0],
                           [aisle_length + 3.0, (aisles - 1) * aisle_gap + 3.0],
                           spacing=5.0),
        forward_lanes=1,
        backward_lanes=0,
        lane_width=2.4,
        speed_limit=2.0,
    ))
    return builder.finish()
