"""Programmatic world construction.

``WorldBuilder`` turns road *specifications* (a reference line plus lane
counts) into a fully linked HD map: nodes, a HiDAM lane bundle, per-lane
centerlines offset from the reference, and shared boundaries between
adjacent lanes — the tedious-but-critical bookkeeping every map-creation
paper glosses over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.elements import (
    BoundaryType,
    Lane,
    LaneBoundary,
    LaneType,
    Node,
    RoadSegment,
    SignType,
    TrafficSign,
)
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.polyline import Polyline


@dataclass
class RoadSpec:
    """Specification of one road: geometry plus lane configuration.

    ``reference`` runs down the road centre; forward lanes sit to its
    right (negative lateral offsets), backward lanes to its left, matching
    right-hand traffic.
    """

    reference: Polyline
    forward_lanes: int = 1
    backward_lanes: int = 1
    lane_width: float = 3.5
    speed_limit: float = 13.89  # m/s
    boundary_spacing: float = 2.0  # resample spacing for derived lines


class WorldBuilder:
    """Accumulates roads and landmarks into a consistent :class:`HDMap`."""

    def __init__(self, name: str = "world") -> None:
        self.map = HDMap(name)

    # ------------------------------------------------------------------
    def add_road(self, spec: RoadSpec) -> RoadSegment:
        """Create the full element set for one road and return its segment."""
        ref = spec.reference
        start_node = self.map.create(Node, position=ref.start.copy())
        end_node = self.map.create(Node, position=ref.end.copy())
        segment = self.map.create(
            RoadSegment,
            start_node=start_node.id,
            end_node=end_node.id,
            reference_line=ref,
            forward_lanes=[],
            backward_lanes=[],
        )

        w = spec.lane_width
        # Boundary offsets from the reference line, leftmost (most positive)
        # to rightmost. With F forward + B backward lanes there are
        # F + B + 1 boundary lines.
        n_total = spec.forward_lanes + spec.backward_lanes
        # Centre divider sits on the reference; forward lanes to the right.
        boundary_offsets = [
            w * (spec.backward_lanes - i) for i in range(n_total + 1)
        ]
        boundaries: List[LaneBoundary] = []
        for i, off in enumerate(boundary_offsets):
            if i == 0 or i == n_total:
                btype = BoundaryType.ROAD_EDGE
            elif off == 0.0 and spec.backward_lanes > 0:
                btype = BoundaryType.DOUBLE_SOLID
            else:
                btype = BoundaryType.DASHED
            line = (ref.offset(off, spacing=spec.boundary_spacing)
                    if off != 0.0 else ref.resample(spec.boundary_spacing))
            # Painted lines are retro-reflective; curbs/road edges return a
            # distinct, weaker intensity band LiDAR pipelines key on.
            reflectivity = 0.38 if btype is BoundaryType.ROAD_EDGE else 0.62
            boundaries.append(
                self.map.create(LaneBoundary, line=line, boundary_type=btype,
                                reflectivity=reflectivity)
            )

        # Forward lanes: between boundary i and i+1 where offsets are
        # <= 0 side; ordered left-to-right in travel direction.
        for j in range(spec.forward_lanes):
            left_b = boundaries[spec.backward_lanes + j]
            right_b = boundaries[spec.backward_lanes + j + 1]
            centre_off = -w * (j + 0.5)
            lane = self._make_lane(ref, centre_off, spec, left_b.id, right_b.id,
                                   segment.id, reverse=False)
            segment.forward_lanes.append(lane.id)

        # Backward lanes travel end -> start; in their travel frame "left"
        # points back toward the road centre, so left/right swap relative
        # to the reference-line ordering.
        for j in range(spec.backward_lanes):
            left_b = boundaries[spec.backward_lanes - j]
            right_b = boundaries[spec.backward_lanes - j - 1]
            centre_off = w * (j + 0.5)
            lane = self._make_lane(ref, centre_off, spec, left_b.id, right_b.id,
                                   segment.id, reverse=True)
            segment.backward_lanes.append(lane.id)

        # The segment's bounds pad by its lane count, so re-index it now
        # that its lanes are attached (``replace`` keeps element order).
        self.map.replace(segment)
        return segment

    def _make_lane(self, ref: Polyline, offset: float, spec: RoadSpec,
                   left_boundary: ElementId, right_boundary: ElementId,
                   segment_id: ElementId, reverse: bool) -> Lane:
        centre = ref.offset(offset, spacing=spec.boundary_spacing)
        if reverse:
            centre = centre.reversed()
        return self.map.create(
            Lane,
            centerline=centre,
            left_boundary=left_boundary,
            right_boundary=right_boundary,
            width=spec.lane_width,
            lane_type=LaneType.DRIVING,
            speed_limit=spec.speed_limit,
            segment=segment_id,
        )

    # ------------------------------------------------------------------
    def add_sign(self, position: Sequence[float], sign_type: SignType,
                 value: Optional[float] = None, facing: float = 0.0,
                 height: float = 2.2) -> TrafficSign:
        return self.map.create(
            TrafficSign,
            position=np.asarray(position, dtype=float),
            sign_type=sign_type,
            value=value,
            facing=facing,
            height=height,
        )

    def add_signs_along(self, segment: RoadSegment, spacing: float,
                        sign_type: SignType = SignType.SPEED_LIMIT,
                        side_offset: float = 8.0,
                        rng: Optional[np.random.Generator] = None) -> List[TrafficSign]:
        """Plant signs along a road's right side every ``spacing`` metres."""
        ref = segment.reference_line
        signs = []
        s = spacing / 2.0
        while s < ref.length:
            jitter = 0.0 if rng is None else float(rng.uniform(-spacing * 0.2,
                                                               spacing * 0.2))
            station = float(np.clip(s + jitter, 0.0, ref.length))
            base = ref.point_at(station)
            normal = ref.normal_at(station)
            pos = base - side_offset * normal  # right-hand side
            facing = ref.heading_at(station) + np.pi  # faces oncoming traffic
            signs.append(self.add_sign(pos, sign_type, facing=facing))
            s += spacing
        return signs

    def finish(self) -> HDMap:
        """Return the built map (the builder can keep being used)."""
        return self.map
