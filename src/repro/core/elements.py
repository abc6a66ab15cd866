"""HD-map element types (the *physical* and *relational* content).

The element vocabulary follows the surveyed data models:

- Lanelet2 [20]: physical elements (boundaries, markings, signs) that
  relational elements (lanes) bind together under traffic rules;
- HiDAM [21]: road segments as multi-directional *lane bundles* over a
  node-edge skeleton;
- semantic maps [17]: every element is an entity with a pose and a bag of
  attributes.

All geometry is 2-D east-north metres (see :mod:`repro.geometry`); point
elements carry an optional height so 6-DoF and perception code can lift
them to 3-D.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ids import ElementId
from repro.geometry.polyline import Polyline

Attributes = Dict[str, object]


class Kind:
    """Canonical ``ElementId.kind`` tags, one per element class."""

    NODE = "node"
    BOUNDARY = "boundary"
    LANE = "lane"
    SEGMENT = "segment"
    SIGN = "sign"
    LIGHT = "light"
    CROSSWALK = "crosswalk"
    STOPLINE = "stopline"
    POLE = "pole"
    MARKING = "marking"
    REGULATORY = "regulatory"


class BoundaryType(enum.Enum):
    """Physical type of a lane boundary."""

    SOLID = "solid"
    DASHED = "dashed"
    DOUBLE_SOLID = "double_solid"
    CURB = "curb"
    ROAD_EDGE = "road_edge"
    VIRTUAL = "virtual"  # e.g. inferred lane split inside an intersection

class LaneType(enum.Enum):
    DRIVING = "driving"
    SHOULDER = "shoulder"
    BIKE = "bike"
    BUS = "bus"
    PARKING = "parking"


class SignType(enum.Enum):
    SPEED_LIMIT = "speed_limit"
    STOP = "stop"
    YIELD = "yield"
    NO_OVERTAKING = "no_overtaking"
    CONSTRUCTION = "construction"
    DIRECTION = "direction"
    SAFETY = "safety"  # indoor factory safety signage (Tas et al.)


class LightState(enum.Enum):
    RED = "red"
    YELLOW = "yellow"
    GREEN = "green"
    UNKNOWN = "unknown"


@dataclass
class MapElement:
    """Base class: a uniquely identified entity with free-form attributes."""

    id: ElementId
    attributes: Attributes = field(default_factory=dict)

    def bounds(self) -> Tuple[float, float, float, float]:
        raise NotImplementedError


@dataclass
class Node(MapElement):
    """A topological node (intersection centre or segment endpoint)."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def bounds(self) -> Tuple[float, float, float, float]:
        x, y = float(self.position[0]), float(self.position[1])
        return (x, y, x, y)


@dataclass
class LaneBoundary(MapElement):
    """A painted line, curb, or road edge."""

    line: Polyline = None  # type: ignore[assignment]
    boundary_type: BoundaryType = BoundaryType.SOLID
    reflectivity: float = 0.6  # LiDAR intensity prior of the paint/material

    def bounds(self) -> Tuple[float, float, float, float]:
        return self.line.bounds()


@dataclass
class Lane(MapElement):
    """A drivable lane: centerline plus references to its two boundaries."""

    centerline: Polyline = None  # type: ignore[assignment]
    left_boundary: Optional[ElementId] = None
    right_boundary: Optional[ElementId] = None
    width: float = 3.5
    lane_type: LaneType = LaneType.DRIVING
    speed_limit: float = 13.89  # m/s (50 km/h) default urban
    segment: Optional[ElementId] = None  # owning HiDAM lane bundle

    def bounds(self) -> Tuple[float, float, float, float]:
        min_x, min_y, max_x, max_y = self.centerline.bounds()
        half = self.width / 2.0
        return (min_x - half, min_y - half, max_x + half, max_y + half)

    @property
    def length(self) -> float:
        return self.centerline.length

@dataclass
class RoadSegment(MapElement):
    """HiDAM-style lane bundle: parallel lanes between two nodes.

    ``forward_lanes`` are ordered left-to-right in the direction
    start -> end; ``backward_lanes`` likewise for the opposite direction.
    """

    start_node: ElementId = None  # type: ignore[assignment]
    end_node: ElementId = None  # type: ignore[assignment]
    reference_line: Polyline = None  # type: ignore[assignment]
    forward_lanes: List[ElementId] = field(default_factory=list)
    backward_lanes: List[ElementId] = field(default_factory=list)

    def bounds(self) -> Tuple[float, float, float, float]:
        min_x, min_y, max_x, max_y = self.reference_line.bounds()
        pad = 2.0 + 3.7 * max(len(self.forward_lanes), len(self.backward_lanes))
        return (min_x - pad, min_y - pad, max_x + pad, max_y + pad)

    @property
    def lane_count(self) -> int:
        return len(self.forward_lanes) + len(self.backward_lanes)


@dataclass
class PointLandmark(MapElement):
    """Base for point features that localization can triangulate against."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(2))
    height: float = 0.0
    reflectivity: float = 0.5

    def bounds(self) -> Tuple[float, float, float, float]:
        x, y = float(self.position[0]), float(self.position[1])
        return (x, y, x, y)

@dataclass
class TrafficSign(PointLandmark):
    sign_type: SignType = SignType.SPEED_LIMIT
    value: Optional[float] = None  # e.g. the speed limit it posts, m/s
    facing: float = 0.0  # heading the sign faces, radians

    def __post_init__(self) -> None:
        if self.height == 0.0:
            self.height = 2.2
        if self.reflectivity == 0.5:
            self.reflectivity = 0.9  # signs are retro-reflective


@dataclass
class TrafficLight(PointLandmark):
    facing: float = 0.0
    cycle: Tuple[float, float, float] = (30.0, 3.0, 27.0)  # red, yellow, green s
    phase_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.height == 0.0:
            self.height = 5.0

    def state_at(self, t: float) -> LightState:
        red, yellow, green = self.cycle
        period = red + yellow + green
        phase = (t + self.phase_offset) % period
        if phase < red:
            return LightState.RED
        if phase < red + yellow:
            return LightState.YELLOW
        return LightState.GREEN


@dataclass
class Pole(PointLandmark):
    """Lamp post / HRL-style highly reflective pole landmark [53]."""

    def __post_init__(self) -> None:
        if self.height == 0.0:
            self.height = 6.0
        if self.reflectivity == 0.5:
            self.reflectivity = 0.95


@dataclass
class Crosswalk(MapElement):
    """Pedestrian crossing as a polygon."""

    polygon: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))

    def bounds(self) -> Tuple[float, float, float, float]:
        mn = self.polygon.min(axis=0)
        mx = self.polygon.max(axis=0)
        return (float(mn[0]), float(mn[1]), float(mx[0]), float(mx[1]))


@dataclass
class StopLine(MapElement):
    line: Polyline = None  # type: ignore[assignment]

    def bounds(self) -> Tuple[float, float, float, float]:
        return self.line.bounds()


@dataclass
class RoadMarking(PointLandmark):
    """A painted symbol on the asphalt (arrow, text) used by IPM matching."""

    marking_type: str = "arrow"

    def __post_init__(self) -> None:
        self.height = 0.0
        if self.reflectivity == 0.5:
            self.reflectivity = 0.8


KIND_OF_TYPE = {
    Node: Kind.NODE,
    LaneBoundary: Kind.BOUNDARY,
    Lane: Kind.LANE,
    RoadSegment: Kind.SEGMENT,
    TrafficSign: Kind.SIGN,
    TrafficLight: Kind.LIGHT,
    Crosswalk: Kind.CROSSWALK,
    StopLine: Kind.STOPLINE,
    Pole: Kind.POLE,
    RoadMarking: Kind.MARKING,
}
