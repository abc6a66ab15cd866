"""The layered HD-map container.

``HDMap`` realizes the Lanelet2 [20] three-layer architecture over one
element store:

- **physical layer** — observable elements (boundaries, signs, lights,
  poles, stop lines, crosswalks, markings);
- **relational layer** — lanes and road segments binding physical elements
  together, plus regulatory rules;
- **topological layer** — lane-to-lane connectivity, *derived* from the
  relational layer's geometry exactly as Lanelet2 prescribes ("implicitly
  inferred from spatial relationships").

Road segments are HiDAM [21] lane bundles, keeping node-edge compatibility
with traditional routing while exposing per-lane detail.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.core.elements import (
    KIND_OF_TYPE,
    Crosswalk,
    Kind,
    Lane,
    LaneBoundary,
    MapElement,
    Node,
    PointLandmark,
    RoadMarking,
    RoadSegment,
    TrafficSign,
)
from repro.core.ids import ElementId, IdAllocator
from repro.core.regulatory import RegulatoryElement
from repro.errors import MapModelError, UnknownElementError
from repro.geometry.index import GridIndex

E = TypeVar("E", bound=MapElement)

_id_num = attrgetter("num")

# Ordered tuples (not sets): iteration order must be process-deterministic.
PHYSICAL_KINDS = (Kind.BOUNDARY, Kind.SIGN, Kind.LIGHT, Kind.POLE,
                  Kind.STOPLINE, Kind.CROSSWALK, Kind.MARKING)
RELATIONAL_KINDS = (Kind.LANE, Kind.SEGMENT, Kind.REGULATORY)

# Lane endpoints closer than this are considered connected when deriving
# the topological layer.
CONNECTION_TOLERANCE = 0.75


class HDMap:
    """A versioned, spatially indexed, layered HD map."""

    def __init__(self, name: str = "map", index_cell_size: float = 100.0) -> None:
        self.name = name
        self.version = 0
        # Bumped on every structural edit (add/remove/replace), including
        # ones that do not advance ``version``; sensor-side geometry caches
        # key on it to invalidate when the map changes underneath them.
        self.mutation_count = 0
        self._elements: Dict[ElementId, MapElement] = {}
        self._regulatory: Dict[ElementId, RegulatoryElement] = {}
        self._by_kind: Dict[str, Dict[ElementId, MapElement]] = {}
        self._index: GridIndex[ElementId] = GridIndex(index_cell_size)
        self._ids = IdAllocator()
        self._topology_dirty = True
        self._successors: Dict[ElementId, List[ElementId]] = {}
        self._predecessors: Dict[ElementId, List[ElementId]] = {}
        self._left_neighbor: Dict[ElementId, ElementId] = {}
        self._right_neighbor: Dict[ElementId, ElementId] = {}

    # ------------------------------------------------------------------
    # Element lifecycle
    # ------------------------------------------------------------------
    def new_id(self, kind: str) -> ElementId:
        return self._ids.allocate(kind)

    def add(self, element: MapElement) -> ElementId:
        """Insert an element (its id must be unused)."""
        if element.id is None:
            raise MapModelError("element has no id; use new_id() first")
        if element.id in self._elements or element.id in self._regulatory:
            raise MapModelError(f"duplicate element id {element.id}")
        if isinstance(element, RegulatoryElement):
            self._regulatory[element.id] = element
        else:
            self._elements[element.id] = element
            self._index.insert(element.id, element.bounds())
        self._by_kind.setdefault(element.id.kind, {})[element.id] = element
        self._ids.reserve(element.id)
        self.mutation_count += 1
        if element.id.kind in (Kind.LANE, Kind.SEGMENT):
            self._topology_dirty = True
        return element.id

    def create(self, element_type: Type[E], **kwargs) -> E:
        """Allocate an id, construct, insert, and return a new element."""
        kind = KIND_OF_TYPE.get(element_type)
        if kind is None:
            raise MapModelError(f"unknown element type {element_type.__name__}")
        element = element_type(id=self.new_id(kind), **kwargs)
        self.add(element)
        return element

    def remove(self, element_id: ElementId) -> MapElement:
        """Remove and return an element."""
        if element_id in self._regulatory:
            element: MapElement = self._regulatory.pop(element_id)  # type: ignore[assignment]
        elif element_id in self._elements:
            element = self._elements.pop(element_id)
            self._index.remove(element_id)
        else:
            raise UnknownElementError(element_id)
        self._by_kind.get(element_id.kind, {}).pop(element_id, None)
        self.mutation_count += 1
        if element_id.kind in (Kind.LANE, Kind.SEGMENT):
            self._topology_dirty = True
        return element

    def replace(self, element: MapElement) -> None:
        """Replace an existing element in place (same id, new content)."""
        if element.id in self._regulatory and isinstance(element, RegulatoryElement):
            self._regulatory[element.id] = element
        elif element.id in self._elements:
            self._elements[element.id] = element
            self._index.insert(element.id, element.bounds())
        else:
            raise UnknownElementError(element.id)
        self._by_kind.setdefault(element.id.kind, {})[element.id] = element
        self.mutation_count += 1
        if element.id.kind in (Kind.LANE, Kind.SEGMENT):
            self._topology_dirty = True

    def get(self, element_id: ElementId) -> MapElement:
        element = self._elements.get(element_id) or self._regulatory.get(element_id)
        if element is None:
            raise UnknownElementError(element_id)
        return element

    def __contains__(self, element_id: ElementId) -> bool:
        return element_id in self._elements or element_id in self._regulatory

    def __len__(self) -> int:
        return len(self._elements) + len(self._regulatory)

    # ------------------------------------------------------------------
    # Typed iteration (the layer views)
    # ------------------------------------------------------------------
    def _of_kind(self, kind: str) -> Iterator[MapElement]:
        return iter(list(self._by_kind.get(kind, {}).values()))

    def lanes(self) -> Iterator[Lane]:
        return self._of_kind(Kind.LANE)  # type: ignore[return-value]

    def boundaries(self) -> Iterator[LaneBoundary]:
        return self._of_kind(Kind.BOUNDARY)  # type: ignore[return-value]

    def segments(self) -> Iterator[RoadSegment]:
        return self._of_kind(Kind.SEGMENT)  # type: ignore[return-value]

    def nodes(self) -> Iterator[Node]:
        return self._of_kind(Kind.NODE)  # type: ignore[return-value]

    def signs(self) -> Iterator[TrafficSign]:
        return self._of_kind(Kind.SIGN)  # type: ignore[return-value]

    def crosswalks(self) -> Iterator[Crosswalk]:
        return self._of_kind(Kind.CROSSWALK)  # type: ignore[return-value]

    def markings(self) -> Iterator[RoadMarking]:
        return self._of_kind(Kind.MARKING)  # type: ignore[return-value]

    def regulatory_elements(self) -> Iterator[RegulatoryElement]:
        return iter(list(self._regulatory.values()))

    def landmarks(self) -> Iterator[PointLandmark]:
        """All point landmarks usable for localization (signs, lights, poles)."""
        for kind in (Kind.SIGN, Kind.LIGHT, Kind.POLE, Kind.MARKING):
            yield from self._of_kind(kind)  # type: ignore[misc]

    def elements(self) -> Iterator[MapElement]:
        yield from list(self._elements.values())
        yield from list(self._regulatory.values())

    # ------------------------------------------------------------------
    # Spatial queries
    # ------------------------------------------------------------------
    def elements_in_radius(self, x: float, y: float, radius: float,
                           kind: Optional[str] = None) -> List[MapElement]:
        """Elements whose bounds intersect the circle, optionally one kind."""
        hits = []
        for eid in self._index.query_radius(x, y, radius):
            if kind is not None and eid.kind != kind:
                continue
            hits.append(self._elements[eid])
        return hits

    def landmarks_in_radius(self, x: float, y: float, radius: float) -> List[PointLandmark]:
        """Point landmarks truly within ``radius`` of (x, y)."""
        out = []
        centre = np.array([x, y])
        for eid in self._index.query_radius(x, y, radius):
            element = self._elements[eid]
            if isinstance(element, PointLandmark):
                if float(np.hypot(*(element.position - centre))) <= radius:
                    out.append(element)
        return out

    def nearest_lane(self, x: float, y: float) -> Tuple[Lane, float]:
        """Nearest lane by true centerline distance."""
        point = np.array([x, y])

        def dist(eid: ElementId) -> float:
            element = self._elements[eid]
            if not isinstance(element, Lane):
                return float("inf")
            return element.centerline.distance_to(point)

        if not self._by_kind.get(Kind.LANE):
            raise MapModelError("map has no lanes")
        eid, d = self._index.nearest(x, y, dist)
        lane = self._elements[eid]
        assert isinstance(lane, Lane)
        return lane, d

    def bounds(self) -> Tuple[float, float, float, float]:
        """Bounding box of every spatial element."""
        if not self._elements:
            raise MapModelError("empty map has no bounds")
        boxes = np.array([e.bounds() for e in self._elements.values()])
        return (
            float(boxes[:, 0].min()),
            float(boxes[:, 1].min()),
            float(boxes[:, 2].max()),
            float(boxes[:, 3].max()),
        )

    # ------------------------------------------------------------------
    # Topological layer (derived)
    # ------------------------------------------------------------------
    def _rebuild_topology(self) -> None:
        lanes = [e for e in self._by_kind.get(Kind.LANE, {}).values()
                 if isinstance(e, Lane)]
        self._successors = {lane.id: [] for lane in lanes}
        self._predecessors = {lane.id: [] for lane in lanes}
        self._left_neighbor = {}
        self._right_neighbor = {}

        # Endpoint matching: lane A -> lane B when A's end touches B's start.
        start_index: GridIndex[ElementId] = GridIndex(max(CONNECTION_TOLERANCE * 4, 10.0))
        for lane in lanes:
            sx, sy = lane.centerline.start
            start_index.insert(lane.id, (sx, sy, sx, sy))
        for lane in lanes:
            ex, ey = lane.centerline.end
            for other_id in start_index.query_radius(float(ex), float(ey),
                                                     CONNECTION_TOLERANCE):
                if other_id == lane.id:
                    continue
                other = self._elements[other_id]
                assert isinstance(other, Lane)
                gap = float(np.hypot(*(other.centerline.start - lane.centerline.end)))
                if gap <= CONNECTION_TOLERANCE:
                    self._successors[lane.id].append(other_id)
                    self._predecessors[other_id].append(lane.id)

        # Lateral adjacency within each segment's ordered bundle.
        for segment in self._by_kind.get(Kind.SEGMENT, {}).values():
            if not isinstance(segment, RoadSegment):
                continue
            for ordered in (segment.forward_lanes, segment.backward_lanes):
                for left_id, right_id in zip(ordered, ordered[1:]):
                    if left_id in self._successors and right_id in self._successors:
                        self._right_neighbor[left_id] = right_id
                        self._left_neighbor[right_id] = left_id
        self._topology_dirty = False

    def _topology(self) -> None:
        if self._topology_dirty:
            self._rebuild_topology()

    def successors(self, lane_id: ElementId) -> List[ElementId]:
        self._topology()
        if lane_id not in self._successors:
            raise UnknownElementError(lane_id)
        return list(self._successors[lane_id])

    def predecessors(self, lane_id: ElementId) -> List[ElementId]:
        self._topology()
        if lane_id not in self._predecessors:
            raise UnknownElementError(lane_id)
        return list(self._predecessors[lane_id])

    def left_neighbor(self, lane_id: ElementId) -> Optional[ElementId]:
        self._topology()
        return self._left_neighbor.get(lane_id)

    def right_neighbor(self, lane_id: ElementId) -> Optional[ElementId]:
        self._topology()
        return self._right_neighbor.get(lane_id)

    def lane_graph(self):
        """The topological layer as a ``networkx.DiGraph`` over lane ids.

        Edge attribute ``length`` is the *successor* lane's length for
        follow edges, and a configured lane-change cost for adjacency edges
        (attribute ``move`` is ``"follow"`` or ``"change"``).
        """
        import networkx as nx

        self._topology()
        graph = nx.DiGraph()
        for lane in self.lanes():
            graph.add_node(lane.id, length=lane.length)
        for lane_id, succs in self._successors.items():
            for succ in succs:
                succ_lane = self._elements[succ]
                assert isinstance(succ_lane, Lane)
                graph.add_edge(lane_id, succ, length=succ_lane.length, move="follow")
        # Lane changes cost a nominal manoeuvre length.
        change_cost = 30.0
        for left_id, right_id in self._right_neighbor.items():
            graph.add_edge(left_id, right_id, length=change_cost, move="change")
            graph.add_edge(right_id, left_id, length=change_cost, move="change")
        return graph

    # ------------------------------------------------------------------
    # Regulatory queries
    # ------------------------------------------------------------------
    def rules_for_lane(self, lane_id: ElementId) -> List[RegulatoryElement]:
        return [r for r in self._regulatory.values() if lane_id in r.lanes]

    def effective_speed_limit(self, lane_id: ElementId) -> float:
        """Lane's own limit unless a regulatory element tightens it."""
        lane = self.get(lane_id)
        assert isinstance(lane, Lane)
        limit = lane.speed_limit
        from repro.core.regulatory import RuleType

        for rule in self.rules_for_lane(lane_id):
            if rule.rule_type is RuleType.SPEED_LIMIT and rule.value is not None:
                limit = min(limit, rule.value)
        return limit

    # ------------------------------------------------------------------
    # Bulk stats & copy
    # ------------------------------------------------------------------
    def counts_by_kind(self) -> Dict[str, int]:
        return {kind: len(members) for kind, members in sorted(self._by_kind.items())
                if members}

    def total_lane_length(self) -> float:
        return float(sum(lane.length for lane in self.lanes()))

    def copy(self, name: Optional[str] = None) -> "HDMap":
        """Deep-enough copy: new container, shared immutable geometry.

        The clone answers exactly like a fresh map that ``add``-ed a
        shallow copy of every element and then every rule, in order —
        same element order, query order, ``new_id`` and
        ``mutation_count`` — but its spatial index is a copy of this
        one's cells (same cell size): only an element whose bounds
        changed since it was indexed is re-inserted.
        """
        clone = HDMap(name or f"{self.name}-copy")
        clone.version = self.version
        clone.mutation_count = len(self)
        by_kind = clone._by_kind
        new = object.__new__
        for source, target in ((self._elements, clone._elements),
                               (self._regulatory, clone._regulatory)):
            for eid, element in source.items():
                # copy.copy of a plain dataclass, without its
                # __reduce_ex__ round trip.
                shallow = new(type(element))
                shallow.__dict__.update(element.__dict__)
                target[eid] = shallow
                by_kind.setdefault(eid.kind, {})[eid] = shallow
        for members in by_kind.values():
            # add() reserves every id; only the highest of a kind counts.
            clone._ids.reserve(max(members, key=_id_num))
        clone._index = self._index.reindexed(
            (eid, element.bounds())
            for eid, element in clone._elements.items())
        return clone

    def __repr__(self) -> str:
        return (f"HDMap({self.name!r}, v{self.version}, "
                f"{len(self._elements)} elements, "
                f"{len(self._regulatory)} rules)")
