"""Core data model: ids, elements, the HDMap container and its layers."""

import numpy as np
import pytest

from repro.core import (
    BoundaryType,
    ElementId,
    HDMap,
    IdAllocator,
    Lane,
    LaneBoundary,
    RuleType,
    SignType,
    TrafficLight,
    TrafficSign,
)
from repro.core.elements import LightState
from repro.errors import MapModelError, UnknownElementError
from repro.geometry.polyline import straight
from tests.conftest import add_rule


class TestIds:
    def test_parse_roundtrip(self):
        eid = ElementId("lane", 42)
        assert ElementId.parse(str(eid)) == eid

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            ElementId.parse("lane42")

    def test_allocator_monotonic(self):
        alloc = IdAllocator()
        a = alloc.allocate("lane")
        b = alloc.allocate("lane")
        assert b.num == a.num + 1

    def test_allocator_respects_reserved(self):
        alloc = IdAllocator()
        alloc.reserve(ElementId("lane", 10))
        nxt = alloc.allocate("lane")
        assert nxt.num == 11

    def test_ids_sortable(self):
        ids = [ElementId("lane", 3), ElementId("lane", 1), ElementId("boundary", 2)]
        assert sorted(ids)[0].kind == "boundary"


class TestElements:
    def test_sign_defaults(self):
        sign = TrafficSign(id=ElementId("sign", 1),
                           position=np.array([1.0, 2.0]))
        assert sign.height == pytest.approx(2.2)
        assert sign.reflectivity > 0.8  # retro-reflective

    def test_light_state_cycle(self):
        light = TrafficLight(id=ElementId("light", 1),
                             position=np.zeros(2),
                             cycle=(10.0, 2.0, 8.0), phase_offset=0.0)
        assert light.state_at(5.0) is LightState.RED
        assert light.state_at(11.0) is LightState.YELLOW
        assert light.state_at(15.0) is LightState.GREEN
        assert light.state_at(25.0) is LightState.RED  # wrapped

@pytest.fixture
def small_map():
    hdmap = HDMap("test")
    left = hdmap.create(LaneBoundary, line=straight([0, 1.75], [100, 1.75]),
                        boundary_type=BoundaryType.SOLID)
    right = hdmap.create(LaneBoundary, line=straight([0, -1.75], [100, -1.75]),
                         boundary_type=BoundaryType.ROAD_EDGE)
    lane_a = hdmap.create(Lane, centerline=straight([0, 0], [100, 0]),
                          left_boundary=left.id, right_boundary=right.id)
    lane_b = hdmap.create(Lane, centerline=straight([100, 0], [200, 0]))
    hdmap.create(TrafficSign, position=np.array([50.0, 6.0]),
                 sign_type=SignType.SPEED_LIMIT, value=13.89)
    return hdmap, lane_a, lane_b


class TestHDMap:
    def test_add_get_contains(self, small_map):
        hdmap, lane_a, _ = small_map
        assert lane_a.id in hdmap
        assert hdmap.get(lane_a.id) is lane_a

    def test_duplicate_id_rejected(self, small_map):
        hdmap, lane_a, _ = small_map
        with pytest.raises(MapModelError):
            hdmap.add(lane_a)

    def test_unknown_get_raises(self, small_map):
        hdmap, *_ = small_map
        with pytest.raises(UnknownElementError):
            hdmap.get(ElementId("lane", 999))

    def test_remove(self, small_map):
        hdmap, lane_a, _ = small_map
        hdmap.remove(lane_a.id)
        assert lane_a.id not in hdmap

    def test_replace_reindexes(self, small_map):
        hdmap, lane_a, _ = small_map
        moved = Lane(id=lane_a.id, centerline=straight([0, 50], [100, 50]))
        hdmap.replace(moved)
        lane, d = hdmap.nearest_lane(50.0, 50.0)
        assert lane.id == lane_a.id
        assert d < 0.5

    def test_typed_iterators(self, small_map):
        hdmap, *_ = small_map
        assert len(list(hdmap.lanes())) == 2
        assert len(list(hdmap.boundaries())) == 2
        assert len(list(hdmap.signs())) == 1

    def test_nearest_lane(self, small_map):
        hdmap, lane_a, lane_b = small_map
        lane, d = hdmap.nearest_lane(10.0, 1.0)
        assert lane.id == lane_a.id
        assert d == pytest.approx(1.0)

    def test_landmarks_in_radius_exact(self, small_map):
        hdmap, *_ = small_map
        assert len(hdmap.landmarks_in_radius(50.0, 0.0, 10.0)) == 1
        assert len(hdmap.landmarks_in_radius(50.0, 0.0, 3.0)) == 0

    def test_successors_via_endpoint_matching(self, small_map):
        hdmap, lane_a, lane_b = small_map
        assert hdmap.successors(lane_a.id) == [lane_b.id]
        assert hdmap.predecessors(lane_b.id) == [lane_a.id]

    def test_topology_rebuilds_after_mutation(self, small_map):
        hdmap, lane_a, lane_b = small_map
        assert hdmap.successors(lane_a.id) == [lane_b.id]
        hdmap.remove(lane_b.id)
        assert hdmap.successors(lane_a.id) == []

    def test_counts_by_kind(self, small_map):
        hdmap, *_ = small_map
        counts = hdmap.counts_by_kind()
        assert counts["lane"] == 2
        assert counts["sign"] == 1

    def test_bounds(self, small_map):
        hdmap, *_ = small_map
        min_x, min_y, max_x, max_y = hdmap.bounds()
        assert min_x <= 0 and max_x >= 200

    def test_copy_is_independent(self, small_map):
        hdmap, lane_a, _ = small_map
        clone = hdmap.copy()
        clone.remove(lane_a.id)
        assert lane_a.id in hdmap
        assert lane_a.id not in clone

    def test_empty_map_nearest_lane_raises(self):
        with pytest.raises(MapModelError):
            HDMap("empty").nearest_lane(0.0, 0.0)

    def test_regulatory_speed_limit(self, small_map):
        hdmap, lane_a, _ = small_map
        add_rule(hdmap, rule_type=RuleType.SPEED_LIMIT,
                                lanes=[lane_a.id], value=8.33)
        assert hdmap.effective_speed_limit(lane_a.id) == pytest.approx(8.33)

    def test_rules_for_lane(self, small_map):
        hdmap, lane_a, lane_b = small_map
        rule = add_rule(hdmap, rule_type=RuleType.STOP,
                                       lanes=[lane_a.id])
        assert [r.id for r in hdmap.rules_for_lane(lane_a.id)] == [rule.id]
        assert hdmap.rules_for_lane(lane_b.id) == []

    def test_lane_graph_has_lane_change_edges(self, highway):
        graph = highway.lane_graph()
        changes = [d for _, _, d in graph.edges(data=True)
                   if d["move"] == "change"]
        assert changes  # multi-lane highway must offer lane changes

    def test_total_lane_length(self, small_map):
        hdmap, *_ = small_map
        assert hdmap.total_lane_length() == pytest.approx(200.0)
