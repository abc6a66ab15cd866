"""Tile streaming (TileStore/StreamingMap) and the behavior planner."""

import numpy as np
import pytest

from repro.core.elements import SignType, TrafficLight, TrafficSign
from repro.errors import StorageError
from repro.geometry.polyline import straight
from repro.geometry.transform import SE2
from repro.planning import (
    BehaviorPlanner,
    BehaviorState,
    LeadVehicle,
    simulate_approach,
)
from repro.storage import StreamingMap, TileStore
from tests.conftest import add_rule


class TestTileStore:
    def test_build_covers_all_elements(self, city):
        store = TileStore.build(city, tile_size=250.0)
        assert len(store.tiles()) > 1
        # Every spatial element appears in at least one tile.
        ids = set()
        for tile in store.tiles():
            shard = store.load_tile(tile)
            ids.update(e.id for e in shard.elements())
        spatial = [e for e in city.elements()
                   if e.id.kind != "regulatory"]
        assert {e.id for e in spatial} <= ids

    def test_missing_tile_returns_none(self, city):
        from repro.core.tiles import TileId

        store = TileStore.build(city, tile_size=250.0)
        assert store.load_tile(TileId(999, 999)) is None

    def test_streaming_matches_full_map(self, city):
        store = TileStore.build(city, tile_size=250.0)
        streaming = StreamingMap(store, max_tiles=6)
        for point in [(100.0, 100.0), (300.0, 200.0), (450.0, 150.0)]:
            full = {e.id for e in city.elements_in_radius(*point, 60.0)}
            part = {e.id for e in streaming.elements_in_radius(*point, 60.0)}
            assert full <= part or full == part  # replication superset OK
            assert full == {i for i in part if i in full}

    def test_lru_eviction_bounds_memory(self, city):
        store = TileStore.build(city, tile_size=200.0)
        streaming = StreamingMap(store, max_tiles=3)
        min_x, min_y, max_x, max_y = city.bounds()
        xs = np.linspace(min_x + 20, max_x - 20, 12)
        for x in xs:
            streaming.elements_in_radius(float(x), (min_y + max_y) / 2, 40.0)
        assert len(streaming.resident_tiles()) <= 3
        assert streaming.stats.evictions > 0

    def test_revisits_hit_cache(self, city):
        store = TileStore.build(city, tile_size=250.0)
        streaming = StreamingMap(store, max_tiles=6)
        streaming.elements_in_radius(100.0, 100.0, 40.0)
        loads_before = streaming.stats.loads
        streaming.elements_in_radius(100.0, 100.0, 40.0)
        assert streaming.stats.loads == loads_before
        assert streaming.stats.hits > 0

    def test_streaming_nearest_lane(self, city):
        store = TileStore.build(city, tile_size=250.0)
        streaming = StreamingMap(store, max_tiles=6)
        lane = next(iter(city.lanes()))
        mid = lane.centerline.point_at(lane.length / 2)
        found, dist = streaming.nearest_lane(float(mid[0]), float(mid[1]))
        assert dist < 0.5

    def test_streaming_nearest_lane_nowhere(self, city):
        store = TileStore.build(city, tile_size=250.0)
        streaming = StreamingMap(store, max_tiles=6)
        with pytest.raises(StorageError):
            streaming.nearest_lane(1e6, 1e6, search_radius=50.0)

    def test_max_tiles_validated(self, city):
        store = TileStore.build(city, tile_size=250.0)
        with pytest.raises(StorageError):
            StreamingMap(store, max_tiles=0)


@pytest.fixture
def straight_road_with_light():
    from repro.core.hdmap import HDMap
    from repro.core.elements import Lane

    hdmap = HDMap("b")
    lane = hdmap.create(Lane, centerline=straight([0, 0], [300, 0],
                                                  spacing=10.0),
                        speed_limit=13.89)
    # Red for 30 s, then green 27 s; placed at s=200.
    hdmap.create(TrafficLight, position=np.array([200.0, 4.0]),
                 cycle=(30.0, 3.0, 27.0), phase_offset=0.0)
    return hdmap, lane


class TestBehaviorPlanner:
    def test_cruise_at_limit(self, straight_road_with_light):
        hdmap, lane = straight_road_with_light
        planner = BehaviorPlanner(hdmap)
        pose = SE2(10.0, 0.0, 0.0)
        decision = planner.decide(pose, 10.0, t=0.0)
        # At s=10 the light at 200 is beyond the 80 m lookahead.
        assert decision.state is BehaviorState.CRUISE
        assert decision.target_speed == pytest.approx(13.89)

    def test_stops_for_red_light(self, straight_road_with_light):
        hdmap, lane = straight_road_with_light
        planner = BehaviorPlanner(hdmap)
        decision = planner.decide(SE2(150.0, 0.0, 0.0), 12.0, t=5.0)  # red
        assert decision.state is BehaviorState.STOPPING_LIGHT
        assert decision.stop_distance == pytest.approx(50.0, abs=2.0)
        # Close to the stop line the speed envelope collapses.
        near = planner.decide(SE2(185.0, 0.0, 0.0), 12.0, t=5.0)
        assert near.state is BehaviorState.STOPPING_LIGHT
        assert near.target_speed < 8.0
        at_line = planner.decide(SE2(197.0, 0.0, 0.0), 5.0, t=5.0)
        assert at_line.target_speed < 2.5

    def test_ignores_green_light(self, straight_road_with_light):
        hdmap, lane = straight_road_with_light
        planner = BehaviorPlanner(hdmap)
        pose = SE2(150.0, 0.0, 0.0)
        decision = planner.decide(pose, 12.0, t=40.0)  # green phase
        assert decision.state is BehaviorState.CRUISE

    def test_follows_lead_vehicle(self, straight_road_with_light):
        hdmap, lane = straight_road_with_light
        planner = BehaviorPlanner(hdmap)
        pose = SE2(10.0, 0.0, 0.0)
        decision = planner.decide(pose, 13.0, t=40.0,
                                  lead=LeadVehicle(gap=10.0, speed=8.0))
        assert decision.state is BehaviorState.FOLLOW
        assert decision.target_speed < 13.0

    def test_stop_sign(self):
        from repro.core.hdmap import HDMap
        from repro.core.elements import Lane

        hdmap = HDMap("s")
        hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
        hdmap.create(TrafficSign, position=np.array([60.0, 4.0]),
                     sign_type=SignType.STOP)
        planner = BehaviorPlanner(hdmap)
        decision = planner.decide(SE2(30.0, 0.0, 0.0), 10.0, t=0.0)
        assert decision.state is BehaviorState.STOPPING_SIGN

    def test_simulated_approach_stops_then_goes(self, straight_road_with_light):
        hdmap, lane = straight_road_with_light
        planner = BehaviorPlanner(hdmap)
        history = simulate_approach(planner, lane.id, t0=0.0,
                                    initial_speed=13.0)
        speeds = [v for _, v, _ in history]
        states = {d.state for _, _, d in history}
        assert BehaviorState.STOPPING_LIGHT in states
        assert min(speeds) < 1.0  # came to (near) rest at the red
        # After the light turns green the vehicle accelerates again.
        stopped_idx = int(np.argmin(speeds))
        assert max(speeds[stopped_idx:]) > 5.0

    def test_regulatory_limit_respected(self, straight_road_with_light):
        from repro.core import RuleType

        hdmap, lane = straight_road_with_light
        add_rule(hdmap, rule_type=RuleType.SPEED_LIMIT,
                                lanes=[lane.id], value=8.33)
        planner = BehaviorPlanner(hdmap)
        decision = planner.decide(SE2(10.0, 0.0, 0.0), 10.0, t=40.0)
        assert decision.target_speed == pytest.approx(8.33)
