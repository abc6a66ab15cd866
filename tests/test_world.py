"""World substrate: builder, generators, trajectories, scenarios, elevation."""

import numpy as np
import pytest

from repro.core import Severity, validate_map
from repro.core.elements import BoundaryType, Pole, SignType, TrafficLight
from repro.errors import PlanningError
from repro.geometry.polyline import straight
from repro.world import (
    ChangeSpec,
    ElevationProfile,
    HDMapGenSampler,
    MapTopologySpec,
    RoadSpec,
    WorldBuilder,
    apply_changes,
    drive_lane_sequence,
    drive_route,
)
from repro.world.traffic import drive_polyline
from tests.conftest import of_type, stale_index_entries


class TestBuilder:
    def setup_method(self):
        self.builder = WorldBuilder("t")
        self.segment = self.builder.add_road(RoadSpec(
            reference=straight([0, 0], [200, 0], spacing=10.0),
            forward_lanes=2, backward_lanes=1, lane_width=3.5))
        self.map = self.builder.finish()

    def test_lane_counts(self):
        assert len(self.segment.forward_lanes) == 2
        assert len(self.segment.backward_lanes) == 1
        assert len(list(self.map.boundaries())) == 4  # F+B+1

    def test_forward_lanes_right_of_reference(self):
        for lane_id in self.segment.forward_lanes:
            lane = self.map.get(lane_id)
            mid = lane.centerline.point_at(lane.length / 2)
            assert mid[1] < 0  # right-hand traffic

    def test_backward_lane_reversed(self):
        lane = self.map.get(self.segment.backward_lanes[0])
        assert lane.centerline.start[0] > lane.centerline.end[0]

    def test_boundaries_flank_lanes(self):
        errors = [i for i in validate_map(self.map)
                  if i.check == "boundary_consistency"]
        assert errors == []

    def test_edge_boundaries_are_road_edge(self):
        types = [b.boundary_type for b in self.map.boundaries()]
        assert types.count(BoundaryType.ROAD_EDGE) == 2

    def test_signs_along(self):
        signs = self.builder.add_signs_along(self.segment, spacing=50.0)
        assert len(signs) == 4
        # Signs sit on the right-hand side of the road.
        for sign in signs:
            assert sign.position[1] < -3.5


class TestGenerators:
    def test_highway_valid(self, highway):
        errors = [i for i in validate_map(highway)
                  if i.severity is Severity.ERROR]
        assert errors == []

    def test_highway_has_furniture(self, highway):
        assert len(list(highway.signs())) > 5
        assert len(list(of_type(highway, Pole))) > 10

    def test_city_connected(self, city):
        import networkx as nx

        graph = city.lane_graph()
        assert nx.number_weakly_connected_components(graph) == 1

    def test_city_has_intersection_furniture(self, city):
        assert len(list(of_type(city, TrafficLight))) > 0
        assert len(list(city.crosswalks())) > 0

    def test_factory_single_direction_aisles(self, factory):
        for segment in factory.segments():
            assert len(segment.backward_lanes) == 0

    def test_factory_safety_signs(self, factory):
        signs = list(factory.signs())
        assert signs
        assert all(s.sign_type is SignType.SAFETY for s in signs)


class TestHDMapGen:
    def test_sample_global_graph_spacing(self, rng):
        sampler = HDMapGenSampler(MapTopologySpec(n_junctions=8))
        pos, edges = sampler.sample_global_graph(rng)
        assert pos.shape[0] >= 2
        for i in range(pos.shape[0]):
            for j in range(i + 1, pos.shape[0]):
                assert np.hypot(*(pos[i] - pos[j])) >= 200.0

    def test_local_geometry_endpoints_fixed(self, rng):
        sampler = HDMapGenSampler()
        a = np.array([0.0, 0.0])
        b = np.array([400.0, 100.0])
        line = sampler.sample_local_geometry(rng, a, b)
        assert np.allclose(line.start, a, atol=1e-9)
        assert np.allclose(line.end, b, atol=1e-9)
        assert line.length >= np.hypot(*(b - a))

    def test_sample_map_valid(self, rng):
        hdmap = HDMapGenSampler(MapTopologySpec(n_junctions=6)).sample_map(rng)
        errors = [i for i in validate_map(hdmap)
                  if i.severity is Severity.ERROR]
        assert errors == []
        assert len(list(hdmap.lanes())) > 0


class TestIndexedBounds:
    """Every generated element sits in the grid index under its own
    bounds; a segment indexed before its lanes were attached used to keep
    the 2 m padding of a lane-less segment."""

    def test_generated_worlds(self, city, highway, factory):
        for world in (city, highway, factory):
            assert stale_index_entries(world) == {}

    def test_hdmapgen_map(self, rng):
        hdmap = HDMapGenSampler(MapTopologySpec(n_junctions=6)).sample_map(rng)
        assert stale_index_entries(hdmap) == {}

    def test_segment_found_by_radius_query(self):
        builder = WorldBuilder("t")
        segment = builder.add_road(RoadSpec(
            reference=straight([0, 0], [200, 0], spacing=10.0),
            forward_lanes=2, backward_lanes=1, lane_width=3.5))
        # 8.5 m off the reference line: inside the bounds padded for three
        # lanes (9.4 m), outside those of a lane-less segment (2 m).
        ids = {e.id for e in builder.map.elements_in_radius(100.0, 8.5, 0.5)}
        assert segment.id in ids


class TestTrajectories:
    def test_drive_polyline_duration_and_length(self, rng):
        path = straight([0, 0], [100, 0], spacing=5.0)
        traj = drive_polyline(path, speed=10.0, dt=0.1)
        assert traj.duration == pytest.approx(10.0, abs=0.3)
        assert traj.path_length() == pytest.approx(100.0, abs=2.0)

    def test_lateral_wander_bounded(self, rng):
        path = straight([0, 0], [500, 0], spacing=5.0)
        traj = drive_polyline(path, speed=10.0, rng=rng, lateral_sigma=0.3)
        lateral = traj.positions()[:, 1]
        assert np.abs(lateral).max() < 1.0
        assert np.abs(lateral).max() > 0.05  # it does wander

    def test_pose_interpolation(self, rng):
        path = straight([0, 0], [100, 0], spacing=5.0)
        traj = drive_polyline(path, speed=10.0)
        pose = traj.pose_at(5.0)
        assert pose.x == pytest.approx(50.0, abs=1.0)

    def test_drive_lane_sequence_rejects_empty(self, highway):
        with pytest.raises(PlanningError):
            drive_lane_sequence(highway, [])

    def test_drive_route_covers_length(self, highway, rng):
        lane = next(iter(highway.lanes()))
        traj = drive_route(highway, lane.id, 500.0, rng)
        assert traj.path_length() >= 500.0 or traj.path_length() >= lane.length

    def test_speed_must_be_positive(self):
        with pytest.raises(PlanningError):
            drive_polyline(straight([0, 0], [10, 0]), speed=0.0)


class TestScenario:
    def test_apply_changes_counts(self, highway, rng):
        spec = ChangeSpec(add_signs=3, remove_signs=2, move_signs=1)
        scenario = apply_changes(highway, spec, rng)
        types = [c.change_type.value for c in scenario.true_changes]
        assert types.count("added") == 3
        assert types.count("removed") == 2
        assert types.count("moved") == 1

    def test_prior_unchanged(self, highway, rng):
        scenario = apply_changes(highway, ChangeSpec(add_signs=2), rng)
        assert len(list(scenario.prior.signs())) == len(list(highway.signs()))

    def test_construction_site_cluster(self, highway, rng):
        scenario = apply_changes(
            highway, ChangeSpec(construction_sites=1,
                                construction_signs_per_site=4), rng)
        added = [c for c in scenario.true_changes
                 if c.change_type.value == "added"]
        assert len(added) == 4


class TestElevation:
    def test_flat(self):
        profile = ElevationProfile.flat(1000.0)
        assert profile.slope_at(500.0) == 0.0

    def test_rolling_grade_bounded(self, rng):
        profile = ElevationProfile.rolling(10000.0, rng, max_grade=0.05)
        stations = np.linspace(0, 10000, 400)
        slopes = np.array([profile.slope_at(s) for s in stations])
        assert np.abs(slopes).max() <= 0.055

    def test_height_interpolation(self):
        profile = ElevationProfile(np.array([0.0, 100.0]),
                                   np.array([0.0, 10.0]))
        assert profile.height_at(50.0) == pytest.approx(5.0)
        assert profile.slope_at(50.0) == pytest.approx(0.1)

    def test_rejects_nonmonotonic(self):
        with pytest.raises(ValueError):
            ElevationProfile(np.array([0.0, 5.0, 3.0]), np.zeros(3))
