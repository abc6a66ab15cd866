"""Coverage for utility paths not exercised elsewhere."""

import math

import numpy as np
import pytest

from repro.geometry.polyline import straight
from repro.geometry.raster import GridSpec, RasterGrid
from repro.geometry.transform import SE2


class TestPolylineEdges:
    def test_concat_with_gap_keeps_both(self):
        a = straight([0, 0], [50, 0])
        b = straight([60, 0], [100, 0])
        joined = a.concat(b)
        assert joined.length == pytest.approx(100.0)  # includes the 10 m gap

    def test_repr_mentions_length(self):
        line = straight([0, 0], [123, 0])
        assert "123" in repr(line)

    def test_offset_negative_goes_right(self):
        line = straight([0, 0], [50, 0])
        right = line.offset(-2.0)
        assert np.allclose(right.points[:, 1], -2.0, atol=1e-9)


class TestRasterGridCopy:
    def test_copy_is_deep(self):
        grid = RasterGrid(GridSpec.from_bounds((0, 0, 10, 10), 1.0))
        grid.set_points(np.array([[5.0, 5.0]]), 3.0)
        clone = grid.copy()
        clone.data[:] = 0.0
        assert grid.sample(np.array([[5.0, 5.0]]))[0] == 3.0

    def test_occupied_nbytes_smaller_for_sparse(self):
        from repro.geometry.raster import BitmaskRaster

        spec = GridSpec.from_bounds((0, 0, 500, 500), 0.5)
        raster = BitmaskRaster(spec, ["a"])
        raster.mark_points("a", np.array([[5.0, 5.0]]))
        assert raster.occupied_nbytes() < raster.nbytes() / 10


class TestChangeLog:
    def test_log_orders_and_filters(self):
        from repro.core import ChangeLog, ChangeType, ElementId, MapChange

        log = ChangeLog()
        for version in (1, 2, 3):
            log.record(version, MapChange(ChangeType.ADDED,
                                          ElementId("sign", version),
                                          (0.0, 0.0)))
        assert len(log) == 3
        assert len(log.changes_since(1)) == 2


class TestCameraFov:
    def test_in_view_respects_fov(self):
        from repro.sensors import Camera

        camera = Camera(fov=math.radians(90.0), max_range=50.0)
        pose = SE2(0.0, 0.0, 0.0)
        assert camera.in_view(pose, np.array([20.0, 0.0]))
        assert camera.in_view(pose, np.array([20.0, 15.0]))
        assert not camera.in_view(pose, np.array([-20.0, 0.0]))  # behind
        assert not camera.in_view(pose, np.array([60.0, 0.0]))  # too far
        assert not camera.in_view(pose, np.array([0.2, 0.0]))  # too close


class TestLaneMarkingHelpers:
    def test_hough_requires_support(self, rng):
        from repro.localization.lane_marking import hough_lines

        sparse = rng.uniform(-5, 5, size=(4, 2))
        assert hough_lines(sparse, min_support=8) == []


class TestBehaviorIdm:
    def test_following_speed_decreases_with_gap(self, city):
        from repro.planning import BehaviorPlanner, LeadVehicle

        planner = BehaviorPlanner(city)
        lane = max(city.lanes(), key=lambda l: l.length)
        point = lane.centerline.point_at(lane.length / 2)
        pose = SE2(float(point[0]), float(point[1]),
                   lane.centerline.heading_at(lane.length / 2))
        near = planner.decide(pose, 12.0, t=100.0,
                              lead=LeadVehicle(gap=6.0, speed=5.0))
        far = planner.decide(pose, 12.0, t=100.0,
                             lead=LeadVehicle(gap=25.0, speed=5.0))
        assert near.target_speed <= far.target_speed


class TestStorageStatsProperties:
    def test_report_properties_consistent(self, highway, rng):
        from repro.storage import storage_report

        report = storage_report(highway, rng)
        assert report.pointcloud_per_mile == pytest.approx(
            report.pointcloud_bytes / report.road_miles)
        assert report.reduction_factor == pytest.approx(
            report.pointcloud_bytes / report.binary_simplified_bytes)
