"""Extensions: geodesy-grounded ingestion, HDMapGen statistics, failure
injection across the sensor/estimator stack."""

import numpy as np

from repro.geometry.polyline import straight
from repro.geometry.transform import SE2
from repro.world.hdmapgen import (
    HDMapGenSampler,
    MapTopologySpec,
    map_statistics,
)


class TestHdmapgenStatistics:
    def test_generated_maps_are_plausible(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            hdmap = HDMapGenSampler(
                MapTopologySpec(n_junctions=8)).sample_map(rng)
            stats = map_statistics(hdmap)
            assert stats.n_lanes > 0, stats
            assert 20.0 < stats.mean_lane_length < 2000.0, stats
            assert stats.mean_abs_curvature < 0.1, stats
            assert 1.0 <= stats.mean_junction_degree <= 6.0, stats

    def test_curvature_scale_controls_curvature(self):
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        straightish = HDMapGenSampler(MapTopologySpec(
            n_junctions=8, curvature_scale=0.01)).sample_map(rng1)
        wavy = HDMapGenSampler(MapTopologySpec(
            n_junctions=8, curvature_scale=0.3)).sample_map(rng2)
        assert (map_statistics(wavy).mean_abs_curvature
                > map_statistics(straightish).mean_abs_curvature)

    def test_statistics_fields(self, city):
        stats = map_statistics(city)
        assert stats.n_lanes == len(list(city.lanes()))
        assert stats.n_segments == len(list(city.segments()))
        assert stats.mean_junction_degree >= 1.0


def _camera_blind_and_honest():
    from repro.sensors import Camera

    return Camera(detection_prob=0.0, false_positive_rate=0.0)


def _camera_dead_but_trusted():
    from repro.sensors import Camera

    class DeadCamera(Camera):
        """Returns nothing while advertising its nominal operating point."""

        def observe_signs(self, *args, **kwargs):
            return []

    return DeadCamera(detection_prob=0.9, false_positive_rate=0.0)


class TestFailureInjection:
    def test_lidar_full_dropout_yields_empty_channels(self, highway, rng):
        from repro.sensors import LidarScanner

        scanner = LidarScanner(dropout=1.0)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(100.0),
                   lane.centerline.heading_at(100.0))
        scan = scanner.scan(highway, pose, rng)
        assert scan.ground.points.shape[0] == 0
        assert scan.objects.ranges.shape[0] == 0

    def test_localizer_survives_empty_scans(self, highway, rng):
        from repro.localization import LaneMarkingLocalizer
        from repro.sensors import LidarScanner

        scanner = LidarScanner(dropout=1.0)
        localizer = LaneMarkingLocalizer(highway, rng)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(100.0),
                   lane.centerline.heading_at(100.0))
        localizer.initialize(pose)
        scan = scanner.scan(highway, pose, rng)
        assert localizer.update_markings(scan) == 0  # no lines, no crash
        assert localizer.estimate().distance_to(pose) < 5.0

    def test_camera_blind_detector(self, highway, rng):
        from repro.sensors import Camera

        camera = Camera(detection_prob=0.0, false_positive_rate=0.0,
                        lane_detection_prob=0.0)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(100.0),
                   lane.centerline.heading_at(100.0))
        assert camera.observe_signs(highway, pose, rng) == []
        obs = camera.observe_lanes(highway, pose, rng)
        assert obs is None or obs.lane_centre_offset is None

    def test_slamcu_known_blind_camera_is_uninformative(self):
        """A camera *known* to be blind (detection_prob=0) makes misses
        uninformative: the correct Bayesian output is 'no changes'."""
        report = self._run_slamcu_with(_camera_blind_and_honest())
        assert report.detected_changes == []

    def test_slamcu_dead_sensor_with_stale_model_fails_loud(self):
        """A sensor that died while the model still claims 90 % detection
        produces mass removals — a loud, operator-visible failure instead
        of a silently stale map."""
        from repro.core import ChangeType

        report = self._run_slamcu_with(_camera_dead_but_trusted())
        removals = [c for c in report.detected_changes
                    if c.change_type is ChangeType.REMOVED]
        assert len(removals) >= 5

    @staticmethod
    def _run_slamcu_with(camera):
        from repro.update import Slamcu
        from repro.world import (
            ChangeSpec,
            apply_changes,
            drive_route,
            generate_highway,
        )

        rng = np.random.default_rng(7)
        hw = generate_highway(rng, length=2000.0, sign_spacing=200.0)
        scenario = apply_changes(hw, ChangeSpec(), rng)
        lane = next(iter(scenario.reality.lanes()))
        traj = drive_route(scenario.reality, lane.id, 1900.0, rng)
        return Slamcu(scenario.prior.copy(), camera=camera).run(
            scenario, traj, rng)

    def test_ekf_covariance_stays_positive(self, rng):
        from repro.localization import PoseEKF

        ekf = PoseEKF(SE2(0, 0, 0), sigma_xy=1.0)
        for k in range(200):
            ekf.predict(1.0, 0.01)
            if k % 3 == 0:
                ekf.update_position(
                    np.array([float(k), 0.0]) + rng.normal(0, 0.5, 2), 0.5,
                    gate=None)
        eigenvalues = np.linalg.eigvalsh(ekf.P)
        assert np.all(eigenvalues > 0)

    def test_streaming_map_with_empty_region(self, city):
        from repro.storage import StreamingMap, TileStore

        store = TileStore.build(city, tile_size=250.0)
        streaming = StreamingMap(store, max_tiles=4)
        # Far outside the map: no tiles exist, queries return empty.
        assert streaming.elements_in_radius(1e5, 1e5, 100.0) == []

    def test_router_on_single_lane_map(self):
        from repro.core import HDMap, Lane
        from repro.planning import LaneRouter

        hdmap = HDMap("one")
        lane = hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
        router = LaneRouter(hdmap)
        result = router.route(lane.id, lane.id)
        assert result.lane_ids == [lane.id]

    def test_wmof_noise_free_input(self, rng):
        """With zero noise the filter must not degrade the depth map."""
        from repro.depthmap import WeightedModeFilter
        from repro.sensors import make_depth_scene

        frame = make_depth_scene(rng, height=120, width=160, factor=4,
                                 noise_sigma=0.0)
        out, stats = WeightedModeFilter().upsample(frame)
        assert stats.mae < 0.5
