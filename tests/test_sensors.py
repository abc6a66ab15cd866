"""Sensor models: noise characteristics and measurement geometry."""

import numpy as np
import pytest

from repro.core.elements import TrafficLight
from repro.geometry.polyline import straight
from repro.geometry.transform import SE2
from repro.sensors import (
    Camera,
    GnssSensor,
    ImuSensor,
    LidarScanner,
    ProbeGenerator,
    SensorGrade,
    WheelOdometry,
    make_depth_scene,
)
from repro.world.traffic import drive_polyline
from tests.conftest import of_type


@pytest.fixture(scope="module")
def traj():
    path = straight([0, 0], [600, 0], spacing=5.0)
    return drive_polyline(path, speed=15.0, dt=0.1)


class TestGnss:
    def test_grades_ordered_by_error(self, traj):
        errors = {}
        for grade in SensorGrade:
            rng = np.random.default_rng(4)
            fixes = GnssSensor(grade, rate_hz=2.0).measure(traj, rng)
            errs = []
            for f in fixes:
                pose = traj.pose_at(f.t)
                errs.append(np.hypot(f.position[0] - pose.x,
                                     f.position[1] - pose.y))
            errors[grade] = float(np.mean(errs))
        assert errors[SensorGrade.SURVEY] < 0.05
        assert errors[SensorGrade.SURVEY] < errors[SensorGrade.AUTOMOTIVE]
        assert errors[SensorGrade.AUTOMOTIVE] < errors[SensorGrade.SMARTPHONE]

    def test_fix_rate(self, traj, rng):
        fixes = GnssSensor(rate_hz=5.0).measure(traj, rng)
        dts = np.diff([f.t for f in fixes])
        assert np.allclose(dts, 0.2)

    def test_bias_survives_averaging(self, traj, rng):
        """Averaging one trace's fixes must NOT reach white-noise accuracy.

        This is the property that caps GPS-only probe mapping (Massow et
        al.): the per-trace mean error stays at bias level, far above
        white_sigma / sqrt(N).
        """
        sensor = GnssSensor(SensorGrade.AUTOMOTIVE, rate_hz=2.0)
        mean_errors = []
        for _ in range(15):
            fixes = sensor.measure(traj, rng)
            errs = np.array([
                f.position - [traj.pose_at(f.t).x, traj.pose_at(f.t).y]
                for f in fixes
            ])
            mean_errors.append(float(np.hypot(*errs.mean(axis=0))))
        n = len(fixes)
        white_floor = sensor.noise.white_sigma / np.sqrt(n)
        assert float(np.median(mean_errors)) > 5 * white_floor


class TestImuOdometry:
    def test_imu_rate(self, traj, rng):
        readings = ImuSensor(rate_hz=20.0).measure(traj, rng)
        dts = np.diff([r.t for r in readings])
        assert np.allclose(dts, 0.05, atol=1e-6)

    def test_odometry_straight_line(self, traj, rng):
        deltas = WheelOdometry(rate_hz=10.0).measure(traj, rng)
        total = sum(d.ds for d in deltas)
        assert total == pytest.approx(traj.path_length(), rel=0.05)
        assert abs(sum(d.dtheta for d in deltas)) < 0.3


class TestLidar:
    def test_scan_channels(self, highway, rng):
        scanner = LidarScanner()
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(200.0), lane.centerline.heading_at(200.0))
        scan = scanner.scan(highway, pose, rng)
        assert scan.ground.points.shape[0] > 1000
        assert scan.objects.ranges.shape[0] >= 0

    def test_ground_intensity_separates_paint(self, highway, rng):
        scanner = LidarScanner(intensity_sigma=0.02)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(300.0),
                   lane.centerline.heading_at(300.0))
        scan = scanner.scan(highway, pose, rng)
        frac_paint = float((scan.ground.intensity > 0.5).mean())
        assert 0.005 < frac_paint < 0.4

    def test_object_returns_hit_poles(self, highway, rng):
        scanner = LidarScanner(dropout=0.0)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(250.0),
                   lane.centerline.heading_at(250.0))
        scan = scanner.scan(highway, pose, rng)
        # Highway has poles every 80 m within the 60 m range: expect hits.
        assert scan.objects.ranges.size > 0
        assert scan.objects.ranges.max() <= scanner.max_range + 1.0

    def test_obstacles_visible(self, highway, rng):
        from repro.sensors.lidar import Obstacle

        scanner = LidarScanner(dropout=0.0)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(100.0),
                   lane.centerline.heading_at(100.0))
        ahead = pose.apply(np.array([15.0, 0.0]))
        scan = scanner.scan(highway, pose, rng,
                            obstacles=[Obstacle(position=ahead, radius=1.0)])
        near_15 = np.abs(scan.objects.ranges - 14.0) < 2.5
        assert near_15.any()


class TestCamera:
    def test_lane_observation_geometry(self, highway, rng):
        camera = Camera(lane_detection_prob=1.0, lane_offset_sigma=0.0)
        lane = next(iter(highway.lanes()))
        s = 150.0
        base = lane.centerline.point_at(s)
        heading = lane.centerline.heading_at(s)
        normal = lane.centerline.normal_at(s)
        pose = SE2(*(base + 0.5 * normal), heading)  # 0.5 m left of centre
        obs = camera.observe_lanes(highway, pose, rng)
        assert obs is not None
        # lane_centre_offset is the vehicle's signed offset (left positive).
        assert obs.lane_centre_offset == pytest.approx(0.5, abs=0.1)

    def test_sign_detection_range_and_fov(self, highway, rng):
        camera = Camera(detection_prob=1.0, false_positive_rate=0.0)
        sign = next(iter(highway.signs()))
        # Stand 20 m before the sign facing it.
        facing = np.arctan2(0, 1)
        pose = SE2(sign.position[0] - 20.0, sign.position[1], 0.0)
        dets = camera.observe_signs(highway, pose, rng)
        ours = [d for d in dets if d.true_id == sign.id]
        assert len(ours) == 1
        assert ours[0].range == pytest.approx(20.0, rel=0.2)

    def test_false_positives_have_no_true_id(self, highway, rng):
        camera = Camera(detection_prob=0.0, false_positive_rate=5.0)
        pose = SE2(0.0, 0.0, 0.0)
        dets = camera.observe_signs(highway, pose, rng)
        assert dets
        assert all(d.true_id is None for d in dets)

    def test_light_state_confusion(self, city, rng):
        camera = Camera(detection_prob=1.0, light_state_accuracy=0.0)
        light = next(iter(of_type(city, TrafficLight)))
        pose = SE2(light.position[0] - 15.0, light.position[1], 0.0)
        obs = camera.observe_lights(city, pose, rng, t=3.0)
        ours = [o for o in obs if o.true_id == light.id]
        if ours:  # always misclassifies with accuracy 0
            assert ours[0].state is not light.state_at(3.0)


class TestProbeAndDepth:
    def test_probe_trace_channels(self, highway, traj, rng):
        gen = ProbeGenerator(with_sensors=True)
        # Use a highway trajectory so lane observations exist.
        lane = next(iter(highway.lanes()))
        from repro.world import drive_lane_sequence

        htraj = drive_lane_sequence(highway, [lane.id], rng=rng)
        trace = gen.generate(highway, htraj, 7, rng)
        assert trace.vehicle_id == 7
        assert len(trace.fixes) > 10
        assert len(trace.lane_observations) > 5

    def test_depth_scene_shapes(self, rng):
        frame = make_depth_scene(rng, height=120, width=160, factor=4)
        assert frame.depth_true.shape == (120, 160)
        assert frame.depth_low.shape == (30, 40)
        assert frame.guide.shape == (120, 160)

    def test_depth_edges_align_with_guide(self, rng):
        frame = make_depth_scene(rng, height=120, width=160, factor=4,
                                 noise_sigma=0.0)
        depth_edges = np.abs(np.diff(frame.depth_true, axis=1)) > 0.5
        guide_edges = np.abs(np.diff(frame.guide, axis=1)) > 0.05
        overlap = (depth_edges & guide_edges).sum() / max(depth_edges.sum(), 1)
        assert overlap > 0.8
