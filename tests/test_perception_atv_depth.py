"""Perception (HDNET, cooperative), ATV updates, and WMoF depth filter."""

import numpy as np
import pytest

from repro.geometry.transform import SE2
from repro.perception import (
    CooperativePerception,
    HdnetDetector,
    LidarObjectDetector,
    RoadsideCamera,
    predict_road_prior,
)
from repro.sensors import LidarScanner, make_depth_scene
from repro.sensors.lidar import Obstacle
from repro.depthmap import WeightedModeFilter
from repro.depthmap.wmof import nearest_neighbour_upsample
from repro.atv import AtvSignUpdater, VisualSlam
from repro.world import ChangeSpec, apply_changes


@pytest.fixture(scope="module")
def perception_scene(highway):
    """A pose on the highway with one on-road obstacle ahead."""
    lane = next(iter(highway.lanes()))
    s = 300.0
    pose = SE2(*lane.centerline.point_at(s), lane.centerline.heading_at(s))
    obstacle = Obstacle(position=pose.apply(np.array([18.0, 0.0])),
                        radius=1.0, reflectivity=0.45)
    return pose, obstacle


class TestDetector:
    def test_detects_obstacle(self, highway, perception_scene, rng):
        pose, obstacle = perception_scene
        scan = LidarScanner(dropout=0.0).scan(highway, pose, rng,
                                              obstacles=[obstacle])
        detections = LidarObjectDetector().detect(scan, pose)
        d_to_ob = [float(np.hypot(*(d.position - obstacle.position)))
                   for d in detections]
        assert min(d_to_ob) < 1.5

    def test_clusters_poles_as_candidates(self, highway, perception_scene, rng):
        pose, _ = perception_scene
        scan = LidarScanner(dropout=0.0).scan(highway, pose, rng)
        detections = LidarObjectDetector().detect(scan, pose)
        # Without a map, roadside poles look like objects (the clutter
        # HDNET's prior removes).
        assert detections


class TestHdnet:
    def _score_detections(self, detector, highway, pose, obstacle, rng):
        scan = LidarScanner(dropout=0.0).scan(highway, pose, rng,
                                              obstacles=[obstacle])
        detections = detector.detect(scan, pose)
        tp_scores = [d.score for d in detections
                     if np.hypot(*(d.position - obstacle.position)) < 1.5]
        fp_scores = [d.score for d in detections
                     if np.hypot(*(d.position - obstacle.position)) >= 1.5]
        return (max(tp_scores) if tp_scores else 0.0,
                max(fp_scores) if fp_scores else 0.0)

    def test_map_prior_suppresses_clutter(self, highway, perception_scene, rng):
        pose, obstacle = perception_scene
        with_map = HdnetDetector(highway, mode="map")
        without = HdnetDetector(None, mode="none")
        tp_map, fp_map = self._score_detections(with_map, highway, pose,
                                                obstacle, rng)
        tp_none, fp_none = self._score_detections(without, highway, pose,
                                                  obstacle, rng)
        assert tp_map > 0.0  # still finds the true object
        assert fp_map < fp_none  # and kills mapped-furniture clutter

    def test_predicted_prior_between_map_and_none(self, highway,
                                                  perception_scene, rng):
        pose, obstacle = perception_scene
        predicted = HdnetDetector(None, mode="predicted")
        tp, fp = self._score_detections(predicted, highway, pose,
                                        obstacle, rng)
        assert tp > 0.0

    def test_road_prior_prediction_covers_road(self, highway,
                                               perception_scene, rng):
        pose, _ = perception_scene
        scan = LidarScanner().scan(highway, pose, rng)
        prior = predict_road_prior(scan, pose)
        on_road_point = pose.apply(np.array([10.0, 0.0]))
        off_road_point = pose.apply(np.array([10.0, 30.0]))
        assert prior.on_road(on_road_point)
        assert not prior.on_road(off_road_point)

    def test_mode_validation(self, highway):
        with pytest.raises(ValueError):
            HdnetDetector(highway, mode="bogus")
        with pytest.raises(ValueError):
            HdnetDetector(None, mode="map")


class TestCooperativePerception:
    def test_fusion_beats_single_source(self, rng):
        truth = np.array([30.0, 5.0])
        velocity = np.array([2.0, 0.0])
        camera = RoadsideCamera(position=np.array([25.0, 20.0]), sigma=0.4)
        solo = CooperativePerception()
        fused = CooperativePerception()
        pos = truth.copy()
        for step in range(20):
            pos = pos + velocity * 0.5
            vehicle_meas = (pos + rng.normal(0, 0.5, 2), 0.5)
            cam_obs = camera.observe([Obstacle(position=pos)], rng)
            solo.step(0.5, [vehicle_meas])
            measurements = [vehicle_meas] + [(m, camera.sigma) for m in cam_obs]
            fused.step(0.5, measurements)
        solo_err = solo.position_errors([pos])[0]
        fused_err = fused.position_errors([pos])[0]
        assert fused_err <= solo_err * 1.2  # fusion should not hurt
        assert fused.confirmed_tracks()[0].hits > solo.confirmed_tracks()[0].hits

    def test_occluded_object_only_seen_by_roadside(self, rng):
        camera = RoadsideCamera(position=np.array([0.0, 0.0]),
                                coverage_radius=50.0, detection_prob=1.0)
        tracker = CooperativePerception()
        hidden = np.array([10.0, 10.0])
        for _ in range(5):
            obs = camera.observe([Obstacle(position=hidden)], rng)
            tracker.step(0.5, [(m, camera.sigma) for m in obs])
        assert tracker.position_errors([hidden], min_hits=3)[0] < 1.0


class TestVisualSlam:
    def test_anchoring_bounds_drift(self, rng):
        anchors = [np.array([x, 0.0]) for x in range(0, 101, 20)]
        slam_anchored = VisualSlam(anchors)
        slam_free = VisualSlam([])
        for slam in (slam_anchored, slam_free):
            slam.start(SE2(0, 0, 0))
        truth = SE2(0, 0, 0)
        for k in range(100):
            ds, dtheta = 1.0, 0.0
            noisy_ds = ds * 1.02  # 2 % scale error
            truth = SE2(truth.x + ds, truth.y, 0.0)
            pos = np.array([truth.x, truth.y])
            slam_anchored.step(k * 1.0, noisy_ds, dtheta, pos, rng)
            slam_free.step(k * 1.0, noisy_ds, dtheta, pos, rng)
        err_anchored = slam_anchored.pose.distance_to(truth)
        err_free = slam_free.pose.distance_to(truth)
        assert err_anchored < err_free
        assert err_anchored < 0.5


class TestAtvSignUpdate:
    def test_detects_factory_sign_changes(self, factory, rng):
        scenario = apply_changes(factory,
                                 ChangeSpec(add_signs=2, remove_signs=2), rng)
        lanes = sorted(scenario.reality.lanes(), key=lambda l: l.id)
        aisle_lanes = [l for l in lanes if l.length > 30][:3]
        from repro.world.traffic import drive_lane_sequence as drive

        updater = AtvSignUpdater(scenario.prior.copy())
        reports = []
        for lane in aisle_lanes:
            traj = drive(scenario.reality, [lane.id], rng=rng,
                         lateral_sigma=0.05)
            anchors = [np.array([0.0, lane.centerline.start[1]])]
            slam = VisualSlam(anchors)
            reports.append(updater.run(scenario, traj, slam, rng))
        # Across the aisles driven, at least some true changes are found
        # with decent precision.
        found = sum(len(r.detected_changes) for r in reports)
        assert found >= 1
        assert all(r.precision >= 0.5 or not r.detected_changes
                   for r in reports)


class TestWmof:
    @pytest.fixture(scope="class")
    def frame(self):
        return make_depth_scene(np.random.default_rng(9), height=120,
                                width=160, factor=4, noise_sigma=0.15)

    def test_beats_nearest_neighbour(self, frame):
        wmof = WeightedModeFilter()
        out, stats = wmof.upsample(frame)
        nn = nearest_neighbour_upsample(frame)
        nn_mae = float(np.abs(nn - frame.depth_true).mean())
        assert stats.mae < nn_mae

    def test_kills_outliers(self, frame):
        wmof = WeightedModeFilter()
        _, stats = wmof.upsample(frame)
        nn = nearest_neighbour_upsample(frame)
        nn_outliers = float((np.abs(nn - frame.depth_true) > 1.0).mean())
        assert stats.outlier_fraction < nn_outliers

    def test_tiled_equals_full_output(self, frame):
        wmof = WeightedModeFilter()
        tiled, _ = wmof.upsample(frame, tiled=True)
        full, _ = wmof.upsample(frame, tiled=False)
        assert np.allclose(tiled, full)

    def test_tiled_working_set_much_smaller(self, frame):
        wmof = WeightedModeFilter()
        _, tiled_stats = wmof.upsample(frame, tiled=True)
        _, full_stats = wmof.upsample(frame, tiled=False)
        assert tiled_stats.working_bytes < full_stats.working_bytes / 10
