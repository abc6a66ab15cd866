"""Surveyed localization techniques against the synthetic world."""

import numpy as np
import pytest

from repro.geometry.transform import SE2
from repro.localization import (
    AdasFusionLocalizer,
    CooperativeLocalizer,
    HdmiLocalizer,
    LandmarkLocalizer,
    LaneMarkingLocalizer,
    LaneMatcher,
    LaneSurfaceFilter,
    MonocularLocalizer,
    SemanticAligner,
    associate_detections,
    detect_hrl,
    rasterize_map,
)
from repro.localization.geometric import (
    LandmarkLayout,
    LayoutPattern,
    simulate_layout_error,
)
from repro.localization.hdmi_loc import observe_patch
from repro.localization.lane_marking import extract_marking_points, hough_lines
from repro.localization.semantic import observe_semantics
from repro.sensors import Camera, LidarScanner, WheelOdometry
from repro.sensors.gnss import GnssFix
from repro.world import drive_route


@pytest.fixture(scope="module")
def hw_drive(highway):
    rng = np.random.default_rng(55)
    lane = next(iter(highway.lanes()))
    traj = drive_route(highway, lane.id, 800.0, rng)
    odo = WheelOdometry().measure(traj, rng)
    return traj, odo


class TestLaneMatcher:
    def test_match_on_lane(self, highway):
        lane = next(iter(highway.lanes()))
        s = 100.0
        pose = SE2(*lane.centerline.point_at(s), lane.centerline.heading_at(s))
        match = LaneMatcher(highway).match(pose)
        assert match is not None
        assert match.lane_id == lane.id
        assert match.integrity > 0.5

    def test_heading_disambiguates_direction(self, highway):
        lane = next(iter(highway.lanes()))
        s = 100.0
        base = lane.centerline.point_at(s)
        wrong_heading = lane.centerline.heading_at(s) + np.pi
        match = LaneMatcher(highway).match(SE2(*base, wrong_heading))
        # Opposite heading should match an opposite-direction lane.
        assert match is None or match.lane_id != lane.id

    def test_between_lanes_is_ambiguous(self, highway):
        lane = next(iter(highway.lanes()))
        s = 100.0
        base = lane.centerline.point_at(s)
        normal = lane.centerline.normal_at(s)
        # Stand on the divider between the two same-direction lanes (they
        # sit to the right of the first forward lane).
        pose = SE2(*(base - 1.85 * normal), lane.centerline.heading_at(s))
        match = LaneMatcher(highway).match(pose)
        assert match is not None
        assert match.integrity < 0.6

    def test_no_candidates_far_away(self, highway):
        match = LaneMatcher(highway).match(SE2(1e5, 1e5, 0.0))
        assert match is None


class TestHrlPipeline:
    def test_detect_hrl_finds_poles(self, highway, rng):
        scanner = LidarScanner(dropout=0.0)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(250.0),
                   lane.centerline.heading_at(250.0))
        scan = scanner.scan(highway, pose, rng)
        detections = detect_hrl(scan)
        assert detections
        pairs = associate_detections(detections, pose, highway)
        assert pairs

    def test_localizer_tracks_drive(self, highway, hw_drive, rng):
        traj, odo = hw_drive
        scanner = LidarScanner()
        loc = LandmarkLocalizer(highway, rng)
        p0 = traj.pose_at(traj.start_time)
        loc.initialize(SE2(p0.x + 1.0, p0.y - 1.0, p0.theta))
        errors = []
        for i, d in enumerate(odo[:150]):
            loc.predict(d.ds, d.dtheta)
            if i % 10 == 0:
                scan = scanner.scan(highway, traj.pose_at(d.t), rng)
                loc.update(detect_hrl(scan))
            errors.append(loc.estimate().distance_to(traj.pose_at(d.t)))
        assert float(np.median(errors[50:])) < 1.0


class TestGeometricAnalysis:
    def test_monte_carlo_matches_dop_ordering(self, rng):
        random = LandmarkLayout.generate(LayoutPattern.RANDOM, 8, 30.0, rng)
        clustered = LandmarkLayout.generate(LayoutPattern.CLUSTERED, 8, 30.0, rng)
        e_random = simulate_layout_error(random, 0.1, rng)
        e_clustered = simulate_layout_error(clustered, 0.1, rng)
        assert e_clustered > e_random

    def test_needs_two_landmarks(self, rng):
        from repro.errors import LocalizationError

        with pytest.raises(LocalizationError):
            LandmarkLayout.generate(LayoutPattern.RANDOM, 1, 30.0, rng)


class TestLaneMarking:
    def test_extract_and_hough(self, highway, rng):
        scanner = LidarScanner(intensity_sigma=0.03)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(300.0),
                   lane.centerline.heading_at(300.0))
        scan = scanner.scan(highway, pose, rng)
        points = extract_marking_points(scan)
        assert points.shape[0] > 10
        lines = hough_lines(points)
        assert lines
        # Nearest marking line should be within a lane half-width.
        offsets = sorted(abs(l.lateral_offset()) for l in lines)
        assert offsets[0] < 2.5

    def test_localizer_lateral_accuracy(self, highway, hw_drive, rng):
        traj, odo = hw_drive
        scanner = LidarScanner()
        loc = LaneMarkingLocalizer(highway, rng)
        p0 = traj.pose_at(traj.start_time)
        loc.initialize(SE2(p0.x + 0.8, p0.y + 0.8, p0.theta))
        lateral_errors = []
        for i, d in enumerate(odo[:120]):
            loc.predict(d.ds, d.dtheta)
            true_pose = traj.pose_at(d.t)
            if i % 5 == 0:
                scan = scanner.scan(highway, true_pose, rng)
                loc.update_markings(scan)
                loc.update_gnss(np.array([true_pose.x, true_pose.y]), 2.0)
            est = loc.estimate()
            body = true_pose.inverse().apply(np.array([est.x, est.y]))
            lateral_errors.append(abs(body[1]))
        assert float(np.median(lateral_errors[40:])) < 0.5


class TestHdmiLoc:
    def test_raster_storage_much_smaller_than_cloud(self, highway, rng):
        from repro.storage import build_pointcloud_map

        raster = rasterize_map(highway, resolution=0.25)
        cloud = build_pointcloud_map(highway, rng)
        assert raster.nbytes() < len(cloud.to_bytes())

    def test_tracks_submetre(self, highway, hw_drive):
        rng = np.random.default_rng(66)
        traj, odo = hw_drive
        raster = rasterize_map(highway, 0.25)
        loc = HdmiLocalizer(raster, rng)
        p0 = traj.pose_at(traj.start_time)
        loc.initialize(SE2(p0.x + 1.5, p0.y + 1.0, p0.theta))
        errors = []
        for i, d in enumerate(odo[:200]):
            loc.predict(d.ds, d.dtheta)
            if i % 2 == 0:
                patch = observe_patch(highway, traj.pose_at(d.t), rng)
                loc.update(patch)
            errors.append(loc.estimate().distance_to(traj.pose_at(d.t)))
        assert float(np.median(errors[80:])) < 1.0


class TestMonocularAndAdas:
    def test_mlvhm_beats_dead_reckoning(self, highway, hw_drive):
        rng = np.random.default_rng(77)
        traj, _ = hw_drive
        # MLVHM assumes calibrated vehicle odometry: an uncalibrated 1 %
        # wheel-scale bias is a correlated error its EKF cannot absorb.
        odo = WheelOdometry(scale_sigma=0.002).measure(traj, rng)
        camera = Camera()
        p0 = traj.pose_at(traj.start_time)
        start = SE2(p0.x + 1.0, p0.y - 0.5, p0.theta)
        loc = MonocularLocalizer(highway, start)
        dr = SE2(start.x, start.y, start.theta)
        errors, dr_errors = [], []
        for i, d in enumerate(odo[:200]):
            loc.predict(d.ds, d.dtheta)
            mid = dr.theta + d.dtheta / 2
            dr = SE2(dr.x + d.ds * np.cos(mid), dr.y + d.ds * np.sin(mid),
                     dr.theta + d.dtheta)
            true_pose = traj.pose_at(d.t)
            if i % 5 == 0:
                obs = camera.observe_lanes(highway, true_pose, rng, t=d.t)
                if obs:
                    loc.update_lane(obs)
                dets = camera.observe_signs(highway, true_pose, rng, t=d.t)
                loc.update_signs(dets)
            if i % 20 == 0:
                # Low-cost commercial GNSS keeps the longitudinal bounded
                # between sign encounters (signs are 200 m apart here).
                loc.update_gnss(np.array([true_pose.x, true_pose.y])
                                + rng.normal(0, 2.0, 2), 2.5)
            errors.append(loc.pose.distance_to(true_pose))
            dr_errors.append(dr.distance_to(true_pose))
        assert np.median(errors[100:]) < np.median(dr_errors[100:])
        assert np.median(errors[100:]) < 2.0

    def test_adas_gates_suspend_bad_stream(self, highway):
        from repro.localization.adas import GateMonitor

        monitor = GateMonitor(fail_limit=2, recover_after=3)
        assert monitor.allowed("gnss")
        monitor.report("gnss", False)
        monitor.report("gnss", False)
        assert not monitor.allowed("gnss")  # suspended
        assert not monitor.allowed("gnss")
        assert not monitor.allowed("gnss")
        assert monitor.allowed("gnss")  # recovered

    def test_adas_fusion_converges(self, highway, hw_drive):
        rng = np.random.default_rng(88)
        traj, odo = hw_drive
        camera = Camera()
        p0 = traj.pose_at(traj.start_time)
        loc = AdasFusionLocalizer(highway, SE2(p0.x + 2.0, p0.y, p0.theta))
        errors = []
        for i, d in enumerate(odo[:200]):
            loc.predict(d.ds, d.dtheta)
            true_pose = traj.pose_at(d.t)
            if i % 10 == 0:
                fix = GnssFix(d.t, np.array([true_pose.x, true_pose.y])
                              + rng.normal(0, 0.8, 2), 0.8)
                loc.update_gnss(fix)
            if i % 5 == 0:
                obs = camera.observe_lanes(highway, true_pose, rng, t=d.t)
                if obs:
                    loc.update_lane(obs)
                dets = camera.observe_signs(highway, true_pose, rng, t=d.t)
                loc.update_landmarks(dets)
            errors.append(loc.pose.distance_to(true_pose))
        # Bounded by GNSS rate + odometry noise at highway speed; the gate
        # keeps it stable and well under raw automotive GNSS error.
        assert float(np.median(errors[100:])) < 1.8


class TestSurfaceFilter:
    def test_particles_stay_on_road(self, highway, hw_drive):
        rng = np.random.default_rng(99)
        traj, odo = hw_drive
        pf = LaneSurfaceFilter(highway, rng, n_particles=120)
        p0 = traj.pose_at(traj.start_time)
        pf.initialize(p0)
        for i, d in enumerate(odo[:80]):
            pf.predict(d.ds, d.dtheta)
            true_pose = traj.pose_at(d.t)
            if i % 10 == 0:
                pf.update_gnss(np.array([true_pose.x, true_pose.y]), 1.5)
        # Most particles must sit within a lane corridor.
        on_road = 0
        for state in pf.filter.states:
            lane, dist = highway.nearest_lane(float(state[0]), float(state[1]))
            on_road += dist <= lane.width
        assert on_road / pf.filter.n > 0.8

    def test_lane_vote_matches_truth(self, highway, hw_drive):
        rng = np.random.default_rng(111)
        traj, odo = hw_drive
        pf = LaneSurfaceFilter(highway, rng, n_particles=120)
        p0 = traj.pose_at(traj.start_time)
        pf.initialize(p0, sigma_xy=1.0)
        for i, d in enumerate(odo[:50]):
            pf.predict(d.ds, d.dtheta)
            true_pose = traj.pose_at(d.t)
            if i % 5 == 0:
                pf.update_gnss(np.array([true_pose.x, true_pose.y]), 1.0)
        vote = pf.lane_vote()
        true_lane, _ = highway.nearest_lane(traj.pose_at(odo[49].t).x,
                                            traj.pose_at(odo[49].t).y)
        assert vote == true_lane.id


class TestCooperative:
    def test_ci_never_overconfident(self):
        from repro.localization.cooperative import covariance_intersection

        mean, cov = covariance_intersection(
            np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))
        # Fusing two unit-covariance estimates with unknown correlation
        # cannot drop below the tighter input.
        assert np.trace(cov) >= 1.9

    def test_bias_estimator_removes_bias(self, rng):
        from repro.localization.cooperative import BiasEstimator

        est = BiasEstimator()
        bias = np.array([1.2, -0.8])
        for _ in range(30):
            gnss = np.array([10.0, 10.0]) + bias + rng.normal(0, 0.05, 2)
            est.observe(gnss, np.array([5.0, 0.0]), np.array([15.0, 10.0]))
        corrected = est.correct(np.array([10.0, 10.0]) + bias)
        assert np.hypot(*(corrected - [10.0, 10.0])) < 0.2

    def test_cooperation_beats_standalone(self, rng):
        truth = [np.array([0.0, 0.0]), np.array([20.0, 0.0]),
                 np.array([40.0, 0.0])]
        biases = [rng.normal(0, 1.5, 2) for _ in truth]
        solo_err = []
        coop = [CooperativeLocalizer(i, t + rng.normal(0, 2.0, 2),
                                     use_bias_estimator=False)
                for i, t in enumerate(truth)]
        for step in range(25):
            for i, loc in enumerate(coop):
                fix = GnssFix(step * 1.0,
                              truth[i] + biases[i] + rng.normal(0, 0.5, 2),
                              1.5)
                loc.update_gnss(fix)
            # Pairwise LDM exchange with accurate relative ranging.
            for i, sender in enumerate(coop):
                for j, receiver in enumerate(coop):
                    if i == j:
                        continue
                    rel = truth[j] - truth[i]
                    msg = sender.broadcast(rel, 0.2, rng, j)
                    receiver.receive(msg)
        coop_err = float(np.mean([loc.error_to(truth[i])
                                  for i, loc in enumerate(coop)]))
        # Standalone baseline: same fixes, no exchange.
        solo = [CooperativeLocalizer(i, t + rng.normal(0, 2.0, 2),
                                     use_bias_estimator=False)
                for i, t in enumerate(truth)]
        for step in range(25):
            for i, loc in enumerate(solo):
                fix = GnssFix(step * 1.0,
                              truth[i] + biases[i] + rng.normal(0, 0.5, 2),
                              1.5)
                loc.update_gnss(fix)
        solo_err = float(np.mean([loc.error_to(truth[i])
                                  for i, loc in enumerate(solo)]))
        assert coop_err <= solo_err * 1.1  # cooperation should not hurt


class TestSemantic:
    def test_initialize_recovers_from_coarse(self, highway):
        rng = np.random.default_rng(13)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(400.0),
                   lane.centerline.heading_at(400.0))
        obs = observe_semantics(highway, pose, rng, radius=70.0,
                                detection_prob=1.0)
        assert obs.points.shape[0] >= 3  # poles every 80 m guarantee this
        coarse = SE2(pose.x + 5.0, pose.y - 4.0, pose.theta + 0.05)
        aligner = SemanticAligner(highway)
        est = aligner.initialize(coarse, obs)
        assert est.distance_to(pose) < 1.0
        assert est.distance_to(pose) < coarse.distance_to(pose)

    def test_refine_improves(self, highway):
        rng = np.random.default_rng(14)
        lane = next(iter(highway.lanes()))
        pose = SE2(*lane.centerline.point_at(500.0),
                   lane.centerline.heading_at(500.0))
        obs = observe_semantics(highway, pose, rng, radius=70.0,
                                detection_prob=1.0)
        assert obs.points.shape[0] >= 3
        rough = SE2(pose.x + 1.0, pose.y + 1.0, pose.theta)
        refined = SemanticAligner(highway).refine(rough, obs)
        assert refined.distance_to(pose) < rough.distance_to(pose)
