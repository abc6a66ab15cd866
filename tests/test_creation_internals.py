"""Unit tests for creation-pipeline internals (helper-level behaviour)."""

import numpy as np
import pytest

from repro.geometry.polyline import straight
from repro.geometry.transform import SE2
from tests.conftest import of_type


class TestLateralPeaks:
    def test_two_lane_histogram(self, rng):
        from repro.creation.probe_pipeline import _lateral_peaks

        laterals = np.concatenate([
            rng.normal(-1.75, 0.3, 300),
            rng.normal(1.75, 0.3, 300),
        ])
        peaks = _lateral_peaks(laterals)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(-1.75, abs=0.3)
        assert peaks[1] == pytest.approx(1.75, abs=0.3)

    def test_single_cluster(self, rng):
        from repro.creation.probe_pipeline import _lateral_peaks

        peaks = _lateral_peaks(rng.normal(0.0, 0.3, 200))
        assert len(peaks) == 1

    def test_too_few_points(self):
        from repro.creation.probe_pipeline import _lateral_peaks

        assert _lateral_peaks(np.array([0.1])) == []


class TestOffsetPeaks:
    def test_marking_positions_recovered(self, rng):
        from repro.creation.lane_graph import _offset_peaks

        offsets = np.concatenate([
            rng.normal(-3.5, 0.15, 120),
            rng.normal(0.0, 0.15, 120),
            rng.normal(3.5, 0.15, 120),
        ])
        peaks = sorted(_offset_peaks(offsets))
        assert len(peaks) == 3
        assert peaks[0] == pytest.approx(-3.5, abs=0.4)
        assert peaks[2] == pytest.approx(3.5, abs=0.4)


class TestAerialRender:
    def test_render_marks_road_cells(self, highway, rng):
        from repro.creation.aerial import render_aerial

        aerial, offset = render_aerial(highway, rng, resolution=1.0,
                                       registration_offset=0.0,
                                       noise_sigma=0.0)
        lane = next(iter(highway.lanes()))
        on_road = lane.centerline.point_at(lane.length / 2)
        off_road = on_road + np.array([0.0, 200.0])
        assert aerial.sample(on_road[None, :])[0] > 0.2
        assert aerial.sample(off_road[None, :])[0] < 0.1

    def test_extract_follows_registration_shift(self, highway):
        from repro.creation.aerial import AerialGroundMapper, render_aerial

        rng = np.random.default_rng(1)
        aerial, offset = render_aerial(highway, rng, resolution=0.5,
                                       registration_offset=1.5,
                                       noise_sigma=0.02)
        segment = next(iter(highway.segments()))
        prior = segment.reference_line.simplify(5.0)
        mapper = AerialGroundMapper()
        line = mapper.extract_from_aerial(aerial, prior)
        assert line is not None
        # The extraction inherits (part of) the registration offset: its
        # mean distance from the true reference reflects the shift.
        errors = [abs(segment.reference_line.project(p)[1])
                  for p in line.resample(50.0).points]
        assert np.mean(errors) > 0.3  # biased before ground fusion
        # Ground fusion removes it.
        truth_points = segment.reference_line.resample(40.0).points
        fused = mapper.fuse_ground(line, truth_points)
        fused_errors = [abs(segment.reference_line.project(p)[1])
                        for p in fused.resample(50.0).points]
        assert np.mean(fused_errors) < np.mean(errors)


class TestTrafficLightRoi:
    def test_roi_match_rejects_off_bearing(self, city, rng):
        from repro.core.elements import LightState, TrafficLight
        from repro.creation.traffic_lights import TrafficLightRecognizer
        from repro.sensors.camera import LightObservation

        recognizer = TrafficLightRecognizer(city)
        light = next(iter(of_type(city, TrafficLight)))
        pose = SE2(light.position[0] - 30.0, light.position[1], 0.0)
        good = LightObservation(t=0.0, bearing=0.0, range=30.0,
                                state=LightState.RED, true_id=light.id)
        off = LightObservation(t=0.0, bearing=0.5, range=30.0,
                               state=LightState.RED, true_id=light.id)
        expected = [light]
        assert recognizer._match_roi(pose, good, expected) is light
        assert recognizer._match_roi(pose, off, expected) is None


class TestSmoothingHelpers:
    def test_smooth_polyline_reduces_noise(self, rng):
        from repro.creation.smartphone import _smooth_polyline

        truth = straight([0, 0], [200, 0], spacing=2.0)
        noisy = truth.points + rng.normal(0, 0.5, truth.points.shape)
        smoothed = _smooth_polyline(noisy, window=15)
        noise_raw = float(np.abs(noisy[:, 1]).mean())
        noise_smooth = float(np.mean(
            [abs(truth.project(p)[1]) for p in smoothed.points]))
        assert noise_smooth < noise_raw

    def test_fuse_polyline_needs_enough_points(self):
        from repro.creation.lidar_pipeline import _fuse_polyline

        assert _fuse_polyline([np.zeros(2)] * 2, window=5) is None
        pts = [np.array([float(i), 0.0]) for i in range(20)]
        fused = _fuse_polyline(pts, window=5)
        assert fused is not None
        assert fused.length > 10.0

    def test_interp_pose_midpoint(self):
        from repro.creation.lidar_pipeline import _interp_pose

        track = [(0.0, SE2(0, 0, 0)), (1.0, SE2(10, 0, 0.2))]
        mid = _interp_pose(track, 0.5)
        assert mid.x == pytest.approx(5.0)
        assert mid.theta == pytest.approx(0.1)


class TestCrowdContribution:
    def test_pose_track_interpolation_with_bias(self, highway, rng):
        from repro.creation.crowdsource import VehicleContribution

        track = [(0.0, SE2(0, 0, 0)), (1.0, SE2(10, 0, 0))]
        contrib = VehicleContribution(0, track, [])
        contrib.bias = np.array([2.0, -1.0])
        pose = contrib.pose_at(0.5)
        # Bias is subtracted from the estimated pose.
        assert pose.x == pytest.approx(3.0)
        assert pose.y == pytest.approx(1.0)
