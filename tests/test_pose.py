"""6-DoF pose recovery and semantic max-mixture association."""

import numpy as np
import pytest

from repro.core import HDMap
from repro.core.elements import Pole, TrafficSign, SignType
from repro.errors import LocalizationError
from repro.geometry.transform import SE2, SE3
from repro.pose import (
    MaxMixtureAssociator,
    SixDofEstimator,
    WindowedPoseEstimator,
    recover_roll_pitch,
)
from repro.pose.association import SemanticDetection
from repro.pose.pose6dof import observe_landmarks_3d


class TestSixDof:
    def _world_points(self, rng, n=6):
        pts = rng.uniform(-30, 30, size=(n, 2))
        heights = rng.uniform(2.0, 8.0, size=n)
        return np.column_stack([pts, heights])

    def test_recover_known_roll_pitch(self, rng):
        true_pose = SE3(10.0, 5.0, 0.0, roll=0.03, pitch=-0.02, yaw=0.7)
        world = self._world_points(rng)
        body = observe_landmarks_3d(true_pose, world, rng, sigma=0.0)
        roll, pitch = recover_roll_pitch(body, world,
                                         SE3(10.0, 5.0, 0.0, 0, 0, 0.7))
        assert roll == pytest.approx(0.03, abs=1e-6)
        assert pitch == pytest.approx(-0.02, abs=1e-6)

    def test_recover_with_noise(self, rng):
        true_pose = SE3(0.0, 0.0, 0.0, roll=0.05, pitch=0.04, yaw=-1.2)
        world = self._world_points(rng, n=12)
        body = observe_landmarks_3d(true_pose, world, rng, sigma=0.05)
        roll, pitch = recover_roll_pitch(body, world,
                                         SE3(0, 0, 0, 0, 0, -1.2))
        assert roll == pytest.approx(0.05, abs=0.02)
        assert pitch == pytest.approx(0.04, abs=0.02)

    def test_estimator_full_pipeline(self, rng):
        truth = SE3(3.0, 4.0, 0.5, roll=0.02, pitch=-0.03, yaw=0.4)
        world = self._world_points(rng)
        body = observe_landmarks_3d(truth, world, rng, sigma=0.01)
        est = SixDofEstimator().estimate(SE2(3.0, 4.0, 0.4), 0.5, body, world)
        assert np.linalg.norm(est.translation - truth.translation) < 0.01
        assert est.roll == pytest.approx(0.02, abs=0.01)

    def test_needs_two_landmarks(self):
        with pytest.raises(LocalizationError):
            recover_roll_pitch(np.zeros((1, 3)), np.zeros((1, 3)),
                               SE3.identity())


@pytest.fixture
def landmark_map():
    hdmap = HDMap("lm")
    hdmap.create(Pole, position=np.array([10.0, 5.0]))
    hdmap.create(Pole, position=np.array([10.0, 1.0]))  # near the sign!
    hdmap.create(TrafficSign, position=np.array([10.0, 0.0]),
                 sign_type=SignType.STOP)
    hdmap.create(Pole, position=np.array([-5.0, -8.0]))
    return hdmap


class TestMaxMixture:
    def test_semantics_resolve_ambiguity(self, landmark_map):
        pose = SE2(0.0, 0.0, 0.0)
        # A sign detection halfway between the near pole and the sign.
        det = SemanticDetection(body_point=np.array([10.0, 0.6]),
                                label="sign")
        with_sem = MaxMixtureAssociator(landmark_map, use_semantics=True)
        without = MaxMixtureAssociator(landmark_map, use_semantics=False)
        result_sem = with_sem.associate(pose, [det])
        result_no = without.associate(pose, [det])
        sign_id = next(iter(landmark_map.signs())).id
        assert result_sem.landmark_ids[0] == sign_id
        # Without semantics, the nearest neighbour is the pole at y=1.
        assert result_no.landmark_ids[0] != sign_id

    def test_null_hypothesis_for_clutter(self, landmark_map):
        pose = SE2(0.0, 0.0, 0.0)
        det = SemanticDetection(body_point=np.array([30.0, 30.0]),
                                label="sign")
        result = MaxMixtureAssociator(landmark_map).associate(pose, [det])
        assert result.landmark_ids[0] is None
        assert result.inlier_count == 0

    def test_windowed_estimator_corrects_drifted_odometry(self, landmark_map, rng):
        truth = SE2(0.0, 0.0, 0.0)
        est = WindowedPoseEstimator(landmark_map, window=4)
        est.start(SE2(0.6, -0.5, 0.02))  # drifted initial belief
        current_truth = truth
        final = None
        for step in range(6):
            odom = SE2(1.0, 0.0, 0.0)  # drive 1 m forward per frame
            current_truth = current_truth @ odom
            detections = []
            for lm in landmark_map.landmarks():
                body = current_truth.inverse().apply(lm.position)
                if np.hypot(*body) < 40.0:
                    noisy = body + rng.normal(0, 0.05, 2)
                    detections.append(SemanticDetection(noisy, lm.id.kind))
            final = est.push(odom, detections)
        assert final is not None
        assert final.distance_to(current_truth) < 0.3
