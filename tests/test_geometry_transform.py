import math

import numpy as np
import pytest

from repro.geometry.transform import SE2, SE3


def se2_matrix(pose: SE2) -> np.ndarray:
    """The 3x3 homogeneous matrix of a planar pose."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return np.array([[c, -s, pose.x], [s, c, pose.y], [0.0, 0.0, 1.0]])


class TestSE2:
    def test_identity_apply(self):
        p = np.array([3.0, -2.0])
        assert np.allclose(SE2.identity().apply(p), p)

    def test_apply_rotates_then_translates(self):
        pose = SE2(1.0, 2.0, math.pi / 2)
        assert np.allclose(pose.apply(np.array([1.0, 0.0])), [1.0, 3.0])

    def test_compose_matches_matrix_product(self):
        a = SE2(1.0, 2.0, 0.3)
        b = SE2(-0.5, 4.0, -1.1)
        composed = a @ b
        assert np.allclose(se2_matrix(composed),
                           se2_matrix(a) @ se2_matrix(b))

    def test_inverse_roundtrip(self):
        pose = SE2(5.0, -3.0, 2.2)
        identity = pose @ pose.inverse()
        assert identity.x == pytest.approx(0.0, abs=1e-12)
        assert identity.y == pytest.approx(0.0, abs=1e-12)
        assert identity.theta == pytest.approx(0.0, abs=1e-12)

    def test_inverse_apply_undoes_apply(self):
        pose = SE2(5.0, -3.0, 2.2)
        p = np.array([7.0, 1.0])
        assert np.allclose(pose.inverse().apply(pose.apply(p)), p)

    def test_distance(self):
        a = SE2(0.0, 0.0, 0.0)
        b = SE2(3.0, 4.0, math.pi)
        assert a.distance_to(b) == pytest.approx(5.0)

class TestSE3:
    def test_identity(self):
        p = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(SE3.identity().apply(p), p)

    def test_compose_inverse_is_identity(self):
        pose = SE3(1.0, 2.0, 3.0, 0.1, -0.2, 0.7)
        identity = pose @ pose.inverse()
        assert abs(identity.x) < 1e-9
        assert abs(identity.roll) < 1e-9
        assert abs(identity.yaw) < 1e-9

    def test_rotation_matrix_orthonormal(self):
        pose = SE3(0, 0, 0, 0.3, 0.4, -1.2)
        rot = pose.rotation_matrix()
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_yaw_only_matches_se2(self):
        pose3 = SE3(1.0, 2.0, 0.0, 0.0, 0.0, 0.8)
        pose2 = SE2(1.0, 2.0, 0.8)
        p = np.array([3.0, -1.0])
        lifted = np.array([p[0], p[1], 0.0])
        assert np.allclose(pose3.apply(lifted)[:2], pose2.apply(p))

    def test_gimbal_lock_recovery(self):
        pose = SE3(0, 0, 0, 0.0, math.pi / 2, 0.3)
        rot = pose.rotation_matrix()
        # Should not raise; composition still consistent.
        inv = pose.inverse()
        assert np.allclose(inv.rotation_matrix(), rot.T, atol=1e-9)
