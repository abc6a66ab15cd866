"""Rigid-body transforms: SE(2) for planar poses, SE(3) for 6-DoF poses.

``SE2`` is the workhorse for vehicle poses throughout the library; ``SE3``
is used by the 6-DoF pose-estimation stack (HDMI-Loc style roll/pitch
recovery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.vec import rotate2d, wrap_angle


@dataclass(frozen=True)
class SE2:
    """A planar rigid transform / pose: translation (x, y) and heading theta.

    Composition follows the usual convention: ``a @ b`` applies ``b`` first,
    then ``a``; ``pose.apply(p)`` maps a point from the pose's local frame
    into the world frame.
    """

    x: float
    y: float
    theta: float

    @staticmethod
    def identity() -> "SE2":
        return SE2(0.0, 0.0, 0.0)

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map local-frame point(s) into the world frame."""
        return rotate2d(points, self.theta) + self.translation

    def inverse(self) -> "SE2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return SE2(
            x=-(c * self.x + s * self.y),
            y=-(-s * self.x + c * self.y),
            theta=wrap_angle(-self.theta),
        )

    def compose(self, other: "SE2") -> "SE2":
        """``self`` after ``other``: world <- self <- other <- local."""
        tx, ty = self.apply(np.array([other.x, other.y]))
        return SE2(float(tx), float(ty), wrap_angle(self.theta + other.theta))

    def __matmul__(self, other: "SE2") -> "SE2":
        return self.compose(other)

    def distance_to(self, other: "SE2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

def _rotation_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from ZYX (yaw-pitch-roll) Euler angles."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@dataclass(frozen=True)
class SE3:
    """A 6-DoF pose: translation (x, y, z) and ZYX Euler angles.

    Angles are (roll, pitch, yaw) applied in yaw-pitch-roll order, matching
    the vehicle convention used by the 6-DoF pose-estimation literature the
    survey covers (HDMI-Loc recovers yaw+translation first, then roll/pitch).
    """

    x: float
    y: float
    z: float
    roll: float
    pitch: float
    yaw: float

    @staticmethod
    def identity() -> "SE3":
        return SE3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def rotation_matrix(self) -> np.ndarray:
        return _rotation_zyx(self.roll, self.pitch, self.yaw)

    def apply(self, points: np.ndarray) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        return arr @ self.rotation_matrix().T + self.translation

    def inverse(self) -> "SE3":
        rot_inv = self.rotation_matrix().T
        t = -rot_inv @ self.translation
        roll, pitch, yaw = _euler_from_matrix(rot_inv)
        return SE3(float(t[0]), float(t[1]), float(t[2]), roll, pitch, yaw)

    def compose(self, other: "SE3") -> "SE3":
        rot = self.rotation_matrix() @ other.rotation_matrix()
        t = self.rotation_matrix() @ other.translation + self.translation
        roll, pitch, yaw = _euler_from_matrix(rot)
        return SE3(float(t[0]), float(t[1]), float(t[2]), roll, pitch, yaw)

    def __matmul__(self, other: "SE3") -> "SE3":
        return self.compose(other)

def _euler_from_matrix(rot: np.ndarray) -> tuple[float, float, float]:
    """Recover ZYX Euler angles (roll, pitch, yaw) from a rotation matrix."""
    pitch = math.asin(max(-1.0, min(1.0, -float(rot[2, 0]))))
    if abs(math.cos(pitch)) > 1e-9:
        roll = math.atan2(float(rot[2, 1]), float(rot[2, 2]))
        yaw = math.atan2(float(rot[1, 0]), float(rot[0, 0]))
    else:
        # Gimbal lock: fold roll into yaw.
        roll = 0.0
        yaw = math.atan2(-float(rot[0, 1]), float(rot[1, 1]))
    return roll, pitch, yaw
