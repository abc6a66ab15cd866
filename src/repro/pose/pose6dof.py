"""6-DoF pose recovery from a 4-DoF estimate plus 3-D landmarks.

HDMI-Loc [23] first estimates the 4-DoF partial pose (x, y, z, yaw) with a
particle filter, then calculates roll and pitch separately to complete the
6-DoF pose. Here, roll/pitch are solved by Gauss-Newton on the residuals
between observed body-frame 3-D landmark points and the map's 3-D landmark
positions under the fixed 4-DoF part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import LocalizationError
from repro.geometry.transform import SE2, SE3


def _rot_rp(roll: float, pitch: float) -> np.ndarray:
    """Rotation from roll (about x) then pitch (about y)."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    return ry @ rx


def recover_roll_pitch(body_points: np.ndarray, world_points: np.ndarray,
                       pose4: SE3, iterations: int = 12
                       ) -> Tuple[float, float]:
    """Solve (roll, pitch) given matched body/world 3-D landmark points.

    ``pose4`` supplies the fixed x, y, z, yaw. Needs >= 2 landmarks not all
    at the same elevation direction.
    """
    body = np.asarray(body_points, dtype=float)
    world = np.asarray(world_points, dtype=float)
    if body.shape != world.shape or body.shape[0] < 2:
        raise LocalizationError("need >= 2 matched 3-D landmarks")
    cy, sy = np.cos(pose4.yaw), np.sin(pose4.yaw)
    yaw_rot = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    t = pose4.translation
    # Target: yaw_rot @ R(roll,pitch) @ body + t == world.
    target = (world - t) @ yaw_rot  # == R(roll,pitch) @ body (rows)
    roll, pitch = 0.0, 0.0
    for _ in range(iterations):
        rot = _rot_rp(roll, pitch)
        pred = body @ rot.T
        residual = (target - pred).ravel()
        # Numerical Jacobian over the two angles.
        eps = 1e-6
        j_roll = ((body @ _rot_rp(roll + eps, pitch).T - pred) / eps).ravel()
        j_pitch = ((body @ _rot_rp(roll, pitch + eps).T - pred) / eps).ravel()
        J = np.stack([j_roll, j_pitch], axis=1)
        delta, *_ = np.linalg.lstsq(J, residual, rcond=None)
        roll += float(delta[0])
        pitch += float(delta[1])
        if float(np.abs(delta).max()) < 1e-9:
            break
    return roll, pitch


@dataclass
class SixDofEstimator:
    """Completes planar estimates into 6-DoF poses.

    ``ground_z`` supplies the road elevation under the vehicle (from the
    map's elevation profile when available).
    """

    z_sigma: float = 0.05

    def estimate(self, planar: SE2, ground_z: float,
                 body_points: np.ndarray, world_points: np.ndarray) -> SE3:
        pose4 = SE3(planar.x, planar.y, ground_z, 0.0, 0.0, planar.theta)
        roll, pitch = recover_roll_pitch(body_points, world_points, pose4)
        return SE3(planar.x, planar.y, ground_z, roll, pitch, planar.theta)


def observe_landmarks_3d(true_pose: SE3, world_points: np.ndarray,
                         rng: np.random.Generator,
                         sigma: float = 0.05) -> np.ndarray:
    """Ground-truth generator: body-frame 3-D points of known landmarks."""
    world = np.asarray(world_points, dtype=float)
    inv = true_pose.inverse()
    body = inv.apply(world)
    return body + rng.normal(0.0, sigma, size=body.shape)
