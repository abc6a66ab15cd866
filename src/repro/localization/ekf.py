"""Extended Kalman filter on [x, y, theta].

The estimation backbone of the ADAS fusion localizer [54] and the
smartphone mapping pipeline [34].
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import LocalizationError
from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle


class PoseEKF:
    """EKF over SE(2) with odometry prediction and several update types."""

    def __init__(self, pose: SE2, sigma_xy: float = 1.0,
                 sigma_theta: float = 0.1) -> None:
        self.x = np.array([pose.x, pose.y, pose.theta])
        self.P = np.diag([sigma_xy**2, sigma_xy**2, sigma_theta**2])

    @property
    def pose(self) -> SE2:
        return SE2(float(self.x[0]), float(self.x[1]),
                   wrap_angle(float(self.x[2])))

    def position_sigma(self) -> float:
        return float(np.sqrt(0.5 * (self.P[0, 0] + self.P[1, 1])))

    # ------------------------------------------------------------------
    def predict(self, ds: float, dtheta: float,
                sigma_ds: float = 0.05, sigma_dtheta: float = 0.01) -> None:
        theta = self.x[2] + dtheta / 2.0
        c, s = np.cos(theta), np.sin(theta)
        self.x[0] += ds * c
        self.x[1] += ds * s
        self.x[2] = wrap_angle(self.x[2] + dtheta)
        F = np.array([
            [1.0, 0.0, -ds * s],
            [0.0, 1.0, ds * c],
            [0.0, 0.0, 1.0],
        ])
        G = np.array([[c, 0.0], [s, 0.0], [0.0, 1.0]])
        Q = G @ np.diag([sigma_ds**2, sigma_dtheta**2]) @ G.T
        self.P = F @ self.P @ F.T + Q

    # ------------------------------------------------------------------
    def _update(self, innovation: np.ndarray, H: np.ndarray,
                R: np.ndarray, gate: Optional[float] = None) -> bool:
        """Generic EKF update; returns False if gated out."""
        S = H @ self.P @ H.T + R
        if gate is not None:
            mahal = float(innovation @ np.linalg.solve(S, innovation))
            if mahal > gate:
                return False
        K = self.P @ H.T @ np.linalg.inv(S)
        self.x = self.x + K @ innovation
        self.x[2] = wrap_angle(self.x[2])
        identity = np.eye(3)
        self.P = (identity - K @ H) @ self.P
        # Symmetrize for numerical hygiene.
        self.P = (self.P + self.P.T) / 2.0
        return True

    def update_position(self, measured: np.ndarray, sigma: float,
                        gate: Optional[float] = 13.8) -> bool:
        """GNSS-style absolute position fix (gate ~ chi2 99.9 %, 2 dof)."""
        H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        innovation = np.asarray(measured, dtype=float) - self.x[:2]
        return self._update(innovation, H, np.eye(2) * sigma**2, gate)

    def update_heading(self, measured: float, sigma: float,
                       gate: Optional[float] = 10.8) -> bool:
        H = np.array([[0.0, 0.0, 1.0]])
        innovation = np.array([wrap_angle(measured - self.x[2])])
        return self._update(innovation, H, np.array([[sigma**2]]), gate)

    def update_landmark(self, landmark_position: np.ndarray,
                        bearing: float, range_: float,
                        sigma_bearing: float, sigma_range: float,
                        gate: Optional[float] = 13.8) -> bool:
        """Range-bearing observation of a map landmark with known position."""
        dx = landmark_position[0] - self.x[0]
        dy = landmark_position[1] - self.x[1]
        q = dx * dx + dy * dy
        r_pred = np.sqrt(q)
        if r_pred < 1e-6:
            raise LocalizationError("landmark at the vehicle position")
        bearing_pred = wrap_angle(np.arctan2(dy, dx) - self.x[2])
        innovation = np.array([
            range_ - r_pred,
            wrap_angle(bearing - bearing_pred),
        ])
        H = np.array([
            [-dx / r_pred, -dy / r_pred, 0.0],
            [dy / q, -dx / q, -1.0],
        ])
        R = np.diag([sigma_range**2, sigma_bearing**2])
        return self._update(innovation, H, R, gate)

    def update_lateral(self, lane_centre_offset: float,
                       lane_heading: float, lane_point: np.ndarray,
                       sigma: float, gate: Optional[float] = 10.8) -> bool:
        """Lane-detection update: measured signed lateral offset from a lane
        centerline with known local heading (the map-matching correction of
        [37], [54])."""
        normal = np.array([-np.sin(lane_heading), np.cos(lane_heading)])
        predicted = float((self.x[:2] - lane_point) @ normal)
        H = np.array([[normal[0], normal[1], 0.0]])
        innovation = np.array([lane_centre_offset - predicted])
        return self._update(innovation, H, np.array([[sigma**2]]), gate)
