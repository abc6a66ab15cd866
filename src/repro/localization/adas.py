"""ADAS-sensor map-based localization (Shin et al. [54]).

Fuses the low-cost sensors a production vehicle already has — GNSS,
wheel odometry, camera lane detection, and sparse landmark detections —
in one EKF with *verification gates*: every correction is chi-square
gated, and a correction stream that keeps failing its gate is suspended
(the paper's safeguard against feeding map-matching errors back into the
filter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.core.hdmap import HDMap
from repro.geometry.transform import SE2
from repro.localization.ekf import PoseEKF
from repro.localization.map_matching import LaneMatcher
from repro.sensors.camera import LaneObservation, SignDetection
from repro.sensors.gnss import GnssFix


@dataclass
class GateMonitor:
    """Tracks gate pass/fail per correction stream; suspends flaky ones."""

    fail_limit: int = 4
    recover_after: int = 10
    _fails: Dict[str, int] = field(default_factory=dict)
    _suspended: Dict[str, int] = field(default_factory=dict)

    def allowed(self, stream: str) -> bool:
        remaining = self._suspended.get(stream, 0)
        if remaining > 0:
            self._suspended[stream] = remaining - 1
            return False
        return True

    def report(self, stream: str, passed: bool) -> None:
        if passed:
            self._fails[stream] = 0
            return
        fails = self._fails.get(stream, 0) + 1
        self._fails[stream] = fails
        if fails >= self.fail_limit:
            self._suspended[stream] = self.recover_after
            self._fails[stream] = 0


class AdasFusionLocalizer:
    """EKF fusion of GNSS + odometry + lane camera + landmarks with gates."""

    def __init__(self, hdmap: HDMap, initial: SE2,
                 sigma_xy: float = 2.0, sigma_theta: float = 0.1) -> None:
        self.map = hdmap
        self.ekf = PoseEKF(initial, sigma_xy, sigma_theta)
        self.matcher = LaneMatcher(hdmap)
        self.gates = GateMonitor()

    def predict(self, ds: float, dtheta: float) -> None:
        self.ekf.predict(ds, dtheta,
                         sigma_ds=0.03 + 0.02 * abs(ds),
                         sigma_dtheta=0.005 + 0.04 * abs(dtheta))

    def update_gnss(self, fix: GnssFix) -> bool:
        if not self.gates.allowed("gnss"):
            return False
        ok = self.ekf.update_position(fix.position, fix.sigma)
        self.gates.report("gnss", ok)
        return ok

    def update_lane(self, obs: LaneObservation, sigma: float = 0.15) -> bool:
        if not self.gates.allowed("lane"):
            return False
        offset = obs.lane_centre_offset
        if offset is None:
            return False
        match = self.matcher.match(self.ekf.pose)
        if match is None or match.ambiguous:
            return False
        lane = self.map.get(match.lane_id)
        point = lane.centerline.point_at(match.station)  # type: ignore[union-attr]
        heading = lane.centerline.heading_at(match.station)  # type: ignore[union-attr]
        ok = self.ekf.update_lateral(offset, heading, point, sigma)
        self.gates.report("lane", ok)
        return ok

    def update_landmarks(self, detections: Sequence[SignDetection]) -> int:
        if not self.gates.allowed("landmark"):
            return 0
        pose = self.ekf.pose
        landmarks = [lm for lm in self.map.landmarks_in_radius(
            pose.x, pose.y, 70.0) if lm.height > 0.05]
        if not landmarks:
            return 0
        positions = np.array([lm.position for lm in landmarks])
        applied = 0
        any_pass = False
        for det in detections:
            world = pose.apply(det.body_frame_position())
            dists = np.hypot(positions[:, 0] - world[0],
                             positions[:, 1] - world[1])
            i = int(np.argmin(dists))
            if dists[i] > 3.5:
                continue
            ok = self.ekf.update_landmark(
                positions[i], det.bearing, det.range,
                sigma_bearing=np.radians(1.0),
                sigma_range=max(0.3, 0.06 * det.range),
            )
            any_pass |= ok
            applied += int(ok)
            pose = self.ekf.pose
        self.gates.report("landmark", any_pass or applied == 0)
        return applied

    @property
    def pose(self) -> SE2:
        return self.ekf.pose

    def position_sigma(self) -> float:
        return self.ekf.position_sigma()
