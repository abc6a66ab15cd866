"""MLVHM: monocular localization with a vector HD map [22].

A camera-only, low-cost localizer: lane observations give the lateral
position inside the matched lane; sign detections give range-bearing
fixes against vector-map landmarks; both feed one EKF. The map is
consumed in small *monocular segments* — only the elements near the
current estimate are touched, mirroring the paper's segment streaming.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.elements import TrafficLight, TrafficSign
from repro.core.hdmap import HDMap
from repro.geometry.transform import SE2
from repro.localization.ekf import PoseEKF
from repro.localization.map_matching import LaneMatcher
from repro.sensors.camera import LaneObservation, SignDetection


class MonocularLocalizer:
    """Camera + vector-map EKF localizer."""

    def __init__(self, hdmap: HDMap, initial: SE2,
                 sigma_xy: float = 2.0, sigma_theta: float = 0.1,
                 segment_radius: float = 60.0) -> None:
        self.map = hdmap
        self.ekf = PoseEKF(initial, sigma_xy, sigma_theta)
        self.matcher = LaneMatcher(hdmap)
        self.segment_radius = segment_radius

    def predict(self, ds: float, dtheta: float) -> None:
        self.ekf.predict(ds, dtheta,
                         sigma_ds=0.03 + 0.02 * abs(ds),
                         sigma_dtheta=0.005 + 0.05 * abs(dtheta))

    # ------------------------------------------------------------------
    def update_lane(self, obs: LaneObservation,
                    sigma: float = 0.12) -> bool:
        """Lateral + heading correction from a lane observation."""
        offset = obs.lane_centre_offset
        match = self.matcher.match(self.ekf.pose)
        if match is None:
            return False
        lane = self.map.get(match.lane_id)
        lane_point = lane.centerline.point_at(match.station)  # type: ignore[union-attr]
        lane_heading = lane.centerline.heading_at(match.station)  # type: ignore[union-attr]
        applied = False
        if offset is not None:
            applied |= self.ekf.update_lateral(offset, lane_heading,
                                               lane_point, sigma)
        applied |= self.ekf.update_heading(lane_heading + obs.heading_error,
                                           sigma=0.02)
        return applied

    # ------------------------------------------------------------------
    def update_signs(self, detections: Sequence[SignDetection],
                     sigma_bearing: float = np.radians(1.0),
                     sigma_range_rel: float = 0.06) -> int:
        """Range-bearing updates from associated sign detections.

        Association is nearest-landmark within a gate around the predicted
        detection position; unmatched detections (clutter) are dropped.
        """
        applied = 0
        pose = self.ekf.pose
        landmarks = [
            lm for lm in self.map.landmarks_in_radius(
                pose.x, pose.y, self.segment_radius)
            if isinstance(lm, (TrafficSign, TrafficLight))
        ]
        if not landmarks:
            return 0
        positions = np.array([lm.position for lm in landmarks])
        for det in detections:
            world = pose.apply(det.body_frame_position())
            dists = np.hypot(positions[:, 0] - world[0],
                             positions[:, 1] - world[1])
            i = int(np.argmin(dists))
            if dists[i] > 3.0:
                continue
            ok = self.ekf.update_landmark(
                positions[i], det.bearing, det.range,
                sigma_bearing=sigma_bearing,
                sigma_range=max(0.3, sigma_range_rel * det.range),
            )
            if ok:
                applied += 1
                pose = self.ekf.pose
        return applied

    def update_gnss(self, position: np.ndarray, sigma: float) -> bool:
        return self.ekf.update_position(position, sigma)

    @property
    def pose(self) -> SE2:
        return self.ekf.pose
