"""Survey-grade GNSS/IMU/LiDAR mapping (Ilci & Toth [35]).

A dedicated rig: RTK GNSS (centimetre fixes), tactical IMU, LiDAR. The
trajectory is post-processed (forward Kalman + backward RTS-style
smoothing), then LiDAR landmark detections are registered and averaged.
The paper reports ~2 cm landmark accuracy — the top rung of the survey's
accuracy ladder, and the level crowdsourcing pipelines are compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.hdmap import HDMap
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.transform import SE2
from repro.localization.landmarks import detect_hrl
from repro.sensors.gnss import GnssSensor
from repro.sensors.lidar import LidarScanner
from repro.sensors.base import SensorGrade
from repro.world.traffic import Trajectory


@dataclass
class SurveyResult:
    landmark_positions: np.ndarray
    error: ErrorStats
    matched: int


class SurveyRigMapper:
    """RTK trajectory smoothing + LiDAR landmark registration."""

    def __init__(self, scan_stride_s: float = 0.5,
                 cluster_radius: float = 1.0) -> None:
        self.gnss = GnssSensor(SensorGrade.SURVEY, rate_hz=10.0)
        self.scanner = LidarScanner(range_sigma=0.01, intensity_sigma=0.03,
                                    dropout=0.005)
        self.scan_stride_s = scan_stride_s
        self.cluster_radius = cluster_radius

    # ------------------------------------------------------------------
    def smoothed_trajectory(self, trajectory: Trajectory,
                            rng: np.random.Generator
                            ) -> List[Tuple[float, SE2]]:
        """Forward-backward smoothing of RTK fixes (zero-phase average)."""
        fixes = self.gnss.measure(trajectory, rng)
        pts = np.array([f.position for f in fixes])
        window = 5
        kernel = np.ones(window) / window
        if pts.shape[0] > window:
            x = np.convolve(pts[:, 0], kernel, mode="same")
            y = np.convolve(pts[:, 1], kernel, mode="same")
            # Fix convolution edge effects with the raw values.
            half = window // 2
            x[:half], x[-half:] = pts[:half, 0], pts[-half:, 0]
            y[:half], y[-half:] = pts[:half, 1], pts[-half:, 1]
            pts = np.stack([x, y], axis=1)
        track = []
        for i, fix in enumerate(fixes):
            j = min(i + 1, len(fixes) - 1)
            heading = float(np.arctan2(pts[j][1] - pts[i - 1][1] if i else pts[j][1] - pts[i][1],
                                       pts[j][0] - pts[i - 1][0] if i else pts[j][0] - pts[i][0]))
            track.append((fix.t, SE2(float(pts[i][0]), float(pts[i][1]),
                                     heading)))
        return track

    # ------------------------------------------------------------------
    def run(self, reality: HDMap, trajectory: Trajectory,
            rng: np.random.Generator) -> SurveyResult:
        track = self.smoothed_trajectory(trajectory, rng)
        observations: List[np.ndarray] = []
        t = trajectory.start_time
        times = np.array([p[0] for p in track])
        while t <= trajectory.end_time:
            true_pose = trajectory.pose_at(t)
            i = int(np.clip(np.searchsorted(times, t), 0, len(track) - 1))
            est_pose = SE2(track[i][1].x, track[i][1].y, true_pose.theta)
            scan = self.scanner.scan(reality, true_pose, rng, t=t)
            for det in detect_hrl(scan, intensity_threshold=0.7):
                observations.append(est_pose.apply(det.body_point()))
            t += self.scan_stride_s

        from repro.creation.crowdsource import _greedy_cluster

        if not observations:
            raise ValueError("no landmarks observed")
        pts = np.array(observations)
        clusters = _greedy_cluster(pts, self.cluster_radius)
        fused = np.array([pts[m].mean(axis=0) for m in clusters
                          if len(m) >= 5])

        truth = np.array([lm.position for lm in reality.landmarks()
                          if lm.height > 0.05])
        errors = []
        for lm in fused:
            d = np.hypot(truth[:, 0] - lm[0], truth[:, 1] - lm[1])
            i = int(np.argmin(d))
            if d[i] <= self.cluster_radius:
                errors.append(float(d[i]))
        if not errors:
            errors = [float("nan")]
        return SurveyResult(landmark_positions=fused,
                            error=error_stats(errors), matched=len(errors))
