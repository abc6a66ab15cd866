"""Base LiDAR object detector.

Clusters the object-channel returns of a scan into detections with a
confidence score. Deliberately imperfect: sparse clusters score low, and
map furniture (poles, signs) produces candidate clusters a plain detector
cannot tell from genuine obstacles — the confusion HDNET's map prior
removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.geometry.transform import SE2
from repro.sensors.lidar import LidarScan


@dataclass
class Detection:
    """One detected object in world coordinates."""

    position: np.ndarray
    score: float
    n_points: int
    true_object: bool = False  # eval bookkeeping, set by the harness


class LidarObjectDetector:
    """Angular clustering detector over object-channel returns."""

    def __init__(self, cluster_angle: float = np.radians(4.0),
                 cluster_range: float = 2.0,
                 min_points: int = 2,
                 score_saturation: int = 8) -> None:
        self.cluster_angle = cluster_angle
        self.cluster_range = cluster_range
        self.min_points = min_points
        self.score_saturation = score_saturation

    def detect(self, scan: LidarScan, pose: SE2) -> List[Detection]:
        obj = scan.objects
        if obj.angles.size == 0:
            return []
        order = np.argsort(obj.angles)
        angles = obj.angles[order]
        ranges = obj.ranges[order]
        clusters: List[List[int]] = [[0]]
        for i in range(1, angles.size):
            prev = clusters[-1][-1]
            if (angles[i] - angles[prev] <= self.cluster_angle
                    and abs(ranges[i] - ranges[prev]) <= self.cluster_range):
                clusters[-1].append(i)
            else:
                clusters.append([i])
        detections: List[Detection] = []
        for members in clusters:
            if len(members) < self.min_points:
                continue
            r = float(np.mean(ranges[members]))
            a = float(np.mean(angles[members]))
            body = np.array([r * np.cos(a), r * np.sin(a)])
            world = pose.apply(body)
            score = min(1.0, len(members) / self.score_saturation)
            detections.append(Detection(position=world, score=score,
                                        n_points=len(members)))
        return detections
