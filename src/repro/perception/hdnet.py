"""HDNET: exploiting HD maps for object detection (Yang et al. [6]).

The map contributes two priors to the detector:

- *geometric*: obstacles of interest (vehicles) are on the road surface —
  detections far off any lane are down-weighted (static clutter);
- *semantic*: detections that coincide with mapped furniture (poles,
  signs) are explained by the map and suppressed.

When no HD map is available, :func:`predict_road_prior` estimates the road
region online from a single LiDAR scan's ground-intensity returns — the
paper's map-prediction fallback, weaker than the true map but better than
nothing. The expected ordering (and the paper's finding) is
``with map > predicted map > no map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.hdmap import HDMap
from repro.geometry.transform import SE2
from repro.perception.detector import Detection, LidarObjectDetector
from repro.sensors.lidar import LidarScan


@dataclass
class RoadPrior:
    """An online-predicted road region: points + acceptance radius."""

    road_points: np.ndarray  # (N, 2) world frame
    radius: float

    def on_road(self, position: np.ndarray) -> bool:
        if self.road_points.shape[0] == 0:
            return True  # uninformative prior accepts everything
        d = np.hypot(self.road_points[:, 0] - position[0],
                     self.road_points[:, 1] - position[1])
        return bool(d.min() <= self.radius)


def predict_road_prior(scan: LidarScan, pose: SE2,
                       asphalt_band: tuple = (0.08, 0.38),
                       radius: float = 3.0) -> RoadPrior:
    """Estimate the road region from one scan (no map available).

    Ground returns whose intensity sits in the asphalt band are taken as
    road surface samples.
    """
    ground = scan.ground
    lo, hi = asphalt_band
    mask = (ground.intensity >= lo) & (ground.intensity <= hi)
    world = pose.apply(ground.points[mask])
    return RoadPrior(road_points=world, radius=radius)


class HdnetDetector:
    """Base detector + map priors.

    ``mode``: "map" (use the HD map), "predicted" (online prior from the
    scan), or "none" (raw detector).
    """

    def __init__(self, hdmap: Optional[HDMap], mode: str = "map",
                 base: Optional[LidarObjectDetector] = None,
                 off_road_penalty: float = 0.15,
                 furniture_radius: float = 1.2,
                 road_margin: float = 2.5) -> None:
        if mode not in ("map", "predicted", "none"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "map" and hdmap is None:
            raise ValueError("mode='map' needs a map")
        self.map = hdmap
        self.mode = mode
        self.base = base if base is not None else LidarObjectDetector()
        self.off_road_penalty = off_road_penalty
        self.furniture_radius = furniture_radius
        self.road_margin = road_margin

    # ------------------------------------------------------------------
    def detect(self, scan: LidarScan, pose: SE2) -> List[Detection]:
        detections = self.base.detect(scan, pose)
        if self.mode == "none":
            return detections
        prior = (predict_road_prior(scan, pose)
                 if self.mode == "predicted" else None)
        out: List[Detection] = []
        for det in detections:
            score = det.score
            if self.mode == "map":
                assert self.map is not None
                # Semantic prior: mapped furniture explains the cluster.
                furniture = self.map.landmarks_in_radius(
                    float(det.position[0]), float(det.position[1]),
                    self.furniture_radius)
                if any(lm.height > 0.05 for lm in furniture):
                    continue
                # Geometric prior: keep on-road detections at full score.
                try:
                    _, dist = self.map.nearest_lane(float(det.position[0]),
                                                    float(det.position[1]))
                except Exception:
                    dist = float("inf")
                if dist > self.road_margin:
                    score *= self.off_road_penalty
            else:
                assert prior is not None
                if not prior.on_road(det.position):
                    score *= self.off_road_penalty
            out.append(Detection(position=det.position, score=score,
                                 n_points=det.n_points,
                                 true_object=det.true_object))
        return out
