"""Landmark-based localization: HRL detection, association, triangulation.

Covers Juang [72] (pre-mapped landmark triangulation) and Ghallabi et al.
[53] (High Reflective Landmarks detected from LiDAR intensity, matched to
the map, fused in a particle filter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.elements import PointLandmark
from repro.core.hdmap import HDMap
from repro.errors import LocalizationError
from repro.geometry.transform import SE2
from repro.localization.particle_filter import ParticleFilter2D
from repro.sensors.lidar import LidarScan

HRL_INTENSITY_THRESHOLD = 0.75


@dataclass(frozen=True)
class RangeBearing:
    """A range-bearing detection in the body frame."""

    range: float
    bearing: float

    def body_point(self) -> np.ndarray:
        return np.array([self.range * np.cos(self.bearing),
                         self.range * np.sin(self.bearing)])


def detect_hrl(scan: LidarScan, intensity_threshold: float = HRL_INTENSITY_THRESHOLD,
               cluster_angle: float = np.radians(3.0)) -> List[RangeBearing]:
    """Detect highly reflective landmarks in a scan's object channel.

    Adjacent high-intensity beams are clustered; each cluster yields one
    detection at its mean range/bearing — the size/shape/reflectivity
    screening of [53], [72] collapsed to the intensity cue that drives it.
    """
    obj = scan.objects
    mask = obj.intensity >= intensity_threshold
    if not mask.any():
        return []
    angles = obj.angles[mask]
    ranges = obj.ranges[mask]
    order = np.argsort(angles)
    angles = angles[order]
    ranges = ranges[order]
    detections: List[RangeBearing] = []
    cluster_a = [angles[0]]
    cluster_r = [ranges[0]]
    for a, r in zip(angles[1:], ranges[1:]):
        if a - cluster_a[-1] <= cluster_angle and abs(r - cluster_r[-1]) < 1.5:
            cluster_a.append(a)
            cluster_r.append(r)
        else:
            detections.append(RangeBearing(float(np.mean(cluster_r)),
                                           float(np.mean(cluster_a))))
            cluster_a = [a]
            cluster_r = [r]
    detections.append(RangeBearing(float(np.mean(cluster_r)),
                                   float(np.mean(cluster_a))))
    return detections


def associate_detections(detections: Sequence[RangeBearing], pose: SE2,
                         hdmap: HDMap, max_distance: float = 3.0
                         ) -> List[Tuple[RangeBearing, PointLandmark]]:
    """Nearest-neighbour association of detections to map landmarks."""
    if not detections:
        return []
    search_radius = max(d.range for d in detections) + max_distance + 5.0
    landmarks = hdmap.landmarks_in_radius(pose.x, pose.y, search_radius)
    landmarks = [lm for lm in landmarks if lm.height > 0.05]
    pairs: List[Tuple[RangeBearing, PointLandmark]] = []
    used = set()
    for det in detections:
        world = pose.apply(det.body_point())
        best = None
        best_d = max_distance
        for lm in landmarks:
            if lm.id in used:
                continue
            d = float(np.hypot(*(lm.position - world)))
            if d < best_d:
                best, best_d = lm, d
        if best is not None:
            used.add(best.id)
            pairs.append((det, best))
    return pairs


class LandmarkLocalizer:
    """HRL particle-filter localization against the HD map [53].

    Predict with odometry; weight particles by how well the detected HRLs
    line up with map landmarks from each particle's viewpoint.
    """

    def __init__(self, hdmap: HDMap, rng: np.random.Generator,
                 n_particles: int = 300,
                 sigma_range: float = 0.15,
                 sigma_bearing: float = np.radians(1.0)) -> None:
        self.map = hdmap
        self.filter = ParticleFilter2D(n_particles, rng)
        self.sigma_range = sigma_range
        self.sigma_bearing = sigma_bearing
        self._initialized = False

    def initialize(self, pose: SE2, sigma_xy: float = 3.0,
                   sigma_theta: float = 0.15) -> None:
        self.filter.init_gaussian(pose, sigma_xy, sigma_theta)
        self._initialized = True

    def predict(self, ds: float, dtheta: float) -> None:
        self._require_init()
        self.filter.predict(ds, dtheta,
                            sigma_ds=0.05 + 0.05 * abs(ds),
                            sigma_dtheta=0.01 + 0.1 * abs(dtheta))

    def update(self, detections: Sequence[RangeBearing]) -> None:
        self._require_init()
        if not detections:
            return
        estimate = self.filter.estimate()
        pairs = associate_detections(detections, estimate, self.map)
        if not pairs:
            return

        def weight(states: np.ndarray) -> np.ndarray:
            log_w = np.zeros(states.shape[0])
            for det, lm in pairs:
                dx = lm.position[0] - states[:, 0]
                dy = lm.position[1] - states[:, 1]
                r_pred = np.hypot(dx, dy)
                b_pred = np.arctan2(dy, dx) - states[:, 2]
                b_err = np.arctan2(np.sin(det.bearing - b_pred),
                                   np.cos(det.bearing - b_pred))
                log_w -= 0.5 * ((det.range - r_pred) / self.sigma_range)**2
                log_w -= 0.5 * (b_err / self.sigma_bearing)**2
            log_w -= log_w.max()
            return np.exp(log_w)

        self.filter.update(weight)
        self.filter.resample_if_needed()

    def estimate(self) -> SE2:
        self._require_init()
        return self.filter.estimate()

    def _require_init(self) -> None:
        if not self._initialized:
            raise LocalizationError("localizer not initialized")
