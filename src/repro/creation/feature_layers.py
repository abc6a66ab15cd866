"""Crowdsourced new feature layers on an existing HD map (Kim et al. [31]).

The existing map's lane geometry is accurate, so contributing vehicles can
localize *against the map* (lane-relative, centimetre-level) instead of
against raw GNSS (metre-level). New features detected during normal drives
are then registered in map coordinates with near-map accuracy — the paper's
centimetre-level layer enrichment "without extra cost". The layer is kept
separate from the base map, isolating its errors (the decoupling the paper
argues for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.hdmap import HDMap
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.transform import SE2
from repro.sensors.gnss import GnssSensor
from repro.sensors.base import SensorGrade
from repro.world.traffic import Trajectory


@dataclass
class LayerResult:
    """A fused feature layer with accuracy against ground truth."""

    positions: np.ndarray  # (K, 2)
    error: ErrorStats
    matched: int


class FeatureLayerMapper:
    """Builds a new point-feature layer from crowd drives.

    ``map_relative=True`` localizes contributors against the base map
    (lane-relative: the vehicle's lateral offset is observed by camera,
    its longitudinal position by odometry-corrected GNSS projected onto the
    lane). ``map_relative=False`` is the traditional baseline: raw GNSS
    pose, metre-level results.
    """

    def __init__(self, base_map: HDMap, map_relative: bool = True,
                 grade: SensorGrade = SensorGrade.AUTOMOTIVE,
                 lateral_obs_sigma: float = 0.05,
                 station_obs_sigma: float = 0.35,
                 feature_obs_sigma: float = 0.08,
                 cluster_radius: float = 1.5) -> None:
        self.base = base_map
        self.map_relative = map_relative
        self.gnss = GnssSensor(grade, rate_hz=2.0)
        self.lateral_obs_sigma = lateral_obs_sigma
        self.station_obs_sigma = station_obs_sigma
        self.feature_obs_sigma = feature_obs_sigma
        self.cluster_radius = cluster_radius

    # ------------------------------------------------------------------
    def _estimated_pose(self, true_pose: SE2, gnss_position: np.ndarray,
                        rng: np.random.Generator) -> SE2:
        if not self.map_relative:
            return SE2(float(gnss_position[0]), float(gnss_position[1]),
                       true_pose.theta + float(rng.normal(0, 0.01)))
        # Map-relative localization: the camera pins the lateral offset to
        # the mapped lane; odometry/map matching pins the station to within
        # station_obs_sigma. Model the resulting pose error directly.
        lane, _ = self.base.nearest_lane(true_pose.x, true_pose.y)
        s, d = lane.centerline.project((true_pose.x, true_pose.y))
        s_est = s + float(rng.normal(0.0, self.station_obs_sigma))
        d_est = d + float(rng.normal(0.0, self.lateral_obs_sigma))
        base = lane.centerline.point_at(s_est)
        normal = lane.centerline.normal_at(s_est)
        heading = lane.centerline.heading_at(s_est)
        position = base + d_est * normal
        return SE2(float(position[0]), float(position[1]),
                   heading + float(rng.normal(0, 0.005)))

    # ------------------------------------------------------------------
    def collect(self, reality: HDMap, trajectory: Trajectory,
                rng: np.random.Generator) -> List[np.ndarray]:
        """One vehicle's feature observations, in map coordinates."""
        fixes = self.gnss.measure(trajectory, rng)
        observations: List[np.ndarray] = []
        for fix in fixes:
            true_pose = trajectory.pose_at(fix.t)
            est_pose = self._estimated_pose(true_pose, fix.position, rng)
            # Detect road markings near the vehicle (the new layer).
            for marking in reality.markings():
                rel = marking.position - np.array([true_pose.x, true_pose.y])
                if float(np.hypot(*rel)) > 25.0:
                    continue
                if rng.uniform() > 0.8:
                    continue
                body = true_pose.inverse().apply(marking.position)
                body = body + rng.normal(0.0, self.feature_obs_sigma, size=2)
                observations.append(est_pose.apply(body))
        return observations

    # ------------------------------------------------------------------
    def fuse(self, all_observations: Sequence[np.ndarray],
             reality: HDMap) -> LayerResult:
        if not all_observations:
            return LayerResult(np.zeros((0, 2)),
                               error_stats([float("nan")]), 0)
        pts = np.array(all_observations)
        from repro.creation.crowdsource import _greedy_cluster

        clusters = _greedy_cluster(pts, self.cluster_radius)
        fused = [pts[m].mean(axis=0) for m in clusters if len(m) >= 3]
        fused_arr = np.array(fused) if fused else np.zeros((0, 2))
        truth = np.array([m.position for m in reality.markings()])
        errors = []
        for f in fused_arr:
            if truth.shape[0] == 0:
                break
            d = np.hypot(truth[:, 0] - f[0], truth[:, 1] - f[1])
            i = int(np.argmin(d))
            if d[i] <= self.cluster_radius * 2:
                errors.append(float(d[i]))
        if not errors:
            errors = [float("nan")]
        return LayerResult(positions=fused_arr, error=error_stats(errors),
                           matched=len(errors))
