"""Crowdsourced 3-D mapping with corrective feedback (Dabeer et al. [29]).

A fleet of vehicles with cost-effective sensors (automotive GNSS + a
forward camera) each contributes noisy observations of road furniture.
The pipeline:

1. project each vehicle's sign detections into the world using its
   GNSS-derived pose;
2. cluster observations spatially and triangulate one landmark per
   cluster (robust mean);
3. *corrective feedback*: each vehicle's systematic GNSS bias is estimated
   from the residuals between its observations and the fused landmarks,
   its trace is corrected, and triangulation repeats.

Per-vehicle GNSS bias is the accuracy killer for a single car; because
biases are independent across the crowd, feedback + fleet averaging drives
the mean absolute error to the paper's < 20 cm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hdmap import HDMap
from repro.eval.metrics import ErrorStats, error_stats
from repro.geometry.transform import SE2
from repro.sensors.camera import Camera, SignDetection
from repro.sensors.gnss import GnssSensor
from repro.sensors.base import SensorGrade
from repro.world.traffic import Trajectory


@dataclass
class VehicleContribution:
    """One vehicle's uploads: pose track (GNSS-based) + detections."""

    vehicle_id: int
    pose_track: List[Tuple[float, SE2]]
    detections: List[SignDetection]
    bias: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def pose_at(self, t: float) -> SE2:
        times = np.array([p[0] for p in self.pose_track])
        i = int(np.clip(np.searchsorted(times, t) - 1, 0,
                        len(self.pose_track) - 2))
        t0, p0 = self.pose_track[i]
        t1, p1 = self.pose_track[i + 1]
        u = float(np.clip((t - t0) / max(t1 - t0, 1e-9), 0.0, 1.0))
        dtheta = np.arctan2(np.sin(p1.theta - p0.theta),
                            np.cos(p1.theta - p0.theta))
        return SE2(p0.x + u * (p1.x - p0.x) - self.bias[0],
                   p0.y + u * (p1.y - p0.y) - self.bias[1],
                   p0.theta + u * dtheta)


@dataclass
class CrowdMappingResult:
    landmarks: np.ndarray  # (K, 2) fused positions
    error: ErrorStats  # against true sign positions (matched)
    matched: int
    feedback_rounds: int


class CrowdMapper:
    """Fleet data collection + triangulation + corrective feedback."""

    def __init__(self, grade: SensorGrade = SensorGrade.AUTOMOTIVE,
                 camera: Optional[Camera] = None,
                 cluster_radius: float = 3.0,
                 feedback_rounds: int = 3) -> None:
        self.gnss = GnssSensor(grade, rate_hz=2.0)
        self.camera = camera if camera is not None else Camera(
            false_positive_rate=0.02)
        self.cluster_radius = cluster_radius
        self.feedback_rounds = feedback_rounds

    # ------------------------------------------------------------------
    def collect(self, reality: HDMap, trajectory: Trajectory,
                vehicle_id: int, rng: np.random.Generator
                ) -> VehicleContribution:
        """Simulate one vehicle's drive and uploads."""
        fixes = self.gnss.measure(trajectory, rng)
        if len(fixes) < 6:
            raise ValueError("trajectory too short for crowdsourcing")
        # Smooth the raw fixes (vehicles fuse GNSS with odometry/IMU; a
        # zero-phase moving average is the cheap equivalent) — without it,
        # per-fix white noise wrecks the heading estimate and every
        # detection's world projection inherits metres of lateral error.
        pts = np.array([f.position for f in fixes])
        window = 7
        kernel = np.ones(window) / window
        x = np.convolve(pts[:, 0], kernel, mode="same")
        y = np.convolve(pts[:, 1], kernel, mode="same")
        half = window // 2
        x[:half], x[-half:] = pts[:half, 0], pts[-half:, 0]
        y[:half], y[-half:] = pts[:half, 1], pts[-half:, 1]
        pose_track: List[Tuple[float, SE2]] = []
        for i in range(len(fixes) - 1):
            j = min(i + 2, len(fixes) - 1)
            k = max(i - 2, 0)
            heading = float(np.arctan2(y[j] - y[k], x[j] - x[k]))
            pose_track.append((fixes[i].t, SE2(float(x[i]), float(y[i]),
                                               heading)))
        detections: List[SignDetection] = []
        for t, _ in pose_track:
            true_pose = trajectory.pose_at(t)
            detections.extend(
                self.camera.observe_signs(reality, true_pose, rng, t=t))
        return VehicleContribution(vehicle_id, pose_track, detections)

    # ------------------------------------------------------------------
    def fuse(self, contributions: Sequence[VehicleContribution],
             reality: HDMap) -> CrowdMappingResult:
        """Triangulate landmarks and run corrective-feedback rounds."""
        landmarks = self._triangulate(contributions)
        rounds = 0
        for _ in range(self.feedback_rounds):
            changed = self._feedback(contributions, landmarks)
            landmarks = self._triangulate(contributions)
            rounds += 1
            if not changed:
                break
        error, matched = self._score(landmarks, reality)
        return CrowdMappingResult(landmarks=landmarks, error=error,
                                  matched=matched, feedback_rounds=rounds)

    # ------------------------------------------------------------------
    def _observation_points(self, contributions: Sequence[VehicleContribution]
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """World positions of detections + owning vehicle + fusion weight.

        Weight is the inverse measurement variance — long-range detections
        carry metre-level range noise and must not dilute the near passes.
        """
        pts = []
        owners = []
        weights = []
        for k, contrib in enumerate(contributions):
            for det in contrib.detections:
                if det.range > 45.0:
                    continue
                pose = contrib.pose_at(det.t)
                pts.append(pose.apply(det.body_frame_position()))
                owners.append(k)
                sigma2 = 0.3**2 + (0.05 * det.range)**2
                weights.append(1.0 / sigma2)
        return np.array(pts), np.array(owners), np.array(weights)

    def _triangulate(self, contributions: Sequence[VehicleContribution]
                     ) -> np.ndarray:
        pts, owners, weights = self._observation_points(contributions)
        if pts.shape[0] == 0:
            return np.zeros((0, 2))
        clusters = _greedy_cluster(pts, self.cluster_radius)
        fused = []
        for members in clusters:
            if len(members) < 3:
                continue  # clutter rejection
            cluster_pts = pts[members]
            cluster_owner = owners[members]
            cluster_w = weights[members]
            # Weighted per-vehicle average first (equalizes vehicles with
            # different observation counts), then average across vehicles.
            per_vehicle = []
            for v in np.unique(cluster_owner):
                sel = cluster_owner == v
                w = cluster_w[sel]
                per_vehicle.append(
                    (cluster_pts[sel] * w[:, None]).sum(axis=0) / w.sum())
            fused.append(np.mean(per_vehicle, axis=0))
        if not fused:
            return np.zeros((0, 2))
        return _merge_close(np.array(fused), self.cluster_radius * 0.8)

    def _feedback(self, contributions: Sequence[VehicleContribution],
                  landmarks: np.ndarray) -> bool:
        """Update per-vehicle bias estimates from landmark residuals."""
        if landmarks.shape[0] == 0:
            return False
        changed = False
        for contrib in contributions:
            residuals = []
            for det in contrib.detections:
                pose = contrib.pose_at(det.t)
                world = pose.apply(det.body_frame_position())
                d = np.hypot(landmarks[:, 0] - world[0],
                             landmarks[:, 1] - world[1])
                i = int(np.argmin(d))
                if d[i] <= self.cluster_radius:
                    residuals.append(world - landmarks[i])
            if len(residuals) >= 3:
                new_bias = contrib.bias + np.mean(residuals, axis=0)
                if float(np.hypot(*(new_bias - contrib.bias))) > 1e-3:
                    changed = True
                contrib.bias = new_bias
        return changed

    def _score(self, landmarks: np.ndarray,
               reality: HDMap) -> Tuple[ErrorStats, int]:
        """Per true sign: distance to the nearest fused landmark."""
        truth = np.array([s.position for s in reality.signs()])
        errors = []
        for sign in truth:
            if landmarks.shape[0] == 0:
                break
            d = np.hypot(landmarks[:, 0] - sign[0],
                         landmarks[:, 1] - sign[1])
            i = int(np.argmin(d))
            if d[i] <= self.cluster_radius:
                errors.append(float(d[i]))
        if not errors:
            errors = [float("nan")]
        return error_stats(errors), len(errors)


def _merge_close(points: np.ndarray, radius: float) -> np.ndarray:
    """Merge near-duplicate fused landmarks (split clusters) by averaging."""
    merged: List[np.ndarray] = []
    used = np.zeros(points.shape[0], dtype=bool)
    for i in range(points.shape[0]):
        if used[i]:
            continue
        d = np.hypot(points[:, 0] - points[i, 0], points[:, 1] - points[i, 1])
        members = np.where(~used & (d <= radius))[0]
        used[members] = True
        merged.append(points[members].mean(axis=0))
    return np.array(merged)


def _greedy_cluster(points: np.ndarray, radius: float) -> List[List[int]]:
    """Greedy spatial clustering: grow a cluster around each unvisited point."""
    n = points.shape[0]
    unassigned = np.ones(n, dtype=bool)
    clusters: List[List[int]] = []
    order = np.arange(n)
    for i in order:
        if not unassigned[i]:
            continue
        d = np.hypot(points[:, 0] - points[i, 0], points[:, 1] - points[i, 1])
        members = np.where(unassigned & (d <= radius))[0]
        # Re-centre once for stability.
        centre = points[members].mean(axis=0)
        d = np.hypot(points[:, 0] - centre[0], points[:, 1] - centre[1])
        members = np.where(unassigned & (d <= radius))[0]
        unassigned[members] = False
        clusters.append(list(members))
    return clusters
