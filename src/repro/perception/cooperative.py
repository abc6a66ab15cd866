"""Cooperative roadside perception (Masi et al. [63]).

A roadside camera with a fixed, well-calibrated pose observes a conflict
area; an approaching vehicle's LiDAR observes the same objects from street
level. Fusing both streams in per-object Kalman trackers — associated in
the shared HD-map frame — improves the estimated object states over either
source alone, especially for objects occluded from the vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sensors.lidar import Obstacle


@dataclass
class RoadsideCamera:
    """A fixed infrastructure sensor over a coverage disc."""

    position: np.ndarray
    coverage_radius: float = 60.0
    sigma: float = 0.35
    detection_prob: float = 0.95

    def observe(self, obstacles: Sequence[Obstacle],
                rng: np.random.Generator) -> List[np.ndarray]:
        out = []
        for ob in obstacles:
            if float(np.hypot(*(ob.position - self.position))) > self.coverage_radius:
                continue
            if rng.uniform() > self.detection_prob:
                continue
            out.append(ob.position + rng.normal(0.0, self.sigma, size=2))
        return out


@dataclass
class TrackedObject:
    """Constant-velocity Kalman track of one object."""

    track_id: int
    state: np.ndarray  # [x, y, vx, vy]
    covariance: np.ndarray  # (4, 4)
    hits: int = 1

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]

    def predict(self, dt: float, accel_sigma: float = 1.5) -> None:
        F = np.eye(4)
        F[0, 2] = F[1, 3] = dt
        q = accel_sigma**2
        G = np.array([[dt**2 / 2, 0], [0, dt**2 / 2], [dt, 0], [0, dt]])
        self.state = F @ self.state
        self.covariance = F @ self.covariance @ F.T + G @ (np.eye(2) * q) @ G.T

    def update(self, measured: np.ndarray, sigma: float) -> None:
        H = np.zeros((2, 4))
        H[0, 0] = H[1, 1] = 1.0
        S = H @ self.covariance @ H.T + np.eye(2) * sigma**2
        K = self.covariance @ H.T @ np.linalg.inv(S)
        self.state = self.state + K @ (measured - self.state[:2])
        self.covariance = (np.eye(4) - K @ H) @ self.covariance
        self.hits += 1


class CooperativePerception:
    """Multi-source tracker in the shared map frame."""

    def __init__(self, association_gate: float = 3.0) -> None:
        self.gate = association_gate
        self.tracks: Dict[int, TrackedObject] = {}
        self._next_id = 0

    def step(self, dt: float,
             measurements: Sequence[Tuple[np.ndarray, float]]) -> None:
        """Advance all tracks and fuse ``(position, sigma)`` measurements."""
        for track in self.tracks.values():
            track.predict(dt)
        unmatched = []
        for measured, sigma in measurements:
            best = None
            best_d = self.gate
            for track in self.tracks.values():
                d = float(np.hypot(*(track.position - measured)))
                if d < best_d:
                    best, best_d = track, d
            if best is not None:
                best.update(np.asarray(measured, dtype=float), sigma)
            else:
                unmatched.append((measured, sigma))
        for measured, sigma in unmatched:
            track = TrackedObject(
                track_id=self._next_id,
                state=np.array([measured[0], measured[1], 0.0, 0.0]),
                covariance=np.diag([sigma**2, sigma**2, 4.0, 4.0]),
            )
            self.tracks[self._next_id] = track
            self._next_id += 1

    def confirmed_tracks(self, min_hits: int = 3) -> List[TrackedObject]:
        return [t for t in self.tracks.values() if t.hits >= min_hits]

    def position_errors(self, truth: Sequence[np.ndarray],
                        min_hits: int = 3) -> List[float]:
        """Per true object: error of the nearest confirmed track."""
        errors = []
        tracks = self.confirmed_tracks(min_hits)
        for true_pos in truth:
            if not tracks:
                break
            d = min(float(np.hypot(*(t.position - true_pos))) for t in tracks)
            errors.append(d)
        return errors
