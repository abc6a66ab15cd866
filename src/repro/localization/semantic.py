"""Coarse-to-fine semantic localization (Guo et al. [56]).

Stage 1 (*initialization*): a coarse GNSS fix seeds a grid of candidate
poses; each is scored by aligning the observed semantic features against
the HD map, and the best cell wins. Stage 2 (*tracking*): the pose is
refined each frame with a semantic point-to-landmark ICP step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hdmap import HDMap
from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle


@dataclass(frozen=True)
class SemanticObservation:
    """Body-frame semantic points with class labels."""

    points: np.ndarray  # (N, 2)
    labels: Tuple[str, ...]  # class per point


def observe_semantics(reality: HDMap, pose: SE2, rng: np.random.Generator,
                      radius: float = 40.0, noise_sigma: float = 0.12,
                      detection_prob: float = 0.85) -> SemanticObservation:
    """Sensor surrogate: landmarks near the true pose, labelled by kind."""
    inv = pose.inverse()
    pts: List[np.ndarray] = []
    labels: List[str] = []
    for lm in reality.landmarks_in_radius(pose.x, pose.y, radius):
        if rng.uniform() > detection_prob:
            continue
        body = inv.apply(lm.position) + rng.normal(0.0, noise_sigma, size=2)
        pts.append(body)
        labels.append(lm.id.kind)
    if not pts:
        return SemanticObservation(np.zeros((0, 2)), ())
    return SemanticObservation(np.array(pts), tuple(labels))


class SemanticAligner:
    """Two-stage semantic localizer against the HD map."""

    def __init__(self, hdmap: HDMap, search_radius: float = 60.0) -> None:
        self.map = hdmap
        self.search_radius = search_radius

    # ------------------------------------------------------------------
    def _map_points(self, around: SE2) -> Dict[str, np.ndarray]:
        by_class: Dict[str, List[np.ndarray]] = {}
        for lm in self.map.landmarks_in_radius(around.x, around.y,
                                               self.search_radius):
            by_class.setdefault(lm.id.kind, []).append(lm.position)
        return {k: np.array(v) for k, v in by_class.items()}

    def score_pose(self, pose: SE2, obs: SemanticObservation,
                   map_points: Optional[Dict[str, np.ndarray]] = None,
                   sigma: float = 0.8) -> float:
        """Sum of per-point Gaussian agreement with same-class landmarks."""
        if obs.points.shape[0] == 0:
            return 0.0
        if map_points is None:
            map_points = self._map_points(pose)
        world = pose.apply(obs.points)
        score = 0.0
        for p, label in zip(world, obs.labels):
            candidates = map_points.get(label)
            if candidates is None or candidates.shape[0] == 0:
                continue
            d2 = np.min((candidates[:, 0] - p[0])**2
                        + (candidates[:, 1] - p[1])**2)
            score += float(np.exp(-0.5 * d2 / sigma**2))
        return score

    # ------------------------------------------------------------------
    def initialize(self, coarse: SE2, obs: SemanticObservation,
                   search_extent: float = 12.0, grid_step: float = 1.5,
                   n_headings: int = 9,
                   heading_extent: float = np.radians(12.0)) -> SE2:
        """Stage 1: grid search around the coarse GNSS pose."""
        map_points = self._map_points(coarse)
        offsets = np.arange(-search_extent, search_extent + grid_step / 2,
                            grid_step)
        headings = np.linspace(-heading_extent, heading_extent, n_headings)
        best_pose = coarse
        best_score = -1.0
        for dx in offsets:
            for dy in offsets:
                for dh in headings:
                    cand = SE2(coarse.x + dx, coarse.y + dy,
                               wrap_angle(coarse.theta + dh))
                    s = self.score_pose(cand, obs, map_points)
                    if s > best_score:
                        best_score, best_pose = s, cand
        return self.refine(best_pose, obs)

    # ------------------------------------------------------------------
    def refine(self, pose: SE2, obs: SemanticObservation,
               iterations: int = 8, max_pair_distance: float = 3.0) -> SE2:
        """Stage 2: semantic point-to-landmark ICP refinement."""
        if obs.points.shape[0] < 2:
            return pose
        current = pose
        map_points = self._map_points(pose)
        for _ in range(iterations):
            world = current.apply(obs.points)
            src = []
            dst = []
            for p, label in zip(world, obs.labels):
                candidates = map_points.get(label)
                if candidates is None or candidates.shape[0] == 0:
                    continue
                d = np.hypot(candidates[:, 0] - p[0], candidates[:, 1] - p[1])
                i = int(np.argmin(d))
                if d[i] <= max_pair_distance:
                    src.append(p)
                    dst.append(candidates[i])
            if len(src) < 2:
                return current
            correction = _umeyama_se2(np.array(src), np.array(dst))
            current = correction @ current
            if (abs(correction.x) < 1e-4 and abs(correction.y) < 1e-4
                    and abs(correction.theta) < 1e-5):
                break
        return current


def _umeyama_se2(src: np.ndarray, dst: np.ndarray) -> SE2:
    """Rigid SE(2) transform best mapping ``src`` points onto ``dst``."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    s = src - mu_s
    d = dst - mu_d
    cos_sum = float(np.sum(s[:, 0] * d[:, 0] + s[:, 1] * d[:, 1]))
    sin_sum = float(np.sum(s[:, 0] * d[:, 1] - s[:, 1] * d[:, 0]))
    theta = float(np.arctan2(sin_sum, cos_sum))
    c, sn = np.cos(theta), np.sin(theta)
    rot_mu = np.array([c * mu_s[0] - sn * mu_s[1], sn * mu_s[0] + c * mu_s[1]])
    t = mu_d - rot_mu
    return SE2(float(t[0]), float(t[1]), theta)
