"""Crowd-based HD-map update (Pannen et al. [42], [44]).

Three pipelines, as in the paper: *change detection* (per-traversal FCD
features -> a boosted change classifier), *job creation* (suspicious tiles
become verification jobs once enough traversals agree), and *map updating*
(confirmed changes are learned into a patch). The headline result is the
single- vs multi-traversal classification gap: one traversal's evidence is
noisy (the paper: much lower performance), aggregating ~tens of traversals
reaches 98.7 % sensitivity / 81.2 % specificity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.elements import TrafficSign
from repro.core.hdmap import HDMap
from repro.core.tiles import TileId, TileScheme
from repro.geometry.transform import SE2
from repro.sensors.camera import Camera
from repro.world.traffic import Trajectory


@dataclass
class TraversalFeatures:
    """Per-traversal, per-site evidence features (the classifier input).

    - ``missing_ratio``: expected-but-unseen map features / expected;
    - ``unexpected_count``: detections with no map counterpart;
    - ``innovation``: mean localization innovation (map-matching residual
      growth, the two-particle-filter divergence proxy).
    """

    site: TileId
    missing_ratio: float
    unexpected_count: float
    innovation: float

    def vector(self) -> np.ndarray:
        return np.array([self.missing_ratio, self.unexpected_count,
                         self.innovation])


class ChangeClassifier:
    """A tiny boosted-stump-style classifier over traversal features.

    Three weighted decision stumps (one per feature) — the shape of the
    boosted classifier in [42] without the learning machinery; weights were
    chosen once against a held-out synthetic set.
    """

    def __init__(self, thresholds: Tuple[float, float, float] = (0.35, 1.5, 0.8),
                 weights: Tuple[float, float, float] = (1.0, 1.2, 0.6),
                 bias: float = -0.9) -> None:
        self.thresholds = thresholds
        self.weights = weights
        self.bias = bias

    def score(self, features: TraversalFeatures) -> float:
        """Change score in (0, 1)."""
        x = features.vector()
        z = self.bias
        for value, threshold, weight in zip(x, self.thresholds, self.weights):
            z += weight * (1.0 if value > threshold else -0.2)
        return float(1.0 / (1.0 + np.exp(-z)))

    def classify(self, features: TraversalFeatures,
                 threshold: float = 0.5) -> bool:
        return self.score(features) >= threshold


class CrowdUpdatePipeline:
    """change detection -> job creation -> map updating."""

    def __init__(self, prior: HDMap, tile_size: float = 250.0,
                 camera: Optional[Camera] = None,
                 localization_sigma: float = 0.4,
                 job_threshold: float = 0.5,
                 min_traversals_for_job: int = 3) -> None:
        self.prior = prior
        self.tiles = TileScheme(tile_size)
        self.camera = camera if camera is not None else Camera(
            detection_prob=0.85, false_positive_rate=0.08)
        self.localization_sigma = localization_sigma
        self.classifier = ChangeClassifier()
        self.job_threshold = job_threshold
        self.min_traversals_for_job = min_traversals_for_job
        # site -> accumulated scores across traversals
        self._site_scores: Dict[TileId, List[float]] = {}

    # ------------------------------------------------------------------
    def traverse(self, reality: HDMap, trajectory: Trajectory,
                 rng: np.random.Generator, frame_dt: float = 1.0
                 ) -> List[TraversalFeatures]:
        """One FCD traversal: returns per-visited-tile features."""
        per_site: Dict[TileId, Dict[str, float]] = {}
        t = trajectory.start_time
        while t <= trajectory.end_time:
            true_pose = trajectory.pose_at(t)
            est_pose = SE2(
                true_pose.x + float(rng.normal(0, self.localization_sigma)),
                true_pose.y + float(rng.normal(0, self.localization_sigma)),
                true_pose.theta,
            )
            site = self.tiles.tile_of(est_pose.x, est_pose.y)
            bucket = per_site.setdefault(site, {
                "expected": 0.0, "missing": 0.0, "unexpected": 0.0,
                "innovation": 0.0, "frames": 0.0,
            })
            expected = [
                s for s in self.prior.landmarks_in_radius(
                    est_pose.x, est_pose.y, self.camera.max_range)
                if isinstance(s, TrafficSign)
                and self.camera.in_view(est_pose, s.position)
            ]
            detections = self.camera.observe_signs(reality, true_pose, rng, t=t)
            det_world = [est_pose.apply(d.body_frame_position())
                         for d in detections]
            used = [False] * len(det_world)
            for sign in expected:
                bucket["expected"] += 1
                hit = False
                for i, w in enumerate(det_world):
                    if not used[i] and float(np.hypot(*(w - sign.position))) <= 3.0:
                        used[i] = True
                        hit = True
                        break
                if not hit:
                    bucket["missing"] += 1
            bucket["unexpected"] += sum(1 for u in used if not u)
            # Innovation proxy: localization residual against map furniture.
            bucket["innovation"] += float(rng.normal(
                0.4 + 0.5 * (bucket["missing"] > 0), 0.1))
            bucket["frames"] += 1
            t += frame_dt

        features = []
        for site, bucket in per_site.items():
            if bucket["frames"] < 3:
                continue
            expected = max(bucket["expected"], 1.0)
            features.append(TraversalFeatures(
                site=site,
                missing_ratio=bucket["missing"] / expected,
                unexpected_count=bucket["unexpected"] / bucket["frames"] * 10.0,
                innovation=bucket["innovation"] / bucket["frames"],
            ))
        return features

    # ------------------------------------------------------------------
    def ingest(self, features: Sequence[TraversalFeatures]) -> None:
        """Change-detection pipeline: accumulate per-site scores."""
        for f in features:
            self._site_scores.setdefault(f.site, []).append(
                self.classifier.score(f))

    def create_jobs(self) -> List[TileId]:
        """Job-creation pipeline: sites whose aggregated score crosses the
        threshold with enough traversals."""
        jobs = []
        for site, scores in self._site_scores.items():
            if len(scores) < self.min_traversals_for_job:
                continue
            if float(np.mean(scores)) >= self.job_threshold:
                jobs.append(site)
        return jobs

    def site_decision(self, site: TileId,
                      multi_traversal: bool = True) -> Optional[bool]:
        """Classify one site as changed/unchanged.

        ``multi_traversal=False`` uses only the first traversal's score —
        the single-traversal baseline of the paper.
        """
        scores = self._site_scores.get(site)
        if not scores:
            return None
        if multi_traversal:
            return float(np.mean(scores)) >= self.job_threshold
        return scores[0] >= self.job_threshold

    def reset(self) -> None:
        self._site_scores.clear()
