"""Semantic max-mixture data association (Stannartz et al. [58]).

Associating detections to HD-map landmarks is ambiguous when landmarks
crowd together; a wrong hard assignment corrupts the pose. The max-mixture
trick keeps every plausible association (plus a null hypothesis) as a
mixture component and, at each optimization step, lets the *best* component
win — re-evaluated inside a sliding window of recent frames so late
evidence can flip an early wrong association. Semantic class labels prune
the mixture, which is the paper's headline benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.elements import PointLandmark
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.transform import SE2


@dataclass(frozen=True)
class SemanticDetection:
    """Body-frame point detection with a semantic class."""

    body_point: np.ndarray
    label: str


@dataclass
class AssociationResult:
    """Winning component per detection (None = null hypothesis)."""

    landmark_ids: List[Optional[ElementId]]
    inlier_count: int


class MaxMixtureAssociator:
    """Per-frame semantic max-mixture association."""

    def __init__(self, hdmap: HDMap, sigma: float = 0.5,
                 null_weight: float = 0.02, gate: float = 6.0,
                 use_semantics: bool = True) -> None:
        self.map = hdmap
        self.sigma = sigma
        self.null_weight = null_weight
        self.gate = gate
        self.use_semantics = use_semantics

    def associate(self, pose: SE2, detections: Sequence[SemanticDetection]
                  ) -> AssociationResult:
        ids: List[Optional[ElementId]] = []
        inliers = 0
        radius = max((float(np.hypot(*d.body_point)) for d in detections),
                     default=10.0) + self.gate + 5.0
        landmarks = self.map.landmarks_in_radius(pose.x, pose.y, radius)
        for det in detections:
            world = pose.apply(det.body_point)
            best_id: Optional[ElementId] = None
            best_likelihood = self.null_weight  # null hypothesis floor
            for lm in landmarks:
                if self.use_semantics and lm.id.kind != det.label:
                    continue
                d2 = float((lm.position[0] - world[0])**2
                           + (lm.position[1] - world[1])**2)
                if d2 > self.gate**2:
                    continue
                likelihood = float(np.exp(-0.5 * d2 / self.sigma**2))
                if likelihood > best_likelihood:
                    best_likelihood = likelihood
                    best_id = lm.id
            ids.append(best_id)
            inliers += int(best_id is not None)
        return AssociationResult(landmark_ids=ids, inlier_count=inliers)


@dataclass
class _Frame:
    odom_from_prev: SE2  # body-frame increment from the previous frame
    detections: List[SemanticDetection]


class WindowedPoseEstimator:
    """Sliding-window pose estimation with max-mixture re-association.

    Each window iteration: (1) predict poses through the window from the
    anchor using odometry, (2) re-associate every frame's detections with
    the max-mixture rule, (3) solve a rigid correction aligning all inlier
    detections, (4) repeat until associations stabilize.
    """

    def __init__(self, hdmap: HDMap, window: int = 5,
                 use_semantics: bool = True, sigma: float = 0.5) -> None:
        self.associator = MaxMixtureAssociator(hdmap, sigma=sigma,
                                               use_semantics=use_semantics)
        self.map = hdmap
        self.window = window
        self._frames: List[_Frame] = []
        self._anchor: Optional[SE2] = None

    def start(self, initial: SE2) -> None:
        self._anchor = initial
        self._frames = []

    def push(self, odom_from_prev: SE2,
             detections: Sequence[SemanticDetection]) -> SE2:
        """Add a frame; returns the refined current pose."""
        if self._anchor is None:
            raise RuntimeError("call start() first")
        self._frames.append(_Frame(odom_from_prev, list(detections)))
        if len(self._frames) > self.window:
            # Slide: fold the oldest increment into the anchor.
            oldest = self._frames.pop(0)
            self._anchor = self._anchor @ oldest.odom_from_prev
        return self._optimize()

    # ------------------------------------------------------------------
    def _window_poses(self) -> List[SE2]:
        poses = []
        cur = self._anchor
        for frame in self._frames:
            cur = cur @ frame.odom_from_prev
            poses.append(cur)
        return poses

    def _optimize(self, iterations: int = 4) -> SE2:
        assert self._anchor is not None
        for _ in range(iterations):
            poses = self._window_poses()
            src: List[np.ndarray] = []
            dst: List[np.ndarray] = []
            for pose, frame in zip(poses, self._frames):
                result = self.associator.associate(pose, frame.detections)
                for det, lm_id in zip(frame.detections, result.landmark_ids):
                    if lm_id is None:
                        continue
                    lm = self.map.get(lm_id)
                    assert isinstance(lm, PointLandmark)
                    src.append(pose.apply(det.body_point))
                    dst.append(lm.position)
            if len(src) < 2:
                break
            correction = _umeyama(np.array(src), np.array(dst))
            self._anchor = correction @ self._anchor
            if (abs(correction.x) < 1e-5 and abs(correction.y) < 1e-5
                    and abs(correction.theta) < 1e-6):
                break
        poses = self._window_poses()
        return poses[-1] if poses else self._anchor


def _umeyama(src: np.ndarray, dst: np.ndarray) -> SE2:
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    s = src - mu_s
    d = dst - mu_d
    cos_sum = float(np.sum(s[:, 0] * d[:, 0] + s[:, 1] * d[:, 1]))
    sin_sum = float(np.sum(s[:, 0] * d[:, 1] - s[:, 1] * d[:, 0]))
    theta = float(np.arctan2(sin_sum, cos_sum))
    c, sn = np.cos(theta), np.sin(theta)
    rot_mu = np.array([c * mu_s[0] - sn * mu_s[1],
                       sn * mu_s[0] + c * mu_s[1]])
    t = mu_d - rot_mu
    return SE2(float(t[0]), float(t[1]), theta)
