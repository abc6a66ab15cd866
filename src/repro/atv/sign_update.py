"""ATV safety-sign HD-map update (Tas et al. [10], [11]).

The ATV drives the factory floor with visual SLAM and object detection; a
*virtual HD map* of detected signs is built along the way, then compared
against the valid HD map. Signs in the virtual map without a map
counterpart are NEW; mapped signs never observed despite being in range
are MISSING. Confirmed differences are batched into one MapPatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.changes import ChangeType, MapChange, match_changes
from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.versioning import MapPatch
from repro.sensors.camera import Camera
from repro.world.scenario import Scenario
from repro.world.traffic import Trajectory
from repro.atv.vslam import VisualSlam


@dataclass
class SignUpdateReport:
    detected_changes: List[MapChange]
    patch: MapPatch
    precision: float
    recall: float


class AtvSignUpdater:
    """Drive, build the virtual sign map, diff it against the prior."""

    def __init__(self, prior: HDMap, camera: Optional[Camera] = None,
                 match_radius: float = 1.5,
                 min_observations: int = 3,
                 miss_ratio: float = 0.25) -> None:
        self.prior = prior
        self.camera = camera if camera is not None else Camera(
            max_range=15.0, detection_prob=0.9, false_positive_rate=0.02,
            bearing_sigma=np.radians(1.0), range_sigma_rel=0.03)
        self.match_radius = match_radius
        self.min_observations = min_observations
        self.miss_ratio = miss_ratio

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario, trajectory: Trajectory,
            slam: VisualSlam, rng: np.random.Generator,
            frame_dt: float = 0.5) -> SignUpdateReport:
        reality = scenario.reality
        observations: List[np.ndarray] = []
        expected_counts: Dict[ElementId, int] = {}
        seen_counts: Dict[ElementId, int] = {}

        start = trajectory.pose_at(trajectory.start_time)
        slam.start(start, trajectory.start_time)
        prev_pose = start
        t = trajectory.start_time + frame_dt
        while t <= trajectory.end_time:
            true_pose = trajectory.pose_at(t)
            ds = true_pose.distance_to(prev_pose) * (1 + rng.normal(0, 0.01))
            dtheta = wrapd(true_pose.theta - prev_pose.theta) \
                + float(rng.normal(0, 0.004))
            est_pose = slam.step(t, ds, dtheta,
                                 np.array([true_pose.x, true_pose.y]), rng)
            prev_pose = true_pose

            detections = self.camera.observe_signs(reality, true_pose, rng, t=t)
            det_world = [est_pose.apply(d.body_frame_position())
                         for d in detections]
            expected = [
                s for s in self.prior.landmarks_in_radius(
                    est_pose.x, est_pose.y, self.camera.max_range)
                if isinstance(s, TrafficSign)
                and self.camera.in_view(est_pose, s.position)
            ]
            used = [False] * len(det_world)
            for sign in expected:
                expected_counts[sign.id] = expected_counts.get(sign.id, 0) + 1
                for i, w in enumerate(det_world):
                    if not used[i] and float(np.hypot(*(w - sign.position))) \
                            <= self.match_radius:
                        used[i] = True
                        seen_counts[sign.id] = seen_counts.get(sign.id, 0) + 1
                        break
            observations.extend(w for i, w in enumerate(det_world)
                                if not used[i])
            t += frame_dt

        changes, patch = self._conclude(observations, expected_counts,
                                        seen_counts)
        counts = match_changes(
            changes,
            [c for c in scenario.true_changes
             if c.change_type in (ChangeType.ADDED, ChangeType.REMOVED)],
            radius=self.match_radius * 2,
        )
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        return SignUpdateReport(detected_changes=changes, patch=patch,
                                precision=precision, recall=recall)

    # ------------------------------------------------------------------
    def _conclude(self, observations: List[np.ndarray],
                  expected_counts: Dict[ElementId, int],
                  seen_counts: Dict[ElementId, int]
                  ) -> Tuple[List[MapChange], MapPatch]:
        changes: List[MapChange] = []
        patch = MapPatch(source="atv")
        # Missing signs.
        for sign_id, expected in expected_counts.items():
            seen = seen_counts.get(sign_id, 0)
            if expected >= self.min_observations \
                    and seen <= self.miss_ratio * expected:
                sign = self.prior.get(sign_id)
                assert isinstance(sign, TrafficSign)
                changes.append(MapChange(
                    ChangeType.REMOVED, sign_id,
                    (float(sign.position[0]), float(sign.position[1])),
                ))
                patch.remove(sign_id)
        # New signs.
        if observations:
            from repro.creation.crowdsource import _greedy_cluster

            pts = np.array(observations)
            for members in _greedy_cluster(pts, self.match_radius):
                if len(members) < self.min_observations:
                    continue
                position = pts[members].mean(axis=0)
                eid = self.prior.new_id("sign")
                changes.append(MapChange(
                    ChangeType.ADDED, eid,
                    (float(position[0]), float(position[1])),
                ))
                patch.add(TrafficSign(id=eid, position=position,
                                      sign_type=SignType.SAFETY))
        return changes, patch


def wrapd(angle: float) -> float:
    return float(np.arctan2(np.sin(angle), np.cos(angle)))
