"""Visual-SLAM surrogate for the factory ATV.

Full visual SLAM is out of scope for the planar substrate; what the sign-
update framework [11] needs from it is a drift-bounded pose estimate
indoors. The surrogate integrates odometry and
periodically re-anchors against known dock/landmark positions (the loop-
closure events a visual SLAM would produce), yielding the bounded-error
pose track the update pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle


@dataclass
class SlamPose:
    t: float
    pose: SE2
    anchored: bool  # True right after a loop-closure correction


class VisualSlam:
    """Odometry integration with landmark re-anchoring."""

    def __init__(self, anchors: Sequence[np.ndarray],
                 anchor_radius: float = 3.0,
                 anchor_sigma: float = 0.05,
                 blend: float = 0.7) -> None:
        self.anchors = [np.asarray(a, dtype=float) for a in anchors]
        self.anchor_radius = anchor_radius
        self.anchor_sigma = anchor_sigma
        self.blend = blend
        self._pose: Optional[SE2] = None
        self.track: List[SlamPose] = []

    def start(self, pose: SE2, t: float = 0.0) -> None:
        self._pose = pose
        self.track = [SlamPose(t, pose, anchored=True)]

    def step(self, t: float, ds: float, dtheta: float,
             true_position: Optional[np.ndarray],
             rng: np.random.Generator) -> SE2:
        """Integrate one odometry increment; re-anchor when near an anchor.

        ``true_position`` is the ground-truth position used to *generate*
        the loop-closure observation (the SLAM front end would measure it
        visually); pass None when unknown.
        """
        if self._pose is None:
            raise RuntimeError("call start() first")
        mid = self._pose.theta + dtheta / 2.0
        pose = SE2(self._pose.x + ds * np.cos(mid),
                   self._pose.y + ds * np.sin(mid),
                   wrap_angle(self._pose.theta + dtheta))
        anchored = False
        if true_position is not None:
            for anchor in self.anchors:
                if float(np.hypot(*(true_position - anchor))) <= self.anchor_radius:
                    observed = true_position + rng.normal(
                        0.0, self.anchor_sigma, size=2)
                    pose = SE2(
                        (1 - self.blend) * pose.x + self.blend * observed[0],
                        (1 - self.blend) * pose.y + self.blend * observed[1],
                        pose.theta,
                    )
                    anchored = True
                    break
        self._pose = pose
        self.track.append(SlamPose(t, pose, anchored))
        return pose

    @property
    def pose(self) -> SE2:
        if self._pose is None:
            raise RuntimeError("SLAM not started")
        return self._pose
