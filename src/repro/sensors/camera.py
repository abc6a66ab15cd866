"""Camera surrogate: lane, sign, and traffic-light observations.

The surveyed camera systems put a DNN in front of a geometric pipeline; we
model the DNN stage by its operating point (detection probability, false
positives, measurement noise) and emit the *geometric* observations the
downstream pipelines consume:

- :class:`LaneObservation` — lateral offset + relative heading of the
  left/right lane markings (the output of any lane detector, used by
  Maeda [37], Szabó [34], MLVHM [22]);
- :class:`SignDetection` — bearing/range/type of a sign or light in the
  field of view (Dabeer [29], Hirabayashi [33]);
- :class:`LightObservation` — traffic-light colour with a confusion model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.elements import LightState, TrafficLight, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle


@dataclass(frozen=True)
class LaneObservation:
    """Detected lane markings relative to the camera.

    Offsets are signed lateral distances (left positive) from the vehicle
    to each visible marking; ``heading_error`` is the vehicle heading
    relative to the lane direction.
    """

    t: float
    left_offset: Optional[float]
    right_offset: Optional[float]
    heading_error: float

    @property
    def lane_centre_offset(self) -> Optional[float]:
        """Vehicle offset from the lane centre (left positive), if both
        markings were seen."""
        if self.left_offset is None or self.right_offset is None:
            return None
        return -(self.left_offset + self.right_offset) / 2.0


@dataclass(frozen=True)
class SignDetection:
    """One detected sign/light: polar measurement in the body frame."""

    t: float
    bearing: float
    range: float
    sign_type: str
    true_id: Optional[ElementId] = None  # ground-truth link, eval only

    def body_frame_position(self) -> np.ndarray:
        return np.array([self.range * math.cos(self.bearing),
                         self.range * math.sin(self.bearing)])


@dataclass(frozen=True)
class LightObservation:
    t: float
    bearing: float
    range: float
    state: LightState
    true_id: Optional[ElementId] = None


class Camera:
    """Forward camera with a configurable detector operating point."""

    def __init__(self,
                 fov: float = math.radians(100.0),
                 max_range: float = 60.0,
                 detection_prob: float = 0.9,
                 false_positive_rate: float = 0.05,
                 bearing_sigma: float = math.radians(0.6),
                 range_sigma_rel: float = 0.05,
                 lane_offset_sigma: float = 0.08,
                 lane_detection_prob: float = 0.95,
                 light_state_accuracy: float = 0.95) -> None:
        self.fov = fov
        self.max_range = max_range
        self.detection_prob = detection_prob
        self.false_positive_rate = false_positive_rate
        self.bearing_sigma = bearing_sigma
        self.range_sigma_rel = range_sigma_rel
        self.lane_offset_sigma = lane_offset_sigma
        self.lane_detection_prob = lane_detection_prob
        self.light_state_accuracy = light_state_accuracy

    # ------------------------------------------------------------------
    def in_view(self, pose: SE2, position: np.ndarray) -> bool:
        rel = position - np.array([pose.x, pose.y])
        rng_ = float(np.hypot(*rel))
        if not 0.5 < rng_ <= self.max_range:
            return False
        bearing = wrap_angle(math.atan2(rel[1], rel[0]) - pose.theta)
        return abs(bearing) <= self.fov / 2.0

    # ------------------------------------------------------------------
    def observe_lanes(self, hdmap: HDMap, pose: SE2,
                      rng: np.random.Generator,
                      t: float = 0.0) -> Optional[LaneObservation]:
        """Detect the markings of the lane the vehicle occupies."""
        try:
            lane, dist = hdmap.nearest_lane(pose.x, pose.y)
        except Exception:
            return None
        if dist > lane.width:
            return None
        point = np.array([pose.x, pose.y])
        s, lateral = lane.centerline.project(point)
        lane_heading = lane.centerline.heading_at(s)
        heading_error = wrap_angle(pose.theta - lane_heading)

        # Left marking is at +width/2 - lateral to the left of the vehicle.
        left = (lane.width / 2.0) - lateral
        right = -((lane.width / 2.0) + lateral)
        left_obs = (None if rng.uniform() > self.lane_detection_prob
                    else float(left + rng.normal(0.0, self.lane_offset_sigma)))
        right_obs = (None if rng.uniform() > self.lane_detection_prob
                     else float(right + rng.normal(0.0, self.lane_offset_sigma)))
        return LaneObservation(
            t=t,
            left_offset=left_obs,
            right_offset=right_obs,
            heading_error=float(heading_error
                                + rng.normal(0.0, math.radians(0.5))),
        )

    # ------------------------------------------------------------------
    def observe_signs(self, hdmap: HDMap, pose: SE2,
                      rng: np.random.Generator,
                      t: float = 0.0) -> List[SignDetection]:
        detections: List[SignDetection] = []
        for lm in hdmap.landmarks_in_radius(pose.x, pose.y, self.max_range):
            if not isinstance(lm, (TrafficSign, TrafficLight)):
                continue
            if not self.in_view(pose, lm.position):
                continue
            if rng.uniform() > self.detection_prob:
                continue
            rel = lm.position - np.array([pose.x, pose.y])
            true_range = float(np.hypot(*rel))
            bearing = wrap_angle(math.atan2(rel[1], rel[0]) - pose.theta
                                 + rng.normal(0.0, self.bearing_sigma))
            rng_meas = true_range * (1.0 + rng.normal(0.0, self.range_sigma_rel))
            kind = (lm.sign_type.value if isinstance(lm, TrafficSign)
                    else "traffic_light")
            detections.append(SignDetection(
                t=t, bearing=bearing, range=float(rng_meas),
                sign_type=kind, true_id=lm.id,
            ))
        # Clutter: spurious detections uniform in the field of view.
        n_fp = rng.poisson(self.false_positive_rate)
        for _ in range(int(n_fp)):
            detections.append(SignDetection(
                t=t,
                bearing=float(rng.uniform(-self.fov / 2, self.fov / 2)),
                range=float(rng.uniform(5.0, self.max_range)),
                sign_type="speed_limit",
                true_id=None,
            ))
        return detections

    # ------------------------------------------------------------------
    def observe_lights(self, hdmap: HDMap, pose: SE2,
                       rng: np.random.Generator,
                       t: float = 0.0) -> List[LightObservation]:
        out: List[LightObservation] = []
        states = [LightState.RED, LightState.YELLOW, LightState.GREEN]
        for lm in hdmap.landmarks_in_radius(pose.x, pose.y, self.max_range):
            if not isinstance(lm, TrafficLight):
                continue
            if not self.in_view(pose, lm.position):
                continue
            if rng.uniform() > self.detection_prob:
                continue
            rel = lm.position - np.array([pose.x, pose.y])
            true_state = lm.state_at(t)
            if rng.uniform() < self.light_state_accuracy:
                state = true_state
            else:
                others = [s for s in states if s is not true_state]
                state = others[int(rng.integers(0, len(others)))]
            out.append(LightObservation(
                t=t,
                bearing=wrap_angle(math.atan2(rel[1], rel[0]) - pose.theta
                                   + rng.normal(0.0, self.bearing_sigma)),
                range=float(np.hypot(*rel)
                            * (1.0 + rng.normal(0.0, self.range_sigma_rel))),
                state=state,
                true_id=lm.id,
            ))
        return out
