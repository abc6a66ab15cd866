"""Rule-aware longitudinal behavior: the regulatory layer in action.

The survey's relational layer exists so a machine consumer can *obey* the
map: speed limits (possibly tightened by regulatory elements), traffic
lights, stop signs, and a safe gap to the lead vehicle. ``BehaviorPlanner``
turns the map's rules plus the perceived scene into a target speed via an
IDM-style longitudinal law — the "driving decisions in real time" the
survey's perception section feeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.elements import Lane, LightState, SignType, TrafficLight, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.transform import SE2


class BehaviorState(enum.Enum):
    CRUISE = "cruise"
    FOLLOW = "follow"
    STOPPING_LIGHT = "stopping_light"
    STOPPING_SIGN = "stopping_sign"


@dataclass
class BehaviorDecision:
    state: BehaviorState
    target_speed: float
    reason: str
    stop_distance: Optional[float] = None  # metres to the stop point


@dataclass
class LeadVehicle:
    gap: float  # bumper distance along the lane, metres
    speed: float


class BehaviorPlanner:
    """Map-rule + scene -> target speed."""

    def __init__(self, hdmap: HDMap,
                 comfortable_decel: float = 2.0,
                 time_headway: float = 1.6,
                 min_gap: float = 4.0,
                 light_lookahead: float = 80.0,
                 sign_lookahead: float = 40.0,
                 light_lateral_gate: float = 15.0) -> None:
        self.map = hdmap
        self.comfortable_decel = comfortable_decel
        self.time_headway = time_headway
        self.min_gap = min_gap
        self.light_lookahead = light_lookahead
        self.sign_lookahead = sign_lookahead
        self.light_lateral_gate = light_lateral_gate

    # ------------------------------------------------------------------
    def decide(self, pose: SE2, speed: float, t: float,
               lead: Optional[LeadVehicle] = None) -> BehaviorDecision:
        lane, _ = self.map.nearest_lane(pose.x, pose.y)
        limit = self.map.effective_speed_limit(lane.id)
        s, _ = lane.centerline.project(np.array([pose.x, pose.y]))

        # Red/yellow light ahead on this lane?
        stop = self._next_stop(lane, s, t)
        if stop is not None:
            distance, why, state = stop
            target = self._speed_for_stop(speed, distance)
            return BehaviorDecision(state=state,
                                    target_speed=min(target, limit),
                                    reason=why, stop_distance=distance)

        # Lead vehicle?
        if lead is not None:
            desired_gap = self.min_gap + self.time_headway * speed
            if lead.gap < desired_gap * 1.5:
                target = self._idm_speed(speed, limit, lead)
                return BehaviorDecision(state=BehaviorState.FOLLOW,
                                        target_speed=target,
                                        reason=f"lead at {lead.gap:.0f} m")

        return BehaviorDecision(state=BehaviorState.CRUISE,
                                target_speed=limit,
                                reason=f"limit {limit * 3.6:.0f} km/h")

    # ------------------------------------------------------------------
    def _next_stop(self, lane: Lane, s: float, t: float
                   ) -> Optional[Tuple[float, str, BehaviorState]]:
        """Distance to the nearest red light / stop sign ahead, if any."""
        ahead_end = min(lane.length, s + self.light_lookahead)
        if ahead_end - s < 1.0:
            return None
        probe = lane.centerline.point_at(ahead_end)
        centre_x = (probe[0] + lane.centerline.point_at(s)[0]) / 2.0
        centre_y = (probe[1] + lane.centerline.point_at(s)[1]) / 2.0
        radius = self.light_lookahead / 2.0 + self.light_lateral_gate
        best: Optional[Tuple[float, str, BehaviorState]] = None
        for lm in self.map.landmarks_in_radius(centre_x, centre_y, radius):
            if isinstance(lm, TrafficLight):
                state = lm.state_at(t)
                if state is LightState.GREEN:
                    continue
                s_lm, d_lm = lane.centerline.project(lm.position)
                if not (s < s_lm <= s + self.light_lookahead):
                    continue
                if abs(d_lm) > self.light_lateral_gate:
                    continue
                distance = s_lm - s
                if best is None or distance < best[0]:
                    best = (distance, f"{state.value} light in {distance:.0f} m",
                            BehaviorState.STOPPING_LIGHT)
            elif isinstance(lm, TrafficSign) and lm.sign_type is SignType.STOP:
                s_lm, d_lm = lane.centerline.project(lm.position)
                if not (s < s_lm <= s + self.sign_lookahead):
                    continue
                if abs(d_lm) > self.light_lateral_gate:
                    continue
                distance = s_lm - s
                if best is None or distance < best[0]:
                    best = (distance, f"stop sign in {distance:.0f} m",
                            BehaviorState.STOPPING_SIGN)
        return best

    def _speed_for_stop(self, speed: float, distance: float) -> float:
        """Comfortable-deceleration speed envelope to a stop point."""
        margin = max(distance - 2.0, 0.0)
        return float(np.sqrt(2.0 * self.comfortable_decel * margin))

    def _idm_speed(self, speed: float, limit: float,
                   lead: LeadVehicle) -> float:
        """Intelligent-driver-model-flavoured following speed."""
        desired_gap = (self.min_gap + self.time_headway * speed
                       + speed * max(0.0, speed - lead.speed)
                       / (2.0 * np.sqrt(self.comfortable_decel * 2.0)))
        ratio = np.clip(lead.gap / max(desired_gap, 1e-6), 0.0, 2.0)
        target = limit * (1.0 - np.exp(-ratio)) + lead.speed * np.exp(-ratio)
        return float(np.clip(target, 0.0, limit))


def simulate_approach(planner: BehaviorPlanner, lane_id: ElementId,
                      t0: float, dt: float = 0.5,
                      initial_speed: float = 10.0,
                      max_steps: int = 400) -> List[Tuple[float, float, BehaviorDecision]]:
    """Roll a vehicle down a lane under the planner; returns (s, v, decision).

    Speed tracks the decision's target with bounded accel/decel.
    """
    lane = planner.map.get(lane_id)
    assert isinstance(lane, Lane)
    s = 0.0
    v = initial_speed
    t = t0
    history = []
    for _ in range(max_steps):
        if s >= lane.length - 0.5:
            break
        point = lane.centerline.point_at(s)
        pose = SE2(float(point[0]), float(point[1]),
                   lane.centerline.heading_at(s))
        decision = planner.decide(pose, v, t)
        accel = np.clip((decision.target_speed - v) / dt, -4.0, 2.0)
        v = max(0.0, v + accel * dt)
        s += v * dt
        t += dt
        history.append((s, v, decision))
        if v < 0.05 and decision.state in (BehaviorState.STOPPING_LIGHT,
                                           BehaviorState.STOPPING_SIGN):
            # Hold at the stop until the light turns (or break for signs).
            if decision.state is BehaviorState.STOPPING_SIGN:
                break
    return history
