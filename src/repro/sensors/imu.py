"""IMU model: yaw-rate and longitudinal acceleration with bias drift."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.geometry.vec import wrap_angle
from repro.sensors.base import IMU_NOISE_BY_GRADE, ImuNoise, SensorGrade
from repro.world.traffic import Trajectory


@dataclass(frozen=True)
class ImuReading:
    t: float
    yaw_rate: float  # rad/s
    accel: float  # longitudinal m/s^2


class ImuSensor:
    """Samples yaw-rate/acceleration along a trajectory with bias drift."""

    def __init__(self, grade: SensorGrade = SensorGrade.AUTOMOTIVE,
                 rate_hz: float = 20.0,
                 noise: Optional[ImuNoise] = None) -> None:
        self.grade = grade
        self.rate_hz = rate_hz
        self.noise = noise if noise is not None else IMU_NOISE_BY_GRADE[grade]

    def measure(self, trajectory: Trajectory,
                rng: np.random.Generator) -> List[ImuReading]:
        dt = 1.0 / self.rate_hz
        noise = self.noise
        gyro_bias = 0.0
        readings: List[ImuReading] = []
        t = trajectory.start_time
        prev_pose = trajectory.pose_at(t)
        prev_speed = trajectory.samples[0].speed
        while t + dt <= trajectory.end_time:
            pose = trajectory.pose_at(t + dt)
            true_yaw_rate = wrap_angle(pose.theta - prev_pose.theta) / dt
            speed_now = _speed_at(trajectory, t + dt)
            true_accel = (speed_now - prev_speed) / dt
            gyro_bias += rng.normal(0.0, noise.gyro_bias_sigma) * np.sqrt(dt)
            readings.append(ImuReading(
                t=float(t + dt),
                yaw_rate=true_yaw_rate + gyro_bias + float(rng.normal(0, noise.gyro_sigma)),
                accel=true_accel + float(rng.normal(0, noise.accel_sigma)),
            ))
            prev_pose = pose
            prev_speed = speed_now
            t += dt
        return readings


def _speed_at(trajectory: Trajectory, t: float) -> float:
    times = np.array([s.t for s in trajectory.samples])
    speeds = np.array([s.speed for s in trajectory.samples])
    return float(np.interp(t, times, speeds))

