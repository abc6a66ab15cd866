"""Predictive cruise control with HD-map slope data (Chu et al. [61]).

The HD map carries the elevation profile ahead; PCC optimizes the speed
trajectory over a receding horizon to spend fuel where it pays (before
climbs) and coast where gravity helps — the paper reports 8.73 % fuel
saving over a 370 km route versus a factory adaptive cruise control that
holds speed constant.

The optimizer is dynamic programming over a (station, speed) grid — the
"fast solver" role of the paper's shift-map-guided MPC — against a
physics-based longitudinal fuel model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.world.elevation import ElevationProfile

GRAVITY = 9.81
AIR_DENSITY = 1.2


@dataclass
class FuelModel:
    """Willans-line style fuel model for a heavy passenger vehicle."""

    mass: float = 1800.0  # kg
    drag_area: float = 0.70  # Cd * A, m^2
    rolling: float = 0.009
    idle_rate: float = 0.00025  # L/s at zero power
    fuel_per_joule: float = 8.2e-8  # L/J of positive tractive work
    regen_fraction: float = 0.0  # no recuperation on a combustion car
    max_power: float = 120e3  # W
    max_brake_decel: float = 3.0  # m/s^2

    def tractive_force(self, speed: float, accel: float,
                       slope: float) -> float:
        resist = (0.5 * AIR_DENSITY * self.drag_area * speed * speed
                  + self.mass * GRAVITY * (self.rolling + slope))
        return self.mass * accel + resist

    def fuel_rate(self, speed: float, accel: float, slope: float) -> float:
        """Litres per second at the given operating point."""
        force = self.tractive_force(speed, accel, slope)
        power = force * speed
        if power <= 0.0:
            return self.idle_rate  # fuel cut / idling on overrun
        return self.idle_rate + self.fuel_per_joule * power

    def feasible(self, speed: float, accel: float, slope: float) -> bool:
        force = self.tractive_force(speed, accel, slope)
        power = force * speed
        if power > self.max_power:
            return False
        return accel >= -self.max_brake_decel


@dataclass
class PccResult:
    stations: np.ndarray
    speeds: np.ndarray
    fuel_litres: float
    travel_time: float

    def mean_speed(self) -> float:
        return float((self.stations[-1] - self.stations[0])
                     / max(self.travel_time, 1e-9))


def simulate_fuel(profile: ElevationProfile, stations: np.ndarray,
                  speeds: np.ndarray, model: FuelModel) -> Tuple[float, float]:
    """Integrate fuel and time for a speed profile over the elevation."""
    fuel = 0.0
    time_s = 0.0
    for i in range(len(stations) - 1):
        ds = float(stations[i + 1] - stations[i])
        v0, v1 = float(speeds[i]), float(speeds[i + 1])
        v_mid = max(0.5, (v0 + v1) / 2.0)
        accel = (v1 * v1 - v0 * v0) / (2.0 * ds)
        slope = profile.slope_at(float(stations[i]) + ds / 2.0)
        dt = ds / v_mid
        fuel += model.fuel_rate(v_mid, accel, slope) * dt
        time_s += dt
    return fuel, time_s


def constant_speed_profile(profile: ElevationProfile, speed: float,
                           step: float = 100.0
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """The factory-ACC baseline: hold the set speed everywhere."""
    stations = np.arange(0.0, profile.length + step, step)
    stations = np.clip(stations, 0.0, profile.length)
    return stations, np.full(stations.size, speed)


class PccPlanner:
    """DP speed optimization over the (station, speed) grid."""

    def __init__(self, model: Optional[FuelModel] = None,
                 speed_band: float = 0.12,
                 n_speed_levels: int = 13,
                 station_step: float = 100.0,
                 time_penalty_litres_per_s: float = 0.0003) -> None:
        self.model = model if model is not None else FuelModel()
        self.speed_band = speed_band
        self.n_speed_levels = n_speed_levels
        self.station_step = station_step
        self.time_penalty = time_penalty_litres_per_s

    def plan(self, profile: ElevationProfile, set_speed: float) -> PccResult:
        """Optimal speed profile holding mean speed near ``set_speed``.

        Speeds are restricted to a band around the set speed (the paper's
        comfort/arrival-time constraint), so savings come from *when* to
        speed up, not from driving slower overall; a time penalty keeps
        the DP from exploiting the slow edge of the band.
        """
        model = self.model
        stations = np.arange(0.0, profile.length + self.station_step,
                             self.station_step)
        stations = np.clip(stations, 0.0, profile.length)
        n = stations.size
        if n < 3:
            raise PlanningError("profile too short")
        speeds = set_speed * np.linspace(1.0 - self.speed_band,
                                         1.0 + self.speed_band,
                                         self.n_speed_levels)
        n_v = speeds.size
        cost = np.full((n, n_v), np.inf)
        parent = np.zeros((n, n_v), dtype=int)
        start_idx = int(np.argmin(np.abs(speeds - set_speed)))
        cost[0, start_idx] = 0.0
        for i in range(n - 1):
            ds = float(stations[i + 1] - stations[i])
            if ds <= 0:
                cost[i + 1] = cost[i]
                continue
            slope = profile.slope_at(float(stations[i]) + ds / 2.0)
            for j in range(n_v):
                if not np.isfinite(cost[i, j]):
                    continue
                v0 = float(speeds[j])
                for k in range(max(0, j - 2), min(n_v, j + 3)):
                    v1 = float(speeds[k])
                    accel = (v1 * v1 - v0 * v0) / (2.0 * ds)
                    if not model.feasible((v0 + v1) / 2.0, accel, slope):
                        continue
                    v_mid = (v0 + v1) / 2.0
                    dt = ds / v_mid
                    step_cost = (model.fuel_rate(v_mid, accel, slope) * dt
                                 + self.time_penalty * dt)
                    if cost[i, j] + step_cost < cost[i + 1, k]:
                        cost[i + 1, k] = cost[i, j] + step_cost
                        parent[i + 1, k] = j
        final = int(np.argmin(cost[n - 1]))
        if not np.isfinite(cost[n - 1, final]):
            raise PlanningError("DP found no feasible speed profile")
        idx = np.zeros(n, dtype=int)
        idx[n - 1] = final
        for i in range(n - 1, 0, -1):
            idx[i - 1] = parent[i, idx[i]]
        speed_profile = speeds[idx]
        fuel, time_s = simulate_fuel(profile, stations, speed_profile, model)
        return PccResult(stations=stations, speeds=speed_profile,
                         fuel_litres=fuel, travel_time=time_s)
