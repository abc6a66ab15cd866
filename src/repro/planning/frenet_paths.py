"""Lane-coordinate path-set planning with inertia-like selection
(Jian et al. [52]).

Step 1 (*path set generation*): candidate paths are quintic lateral
profiles in the Frenet frame of the HD-map lane, ending at a fan of
terminal lateral offsets — vehicle kinematics are respected by bounding
the implied curvature. Step 2 (*path selection*): each candidate is scored
on obstacle clearance, lateral deviation, smoothness, and an *inertia*
term that prefers staying close to the previously selected path, which is
what keeps the vehicle from flip-flopping between alternatives frame to
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanningError
from repro.geometry.frenet import FrenetFrame
from repro.geometry.polyline import Polyline


@dataclass
class FrenetPath:
    """A candidate path: lateral profile over stations."""

    stations: np.ndarray
    laterals: np.ndarray
    terminal_offset: float
    cost: float = 0.0

@dataclass
class PlannerConfig:
    horizon: float = 60.0  # planning distance, metres
    n_candidates: int = 11
    max_offset: float = 3.0  # fan half-width, metres
    station_step: float = 2.0
    max_curvature: float = 0.2  # 1/m kinematic bound
    w_obstacle: float = 10.0
    w_deviation: float = 0.6
    w_smoothness: float = 2.0
    w_inertia: float = 1.0
    clearance: float = 1.2  # required obstacle clearance, metres


def quintic_lateral(d0: float, d1: float, stations: np.ndarray,
                    horizon: float, settle_fraction: float = 0.55
                    ) -> np.ndarray:
    """Quintic profile from (d0, 0 slope) to (d1, 0 slope).

    The transition completes at ``settle_fraction`` of the horizon and
    holds — a lane-change manoeuvre finishes well before the planning
    horizon so the candidate actually clears mid-horizon obstacles.
    """
    tau = np.clip(stations / (horizon * settle_fraction), 0.0, 1.0)
    blend = 10 * tau**3 - 15 * tau**4 + 6 * tau**5
    return d0 + (d1 - d0) * blend


class PathSetPlanner:
    """Generate-then-select planner in the lane Frenet frame."""

    def __init__(self, reference: Polyline,
                 config: PlannerConfig = PlannerConfig()) -> None:
        self.frame = FrenetFrame(reference)
        self.config = config
        self._last_choice: Optional[float] = None

    # ------------------------------------------------------------------
    def generate(self, s0: float, d0: float) -> List[FrenetPath]:
        cfg = self.config
        s1 = min(s0 + cfg.horizon, self.frame.length)
        if s1 - s0 < cfg.station_step * 2:
            raise PlanningError("reference too short for the horizon")
        stations = np.arange(s0, s1, cfg.station_step)
        offsets = np.linspace(-cfg.max_offset, cfg.max_offset,
                              cfg.n_candidates)
        paths = []
        for d1 in offsets:
            laterals = quintic_lateral(d0, float(d1), stations - s0, s1 - s0)
            if self._max_curvature(stations, laterals) > cfg.max_curvature:
                continue
            paths.append(FrenetPath(stations=stations, laterals=laterals,
                                    terminal_offset=float(d1)))
        if not paths:
            raise PlanningError("no kinematically feasible candidate")
        return paths

    def _max_curvature(self, stations: np.ndarray,
                       laterals: np.ndarray) -> float:
        # Path curvature ~ |d''| for small offsets plus reference curvature.
        dd = np.gradient(np.gradient(laterals, stations), stations)
        ref_k = max(abs(self.frame.curvature_at(float(s)))
                    for s in stations[:: max(1, len(stations) // 8)])
        return float(np.abs(dd).max()) + ref_k

    # ------------------------------------------------------------------
    def select(self, paths: Sequence[FrenetPath],
               obstacles: Sequence[Tuple[float, float]] = ()) -> FrenetPath:
        """Score candidates; obstacles are (station, lateral) points."""
        cfg = self.config
        best: Optional[FrenetPath] = None
        for path in paths:
            clearance_cost = 0.0
            blocked = False
            for s_ob, d_ob in obstacles:
                mask = np.abs(path.stations - s_ob) <= 6.0
                if not mask.any():
                    continue
                gap = float(np.min(np.abs(path.laterals[mask] - d_ob)))
                if gap < cfg.clearance:
                    blocked = True
                    break
                clearance_cost += 1.0 / max(gap - cfg.clearance + 0.2, 0.2)
            if blocked:
                continue
            deviation = float(np.mean(path.laterals**2))
            smoothness = float(np.mean(np.gradient(path.laterals,
                                                   path.stations)**2))
            inertia = 0.0
            if self._last_choice is not None:
                inertia = (path.terminal_offset - self._last_choice)**2
            path.cost = (cfg.w_obstacle * clearance_cost
                         + cfg.w_deviation * deviation
                         + cfg.w_smoothness * smoothness
                         + cfg.w_inertia * inertia)
            if best is None or path.cost < best.cost:
                best = path
        if best is None:
            raise PlanningError("every candidate is blocked")
        self._last_choice = best.terminal_offset
        return best

    def plan(self, s0: float, d0: float,
             obstacles: Sequence[Tuple[float, float]] = ()) -> FrenetPath:
        return self.select(self.generate(s0, d0), obstacles)
