"""Lane-level map matching.

:class:`LaneMatcher` — probabilistic lane-level map matching with an
*integrity* measure (Li et al. [59]): candidate lanes are scored by
lateral distance and heading agreement; integrity is the posterior
probability mass of the best candidate, so the consumer knows when the
match is ambiguous (parallel lanes) versus trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.elements import Lane
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.geometry.transform import SE2
from repro.geometry.vec import wrap_angle


@dataclass(frozen=True)
class LaneMatch:
    """Result of matching a pose to the lane network."""

    lane_id: ElementId
    station: float
    lateral: float
    probability: float  # posterior of this lane among candidates
    integrity: float  # probability margin over the runner-up

    @property
    def ambiguous(self) -> bool:
        return self.integrity < 0.5


class LaneMatcher:
    """Scores candidate lanes around a pose estimate."""

    def __init__(self, hdmap: HDMap, search_radius: float = 10.0,
                 sigma_lateral: float = 1.2,
                 sigma_heading: float = 0.35) -> None:
        self.map = hdmap
        self.search_radius = search_radius
        self.sigma_lateral = sigma_lateral
        self.sigma_heading = sigma_heading

    def candidates(self, pose: SE2) -> List[Tuple[Lane, float, float, float]]:
        """(lane, station, lateral, score) for each nearby lane."""
        out = []
        for element in self.map.elements_in_radius(pose.x, pose.y,
                                                   self.search_radius,
                                                   kind="lane"):
            assert isinstance(element, Lane)
            s, d = element.centerline.project((pose.x, pose.y))
            if abs(d) > self.search_radius:
                continue
            heading_err = wrap_angle(pose.theta
                                     - element.centerline.heading_at(s))
            score = float(
                np.exp(-0.5 * (d / self.sigma_lateral)**2)
                * np.exp(-0.5 * (heading_err / self.sigma_heading)**2)
            )
            out.append((element, s, d, score))
        return out

    def match(self, pose: SE2) -> Optional[LaneMatch]:
        candidates = self.candidates(pose)
        if not candidates:
            return None
        total = sum(score for *_, score in candidates)
        if total <= 0:
            return None
        ranked = sorted(candidates, key=lambda c: -c[3])
        best = ranked[0]
        p_best = best[3] / total
        p_second = ranked[1][3] / total if len(ranked) > 1 else 0.0
        return LaneMatch(
            lane_id=best[0].id,
            station=best[1],
            lateral=best[2],
            probability=p_best,
            integrity=p_best - p_second,
        )

