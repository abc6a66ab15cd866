"""Frenet (station/lateral) frames anchored to a reference polyline.

Lane-level planners in the survey (Jian et al. [52]) generate candidate
paths in the lane coordinate system; this module provides the Cartesian <->
Frenet conversion they need.
"""

from __future__ import annotations


from repro.geometry.polyline import Polyline


class FrenetFrame:
    """Cartesian <-> Frenet conversion along a reference polyline."""

    def __init__(self, reference: Polyline) -> None:
        self._ref = reference

    @property
    def reference(self) -> Polyline:
        return self._ref

    @property
    def length(self) -> float:
        return self._ref.length

    def heading_at(self, s: float) -> float:
        return self._ref.heading_at(s)

    def curvature_at(self, s: float) -> float:
        return self._ref.curvature_at(s)
