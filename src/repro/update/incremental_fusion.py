"""Incremental map-element fusion (Liu et al. [43]).

Each map element carries a position estimate, a covariance, and a semantic
confidence. New measurements fuse by Kalman update; confidence grows with
agreeing evidence and *decays with time*, so a stale element loses weight
and the map adapts quickly when the world shifts. Unmatched measurements
are kept in a feedback buffer for future matching instead of being thrown
away — both behaviours straight from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.ids import ElementId


@dataclass
class FusedElement:
    """One tracked map element."""

    element_id: ElementId
    position: np.ndarray
    covariance: np.ndarray  # (2, 2)
    confidence: float
    last_update_time: float

    def position_sigma(self) -> float:
        return float(np.sqrt(0.5 * np.trace(self.covariance)))


@dataclass
class _PendingMeasurement:
    position: np.ndarray
    sigma: float
    t: float


class IncrementalFuser:
    """Kalman fusion + confidence dynamics + time decay + feedback buffer."""

    def __init__(self, decay_per_second: float = 0.002,
                 confidence_gain: float = 0.12,
                 confidence_loss: float = 0.2,
                 match_radius: float = 2.5,
                 promote_after: int = 3,
                 drop_confidence: float = 0.15,
                 use_time_decay: bool = True) -> None:
        self.decay_per_second = decay_per_second
        self.confidence_gain = confidence_gain
        self.confidence_loss = confidence_loss
        self.match_radius = match_radius
        self.promote_after = promote_after
        self.drop_confidence = drop_confidence
        self.use_time_decay = use_time_decay
        self.elements: Dict[ElementId, FusedElement] = {}
        self._feedback: List[_PendingMeasurement] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def seed(self, element_id: ElementId, position: np.ndarray,
             sigma: float, t: float, confidence: float = 0.6) -> None:
        """Install a prior-map element."""
        self.elements[element_id] = FusedElement(
            element_id=element_id,
            position=np.asarray(position, dtype=float),
            covariance=np.eye(2) * sigma**2,
            confidence=confidence,
            last_update_time=t,
        )

    # ------------------------------------------------------------------
    def observe(self, position: np.ndarray, sigma: float, t: float) -> None:
        """Fuse one measurement (or buffer it if unmatched)."""
        position = np.asarray(position, dtype=float)
        match = self._match(position)
        if match is None:
            self._feedback.append(_PendingMeasurement(position, sigma, t))
            self._try_promote(t)
            return
        element = match
        self._apply_decay(element, t)
        # Kalman update with measurement covariance sigma^2 I.
        S = element.covariance + np.eye(2) * sigma**2
        K = element.covariance @ np.linalg.inv(S)
        innovation = position - element.position
        element.position = element.position + K @ innovation
        element.covariance = (np.eye(2) - K) @ element.covariance
        element.covariance = (element.covariance + element.covariance.T) / 2.0
        # Confidence: grow on agreement, shrink on big innovation.
        if float(np.hypot(*innovation)) <= self.match_radius / 2.0:
            element.confidence = min(1.0, element.confidence
                                     + self.confidence_gain)
        else:
            element.confidence = max(0.0, element.confidence
                                     - self.confidence_loss)
        element.last_update_time = t

    def miss(self, element_id: ElementId, t: float) -> None:
        """An expected element was not observed."""
        element = self.elements.get(element_id)
        if element is None:
            return
        self._apply_decay(element, t)
        element.confidence = max(0.0, element.confidence
                                 - self.confidence_loss)
        element.last_update_time = t

    # ------------------------------------------------------------------
    def prune(self) -> List[ElementId]:
        """Drop elements whose confidence collapsed; returns the ids."""
        dead = [eid for eid, e in self.elements.items()
                if e.confidence < self.drop_confidence]
        for eid in dead:
            del self.elements[eid]
        return dead

    # ------------------------------------------------------------------
    def _match(self, position: np.ndarray) -> Optional[FusedElement]:
        best = None
        best_d = self.match_radius
        for element in self.elements.values():
            d = float(np.hypot(*(element.position - position)))
            if d < best_d:
                best, best_d = element, d
        return best

    def _apply_decay(self, element: FusedElement, t: float) -> None:
        if not self.use_time_decay:
            return
        dt = max(0.0, t - element.last_update_time)
        element.confidence = max(
            0.0, element.confidence - self.decay_per_second * dt)
        # Stale position knowledge also loosens.
        element.covariance = element.covariance + np.eye(2) * (1e-5 * dt)

    def _try_promote(self, t: float) -> None:
        """Promote a cluster of buffered measurements into a new element."""
        if len(self._feedback) < self.promote_after:
            return
        pts = np.array([m.position for m in self._feedback])
        for i, anchor in enumerate(self._feedback):
            d = np.hypot(pts[:, 0] - anchor.position[0],
                         pts[:, 1] - anchor.position[1])
            members = np.where(d <= self.match_radius)[0]
            if members.size >= self.promote_after:
                position = pts[members].mean(axis=0)
                eid = ElementId("fused", self._next_id)
                self._next_id += 1
                sigma = float(np.mean([self._feedback[j].sigma
                                       for j in members]))
                self.seed(eid, position, sigma / np.sqrt(members.size), t,
                          confidence=0.5)
                self._feedback = [m for j, m in enumerate(self._feedback)
                                  if j not in set(members.tolist())]
                return
