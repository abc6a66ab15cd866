"""Decentralized cooperative localization with local dynamic maps
(Hery et al. [55]).

Vehicles exchange LDM messages — their pose estimate, covariance, and
relative observations of each other. Because exchanged estimates share
error sources, naive fusion is overconfident; covariance intersection
handles the unknown correlation, and a GNSS-bias estimator anchored on
geo-referenced HD-map features removes the common-mode bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sensors.gnss import GnssFix


@dataclass(frozen=True)
class LdmMessage:
    """One broadcast: sender's estimate + its observation of the receiver."""

    sender_id: int
    position: np.ndarray  # sender's own position estimate
    covariance: np.ndarray  # (2, 2)
    relative_to_receiver: np.ndarray  # receiver position - sender position, measured
    relative_sigma: float


def covariance_intersection(mean_a: np.ndarray, cov_a: np.ndarray,
                            mean_b: np.ndarray, cov_b: np.ndarray,
                            omega_steps: int = 11
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """CI fusion of two estimates with unknown cross-correlation.

    Chooses the convex weight minimizing the fused covariance trace.
    """
    best = None
    for omega in np.linspace(0.05, 0.95, omega_steps):
        info = omega * np.linalg.inv(cov_a) + (1 - omega) * np.linalg.inv(cov_b)
        cov = np.linalg.inv(info)
        mean = cov @ (omega * np.linalg.solve(cov_a, mean_a)
                      + (1 - omega) * np.linalg.solve(cov_b, mean_b))
        trace = float(np.trace(cov))
        if best is None or trace < best[0]:
            best = (trace, mean, cov)
    assert best is not None
    return best[1], best[2]


class BiasEstimator:
    """Estimates the common GNSS bias from geo-referenced map features.

    Whenever the vehicle observes a mapped landmark (known world position)
    at a measured body-frame offset, the discrepancy between
    ``gnss_position + offset`` and the landmark's map position is a direct
    sample of the GNSS bias; an exponential average tracks it.
    """

    def __init__(self, alpha: float = 0.15) -> None:
        self.alpha = alpha
        self.bias = np.zeros(2)
        self.n_samples = 0

    def observe(self, gnss_position: np.ndarray, measured_world_offset: np.ndarray,
                landmark_position: np.ndarray) -> None:
        sample = (gnss_position + measured_world_offset) - landmark_position
        if self.n_samples == 0:
            self.bias = sample.astype(float)
        else:
            self.bias = (1 - self.alpha) * self.bias + self.alpha * sample
        self.n_samples += 1

    def correct(self, position: np.ndarray) -> np.ndarray:
        return position - self.bias


class CooperativeLocalizer:
    """One vehicle's cooperative position estimator."""

    def __init__(self, vehicle_id: int, initial: np.ndarray,
                 sigma: float = 2.0, use_bias_estimator: bool = True) -> None:
        self.vehicle_id = vehicle_id
        self.mean = np.asarray(initial, dtype=float)
        self.cov = np.eye(2) * sigma**2
        self.bias_estimator = BiasEstimator() if use_bias_estimator else None

    # ------------------------------------------------------------------
    def update_gnss(self, fix: GnssFix) -> None:
        position = fix.position
        if self.bias_estimator is not None:
            position = self.bias_estimator.correct(position)
        R = np.eye(2) * fix.sigma**2
        S = self.cov + R
        K = self.cov @ np.linalg.inv(S)
        self.mean = self.mean + K @ (position - self.mean)
        self.cov = (np.eye(2) - K) @ self.cov
        self.cov = (self.cov + self.cov.T) / 2.0

    def observe_map_feature(self, raw_gnss: np.ndarray,
                            measured_world_offset: np.ndarray,
                            landmark_position: np.ndarray) -> None:
        if self.bias_estimator is not None:
            self.bias_estimator.observe(raw_gnss, measured_world_offset,
                                        landmark_position)

    def receive(self, message: LdmMessage) -> None:
        """Fuse a neighbour's estimate of *our* position via CI."""
        remote_mean = message.position + message.relative_to_receiver
        remote_cov = message.covariance + np.eye(2) * message.relative_sigma**2
        self.mean, self.cov = covariance_intersection(
            self.mean, self.cov, remote_mean, remote_cov)

    def broadcast(self, true_relative: np.ndarray, relative_sigma: float,
                  rng: np.random.Generator, receiver_id: int) -> LdmMessage:
        """Create the message this vehicle sends about a neighbour."""
        measured = true_relative + rng.normal(0.0, relative_sigma, size=2)
        return LdmMessage(
            sender_id=self.vehicle_id,
            position=self.mean.copy(),
            covariance=self.cov.copy(),
            relative_to_receiver=measured,
            relative_sigma=relative_sigma,
        )

    def predict(self, delta: np.ndarray, sigma: float) -> None:
        self.mean = self.mean + np.asarray(delta, dtype=float)
        self.cov = self.cov + np.eye(2) * sigma**2

    def error_to(self, truth: np.ndarray) -> float:
        return float(np.hypot(*(self.mean - truth)))
