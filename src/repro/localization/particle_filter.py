"""Generic SE(2) particle filter.

The workhorse behind half the surveyed localization systems ([23], [42],
[48], [53], [59]): predict with odometry, weight with an arbitrary
measurement model, systematic resampling when the effective sample size
drops.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import LocalizationError
from repro.geometry.transform import SE2

WeightFn = Callable[[np.ndarray], np.ndarray]


class ParticleFilter2D:
    """Particles are ``(N, 3)`` rows of ``[x, y, theta]``."""

    def __init__(self, n_particles: int, rng: np.random.Generator) -> None:
        if n_particles < 2:
            raise LocalizationError("need at least 2 particles")
        self.n = n_particles
        self.rng = rng
        self.states = np.zeros((n_particles, 3))
        self.weights = np.full(n_particles, 1.0 / n_particles)

    # ------------------------------------------------------------------
    def init_gaussian(self, pose: SE2, sigma_xy: float,
                      sigma_theta: float) -> None:
        self.states[:, 0] = pose.x + self.rng.normal(0, sigma_xy, self.n)
        self.states[:, 1] = pose.y + self.rng.normal(0, sigma_xy, self.n)
        self.states[:, 2] = pose.theta + self.rng.normal(0, sigma_theta, self.n)
        self.weights[:] = 1.0 / self.n

    # ------------------------------------------------------------------
    def predict(self, ds: float, dtheta: float,
                sigma_ds: float = 0.05, sigma_dtheta: float = 0.01) -> None:
        """Body-frame motion increment with additive noise per particle."""
        ds_n = ds + self.rng.normal(0.0, max(sigma_ds, 1e-6), self.n)
        dth_n = dtheta + self.rng.normal(0.0, max(sigma_dtheta, 1e-6), self.n)
        theta_mid = self.states[:, 2] + dth_n / 2.0
        self.states[:, 0] += ds_n * np.cos(theta_mid)
        self.states[:, 1] += ds_n * np.sin(theta_mid)
        self.states[:, 2] = np.mod(self.states[:, 2] + dth_n + np.pi,
                                   2 * np.pi) - np.pi

    # ------------------------------------------------------------------
    def update(self, weight_fn: WeightFn, floor: float = 1e-12) -> None:
        """Multiply weights by the likelihoods ``weight_fn(states)``."""
        likelihood = np.asarray(weight_fn(self.states), dtype=float)
        if likelihood.shape != (self.n,):
            raise LocalizationError(
                f"weight_fn returned shape {likelihood.shape}, expected ({self.n},)"
            )
        self.weights *= np.maximum(likelihood, floor)
        total = self.weights.sum()
        if not np.isfinite(total) or total <= 0:
            # Degenerate update: reset to uniform rather than dividing by 0.
            self.weights[:] = 1.0 / self.n
        else:
            self.weights /= total

    # ------------------------------------------------------------------
    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self.weights**2))

    def resample_if_needed(self, threshold_ratio: float = 0.5) -> bool:
        if self.effective_sample_size() < threshold_ratio * self.n:
            self.resample()
            return True
        return False

    def resample(self) -> None:
        """Systematic (low-variance) resampling."""
        positions = (self.rng.uniform() + np.arange(self.n)) / self.n
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions)
        self.states = self.states[idx].copy()
        self.weights[:] = 1.0 / self.n

    # ------------------------------------------------------------------
    def estimate(self) -> SE2:
        """Weighted mean pose (circular mean for heading)."""
        w = self.weights
        x = float(np.sum(w * self.states[:, 0]))
        y = float(np.sum(w * self.states[:, 1]))
        s = float(np.sum(w * np.sin(self.states[:, 2])))
        c = float(np.sum(w * np.cos(self.states[:, 2])))
        return SE2(x, y, float(np.arctan2(s, c)))

    def covariance_xy(self) -> np.ndarray:
        mean = np.average(self.states[:, :2], axis=0, weights=self.weights)
        centred = self.states[:, :2] - mean
        return (self.weights[:, None] * centred).T @ centred

    def spread(self) -> float:
        """RMS particle distance from the weighted mean (divergence gauge)."""
        cov = self.covariance_xy()
        return float(np.sqrt(np.trace(cov)))
