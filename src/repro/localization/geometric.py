"""Geometric-strength analysis of map-feature layouts (Zheng & Wang [49]).

How well a landmark layout constrains the vehicle position is a pure
geometry question: the dilution of precision (DOP) of the measurement
Jacobian. This module computes DOP for a layout and runs Monte-Carlo
position solves to measure the error empirically — reproducing the paper's
findings that feature *count* and *distance* dominate, and that spread-out
(random) layouts beat collinear ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import LocalizationError


class LayoutPattern(enum.Enum):
    RANDOM = "random"  # uniform around the vehicle
    COLLINEAR = "collinear"  # all features along one roadside line
    CLUSTERED = "clustered"  # one tight angular cluster
    FORWARD_ARC = "forward_arc"  # spread over the forward field of view


@dataclass
class LandmarkLayout:
    """A set of landmark positions relative to the vehicle at the origin."""

    positions: np.ndarray  # (N, 2)

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])

    @staticmethod
    def generate(pattern: LayoutPattern, n: int, distance: float,
                 rng: np.random.Generator) -> "LandmarkLayout":
        if n < 2:
            raise LocalizationError("a layout needs at least 2 landmarks")
        if pattern is LayoutPattern.RANDOM:
            angles = rng.uniform(-np.pi, np.pi, n)
            radii = distance * rng.uniform(0.6, 1.4, n)
        elif pattern is LayoutPattern.COLLINEAR:
            # Roadside line parallel to travel, offset `distance` laterally.
            xs = np.linspace(-distance * 1.5, distance * 1.5, n)
            pts = np.stack([xs, np.full(n, distance)], axis=1)
            return LandmarkLayout(pts)
        elif pattern is LayoutPattern.CLUSTERED:
            centre = rng.uniform(-np.pi, np.pi)
            angles = centre + rng.normal(0.0, 0.06, n)
            radii = distance * rng.uniform(0.9, 1.1, n)
        elif pattern is LayoutPattern.FORWARD_ARC:
            angles = rng.uniform(-np.pi / 4, np.pi / 4, n)
            radii = distance * rng.uniform(0.8, 1.2, n)
        else:
            raise LocalizationError(f"unknown pattern {pattern}")
        pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        return LandmarkLayout(pts)


def solve_position(layout: LandmarkLayout, measured_ranges: np.ndarray,
                   iterations: int = 15) -> np.ndarray:
    """Least-squares position fix from ranges to known landmarks."""
    x = np.zeros(2)
    for _ in range(iterations):
        d = layout.positions - x
        r_pred = np.hypot(d[:, 0], d[:, 1])
        H = -d / np.maximum(r_pred, 1e-9)[:, None]
        residual = measured_ranges - r_pred
        delta, *_ = np.linalg.lstsq(H, residual, rcond=None)
        x = x + delta
        if float(np.abs(delta).max()) < 1e-9:
            break
    return x


def solve_positions(layout: LandmarkLayout, measured_ranges: np.ndarray,
                    iterations: int = 15) -> np.ndarray:
    """Batched Gauss-Newton position fixes for (T, N) range sets.

    Vectorized twin of :func:`solve_position`: all trials iterate together,
    each trial freezing once its own update falls below the convergence
    threshold (mirroring the scalar early ``break``). The per-iteration
    least-squares step uses the SVD pseudo-inverse, which computes the same
    minimum-norm solution ``lstsq`` does.
    """
    measured = np.asarray(measured_ranges, dtype=float)
    squeeze = measured.ndim == 1
    if squeeze:
        measured = measured[None, :]
    n_trials = measured.shape[0]
    x = np.zeros((n_trials, 2))
    active = np.ones(n_trials, dtype=bool)
    for _ in range(iterations):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        d = layout.positions[None, :, :] - x[idx, None, :]  # (t, N, 2)
        r_pred = np.hypot(d[..., 0], d[..., 1])
        H = -d / np.maximum(r_pred, 1e-9)[..., None]
        residual = measured[idx] - r_pred
        delta = np.einsum("tij,tj->ti", np.linalg.pinv(H), residual)
        x[idx] += delta
        converged = np.abs(delta).max(axis=1) < 1e-9
        active[idx[converged]] = False
    return x[0] if squeeze else x


def simulate_layout_error(layout: LandmarkLayout, range_sigma: float,
                          rng: np.random.Generator,
                          trials: int = 200) -> float:
    """Monte-Carlo RMS position error for a layout at a given range noise.

    The noise matrix is drawn in one call — ``rng.normal`` fills row-major,
    so trial ``k``'s row consumes the same stream slice the former
    per-trial draws did — and all trials solve together.
    """
    true_ranges = np.hypot(layout.positions[:, 0], layout.positions[:, 1])
    noise = rng.normal(0.0, range_sigma, size=(trials, true_ranges.size))
    estimates = solve_positions(layout, true_ranges[None, :] + noise)
    errors = np.hypot(estimates[:, 0], estimates[:, 1])
    return float(np.sqrt(np.mean(errors**2)))
